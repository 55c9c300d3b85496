"""The package's one work cap: every caller-set count that sizes an array
passes one gate, which refuses it before any array of that length
exists."""
import math
import tracemalloc

import numpy as np
import pytest

from futurecone import errors, twocars
from futurecone.cone import ConeSpec, containment, sample_cone
from futurecone.constants import MU_EARTH
from futurecone.errors import WorkCapExceeded
from futurecone.kepler import StateVector
from futurecone.maneuver import (
    ThrustProfile,
    profile_impulse,
    shock_approximation,
)
from futurecone.twocars import (
    CarConfig,
    CarState,
    SteeringLaw,
    containment_equivalence,
    explicit_policy_pursuit,
    propagate_car,
)

RN = 7238.137
SPEC = ConeSpec(vertex=StateVector([RN, 0.0, 0.0],
                                   [0.0, math.sqrt(MU_EARTH / RN), 0.0], 0.0),
                budget=0.05, window=(60.0, 600.0))
CAR = CarConfig(v=1.0, R=1.0)
PURSUER = CarConfig(v=2.0, R=1.0)
ORIGIN = CarState(x=0.0, y=0.0, theta=0.0, t=0.0)
# 5 s of straight track 3 m ahead, recorded every 0.01 s
TRACK = propagate_car(CAR, CarState(x=0.0, y=3.0, theta=0.0, t=0.0),
                      SteeringLaw.constant(0.0, CAR), t=5.0, step=0.01)
# extremal poses per grid time: both cars, every extremal, its start
# pose and each segment's end
N_EXTREMALS, N_SEGMENTS = twocars._EXTREMAL_RATES.shape
POSES = 2 * N_EXTREMALS * (N_SEGMENTS + 1)


def thrust_nodes(reduce):
    """The accel calls reduce(profile, n) makes, one per thrust node."""
    def run(n: int) -> int:
        calls = []

        def push(t):
            calls.append(t)
            return np.array([1e-6, 0.0, 0.0])

        reduce(ThrustProfile(push, (0.0, 600.0)), n)
        return len(calls)
    return run


# Each gated site: its noun; a call taking the site's parameter and
# returning the elements it built under the gate; the parameter's last
# value within a cap of CAP and a value past it; and a value far past
# the package's own cap.
CAP = 100_000
SITES = {
    "sample_cone-draws": (
        "cone draws",
        lambda n: len(sample_cone(SPEC, n, seed=0).trajectories),
        CAP, CAP + 1, 10**12),
    "containment-draws": (
        "cone draws",
        lambda n: containment(SPEC, SPEC, n_target_samples=n,
                              time_grid=2).samples // 2,
        CAP, CAP + 1, 10**12),
    "containment-grid": (
        "grid times",
        lambda g: containment(SPEC, SPEC, n_target_samples=1,
                              time_grid=g).samples,
        CAP, CAP + 1, 10**12),
    "propagate_car-steps": (
        "propagation steps",
        lambda n: propagate_car(CAR, ORIGIN, SteeringLaw.constant(0.5, CAR),
                                t=1.0, step=1.0 / n).times.size - 1,
        CAP, CAP + 1, 10**300),
    # 5 s sampled at capture radius / (v1 + v2) = 5 / n; rounding can
    # put n itself a hair over. At equal speeds the chase never closes
    # the 3 m gap, so the path covers every sample of the span.
    "explicit_policy_pursuit-samples": (
        "pursuit samples",
        lambda n: explicit_policy_pursuit(
            CAR, CAR, ORIGIN, TRACK,
            capture_radius=2.0 * 5.0 / n).path.times.size - 1,
        CAP - 1, CAP + 1, 10**300),
    "containment_equivalence-poses": (
        "extremal poses",
        lambda g: POSES * containment_equivalence(
            PURSUER, CAR, horizon=10.0, headstart=2.0, time_grid=g).n_times,
        CAP // POSES, CAP // POSES + 1, 10**12),
    "shock_approximation-nodes": (
        "thrust nodes", thrust_nodes(shock_approximation),
        CAP // 8, CAP // 8 + 1, 10**12),
    "profile_impulse-nodes": (
        "thrust nodes", thrust_nodes(profile_impulse),
        CAP // 8, CAP // 8 + 1, 10**12),
}


@pytest.mark.parametrize("site", SITES)
def test_capped_before_allocation(monkeypatch, site):
    noun, run, fits, over, far = SITES[site]

    def refusal(cap: int) -> str:
        return f"^{noun}: [0-9.e+]+ requested, capped at {cap}$"

    with pytest.raises(WorkCapExceeded, match=refusal(10**7)):
        run(far)
    monkeypatch.setattr(errors, "_WORK_CAP", CAP)
    # no site's parameter steps by more than POSES elements (one grid
    # time of extremal poses), so its last value within the cap is close
    assert CAP - POSES < run(fits) <= CAP
    tracemalloc.start()
    try:
        with pytest.raises(WorkCapExceeded, match=refusal(CAP)):
            run(over)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one array of CAP floats would already be 8 * CAP bytes
    assert peak < CAP
