"""Future cones: attainable-set construction and the containment verdict.

A future cone is the set of spacetime points a maneuvering body can reach
within a time window given a total delta-v allowance. A single burn at
the cone vertex spans the whole cone, so the cone is realized two ways
that meet in the middle: Monte Carlo sampling (one random burn per
trajectory, propagated ballistically) renders it, and Lambert targeting
(minimum delta-v over connecting arcs) decides membership of any point.
Guaranteed intercept is cone containment: if every point the target can
reach lies inside the interceptor's cone, the interceptor can stand on a
commitment to meet the target wherever it goes.

Containment is batched: the target's sampled arcs are held as arrays
(kepler.ArcBatch), and the draws x grid times are tested in chunks of at
most _CHUNK_POINTS points. Each chunk takes its leaf positions from one
vectorized Kepler solve on one conic per target arc (the position half
of the Lagrange step; no velocity is flown), its connecting arcs
from one lambert_batch call, its floor check in closed form from the
eccentric anomaly at each arc's two ends (kepler.arc_min_radius), and
each point's cheapest admissible arc from one minimum over the arcs.
membership and leaf are batches of one on the same kernels;
reduce_to_single_burn is one row of the same pricing (_burn_costs), held
to its chain's floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_FLOOR_KM, EARTH_RADIUS_KM, MU_EARTH
from .errors import (
    AmbiguousPlane,
    EmptyCone,
    EmptyOverlap,
    NoBoundArc,
    _check_floor,
    _check_work,
)
from .kepler import (
    ArcBatch,
    StateVector,
    _as_vec3,
    _positions_at,
    _row_norm,
    arc_min_radius,
    arcs_from_states,
    is_bound,
)
from .lambert import lambert_batch
from .maneuver import ImpulsiveTrajectory

# Absolute slack on delta-v comparisons, km/s. Lambert velocity recovery
# carries round-off near 1e-14; without slack a coasting point can fail
# membership in its own zero-budget cone.
_DV_SLACK = 1e-12
# Target points per containment chunk: bounds the kernels' working
# arrays (a few MB) whatever the sample count and grid. The CLI process
# keeps that working set mapped between chunks and requests
# (cli._keep_heap_mapped); under glibc's defaults each chunk faults it
# in again.
_CHUNK_POINTS = 16384


@dataclass(frozen=True)
class ConeSpec:
    """Vertex, allowance, window, and floor defining one future cone.

    Construction errors are ValueErrors whose message starts with the
    offending field: budget, window, vertex, floor, or mu.

    Attributes:
        vertex: State at the cone vertex (epoch t0).
        budget: Total delta-v allowance, km/s.
        window: (t1, t2) reachability window, s, finite, with
            t0 <= t1 < t2.
        floor: Altitude floor, km above the spherical surface.
        mu: Gravitational parameter, km^3/s^2.
    """

    vertex: StateVector
    budget: float
    window: tuple[float, float]
    floor: float = DEFAULT_FLOOR_KM
    mu: float = MU_EARTH

    def __post_init__(self):
        object.__setattr__(self, "budget", float(self.budget))
        a, b = self.window
        object.__setattr__(self, "window", (float(a), float(b)))
        object.__setattr__(self, "floor", float(self.floor))
        object.__setattr__(self, "mu", float(self.mu))
        if not 0.0 <= self.budget < math.inf:
            raise ValueError(
                f"budget must be finite and nonnegative, got {self.budget}")
        _check_floor(self.floor)
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        t1, t2 = self.window
        if not (math.isfinite(t1) and math.isfinite(t2)):
            raise ValueError(f"window must be finite, got ({t1}, {t2})")
        if not t1 < t2:
            raise ValueError(f"window: t2 must exceed t1, got ({t1}, {t2})")
        if not self.vertex.t <= t1:
            raise ValueError(
                f"window must start at or after the vertex epoch "
                f"{self.vertex.t}, got ({t1}, {t2})")
        floor_radius = EARTH_RADIUS_KM + self.floor
        radius = float(_row_norm(self.vertex.r))
        if radius < floor_radius:
            raise ValueError(
                f"vertex radius {radius!r} km is below the floor radius "
                f"{floor_radius!r} km")


@dataclass(frozen=True, eq=False)
class ConeSampleSet:
    """Monte Carlo rendering of a cone: one single-burn trajectory per draw.

    Attributes:
        spec: The generating cone.
        trajectories: Post-burn ballistic arcs, one ArcBatch row per
            retained draw.

    Leaves are taken at the times a caller asks for (``leaf``).
    """

    spec: ConeSpec
    trajectories: ArcBatch


@dataclass(frozen=True)
class MembershipResult:
    """Verdict for one spacetime point against a cone.

    Attributes:
        member: Whether the point is reachable within budget and floor.
        required_dv: Minimum delta-v over admissible connecting arcs,
            km/s; +inf when none exists.
        margin: budget - required_dv, km/s.
        solutions_checked: Connecting arcs examined.
    """

    member: bool
    required_dv: float
    margin: float
    solutions_checked: int


@dataclass(frozen=True, eq=False)
class ContainmentReport:
    """Sampled verdict on target-cone containment in an interceptor cone.

    Attributes:
        contained: True when every tested target point was a member.
        fraction_contained: Member fraction over tested points.
        worst_margin: Smallest membership margin seen, km/s.
        worst_point: (position, time) achieving worst_margin.
        samples: Spacetime points tested.
        window_tested: Overlap window the grid spanned, s.
    """

    contained: bool
    fraction_contained: float
    worst_margin: float
    worst_point: tuple[np.ndarray, float]
    samples: int
    window_tested: tuple[float, float]

    def __post_init__(self):
        r, t = self.worst_point
        r = np.asarray(r, dtype=float)
        r.setflags(write=False)
        object.__setattr__(self, "worst_point", (r, float(t)))
        a, b = self.window_tested
        object.__setattr__(self, "window_tested", (float(a), float(b)))


def _ball_points(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """n points uniform in the closed ball of the given radius."""
    raw = rng.normal(size=(n, 3))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    directions = raw / norms
    radii = radius * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / 3.0)
    return directions * radii


def sample_cone(spec: ConeSpec, n: int, seed: int) -> ConeSampleSet:
    """Monte Carlo cone rendering: n single burns at the vertex.

    Burn vectors are drawn uniformly in the closed ball of radius budget
    and applied at the vertex epoch; each retained trajectory is the
    resulting ballistic arc. Draws producing unbound orbits are dropped.

    Args:
        spec: Cone to sample.
        n: Number of draws, >= 1.
        seed: RNG seed; fixed seed gives identical sets.

    Raises:
        ValueError: n < 1, or a negative seed.
        WorkCapExceeded: n above the package's cap, refused before any
            array of that length exists.
        EmptyCone: no draw produced a bound trajectory.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    _check_work(n, "cone draws")
    rng = np.random.default_rng(seed)
    v = spec.vertex.v + _ball_points(rng, n, spec.budget)
    v = v[is_bound(spec.vertex.r, v, spec.mu)]
    if not len(v):
        raise EmptyCone(
            f"no bound trajectory among {n} draws at budget "
            f"{spec.budget!r} km/s")
    arcs = arcs_from_states(spec.vertex.r, v, spec.vertex.t, spec.mu)
    return ConeSampleSet(spec=spec, trajectories=arcs)


def leaf(sample_set: ConeSampleSet, t: float) -> np.ndarray:
    """Cross-section of a sampled cone at time t.

    Positions of every retained trajectory at t via exact propagation,
    with below-floor points excluded (the rendered cone is truncated at
    the altitude floor).

    Args:
        sample_set: Sampled cone.
        t: Query time, s; vertex epoch through window end.

    Returns:
        Array of shape (m, 3), m <= number of trajectories.

    Raises:
        ValueError: t outside [vertex epoch, window end].
    """
    spec = sample_set.spec
    if not spec.vertex.t <= t <= spec.window[1]:
        raise ValueError(
            f"t={t} outside [{spec.vertex.t}, {spec.window[1]}]")
    points = _positions_at(sample_set.trajectories, t)
    keep = _row_norm(points) >= EARTH_RADIUS_KM + spec.floor
    return points[keep]


def membership(spec: ConeSpec, point, t: float,
               max_revs: int = 1) -> MembershipResult:
    """Decide whether a spacetime point lies in a cone.

    Solves the two-point boundary problem from the vertex to the point
    over t - t0 and takes the cheapest connecting arc that stays above
    the altitude floor the whole way. Membership is that cost against
    the budget. The batch of one of containment's kernel.

    Args:
        spec: Cone to test against.
        point: Position, km (3 components).
        t: Arrival time, s; inside the window and after the vertex epoch.
        max_revs: Revolution cap for the connecting-arc search.

    Returns:
        MembershipResult; required_dv = +inf when no admissible arc
        exists (member False).

    Raises:
        ValueError: point not 3 finite components; t outside the window
            or not after the vertex epoch.
        AmbiguousPlane: degenerate transfer geometry, with context.
    """
    point = _as_vec3(point, "point")
    t1, t2 = spec.window
    if not (t1 <= t <= t2) or not t > spec.vertex.t:
        raise ValueError(
            f"t={t} must lie in the window [{t1}, {t2}] and after the "
            f"vertex epoch {spec.vertex.t}")
    required, checked = _required_dv(spec, point[None], np.array([t]),
                                     max_revs)
    required = float(required[0])
    return MembershipResult(member=required <= spec.budget + _DV_SLACK,
                            required_dv=required,
                            margin=spec.budget - required,
                            solutions_checked=int(checked[0]))


def _burn_costs(vertex: StateVector, points: np.ndarray, times: np.ndarray,
                mu: float, floor: float, max_revs: int):
    """Every connecting arc from vertex to each point at its time, by one
    lambert_batch: (row of its point, departure burn, cost) per arc. The
    cost is the burn's |dv|, or +inf for an arc that dips below the
    altitude floor (the closed-form kepler.arc_min_radius)."""
    sols = lambert_batch(vertex.r, points, times - vertex.t, mu, max_revs)
    lowest = arc_min_radius(vertex.r, sols.v_depart,
                            points.take(sols.row, axis=0), sols.v_arrive,
                            sols.revs[sols.slot], mu)
    dv = sols.v_depart - vertex.v
    cost = np.where(lowest >= EARTH_RADIUS_KM + floor, _row_norm(dv), np.inf)
    return sols.row, dv, cost


def _required_dv(spec: ConeSpec, points: np.ndarray, times: np.ndarray,
                 max_revs: int) -> tuple[np.ndarray, np.ndarray]:
    """Cheapest admissible departure burn from the vertex to each point:
    the least _burn_costs cost over its arcs, +inf where none is.

    Returns:
        (required dv per row, km/s; connecting arcs examined per row).

    Raises:
        AmbiguousPlane: degenerate transfer geometry, naming the query
            time of the first such row.
    """
    try:
        row, _, cost = _burn_costs(spec.vertex, points, times, spec.mu,
                                   spec.floor, max_revs)
    except AmbiguousPlane as exc:
        raise AmbiguousPlane(
            f"membership query at t={float(times[exc.row])}: {exc}",
            row=exc.row) from exc
    required = np.full(len(points), np.inf)
    np.minimum.at(required, row, cost)
    return required, np.bincount(row, minlength=len(points))


def containment(interceptor: ConeSpec, target: ConeSpec,
                n_target_samples: int = 2000, time_grid: int = 51,
                seed: int = 0, max_revs: int = 1) -> ContainmentReport:
    """Sampled test of target-cone containment in an interceptor cone.

    Renders the target cone by Monte Carlo, then tests membership of
    every sampled target position at every grid time over the window
    overlap against the interceptor spec, in array chunks. Contained
    means every tested point was a member: the interceptor can guarantee
    interception against every vertex burn within the target's allowance.
    A later burn can reach further: past about a quarter period, a late
    shock needs about 1/sin(n t) times its size as a vertex burn (n the
    mean motion, t the time from the vertex; ``reduce_to_single_burn``).

    Args:
        interceptor: Cone that must contain the other.
        target: Cone to be contained.
        n_target_samples: Target trajectory draws.
        time_grid: Grid points over the window overlap.
        seed: Target sampling seed.
        max_revs: Revolution cap passed to membership.

    Returns:
        ContainmentReport with the worst margin and its location.

    Raises:
        EmptyOverlap: the windows do not intersect.
        ValueError: time_grid below 1, then n_target_samples below 1,
            then a negative seed.
        WorkCapExceeded: time_grid, then n_target_samples, above the
            package's cap; both are refused before sampling.
        EmptyCone: target sampling or floor truncation left nothing to
            test.
    """
    lo = max(interceptor.window[0], target.window[0])
    hi = min(interceptor.window[1], target.window[1])
    if not lo < hi:
        raise EmptyOverlap(
            f"interceptor window {interceptor.window} and target window "
            f"{target.window} do not overlap")
    if time_grid < 1:
        raise ValueError(f"time_grid must be >= 1, got {time_grid}")
    _check_work(time_grid, "grid times")
    arcs = sample_cone(target, n_target_samples, seed).trajectories
    grid = np.linspace(lo, hi, time_grid)
    # membership is undefined at or before the vertex epoch
    times = grid[grid > interceptor.vertex.t]
    floor_radius = EARTH_RADIUS_KM + target.floor
    tested = 0
    members = 0
    worst_margin = math.inf
    worst_point = (interceptor.vertex.r, grid[0])
    # points in grid-time order, draws within a time: the worst point is
    # the first one reaching the lowest margin in that order
    total = times.size * len(arcs)
    for start in range(0, total, _CHUNK_POINTS):
        flat = np.arange(start, min(start + _CHUNK_POINTS, total))
        t = times[flat // len(arcs)]
        points = _positions_at(arcs, t, flat % len(arcs))
        above = _row_norm(points) >= floor_radius
        points, t = points[above], t[above]
        if not t.size:
            continue
        required, _ = _required_dv(interceptor, points, t, max_revs)
        margin = interceptor.budget - required
        tested += t.size
        members += int(np.count_nonzero(
            required <= interceptor.budget + _DV_SLACK))
        i = int(np.argmin(margin))
        if margin[i] < worst_margin:
            worst_margin = float(margin[i])
            worst_point = (points[i].copy(), float(t[i]))
    if tested == 0:
        raise EmptyCone(
            "no testable target points: every grid sample fell below the "
            "floor or before the interceptor vertex epoch")
    fraction = members / tested
    return ContainmentReport(contained=(members == tested),
                             fraction_contained=fraction,
                             worst_margin=worst_margin,
                             worst_point=worst_point,
                             samples=tested,
                             window_tested=(lo, hi))


def reduce_to_single_burn(traj: ImpulsiveTrajectory,
                          max_revs: int = 1) -> np.ndarray:
    """Equivalent single burn at the origin for a multi-shock trajectory.

    Takes the cheapest departure burn over the arcs from the origin to
    the endpoint that stay above the chain's altitude floor (traj.floor;
    one _burn_costs row, priced as membership prices a burn) and
    requires it to cost no more than the schedule spent. The chain adds
    no reach over vertex burns only up to about a quarter period: past
    it, a late shock can need about 1/sin(n t_end) times its size at the
    vertex (n the mean motion), and NoBoundArc is raised.

    Args:
        traj: Propagated shock trajectory.
        max_revs: Revolution cap for the connecting-arc search.

    Returns:
        dv0 vector, km/s, with |dv0| <= schedule total + 1e-6.

    Raises:
        NoBoundArc: the rev-capped search found no arc above the floor,
            or none within the schedule total (reported, never silently
            dropped).
    """
    origin = traj.origin
    dt = traj.t_end - origin.t
    _, dv, cost = _burn_costs(origin, traj.state_at(traj.t_end).r[None],
                              np.array([traj.t_end]), traj.arcs.mu,
                              traj.floor, max_revs)
    if not np.isfinite(cost).any():
        dips = (f" stays above the floor radius "
                f"{EARTH_RADIUS_KM + traj.floor!r} km" if len(cost) else "")
        raise NoBoundArc(
            f"no bound arc from origin to endpoint over {dt!r} s at "
            f"max_revs={max_revs}{dips}")
    i = int(np.argmin(cost))
    total = traj.schedule.total_dv
    if cost[i] > total + 1e-6:
        raise NoBoundArc(
            f"cheapest single burn {float(cost[i])!r} km/s exceeds the "
            f"schedule total {total!r} km/s at max_revs={max_revs}")
    return dv[i]
