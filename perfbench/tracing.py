"""Span tracing installed from outside the program.

A Tracer replaces public functions of the futurecone modules with
wrappers that record one span per call: name, start, end, parent span
and request id. Modules bind their collaborators at import
(``from .lambert import solve_lambert``), so a wrapper is installed in
every module namespace that holds the function, not only in the
defining module. Spans live in flat arrays while the run lasts and are
written out once, at the end.

The program is single-threaded, so spans nest strictly: a span's self
time is its duration minus the summed durations of its direct children,
and no layer ever waits on another.
"""
from __future__ import annotations

import gzip
import inspect
import time
from array import array
from collections import defaultdict
from typing import Callable


class Tracer:
    """Span recorder and per-layer counters for one traced phase."""

    def __init__(self, modules) -> None:
        self._modules = list(modules)
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._start = array("q")
        self._end = array("q")
        self._name = array("i")
        self._parent = array("i")
        self._request = array("i")
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.enabled = False
        self.request_id = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)

    # -- installation ------------------------------------------------------

    def install(self, fn: Callable, name: str,
                observe: Callable | None = None,
                raised: Callable | None = None) -> int:
        """Wrap fn in every module namespace that binds it.

        observe(arguments, result) runs after each traced call that
        returned normally, raised(exc) after each that raised; both
        update ``counts``. ``arguments`` is a zero-argument callable
        giving the bound arguments, so hot paths that ignore them pay
        nothing.

        Returns:
            Number of namespaces patched (at least one).
        """
        wrapper = self.wrap(fn, name, observe, raised)
        patched = 0
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))
                    patched += 1
        if patched == 0:
            raise LookupError(f"{name}: no module binds {fn!r}")
        return patched

    def install_method(self, cls: type, attr: str, name: str,
                       observe: Callable | None = None) -> None:
        """Wrap a method on its class."""
        fn = vars(cls)[attr]
        setattr(cls, attr, self.wrap(fn, name, observe))
        self._undo.append((cls, attr, fn))

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def wrap(self, fn: Callable, name: str,
             observe: Callable | None = None,
             raised: Callable | None = None) -> Callable:
        """Traced version of fn; spans are recorded while enabled."""
        nid = self._name_ids.setdefault(name, len(self._names))
        if nid == len(self._names):
            self._names.append(name)
        signature = inspect.signature(fn)
        start, end = self._start, self._end
        names, parents, requests = self._name, self._parent, self._request
        stack, child_ns = self._stack, self._child_ns
        calls, busy_ns, self_ns = self.calls, self.busy_ns, self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(start)
            start.append(0)
            end.append(0)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer.request_id)
            stack.append(idx)
            child_ns.append(0)
            t0 = clock()
            start[idx] = t0
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if raised is not None:
                    raised(exc)
                raise
            finally:
                t1 = clock()
                end[idx] = t1
                stack.pop()
                kids = child_ns.pop()
                duration = t1 - t0
                if child_ns:
                    child_ns[-1] += duration
                calls[name] += 1
                busy_ns[name] += duration
                self_ns[name] += duration - kids
            if observe is not None:
                observe(lambda: _bound(signature, args, kwargs), result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- output ------------------------------------------------------------

    def parent_name(self) -> str | None:
        """Name of the innermost open span: the caller of a span that
        has just ended, when read from an observe hook."""
        if not self._stack:
            return None
        return self._names[self._name[self._stack[-1]]]

    @property
    def span_count(self) -> int:
        return len(self._start)

    def write_spans(self, path: str) -> None:
        """Write every span as gzipped tab-separated rows.

        Columns: span id, parent id (-1 for a root), request id, name,
        start and end in ns relative to the first span.
        """
        origin = self._start[0] if self._start else 0
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as out:
            out.write("span\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for i in range(len(self._start)):
                out.write(f"{i}\t{self._parent[i]}\t{self._request[i]}\t"
                          f"{self._names[self._name[i]]}\t"
                          f"{self._start[i] - origin}\t"
                          f"{self._end[i] - origin}\n")


def _bound(signature: inspect.Signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments
