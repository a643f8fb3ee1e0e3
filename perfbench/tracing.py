"""Spans around the layers of a solve, recorded from outside the program.

``traced`` replaces the module attributes the solver resolves at call time
(``subspace.newton_direction``, ``jordan.quad_rep``, ...) with wrappers that
record a span per call: name, start, end, parent span and solve id.  The
LAPACK entry points ``numpy.linalg.eigh``/``eigvalsh`` are wrapped to count
calls only.  Spans stay in flat arrays in memory until the run ends.

A span's self time is its duration minus the time its child spans cover.
Every span belongs to the phase of its top-level ancestor: the tracker call
(``solver.shortstep``/``solver.longstep``) or ``subspace.feasible_point``.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

from geoipm import geometry, jordan, solver, subspace

SPANS = (
    (solver, "solver", ("shortstep", "longstep", "center")),
    (subspace, "subspace", ("newton_direction", "mu_candidates", "feasible_point")),
    (geometry, "geometry", ("ray", "geodesic_point")),
    (jordan, "jordan", ("quad_rep", "spectral_map", "spectral_map_multi", "sqrt", "exp",
                        "eigenvalues", "is_interior")),
)
COUNTED = ((np.linalg, "numpy.linalg", ("eigh", "eigvalsh")),)

TRACKERS = ("solver.shortstep", "solver.longstep")
SPECTRAL = ("jordan.spectral_map", "jordan.spectral_map_multi", "jordan.sqrt", "jordan.exp",
            "jordan.eigenvalues", "jordan.is_interior")


class Tracer:
    """In-memory span and call-count store; records only inside a solve."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.solve = array("i")
        self.call_name = array("i")  # counted calls: name and enclosing span
        self.call_span = array("i")
        self._stack: list[int] = []
        self._solve = -1
        self._recording = False

    def begin_solve(self) -> None:
        self._solve += 1
        self._recording = True

    def end_solve(self) -> None:
        self._recording = False

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def span(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            i = len(self.span_name)
            self.span_name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.solve.append(self._solve)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                stack.pop()

        return wrapped

    def counter(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self._recording:
                self.call_name.append(nid)
                self.call_span.append(stack[-1] if stack else -1)
            return fn(*args, **kwargs)

        return wrapped

    def save(self, path) -> None:
        """Write the spans and counted calls (``.npz``; times relative to the first span)."""
        start = np.frombuffer(self.start, dtype=float)
        t0 = start[0] if start.size else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            start=start - t0,
            end=np.frombuffer(self.end, dtype=float) - t0,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            solve=np.frombuffer(self.solve, dtype=np.int32),
            call_name=np.frombuffer(self.call_name, dtype=np.int32),
            call_span=np.frombuffer(self.call_span, dtype=np.int32),
        )


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for module, prefix, attrs in SPANS:
            for attr in attrs:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, tracer.span(f"{prefix}.{attr}", fn))
        for module, prefix, attrs in COUNTED:
            for attr in attrs:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, tracer.counter(f"{prefix}.{attr}", fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class Profile:
    """Per-span-name aggregates over the tracker phase of each solve."""

    def __init__(self, tracer: Tracer):
        names = np.array(tracer.names)
        span_name = np.frombuffer(tracer.span_name, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        dur = np.frombuffer(tracer.end, dtype=float) - np.frombuffer(tracer.start, dtype=float)
        n = span_name.size
        inner = parent >= 0
        self_time = dur - np.bincount(parent[inner], weights=dur[inner], minlength=n)
        # top-level ancestor by pointer jumping (parents precede children)
        top = np.where(inner, parent, np.arange(n))
        while True:
            nxt = top[top]
            if np.array_equal(nxt, top):
                break
            top = nxt
        track = np.isin(names[span_name[top]], TRACKERS)
        self._name = names[span_name]
        self._solve = np.frombuffer(tracer.solve, dtype=np.int32)
        self._track = track
        self._dur = dur
        self._self = self_time
        call_span = np.frombuffer(tracer.call_span, dtype=np.int32)
        enclosing = np.maximum(call_span, 0)
        self._call_name = names[np.frombuffer(tracer.call_name, dtype=np.int32)]
        self._call_solve = self._solve[enclosing]
        self._call_track = (call_span >= 0) & track[enclosing]

    def _mask(self, names, track=True, solves=None):
        m = np.isin(self._name, names)
        if track:
            m &= self._track
        if solves is not None:
            m &= np.isin(self._solve, solves)
        return m

    def calls(self, *names, track=True, solves=None) -> int:
        return int(self._mask(names, track, solves).sum())

    def self_s(self, *names, track=True) -> float:
        return float(self._self[self._mask(names, track)].sum())

    def total_s(self, *names, track=True) -> float:
        return float(self._dur[self._mask(names, track)].sum())

    def lapack_calls(self, name: str, solves=None) -> int:
        m = (self._call_name == name) & self._call_track
        if solves is not None:
            m &= np.isin(self._call_solve, solves)
        return int(m.sum())
