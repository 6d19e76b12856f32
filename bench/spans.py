"""In-memory span recorder for the traced benchmark run, and the wrappers that feed it.

The wrappers are installed from outside the package: every public function a
layer module imports from another layer module is replaced, in the namespace
of the module that calls it, by a wrapper that records a span named
``<callee layer>.<function>``. So ``rigidity.energy.main_inequality`` and
``rigidity.verify.main_inequality`` both record ``inequalities.main_inequality``,
and calls inside one module stay unwrapped: their time is the caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

# Modules of src/rigidity/ that do work; defaults and errors hold constants and types.
LAYERS = ("sampling", "spectral", "inequalities", "curvature", "surfaces", "energy", "verify", "cli")

# Calls into inequalities that return a verdict, counted by inequalities.verdicts.
VERDICTS = ("newton_gap", "prop_p3", "prop_p4", "cubic_bound", "main_inequality",
            "sigma_norm_identities", "lambda_scan")

REQUEST = "bench.request"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: int


class SpanRecorder:
    """Thread-safe span store; each thread keeps its own stack of open spans.

    A span opened on a thread with no open span (a verify pool worker) takes
    as parent the innermost open span of the client thread, which is the
    campaign span that is waiting for the worker.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._client: list[int] = []
        self.run = -1
        self.spans: list[Span] = []
        self.chart_evals: Counter = Counter()
        self.operators: defaultdict = defaultdict(set)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int | None]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            client = self._client
            parent = client[-1] if client else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack: list[int], sid: int, parent: int | None, name: str,
               start: float, end: float) -> None:
        stack.pop()
        span = Span(sid, name, start, end, parent, threading.get_ident(), self.run)
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stack, sid, parent, name, start, time.perf_counter())
        return traced

    @contextlib.contextmanager
    def request(self, run: int):
        """Root span of one closed-loop request; every span inside carries ``run``."""
        self.run = run
        self._client = self._stack()
        stack, sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(stack, sid, parent, REQUEST, start, time.perf_counter())

    def count_chart(self) -> None:
        with self._lock:
            self.chart_evals[self.run] += 1

    def observe_operator(self, a) -> None:
        key = a.entries.tobytes()
        with self._lock:
            self.operators[self.run].add(key)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tthread\trun\n")
            for s in self.spans:
                fh.write(f"{s.id}\t{s.name}\t{s.start!r}\t{s.end!r}\t"
                         f"{'' if s.parent is None else s.parent}\t{s.thread}\t{s.run}\n")


@contextlib.contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every cross-layer call of the rigidity package for the duration of the block."""
    patches = []
    for caller in LAYERS:
        module = importlib.import_module(f"rigidity.{caller}")
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            owner, _, layer = value.__module__.rpartition(".")
            if owner != "rigidity" or layer == caller or layer not in LAYERS:
                continue
            wrapped = recorder.wrap(f"{layer}.{attr}", value)
            if (caller, attr) == ("energy", "main_inequality"):
                wrapped = _observing(recorder, wrapped)
            patches.append((module, attr, value))
            setattr(module, attr, wrapped)
    # ellipsoid_chart is called from inside surfaces; wrapping the chart it
    # returns counts every chart evaluation of build_ellipsoid.
    surfaces = importlib.import_module("rigidity.surfaces")
    original_chart = surfaces.ellipsoid_chart

    def counted_ellipsoid_chart(semi_axes):
        chart, domain = original_chart(semi_axes)

        def counted(u):
            recorder.count_chart()
            return chart(u)
        return counted, domain

    patches.append((surfaces, "ellipsoid_chart", original_chart))
    surfaces.ellipsoid_chart = counted_ellipsoid_chart
    try:
        yield
    finally:
        for module, attr, value in reversed(patches):
            setattr(module, attr, value)


def _observing(recorder: SpanRecorder, wrapped):
    # Records which operators energy hands to main_inequality, so distinct
    # operators over calls (energy.useful_eval_ratio) is measured where the work
    # happens. The copy of the entries, about a microsecond per call, falls
    # outside the callee's span and so into rotational_energy's self time.
    @functools.wraps(wrapped)
    def observed(a, *args, **kwargs):
        recorder.observe_operator(a)
        return wrapped(a, *args, **kwargs)
    return observed


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its children cover.

    Children on other threads may overlap one another, so coverage is the
    length of the union of the children's intervals, clipped to the parent.
    """
    children: defaultdict = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.id] = (s.end - s.start) - covered
    return out


def request_layers(spans: list[Span], own: dict[int, float]) -> dict[str, float]:
    """Per-layer counts and self times of one request's spans."""
    names = {s.id: s.name for s in spans}
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    energy_verdicts = 0
    for s in spans:
        layer = s.name.partition(".")[0]
        calls[s.name] += 1
        self_s[s.name] += own[s.id]
        self_s[layer] += own[s.id]
        if s.name == "inequalities.main_inequality" and names.get(s.parent, "").startswith("energy."):
            energy_verdicts += 1
    spectral = ("eigen_spectrum", "symfun_from_spectrum", "symfun_from_power_sums",
                "norms", "trace_free_project")
    out = {
        "sampling.calls": float(sum(n for name, n in calls.items() if name.startswith("sampling."))),
        "sampling.self_s": self_s["sampling"],
        "spectral.eigen_spectrum.calls": float(calls["spectral.eigen_spectrum"]),
    }
    for fn in spectral:
        out[f"spectral.{fn}.self_s"] = self_s[f"spectral.{fn}"]
    out.update({
        "inequalities.verdicts": float(sum(calls[f"inequalities.{fn}"] for fn in VERDICTS)),
        "inequalities.self_s": self_s["inequalities"],
        "inequalities.main_inequality.self_s": self_s["inequalities.main_inequality"],
        "curvature.kn_identity_suite.calls": float(calls["curvature.kn_identity_suite"]),
        "curvature.kn_identity_suite.self_s": self_s["curvature.kn_identity_suite"],
        "verify.self_s": self_s["verify"],
        "surfaces.build_catenoid.self_s": self_s["surfaces.build_catenoid"],
        "surfaces.build_ellipsoid.self_s": self_s["surfaces.build_ellipsoid"],
        "surfaces.save_field.self_s": self_s["surfaces.save_field"],
        "surfaces.ingest_field.self_s": self_s["surfaces.ingest_field"],
        "energy.rotational_energy.self_s": self_s["energy.rotational_energy"],
        "energy.main_inequality.calls": float(energy_verdicts),
        "cli.self_s": self_s["cli"],
    })
    return out
