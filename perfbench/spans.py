"""Layer spans recorded from outside the package.

A span is recorded by rebinding a name in the namespace of the module that
calls it (``torusavg.engine.evaluate_array``, ``torusavg.oracle.integrate``,
the class attribute ``torusavg.engine.DiagonalJob.terms``, ...) to a timing
wrapper.  Spans are kept in memory and reduced to per-layer metrics at the
end of the run.

Parents come from a thread-local stack.  Pool threads start with an empty
stack, so their spans are parented to the ``run_chunked`` span that is open
while they run (jobs run one at a time, so at most one is open).
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

S, C = "s/round", "count/round"
EVAL_KINDS = ("frac_part", "power_of_frac", "indicator", "trig_poly",
              "piecewise_linear")


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    job: int
    t0: float
    t1: float = 0.0
    count: int = 0  # points, relation found, inapplicable, ... per span kind


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pool_parent: int | None = None

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str):
        st = self._stack()
        parent = st[-1] if st else self._pool_parent
        with self._lock:
            sp = Span(len(self.spans), name, parent, self.job, 0.0)
            self.spans.append(sp)
        st.append(sp.sid)
        sp.t0 = time.perf_counter()
        try:
            yield sp
        finally:
            sp.t1 = time.perf_counter()
            st.pop()

    def wrap(self, name, fn, on_call=None, on_result=None):
        """Timing wrapper; ``on_call(span, args, kwargs)`` and
        ``on_result(span, result)`` fill in the span's count."""
        def wrapper(*args, **kwargs):
            with self.span(name if isinstance(name, str) else name(args)) as sp:
                if on_call is not None:
                    on_call(sp, args, kwargs)
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(sp, result)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def run_chunked(self, fn):
        def wrapper(job, workers=1, *args, **kwargs):
            with self.span("engine.run_chunked") as sp:
                sp.count = workers
                self._pool_parent = sp.sid
                try:
                    return fn(job, workers, *args, **kwargs)
                finally:
                    self._pool_parent = None
        wrapper.__wrapped__ = fn
        return wrapper


def _set_count(value):
    def on_result(sp, result):
        sp.count = value(result)
    return on_result


def _hooks(tr: Tracer, torusavg):
    """(owner, attribute, wrapper factory) for every layer boundary."""
    cli, engine, oracle, dynsys = (torusavg.cli, torusavg.engine,
                                   torusavg.oracle, torusavg.dynsys)

    def points(sp, args, kwargs):
        sp.count = args[2] - args[1]

    def eval_points(sp, args, kwargs):
        sp.count = len(args[1])

    return [
        (cli, "parse_scenario", lambda f: tr.wrap("cli.parse", f)),
        (cli, "run_scenario", lambda f: tr.wrap("cli.run", f)),
        (cli, "predict", lambda f: tr.wrap(
            "oracle.predict", f,
            on_result=_set_count(lambda p: int(not p.applicable)))),
        (oracle, "integrate", lambda f: tr.wrap("observables.integrate", f)),
        (oracle, "periodic_orbit_mean",
         lambda f: tr.wrap("observables.periodic_orbit_mean", f)),
        (oracle, "is_ergodic_rotation",
         lambda f: tr.wrap("dynsys.is_ergodic_rotation", f)),
        (dynsys, "rational_independence", lambda f: tr.wrap(
            "unitmath.rational_independence", f,
            on_result=_set_count(lambda v: int(v.status == "dependent")))),
        (engine, "run_chunked", tr.run_chunked),
        (engine.DiagonalJob, "terms",
         lambda f: tr.wrap("engine.orbit", f, on_call=points)),
        (engine.ArcJob, "terms",
         lambda f: tr.wrap("engine.arc", f, on_call=points)),
        (engine, "evaluate_array", lambda f: tr.wrap(
            lambda a: f"observables.evaluate.{a[0].kind}", f,
            on_call=eval_points)),
    ]


@contextmanager
def installed(tr: Tracer, torusavg, warn):
    """Rebind every hook for the duration of the block.  A hook whose
    target no longer exists is skipped and reported through ``warn``, so a
    refactor of the package degrades the traced run instead of breaking it."""
    saved = []
    try:
        for owner, attr, make in _hooks(tr, torusavg):
            fn = owner.__dict__.get(attr)
            if fn is None:
                warn(f"span hook {owner.__name__}.{attr} not found; skipped")
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, make(fn))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def write(spans: list[Span], path: Path) -> Path:
    """All spans as JSON lines (times in seconds of perf_counter)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        for sp in spans:
            f.write(json.dumps(dataclasses.asdict(sp)) + "\n")
    return path


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.t0, sp.t1))
    out = []
    for sp in spans:
        kids = [(max(a, sp.t0), min(b, sp.t1))
                for a, b in children.get(sp.sid, ())]
        out.append(sp.t1 - sp.t0 - _union_length(k for k in kids if k[1] > k[0]))
    return out


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per round of jobs: (value, unit) by name."""
    selfs = self_times(spans)
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    chunked_capacity = 0.0
    for sp, s in zip(spans, selfs):
        d = sp.t1 - sp.t0
        busy[sp.name] = busy.get(sp.name, 0.0) + d
        self_s[sp.name] = self_s.get(sp.name, 0.0) + s
        calls[sp.name] = calls.get(sp.name, 0) + 1
        counts[sp.name] = counts.get(sp.name, 0) + sp.count
        if sp.name == "engine.run_chunked":
            chunked_capacity += d * sp.count
    ev = [f"observables.evaluate.{k}" for k in EVAL_KINDS]
    r = float(rounds)

    def per(x):
        return x / r

    terms_busy = busy.get("engine.orbit", 0.0) + busy.get("engine.arc", 0.0)
    ri_calls = calls.get("unitmath.rational_independence", 0)
    m = {
        "engine.orbit.self_s": (per(self_s.get("engine.orbit", 0.0)), S),
        "engine.blocksum.self_s": (per(self_s.get("engine.run_chunked", 0.0)), S),
        "engine.worker_util": (terms_busy / chunked_capacity
                               if chunked_capacity else 0.0, "ratio"),
        "engine.arc.self_s": (per(self_s.get("engine.arc", 0.0)), S),
        "engine.blocks": (per(calls.get("engine.orbit", 0)
                              + calls.get("engine.arc", 0)), C),
        "engine.points": (per(counts.get("engine.orbit", 0)
                              + counts.get("engine.arc", 0)), C),
        "observables.evaluate.busy_s": (per(sum(busy.get(k, 0.0) for k in ev)), S),
    }
    for k, name in zip(EVAL_KINDS, ev):
        m[f"{name}.busy_s"] = (per(busy.get(name, 0.0)), S)
    m.update({
        "observables.evaluate.points": (per(sum(counts.get(k, 0) for k in ev)),
                                        C),
        "oracle.predict.self_s": (per(self_s.get("oracle.predict", 0.0)), S),
        "oracle.predict.calls": (per(calls.get("oracle.predict", 0)), C),
        "oracle.inapplicable": (per(counts.get("oracle.predict", 0)), C),
        "observables.integrate.busy_s": (per(busy.get("observables.integrate", 0.0)), S),
        "observables.integrate.calls": (per(calls.get("observables.integrate", 0)),
                                        C),
        "observables.periodic_orbit_mean.busy_s": (
            per(busy.get("observables.periodic_orbit_mean", 0.0)), S),
        "dynsys.is_ergodic_rotation.busy_s": (
            per(busy.get("dynsys.is_ergodic_rotation", 0.0)), S),
        "unitmath.rational_independence.busy_s": (
            per(busy.get("unitmath.rational_independence", 0.0)), S),
        "unitmath.rational_independence.calls": (per(ri_calls), C),
        "unitmath.rational_independence.found_ratio": (
            counts.get("unitmath.rational_independence", 0) / ri_calls
            if ri_calls else 0.0, "ratio"),
        "cli.parse.busy_s": (per(busy.get("cli.parse", 0.0)), S),
        "cli.run.self_s": (per(self_s.get("cli.run", 0.0)), S),
        "cli.main.self_s": (per(self_s.get("cli.main", 0.0)), S),
    })
    return m
