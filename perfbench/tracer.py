"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``rssd`` modules from outside the
package.  Modules import each other with ``from .x import y`` and look ``y``
up in their own namespace, so a function is replaced in every ``rssd``
module that holds it (``rssd.vgap.eval_response``, ``rssd.margins.linf_norm``,
``rssd.nn_rssd.j1_fitness``, ...), and restored when tracing ends.

A span is (id, parent, name, thread, start, end).  Spans stay in memory until
the benchmark writes them out.  A span's self time is its duration minus the
part of it covered by its child spans.  Worker threads of the CLI's pool
start with an empty stack; their spans take the enclosing CLI command span as
parent, so every span of one command shares that command as its root.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float


class Recorder:
    """Thread-safe in-memory span and counter store for one traced pass."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root = None
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (span name, exception type) -> n
        self.inner_best: list[float] = []  # best J2 per inner GA, in call order

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def depth(self, name: str) -> int:
        """Number of spans called ``name`` open on this thread."""
        return sum(open_name == name for _, open_name in self._stack())

    def add(self, key: str, value=1):
        with self._lock:
            self.counts[key] += value

    def add_inner_best(self, j2: float):
        with self._lock:
            self.inner_best.append(j2)

    @contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._stack()
        parent = stack[-1][0] if stack else self._root
        with self._lock:
            sid = next(self._ids)
        if root:
            self._root = sid
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield sid
        except Exception as exc:
            with self._lock:
                self.errors[(name, type(exc).__name__)] += 1
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._root = None
            with self._lock:
                self.spans.append(Span(sid, parent, name, threading.get_ident(),
                                       start, end))

    def write(self, path):
        """Spans as JSON lines, in start order."""
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(s.__dict__) + "\n")


# --- what is wrapped, and what each wrapper counts -------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(rec, args, kwargs, result):
    import numpy as np
    rec.add("lti.eval_response.points",
            np.asarray(_arg(args, kwargs, 1, "s_values")).size)


def _rejects(rec, args, kwargs, result):
    if not result.passed:
        rec.add("scp.check_constraints.rejects")


def _penalized(rec, args, kwargs, result):
    if result[1] is None:
        rec.add("nn_rssd.j2_fitness.penalized")


def _steps(rec, args, kwargs, result):
    import numpy as np
    rec.add("sim.simulate.steps",
            int(np.count_nonzero(np.isfinite(result.outputs[:, 0]))) - 1)


def _rows(rec, args, kwargs, result):
    columns = _arg(args, kwargs, 2, "columns")
    rec.add("fileio.write_csv.rows", len(columns[0]) if len(columns) else 0)


def _grid_peak_call(rec, fn, args, kwargs):
    """Count the off-grid points the golden-section refinement evaluates."""
    f_batch, grid = args[0], args[1]
    evaluated = [0]

    def counted(omegas):
        evaluated[0] += len(omegas)
        return f_batch(omegas)

    result = fn(counted, *args[1:], **kwargs)
    rec.add("sweep.grid_peak.refine_points", evaluated[0] - grid.points.size)
    return result


def _ga_call(rec, fn, args, kwargs):
    """Count evaluations and generations of the outer or the inner GA."""
    # runs inside its own span: a second open ga_minimize is the outer GA
    level = "inner" if rec.depth("nn_rssd.ga_minimize") > 1 else "outer"
    fitness = args[0]

    def counted(genes):
        rec.add(f"nn_rssd.{level}.evals")
        return fitness(genes)

    result = fn(counted, *args[1:], **kwargs)
    rec.add(f"nn_rssd.{level}.generations", result.generations)
    if level == "inner":
        rec.add("nn_rssd.inner.invocations")
        rec.add_inner_best(float(result.best_fitness))
    return result


# (module, function, call hook, result hook).  A call hook runs the function
# itself (to wrap a callback argument); a result hook inspects its result.
TARGETS = (
    ("lti", "eval_response", None, _points),
    ("lti", "augment_plant", None, None),
    ("sweep", "grid_peak", _grid_peak_call, None),
    ("vgap", "central_plant", None, None),
    ("vgap", "nu_gap", None, None),
    ("vgap", "winding_number_det", None, None),
    ("scp", "check_constraints", None, _rejects),
    ("scp", "j1_fitness", None, None),
    ("eigassign", "allowable_subspace", None, None),
    ("eigassign", "select_vectors", None, None),
    ("eigassign", "compute_gain", None, None),
    ("margins", "linf_norm", None, None),
    ("margins", "closed_loop", None, None),
    ("margins", "disk_margin", None, None),
    ("margins", "sensitivity_curves", None, None),
    ("margins", "uncertainty_bounds", None, None),
    ("nn_rssd", "ga_minimize", _ga_call, None),
    ("nn_rssd", "j2_fitness", None, _penalized),
    ("nn_rssd", "verify_lemma", None, None),
    ("sim", "simulate", None, _steps),
    ("fileio", "write_csv", None, _rows),
)

# Spans that only run where a controller is analysed or simulated.
CONTROLLER_ONLY = {
    "margins.disk_margin", "margins.sensitivity_curves",
    "margins.uncertainty_bounds", "nn_rssd.verify_lemma", "sim.simulate",
    "fileio.write_csv",
}


def expected_spans(has_controller: bool) -> list[str]:
    """Wrapped names that must be hit on a workload (no silent zero count)."""
    names = [f"{mod}.{fn}" for mod, fn, _, _ in TARGETS]
    return [n for n in names if has_controller or n not in CONTROLLER_ONLY]


def _wrap(rec: Recorder, name: str, fn, call_hook, result_hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with rec.span(name):
            if call_hook is not None:
                result = call_hook(rec, fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
        if result_hook is not None:
            result_hook(rec, args, kwargs, result)
        return result

    return traced


@contextmanager
def tracing(rec: Recorder):
    """Install wrappers for every TARGETS function; restore them on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "rssd" or name.startswith("rssd."))]
    patched = []
    try:
        for mod, fn_name, call_hook, result_hook in TARGETS:
            original = getattr(sys.modules[f"rssd.{mod}"], fn_name)
            wrapper = _wrap(rec, f"{mod}.{fn_name}", original, call_hook,
                            result_hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        yield rec
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# --- per-layer numbers from one traced pass --------------------------------

def _self_times(spans: list[Span]) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, edge = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_numbers(rec: Recorder) -> dict[str, float]:
    """Per-span-name calls, total s, self s and median ms, plus the counters."""
    self_s = _self_times(rec.spans)
    by_name = defaultdict(list)
    for s in rec.spans:
        by_name[s.name].append(s)
    out: dict[str, float] = {}
    for name, spans in by_name.items():
        durations = [s.end - s.start for s in spans]
        out[f"{name}.calls"] = len(spans)
        out[f"{name}.s"] = sum(durations)
        out[f"{name}.self_s"] = sum(self_s[s.id] for s in spans)
        out[f"{name}.ms_p50"] = 1e3 * statistics.median(durations)
    out.update(rec.counts)
    for (name, exc_type), n in rec.errors.items():
        out[f"{name}.raised.{exc_type}"] = n
    return out
