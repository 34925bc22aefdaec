"""Spans around rototrap's public functions, recorded from outside the library.

``Tracer.install`` replaces each listed function by a wrapper in every
rototrap namespace that holds it (the defining module, the package, and
each module that did ``from .x import y``), and ``uninstall`` puts the
originals back. A wrapper records a span (id, name, start, end, parent,
operation, extra) while the tracer is recording and otherwise just calls
through. Spans stay in memory; the caller writes them out at the end.

Parents follow a per-thread stack. A span opened on a thread whose stack
is empty (the stability_scan pool workers) gets the innermost open span of
the main thread as parent, which is the stability_scan call that started
the pool. Self time is a span's duration minus the union of its
children's intervals, so overlapping children from two pool threads are
not subtracted twice.
"""

import functools
import itertools
import sys
import threading
import time

import numpy as np

def _rk4_steps(args, kwargs, result):
    return len(result) - 1


def _scan_points(args, kwargs, result):
    return len(result)


def _region_key(args, kwargs, result):
    cfg = args[0]
    bracket = args[1] if len(args) > 1 else kwargs.get("bracket")
    return (cfg.v.tobytes(), cfg.axis.tobytes(), repr(bracket))


# (module, qualified name, extra) per wrapped function; extra(args,
# kwargs, result) returns a number or key stored on the span
TARGETS = (
    ("numerics", "rk4_integrate", _rk4_steps),
    ("numerics", "cinv3", None),
    ("numerics", "eig_general", None),
    ("quantum", "evolve_riccati", None),
    ("quantum", "riccati_rhs", None),
    ("quantum", "stationary_K_from_modes", None),
    ("quantum", "RiccatiTrajectory.to_csv", None),
    ("gravity", "forced_evolve", None),
    ("gravity", "growth_classification", None),
    ("gravity", "trajectory_to_csv", None),
    ("gravity", "resonant_frequencies", None),
    ("stability", "region_map", _region_key),
    ("stability", "stability_scan", _scan_points),
    ("stability", "solve_cubic", None),
    ("stability", "classify_chi_roots", None),
    ("trap", "char_poly_coeffs", None),
    ("trap", "char_poly_from_matrix", None),
    ("trap", "validate_config", None),
    ("modes", "eigenmodes", None),
    ("invariants", "invariance_nullspace", None),
    ("invariants", "trajectory_drift", None),
    ("invariants", "build_invariant", None),
    ("verify", "verify_config", None),
    ("cli", "main", None),
)


def _span_name(module, qualname, args, kwargs):
    if qualname == "evolve_riccati":
        method = kwargs.get("method", args[4] if len(args) > 4 else "direct")
        return f"{module}.{qualname}.{method}"
    return f"{module}.{qualname}"


class Tracer:
    """Install wrappers, record spans, restore the namespaces."""

    def __init__(self):
        self.spans = []
        self.recording = False
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._patches = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, module, qualname, fn, extra):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = 0
            sid = next(tracer._ids)
            name = _span_name(module, qualname, args, kwargs)
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                info = extra(args, kwargs, result) if extra and result is not None else None
                tracer.spans.append((sid, name, t0, t1, parent, tracer.op, info))

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target in every loaded rototrap namespace that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [
            m for name, m in sorted(sys.modules.items())
            if name == "rototrap" or name.startswith("rototrap.")
        ]
        for module, qualname, extra in TARGETS:
            home = sys.modules[f"rototrap.{module}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(module, qualname, original, extra))
                continue
            original = getattr(home, qualname)
            wrapper = self._wrap(module, qualname, original, extra)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def take(self):
        """Return the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals):
    total = 0.0
    end = -np.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans):
    """{span id: duration minus the union of its children's intervals}."""
    children = {}
    for sid, _, t0, t1, parent, _, _ in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _, _ in spans:
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if b > t0 and a < t1]
        out[sid] = (t1 - t0) - _union_length(kids)
    return out


def layer_metrics(spans):
    """Per-layer counts and self times of one traced pass, by metric name."""
    selfs = self_times(spans)
    names = {sid: name for sid, name, *_ in spans}
    parents = {sid: parent for sid, _, _, _, parent, _, _ in spans}
    calls, self_s, extra = {}, {}, {}
    for sid, name, _, _, _, _, info in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[sid]
        if info is not None:
            extra.setdefault(name, []).append(info)

    def under_region_map(sid):
        sid = parents[sid]
        while sid:
            if names.get(sid) == "stability.region_map":
                return True
            sid = parents.get(sid, 0)
        return False

    m = {}
    for module, qualname, _ in TARGETS:
        base = f"{module}.{qualname}"
        if qualname == "evolve_riccati":
            for method in ("direct", "linearized"):
                m[f"{base}.{method}.self_s"] = self_s.get(f"{base}.{method}", 0.0)
            continue
        m[f"{base}.calls"] = calls.get(base, 0)
        m[f"{base}.self_s"] = self_s.get(base, 0.0)
    steps = sum(extra.get("numerics.rk4_integrate", []))
    m["numerics.rk4_integrate.steps"] = steps
    m["numerics.rk4_integrate.us_per_step"] = (
        1e6 * m["numerics.rk4_integrate.self_s"] / steps if steps else 0.0
    )
    m["stability.stability_scan.points"] = sum(extra.get("stability.stability_scan", []))
    n_rmap = calls.get("stability.region_map", 0)
    in_rmap = sum(
        1 for sid, name, *_ in spans
        if name == "trap.char_poly_coeffs" and under_region_map(sid)
    )
    m["stability.region_map.char_poly_per_call"] = in_rmap / n_rmap if n_rmap else 0.0
    keys = extra.get("stability.region_map", [])
    m["stability.region_map.distinct_ratio"] = len(set(keys)) / n_rmap if n_rmap else 0.0
    return {name: m[name] for name, _ in METRICS if name in m}


def write_spans(path, spans):
    """Spans as CSV: id,name,start_s,end_s,parent,op."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent,op\n")
        t_base = min((s[2] for s in spans), default=0.0)
        for sid, name, t0, t1, parent, op, _ in spans:
            fh.write(f"{sid},{name},{t0 - t_base:.9f},{t1 - t_base:.9f},{parent},{op}\n")


def _metric_names():
    names = []
    for module, qualname, stats in (
        ("numerics", "rk4_integrate", ("calls", "steps", "self_s", "us_per_step")),
        ("numerics", "cinv3", ("calls", "self_s")),
        ("numerics", "eig_general", ("calls", "self_s")),
        ("quantum", "evolve_riccati.direct", ("self_s",)),
        ("quantum", "evolve_riccati.linearized", ("self_s",)),
        ("quantum", "riccati_rhs", ("calls", "self_s")),
        ("quantum", "stationary_K_from_modes", ("calls", "self_s")),
        ("quantum", "RiccatiTrajectory.to_csv", ("self_s",)),
        ("gravity", "forced_evolve", ("self_s",)),
        ("gravity", "growth_classification", ("self_s",)),
        ("gravity", "trajectory_to_csv", ("self_s",)),
        ("gravity", "resonant_frequencies", ("calls", "self_s")),
        ("stability", "region_map", ("calls", "self_s", "char_poly_per_call", "distinct_ratio")),
        ("stability", "stability_scan", ("calls", "points", "self_s")),
        ("stability", "solve_cubic", ("calls", "self_s")),
        ("stability", "classify_chi_roots", ("calls", "self_s")),
        ("trap", "char_poly_coeffs", ("calls", "self_s")),
        ("trap", "char_poly_from_matrix", ("calls", "self_s")),
        ("trap", "validate_config", ("calls", "self_s")),
        ("modes", "eigenmodes", ("calls", "self_s")),
        ("invariants", "invariance_nullspace", ("self_s",)),
        ("invariants", "trajectory_drift", ("self_s",)),
        ("invariants", "build_invariant", ("calls",)),
        ("verify", "verify_config", ("calls", "self_s")),
        ("cli", "main", ("calls", "self_s")),
    ):
        for stat in stats:
            unit = {"self_s": "s", "us_per_step": "us", "char_poly_per_call": "count",
                    "distinct_ratio": "ratio"}.get(stat, "count")
            names.append((f"{module}.{qualname}.{stat}", unit))
    names.append(("trace.overhead_s", "s"))
    return tuple(names)


# the per-layer metrics reported by a traced run, with their units
METRICS = _metric_names()
