"""Benchmark runner: one seeded workload per process, through rototrap's public API.

Usage, from the repository root:

    python3 perfbench/run.py --workload chart --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

The workload's inputs come from the seed alone (perfbench/inputs.py). After
set-up the run repeats full passes over those inputs, one thread, closed
loop, until the next pass would overrun --seconds, then checks every
output. With --trace 0 it reports the end-to-end metrics; with --trace 1
it runs half the time untraced and half traced and reports the per-layer
metrics. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give each metric with
its sample count, the digest of the inputs, and every failed operation.
Results and the spans of one traced pass go to .perfbench_out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import fnmatch  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("chart", "evolve", "survey")
SETUP_PROBES = 5  # one after each of the first passes, the rest at the end
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_library():
    """Import rototrap from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "rototrap", "__init__.py")):
        raise SystemExit(f"perfbench: no rototrap sources under {SRC}")
    os.environ.pop("ROTOTRAP_THREADS", None)  # measure the default scan pool
    sys.path[:0] = [SRC, ROOT]
    import numpy  # noqa: F401
    import rototrap

    if not os.path.abspath(rototrap.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: rototrap imported from {rototrap.__file__}, not {SRC}")


def _setup(workload, seed):
    """Generate inputs, build the workload (writing its files), warm it up."""
    from perfbench import inputs, workloads

    data = inputs.generate(workload, seed)
    workdir = os.path.join(WORK_DIR, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[workload](data, workdir)
    wl.warm_up()
    return wl, inputs.digest(data)


def _setup_probe(args):
    _import_library()
    wl, _ = _setup(args.workload, args.seed)
    shutil.rmtree(wl.workdir, ignore_errors=True)
    print(json.dumps({"setup_end": time.time()}))


def _probe_setup(args):
    """Wall time from spawning a fresh process to the end of its set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    t0 = time.time()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_end"] - t0


def _scan_threads():
    from rototrap import stability

    n_workers = getattr(stability, "_n_workers", None)
    return n_workers() if n_workers else 1


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _provenance(args, digest):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "inputs_sha256": digest,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scan_threads": _scan_threads(),
        "git_commit": _git_commit(),
    }


def _known_defects():
    with open(os.path.join(ROOT, "perfbench", "known_defects.json"), encoding="utf-8") as fh:
        return [d["ops"] for d in json.load(fh)["defects"]]


class Tally:
    """Per-op verdicts over all passes, and output identity across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}
        self.reference = None
        self.known = _known_defects()

    def is_known(self, name):
        return any(fnmatch.fnmatchcase(name, pattern) for pattern in self.known)

    @property
    def unexpected(self):
        return [name for name in self.reasons if not self.is_known(name)]

    def add(self, verdicts, prints, label):
        if self.reference is None:
            self.reference = prints
        for name, reason in verdicts.items():
            if reason is None and prints[name] != self.reference[name]:
                reason = f"{label} output differs from the first pass"
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                self.reasons.setdefault(name, reason)


def _one_pass(wl, tally, label, tracer):
    """Time one pass, then check it; its outputs are freed on return."""
    on_op = None
    if tracer is not None:
        def on_op(name):
            tracer.op = name
        tracer.recording = True
    t0 = time.perf_counter()
    results = wl.run_pass(on_op)
    wall = time.perf_counter() - t0
    spans = None
    if tracer is not None:
        tracer.recording = False
        spans = tracer.take()
    verdicts, prints = wl.check(results)
    tally.add(verdicts, prints, label)
    return {"wall": wall, "latencies": [dt for _, dt in results.values()], "spans": spans}


def _run_passes(wl, seconds, tally, label, tracer=None, between=None):
    """Repeat passes until the next one would overrun; returns pass records.

    ``between`` runs after each pass, outside the time budget.
    """
    records = []
    busy = 0.0
    while True:
        t0 = time.perf_counter()
        records.append(_one_pass(wl, tally, label, tracer))
        busy += time.perf_counter() - t0
        if between is not None:
            between()
        typical = statistics.median(r["wall"] for r in records)
        if busy + typical > seconds:
            return records


def _percentile(values, q):
    """Nearest-rank percentile: always one of the measured values."""
    import numpy

    return float(numpy.percentile(numpy.asarray(values), q, method="inverted_cdf"))


def _measure(args, wl):
    from perfbench import tracing

    tally = Tally()
    metrics = {}
    notes = []
    if args.trace == 0:
        # set-up probes run between passes, so that like the passes they
        # sample the machine across the whole run
        setups = []
        def probe():
            if len(setups) < SETUP_PROBES:
                setups.append(_probe_setup(args))

        recs = _run_passes(wl, args.seconds, tally, "untraced", between=probe)
        while len(setups) < SETUP_PROBES:
            setups.append(_probe_setup(args))
        lat = [x for r in recs for x in r["latencies"]]
        metrics["pass_s"] = statistics.median(r["wall"] for r in recs)
        # printed and recorded, not gated: the run-to-run spread of a single
        # call's latency exceeds the 0.25 bound cap on a shared machine
        calls = {"n": len(lat), "call_p50_ms": 1e3 * _percentile(lat, 50),
                 "call_p90_ms": 1e3 * _percentile(lat, 90)}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["setup_s"] = statistics.median(setups)
        notes += [
            f"setup_s {metrics['setup_s']:.4f} s  (median of {len(setups)} fresh-process set-ups)",
            f"pass_s {metrics['pass_s']:.4f} s  (median of {len(recs)} passes, "
            f"{len(wl.ops)} operations each)",
            f"call_p50_ms {calls['call_p50_ms']:.4f} ms  call_p90_ms "
            f"{calls['call_p90_ms']:.4f} ms  (n = {len(lat)} calls)",
            f"peak_rss_mb {metrics['peak_rss_mb']:.2f} MB",
        ]
        return metrics, tally, notes, {"pass_walls": [r["wall"] for r in recs], "setups": setups,
                                       "calls": calls,
                                       "op_latencies": [r["latencies"] for r in recs]}

    plain = _run_passes(wl, 0.5 * args.seconds, tally, "untraced")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _run_passes(wl, 0.5 * args.seconds, tally, "traced", tracer)
    finally:
        tracer.uninstall()
    per_pass = [tracing.layer_metrics(r["spans"]) for r in traced]
    for name, _ in tracing.METRICS:
        if name != "trace.overhead_s":
            # median_low: a value one traced pass measured (counts stay whole)
            metrics[name] = statistics.median_low(p[name] for p in per_pass)
    plain_s = statistics.median(r["wall"] for r in plain)
    traced_s = statistics.median(r["wall"] for r in traced)
    metrics["trace.overhead_s"] = traced_s - plain_s
    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
    tracing.write_spans(span_path, traced[0]["spans"])
    notes += [
        f"trace.overhead_s {metrics['trace.overhead_s']:.4f} s  (traced pass {traced_s:.4f} s "
        f"over {len(traced)} passes, untraced {plain_s:.4f} s over {len(plain)})",
        f"spans of one traced pass: {len(traced[0]['spans'])} -> "
        f"{os.path.relpath(span_path, ROOT)}",
    ]
    extra = {"pass_walls": [r["wall"] for r in plain], "traced_walls": [r["wall"] for r in traced]}
    return metrics, tally, notes, extra


def _run_one(args):
    _import_library()
    from perfbench import tracing

    wl, digest = _setup(args.workload, args.seed)
    try:
        main_setup = time.perf_counter() - T_START
        metrics, tally, notes, extra = _measure(args, wl)
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:  # another run still uses it
            pass
    prov = _provenance(args, digest)
    fail_frac = tally.failed / tally.attempted
    print(f"workload {args.workload}  seed {args.seed}  inputs sha256 {digest}")
    print(f"nproc {prov['nproc']}  python {prov['python']}  numpy {prov['numpy']}  "
          f"scan threads {prov['scan_threads']}  commit {prov['git_commit']}")
    print(f"set-up of this process {main_setup:.4f} s")
    for line in notes:
        print(line)
    print(f"fail_frac {fail_frac:.4f}  ({tally.failed} of {tally.attempted} operations)")
    for name, reason in sorted(tally.reasons.items()):
        tag = " (known defect, perfbench/known_defects.json)" if tally.is_known(name) else ""
        print(f"FAILED{tag} {name}: {reason}")

    units = dict(END_TO_END if args.trace == 0 else tracing.METRICS)
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record = dict(result, provenance=prov, fail_frac=fail_frac,
                  failures=tally.reasons, **extra)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))


def _run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    rows = []
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(done.returncode)
        res = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
        rows.append((name, res))
    if args.trace == 0:
        head = ["workload"] + [f"{k} [{u}]" for k, u in END_TO_END] + ["fail_frac"]
        print("  ".join(f"{h:>17}" for h in head))
        for name, res in rows:
            vals = [f"{res['metrics'][k]['value']:.4f}" for k, _ in END_TO_END]
            vals.append(f"{res['failed'] / res['attempted']:.4f}")
            print("  ".join(f"{v:>17}" for v in [name] + vals))
    print(json.dumps(total))


def main(argv=None):
    args = _parse_args(argv)
    if args.setup_probe:
        _setup_probe(args)
    elif args.workload == "all":
        _run_all(args)
    else:
        _run_one(args)


if __name__ == "__main__":
    main()
