"""Summarise result files of several runs: median and spread of each metric.

    python3 perfbench/summarize.py .perfbench_out/chart-seed*-trace0.json ...

For each workload it prints, per metric, the median over the runs, the
first and third quartiles (statistics.quantiles, n=4) and their distance
as a share of the median, plus fail_frac and every failed operation with
the number of runs it failed in. ``--json`` prints the same as one JSON
object, the form kept in BASELINE.json.
"""

import argparse
import json
import statistics
from collections import Counter, defaultdict


def summarize(paths):
    runs = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        runs[rec["provenance"]["workload"]].append(rec)
    out = {}
    for workload, recs in sorted(runs.items()):
        metrics = {}
        for r in recs:
            # call latencies are recorded beside the gated metrics
            for k, v in r.get("calls", {}).items():
                if k != "n":
                    r["metrics"][k] = {"value": v, "unit": "ms"}
        for name in recs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in recs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            metrics[name] = {
                "unit": recs[0]["metrics"][name]["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
            }
        failures = Counter(name for r in recs for name in r["failures"])
        out[workload] = {
            "runs": len(recs),
            "seeds": sorted(r["provenance"]["seed"] for r in recs),
            "metrics": metrics,
            "fail_frac": statistics.median(r["fail_frac"] for r in recs),
            "failed_operations": dict(sorted(failures.items())),
        }
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("results", nargs="+")
    p.add_argument("--json", action="store_true")
    args = p.parse_args(argv)
    summary = summarize(args.results)
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
        return
    for workload, s in summary.items():
        print(f"{workload}: {s['runs']} runs, seeds {s['seeds']}, "
              f"median fail_frac {s['fail_frac']:.4f}")
        for name, m in s["metrics"].items():
            print(f"  {name:44s} {m['median']:12.4f} {m['unit']:6s} "
                  f"q1 {m['q1']:.4f} q3 {m['q3']:.4f} spread {m['spread']:.3f}")
        for name, count in s["failed_operations"].items():
            print(f"  FAILED in {count}/{s['runs']} runs: {name}")


if __name__ == "__main__":
    main()
