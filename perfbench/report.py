#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every metric with its unit.

    python3 perfbench/report.py                        # all workloads, seeds 1-10
    python3 perfbench/report.py --workloads tangent --seeds 1-5
    python3 perfbench/report.py --trace 1 --seeds 1-2 --out results.json
    python3 perfbench/report.py --compare set1.json set2.json

Each run is a separate process (``run.py``), one after another.  For each
workload and metric the table gives the median over seeds, the quartiles,
and the spread: the distance between the quartiles as a share of the
median, which BENCHMARK.json's bound on that metric should clear by a
factor of three.  ``fail_ratio`` is failed ops over attempted ops, summed
over the runs.  With ``--out`` the per-run results and the summary are
written as JSON, together with each run's environment record and, for an
untraced run, its ``raw`` record: the metrics unscaled and the speed
probe's figures.

``--compare A B`` reads two such files and prints, for every workload and
end-to-end metric, how much worse B's median is than A's, as a share of
A's median, next to the metric's bound.  It exits 1 when any change is
beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record = {"seed": seed}
    for key in ("env", "raw"):
        found = [json.loads(line[len(key) + 1 :]) for line in lines if line.startswith(key + " ")]
        if found:
            record[key] = found[0]
    record["result"] = json.loads(lines[-1])
    return record


def summarize(runs):
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    return out, {"attempted": attempted, "failed": failed, "fail_ratio": failed / attempted}


def worse_by(first, second, better) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def compare(spec, path_a, path_b) -> int:
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    beyond = 0
    for workload in a:
        if workload not in b:
            continue
        print(f"\n== {workload}: median of {path_b} against {path_a}")
        for m in spec["end_to_end"]:
            first = a[workload]["summary"][m["name"]]["median"]
            second = b[workload]["summary"][m["name"]]["median"]
            worse = worse_by(first, second, m["better"])
            flag = ""
            if worse > m["bound"]:
                beyond += 1
                flag = "  <- beyond the bound"
            print(f"{m['name']:20s} {first:>12.6g} {second:>12.6g} {m['unit']:6s} "
                  f"worse by {worse:+.3f}, bound {m['bound']:.2f}{flag}")
    return 1 if beyond else 0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), default=None)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(spec, *args.compare)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    all_correct = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace) for s in args.seeds]
        metrics, counts = summarize(runs)
        correct = all(r["result"]["correct"] for r in runs)
        all_correct = all_correct and correct
        report[workload] = {"summary": metrics, **counts, "correct": correct, "runs": runs}
        print(f"\n== {workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"correct {correct}, fail_ratio {counts['fail_ratio']:.4g} "
              f"({counts['failed']} of {counts['attempted']} ops)")
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and m["spread"] > bound / 3:
                flag = "  <- spread above a third of the bound"
            bound_text = f"bound {bound:.2f}" if bound is not None else ""
            print(f"{name:46s} {m['median']:>14.6g} {m['unit']:6s} "
                  f"[{m['q1']:.6g}, {m['q3']:.6g}] spread {m['spread']:.3f} {bound_text}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
