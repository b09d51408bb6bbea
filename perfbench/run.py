#!/usr/bin/env python3
"""Benchmark for strata: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload corpus-small --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory, and every file the run writes goes under ``.perfbench_out/``
there.  BLAS threads are capped at the number of usable cores before numpy
loads.

``--trace 0`` repeats whole passes over the workload's ops until
``--seconds`` have elapsed and reports the end-to-end metrics.  ``--trace 1``
runs a fixed amount of work instead: untraced and traced passes
alternating, two of each, set-up included.  The call and factorization
counts of the two traced passes must agree exactly.  It reports the
per-layer metrics of the first traced pass and writes its spans as JSONL.
The metric names and units are those declared in BENCHMARK.json.  The last
line of standard output is the result object; an untraced run prints the
same metrics unscaled, with the speed probe's figures, on the ``raw`` line
before it.  README.md has the details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
BUILDS = (3, 15)  # builds with warm-up per run: at least, at most
BUILD_BUDGET_S = 2.0  # no more builds once they have taken this long in all
WARMUP_SEED = 0  # the warm-up ops come from this seed whatever the run's seed
IMPORT_PROCESSES = 3  # fresh interpreters that import the library, per run
IMPORTS_PER_PROCESS = 10
MIN_PASSES = 2  # an op's time is a median over passes
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Limit BLAS threads to the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(nproc, int(current)) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return nproc


def environment(nproc, workload, seed) -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            return "unknown"

    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "machine": platform.machine(),
    }


def run_pass(ops, tracer=None, between=None) -> list:
    """Run every op once, telling the tracer which op its spans belong to
    and calling ``between`` (untimed work) before each op."""
    done = []
    for i, op in enumerate(ops):
        if between is not None:
            between()
        if tracer is not None:
            tracer.op = i
        done.append(op.execute())
    if tracer is not None:
        tracer.op = -1
    return done


IMPORT_CODE = """
import statistics, sys, time
sys.path[:0] = sys.argv[1:3]
start = time.perf_counter()
import numpy, scipy.linalg
deps = time.perf_counter() - start
from speed import SpeedProbe
probe = SpeedProbe()
probe.sample(6)
took = []
for _ in range(int(sys.argv[3])):
    for name in [m for m in sys.modules if m == "strata" or m.startswith("strata.")]:
        del sys.modules[name]
    start = time.perf_counter()
    import strata.cli
    took.append(time.perf_counter() - start)
probe.sample(5)
print(deps, statistics.median(probe.seconds[1:]), *took)
"""


def import_seconds() -> tuple[list, float, float]:
    """Import the library ``IMPORTS_PER_PROCESS`` times in a fresh interpreter.

    Its dependencies, numpy and scipy.linalg, are imported first and timed
    apart, so that the library's own import is measured alone.  Between
    imports the library's modules are dropped from ``sys.modules``, so each
    import runs all of their module code again.  The interpreter runs the
    speed kernel around the imports: how fast a process runs differs from
    process to process on a shared host, so its imports are scaled by its
    own kernel time.  Returns the library's import times, the
    dependencies' import time and the median kernel time.
    """
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, SRC, HERE, str(IMPORTS_PER_PROCESS)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    deps, kernel, *took = map(float, proc.stdout.split())
    return took, deps, kernel


class SetUp:
    """Times the set-up: the library's import and the build with warm-up.

    The imports run in ``IMPORT_PROCESSES`` fresh interpreters (see
    ``import_seconds``).  A build makes the run's ops from its seed and
    runs the warm-up ops, which come from ``WARMUP_SEED`` in a directory of
    their own: with the run's seed, the warm-up time on ``membership``
    varied by 0.2 of its median between seeds.  Builds repeat at least
    ``BUILDS[0]`` times, then until they have taken ``BUILD_BUDGET_S`` or
    reached ``BUILDS[1]``.
    """

    def __init__(self, build, seed, workdir, probe):
        self.imports = []  # per interpreter: (import times, dependency time, kernel time)
        self.builds = []  # per build with warm-up: (seconds, start, end)
        self.results = []  # warm-up op results
        self.probe = probe
        warmdir = os.path.join(workdir, "warmup")
        os.makedirs(warmdir, exist_ok=True)
        for _ in range(IMPORT_PROCESSES):
            self.imports.append(import_seconds())
        while len(self.builds) < BUILDS[0] or (
            len(self.builds) < BUILDS[1] and sum(t for t, _, _ in self.builds) < BUILD_BUDGET_S
        ):
            probe.sample(3)
            start = perf_counter()
            self.ops = build(seed, workdir)[0]
            self.results += [op.execute() for op in build(WARMUP_SEED, warmdir)[1]]
            self.builds.append((perf_counter() - start, start, perf_counter()))
        probe.sample(3)

    def seconds(self, scaled) -> float:
        """Median import plus median build, scaled to nominal host speed:
        each import by its own interpreter's kernel time, each build by the
        probes next to it."""
        from speed import NOMINAL_S

        took = [(t, kernel) for times, _, kernel in self.imports for t in times]
        return statistics.median(
            t * (NOMINAL_S / kernel if scaled else 1.0) for t, kernel in took
        ) + statistics.median(t * (self.probe.scale(a, b) if scaled else 1.0) for t, a, b in self.builds)

    def record(self) -> dict:
        return {
            "library_import_s": [statistics.median(times) for times, _, _ in self.imports],
            "import_probe_ms": [1e3 * kernel for _, _, kernel in self.imports],
            "dependency_import_s": statistics.median(d for _, d, _ in self.imports),
            "build_s": [t for t, _, _ in self.builds],
            "build_scaled_s": [t * self.probe.scale(a, b) for t, a, b in self.builds],
        }


def untraced(build, seed, workdir, seconds):
    """Set up, then run whole passes for ``seconds`` (at least two).

    Every time is scaled to nominal host speed (see speed.py).  Each op is
    scored by the median of its scaled times over the passes, each stage
    likewise, and the percentiles are taken over the workload's ops.  The
    set-up is timed as ``SetUp`` says.

    Returns the scaled metrics, the same metrics unscaled with the probe's
    figures, and every op result.
    """
    from speed import NOMINAL_S, SpeedProbe

    probe = SpeedProbe()
    setup = SetUp(build, seed, workdir, probe)
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(run_pass(setup.ops, between=probe.maybe_sample))
    probe.sample(3)
    repeats = list(zip(*passes))  # per op, its result in every pass
    scales = [probe.scale(r.start, r.end) for rs in repeats for r in rs]
    timed = [r for p in passes for r in p]
    verified = sum(1 for r in timed if not r.problems) / len(timed)

    def op_metrics(scaled):
        def per_op_ms(stage=None):
            return [
                statistics.median(
                    1e3
                    * (r.seconds if stage is None else r.stages.get(stage, 0.0))
                    * (probe.scale(r.start, r.end) if scaled else 1.0)
                    for r in rs
                )
                for rs in repeats
            ]

        op_ms = per_op_ms()
        return {
            "ops_per_s": 1e3 * verified * len(op_ms) / sum(op_ms),
            "op_p50_ms": statistics.median(op_ms),
            "op_p95_ms": statistics.quantiles(op_ms, n=100, method="inclusive")[94],
            "connect_p50_ms": statistics.median(per_op_ms("connect")),
            "certify_p50_ms": statistics.median(per_op_ms("certify")),
        }

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": setup.seconds(True), **op_metrics(True), "peak_rss_mb": rss}
    raw = {
        "metrics": {"setup_s": setup.seconds(False), **op_metrics(False), "peak_rss_mb": rss},
        "probe_ms": probe.median_ms(),
        "probes": len(probe.seconds),
        "nominal_ms": 1e3 * NOMINAL_S,
        "op_scale": {"min": min(scales), "median": statistics.median(scales), "max": max(scales)},
        "passes": len(passes),
        **setup.record(),
    }
    return metrics, raw, setup.results + timed


def traced(build, seed, workdir, env):
    """Untraced and traced passes, alternating, two of each.

    The per-layer metrics come from the first traced pass; both traced
    passes must make exactly the same calls.  The tracing overhead is the
    sum over ops of each op's faster traced time minus its faster untraced
    time.
    """
    from tracing import Tracer, layer_metrics

    warmdir = os.path.join(workdir, "warmup")
    os.makedirs(warmdir)
    results = [op.execute() for op in build(WARMUP_SEED, warmdir)[1]]

    def one_pass(tracer):
        ops = build(seed, workdir)[0]
        return ops, run_pass(ops, tracer)

    plain, tracers = [], []
    for _ in range(2):
        _, done = one_pass(None)
        plain.append(done)
        results += done
        tracer = Tracer()
        try:
            tracer.install()
            ops, done = one_pass(tracer)
        finally:
            tracer.uninstall()
        results += done
        tracers.append((tracer, ops, done))
    (first, ops, done), (second, _, _) = tracers
    repeat_ok = first.call_counts() == second.call_counts()
    metrics = layer_metrics(first.spans, {i: op.meta() for i, op in enumerate(ops)})
    best = lambda passes: sum(min(r.seconds for r in rs) for rs in zip(*passes))
    untraced_s = best(plain)
    overhead = best([t[2] for t in tracers]) - untraced_s
    metrics["trace.overhead_ms"] = overhead * 1e3
    metrics["trace.overhead_pct"] = 100.0 * overhead / untraced_s
    metrics["trace.spans"] = len(first.spans)
    metrics["trace.counts_repeat"] = int(repeat_ok)
    for kind in ("path", "certificate", "tangent"):
        sizes = [r.files[kind] for r in done if kind in r.files]
        metrics[f"serialization.{kind}_file_bytes_per_op"] = statistics.mean(sizes) if sizes else 0
    out = os.path.join(OUT, f"trace-{env['workload']}-seed{seed}.jsonl")
    first.write_jsonl(out, {"env": env, "ops": [op.meta() for op in ops]})
    print(f"spans written to {os.path.relpath(out, ROOT)}")
    if not repeat_ok:
        diff = (first.call_counts() - second.call_counts()) + (second.call_counts() - first.call_counts())
        print(f"call counts differ between traced passes: {dict(diff)}")
    return metrics, results, repeat_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "strata", "__init__.py")):
        print(f"error: no strata sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(names)}", file=sys.stderr)
        return 2

    nproc = cap_blas_threads()
    sys.path.insert(0, SRC)
    import strata
    if os.path.dirname(os.path.abspath(strata.__file__)) != os.path.join(SRC, "strata"):
        print(f"error: strata imported from {strata.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    env = environment(nproc, args.workload, args.seed)
    print("env " + json.dumps(env))
    os.makedirs(OUT, exist_ok=True)
    build = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as workdir:
        if args.trace:
            measured, results, repeat_ok = traced(build, args.seed, workdir, env)
            declared = spec["per_layer"]
        else:
            measured, raw, results = untraced(build, args.seed, workdir, args.seconds)
            print("raw " + json.dumps(raw))
            repeat_ok = True
            declared = spec["end_to_end"]

    failed = [r for r in results if r.problems]
    for r in failed[:10]:
        print(f"FAILED {r.name}: {'; '.join(r.problems)}")
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'fail_ratio':48s} {len(failed) / len(results):>16.6g} ratio ({len(failed)} of {len(results)} ops)")
    result = {
        "correct": not failed and repeat_ok,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
