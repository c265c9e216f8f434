"""Benchmark of scenenat's prep, train-step and eval paths on one workload.

    python3 bench/run.py --workload large-dense --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all

Run from the repository root. The run sets up the workload three times,
runs the correctness gate, then round-robins one batch of each path for
``--seconds``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
splits the time between an untraced and a traced half and reports the
per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A failed gate
exits with code 1 and prints no result.
"""

import os

# One thread, BLAS included; must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"  # metric names, units and bounds
SETUPS = 3


def blas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if there is one."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        so = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(so, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(np),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from bench import gate, harness, spans
    from bench.clock import Clock
    from bench.scenes import WORKLOADS

    # Truncation is counted through matching.truncated_triplet_count(); keep its warning off stderr.
    logging.getLogger("scenenat.matching").addHandler(logging.NullHandler())
    w = WORKLOADS[workload]
    spec = json.loads(SPEC.read_text())
    setup_s, setup_raw_s = [], []
    for _ in range(SETUPS):
        bench = None  # free the previous set-up first, so peak RSS counts one
        gc.collect()
        clock = Clock()
        bench = harness.Bench(w, seed, clock)
        clock.split()
        setup_s.append(clock.normalized)
        setup_raw_s.append(clock.raw)
    try:
        counts, digest = bench.census()
    except gate.GateError as exc:
        print(f"correctness gate failed on {workload} seed {seed}: {exc}", file=sys.stderr)
        return 1

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment(), "digest": digest}
    if trace:
        tracer = spans.Tracer()
        runs = (harness.measure(bench, spans.untraced, seconds / 2), harness.measure(bench, tracer.wrap, seconds / 2))
    else:
        runs = (harness.measure(bench, spans.untraced, seconds),)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    mismatched = sum(r.mismatched for r in runs)
    errors = [r.first_error for r in runs if r.first_error]
    if errors:
        print(errors[0], file=sys.stderr)
    if any(not r.raw[p] for r in runs for p in harness.PHASES):
        print(f"{workload}: a path failed on every batch; no timing to report", file=sys.stderr)
        return 1

    if trace:
        plain, traced = runs
        summary = spans.summary(tracer.spans)
        overhead = sum(map(traced.per_unit, harness.PHASES)) / sum(map(plain.per_unit, harness.PHASES)) - 1
        values = {**counts, "trace.overhead_pct": 100 * overhead}
        for m in spec["per_layer"]:
            if m["name"].endswith(".p50_us"):
                values[m["name"]] = summary[m["name"].removesuffix(".p50_us")]["p50_us"]
        results = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["per_layer"]}
        record["spans"] = summary
    else:
        (timed,) = runs
        values = {
            "setup_s": statistics.median(setup_s),
            "prep_scenes_per_s": 1 / timed.per_unit("prep"),
            "train_scenes_per_s": 1 / timed.per_unit("train"),
            "eval_scenes_per_s": 1 / timed.per_unit("eval"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        results = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
        record["setup_raw_s"] = setup_raw_s
        record["raw_per_s"] = {p: 1 / timed.per_unit(p, raw=True) for p in harness.PHASES}
        record["batches"] = {p: sum(map(len, timed.raw[p].values())) for p in harness.PHASES}
    record.update(error_rate=failed / attempted, mismatched_batches=mismatched)
    print(json.dumps(record))
    for name, (value, unit) in results.items():
        print(f"{workload:<13} {name:<46} {value:>14.6g} {unit}")
    print(f"{workload:<13} {'error_rate':<46} {failed / attempted:>14.6g} share")
    print(json.dumps({
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in results.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="small-sparse, large-dense, large-sparse or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scenenat" / "scene.py").is_file():
        print(f"scenenat sources not found under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from bench.scenes import WORKLOADS

    if args.workload == "all":
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if subprocess.run(cmd).returncode != 0:
                return 1
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
