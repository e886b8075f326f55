"""End-to-end and per-layer benchmark of meshspectra.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's `meshspectra` command lines in this process through
`meshspectra.cli.main`, pass after pass, for S seconds, and compares the
outputs byte for byte across passes.  With --trace 0 it reports the end-to-end
metrics, with times rescaled to a fixed machine speed (see speed.py): on a
shared machine the same command runs up to twice as slow while neighbours are
busy.  With --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones.  Outputs are checked against references computed after the timed
passes.  The last line of standard output is the JSON result; the exit code is
0 only if every check passed.  The package is imported from `src/` next to
this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import REFERENCE_S, SpeedProbe
from tracing import LAYERS, Tracer, median_metrics
from workloads import WORKLOADS, make_calls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7

# times the import, then the speed kernel in the same process (so on the same CPU)
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; "
    "t = time.perf_counter(); import meshspectra.cli; t = time.perf_counter() - t; "
    "from speed import SpeedProbe; print(t, SpeedProbe().reference())"
)


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_written"):
        return "bytes"
    return {"pass_ratio": "ratio", "lambda_rel_err_max": "rel", "peak_rss_mb": "MB"}.get(metric, "count")


def import_seconds() -> float:
    """Rescaled time of `import meshspectra.cli` (numpy and scipy included) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, kernel = (float(x) for x in proc.stdout.split())
    return seconds * REFERENCE_S / kernel


def digest(paths) -> str | None:
    """SHA-256 over the files in order, or None if any is missing."""
    h = hashlib.sha256()
    for path in paths:
        try:
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        except FileNotFoundError:
            return None
    return h.hexdigest()


def run_pass(cli, calls, tracer, probe, index: int) -> dict:
    """One pass over the workload's command lines; wall time covers only the calls.

    A traced pass is timed as is; an untraced one samples the machine's speed
    and also records each call's rescaled time.
    """
    for call in calls:
        for path in call.outputs:
            path.unlink(missing_ok=True)
    if tracer is not None:
        tracer.begin_pass(index)
        tracer.install()
    codes, spans = [], []
    try:
        with contextlib.nullcontext() if tracer is not None else probe.sampling():
            for call in calls:
                sink = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        code = cli.main(list(call.argv))
                    except Exception:  # a crash fails this call's points; the run goes on
                        traceback.print_exc()
                        code = None
                spans.append((start, time.perf_counter()))
                if code != 0:
                    print(f"perfbench: meshspectra {' '.join(call.argv)} -> {code}\n{sink.getvalue()}",
                          file=sys.stderr)
                codes.append(code)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        walls, rescaled = [end - start for start, end in spans], None
    else:
        walls, rescaled = (list(x) for x in zip(*(probe.rescale(*span) for span in spans)))
    return {
        "traced": tracer is not None,
        "call_walls": walls,
        "call_rescaled": rescaled,
        "codes": codes,
        "digests": [digest(call.outputs) for call in calls],
    }


def per_call_median(passes, key: str) -> float:
    """Each command line's median time over the passes, summed."""
    return sum(statistics.median(times) for times in zip(*(p[key] for p in passes)))


def count_failures(calls, passes, results) -> tuple[int, int]:
    """(attempted, failed) points over all passes.

    `results` validates the files the last pass left; every other pass must
    have written the same bytes.  A call that exits nonzero fails all its
    points, because a sweep aborts on its first non-converged point.
    """
    final = passes[-1]["digests"]
    attempted = failed = 0
    reasons = set()
    for p in passes:
        for call, code, dig, want, res in zip(calls, p["codes"], p["digests"], final, results):
            attempted += len(call.points)
            if code != 0:
                failed += len(call.points)
                reasons.add(f"{call.argv[0]} exited {code}")
            elif dig is None or dig != want:
                failed += len(call.points)
                reasons.add(f"{call.outputs[0]}: missing or not byte-identical across passes")
            else:
                bad = [r for r in res if not r.ok]
                failed += len(bad)
                reasons.update(r.reason for r in bad)
    for reason in sorted(reasons):
        print(f"perfbench: check failed: {reason}", file=sys.stderr)
    return attempted, failed


def environment(np, scipy) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "meshspectra" / "cli.py").is_file():
        print(f"perfbench: no meshspectra sources under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread: the benchmark measures a single-threaded process
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import_times = [import_seconds() for _ in range(SETUP_REPEATS)]
    import meshspectra.cli as cli

    probe = SpeedProbe()

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported {cli.__file__}, not the sources under {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy

    out = OUT / args.workload
    gen_times = []
    for _ in range(SETUP_REPEATS):
        kernel = probe.reference()
        start = time.perf_counter()
        calls = make_calls(args.workload, args.seed, out)
        gen_times.append((time.perf_counter() - start) * REFERENCE_S / kernel)
    setup_s = statistics.median(import_times) + statistics.median(gen_times)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    tracer = Tracer() if args.trace else None
    # at least three untraced passes; a traced run alternates and needs two
    # of each kind for the overhead and the byte comparison
    min_untraced, min_traced = (2, 2) if tracer else (3, 0)
    passes = []
    start = time.perf_counter()
    while (
        sum(not p["traced"] for p in passes) < min_untraced
        or sum(p["traced"] for p in passes) < min_traced
        or time.perf_counter() - start < args.seconds
    ):
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        passes.append(run_pass(cli, calls, tracer if traced else None, probe, len(passes)))
    # ru_maxrss only grows: read it before the reference computations below
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from checks import REL_ERR_FLOOR, Checker

    checker = Checker()
    results = [checker.check(call) for call in calls]
    attempted, failed = count_failures(calls, passes, results)
    errors = [r.rel_err for res in results for r in res if r.rel_err is not None]
    untraced = [p for p in passes if not p["traced"]]

    env = environment(np, scipy)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
               passes=len(passes))
    if tracer is None:
        metrics = {
            "wall_s": per_call_median(untraced, "call_rescaled"),
            "setup_s": setup_s,
            "pass_ratio": 1.0 - failed / attempted,
            "lambda_rel_err_max": max([REL_ERR_FLOOR] + errors),
            "peak_rss_mb": peak_rss_mb,
        }
        for key in ("call_walls", "call_rescaled"):
            totals = [sum(p[key]) for p in untraced]
            print(f"untraced pass seconds, {key}: {' '.join(f'{t:.4f}' for t in totals)} "
                  f"(median {statistics.median(totals):.4f})")
        print(f"fail_ratio: {failed / attempted:.6g} ({failed} of {attempted} points)")
    else:
        metrics = median_metrics(tracer.pass_metrics())
        traced = [p for p in passes if p["traced"]]
        metrics["trace.overhead_s"] = (per_call_median(traced, "call_walls")
                                       - per_call_median(untraced, "call_walls"))
        total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        print("layer self-time shares: " + " ".join(
            f"{layer}={metrics[f'{layer}.self_s'] / total:.3f}" for layer in LAYERS))
        tracer.write_jsonl(out / "trace.jsonl", {"env": env})
    for name, value in metrics.items():
        print(f"{name:<32} {value:.6g} {unit_of(name)}")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
