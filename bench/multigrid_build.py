"""What building the multigrid hierarchy costs, at a parent commit and here.

    python3 bench/multigrid_build.py --parent REV [--runs 5] [--out FILE]

Extracts `src/` of commit REV with `git archive` into a temporary directory,
then starts one worker process per measurement run, on the parent's `src/` and
on this checkout's in turn (the side that goes first alternates from pair to
pair), each with one BLAS thread.  A worker measures:

- `pinned`: for each matrix of a pinned set, `spectra._Multigrid.build` from
  every level's matrix of its hierarchy (the levels are bit-identical on both
  sides, `tests/test_spectra.py::HIERARCHY_DIGEST`).  A level's own cost is the
  median build from it minus the median build from the next one; the coarsest
  entry is the dense coarse solve alone.  Also the level-0 call of
  `spectra._aggregate`, timed through a wrapper.
- `fixture_builds_s`: one build for each of the 89 `FIXTURES` points, summed.
- `fixture_sweeps_s`: `harness.run_sweep` over the 18 `FIXTURES`, summed.

Every time is recorded raw and rescaled to a fixed machine speed by
`perfbench/speed.py` (the seconds on a machine on which its reference kernel
takes 1 ms), since the speed of a shared machine drifts between runs.  Each
worker reports medians over its repeats; the file records, per side, the
median and the quartiles over the runs, and the change from parent to here in
percent of the parent's median.  An entry is `resolved` only when the two
sides' quartile ranges do not overlap and the medians differ by more than the
parent's own interquartile range; the change of an unresolved entry is not
told from noise.  Writes `bench/BENCH_multigrid_build.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# (name, dim, family, n, settings): the two 2D points of perfbench's
# sweep-2d-graded, a 2D internal layer at the 2D cap and a 3D fixture point
# whose solve builds a hierarchy
PINNED = (
    ("bakhvalov-2d-eps0.2-n128", 2, "bakhvalov", 128, {"eps": 0.2}),
    ("bakhvalov-2d-eps0.01-n128", 2, "bakhvalov", 128, {"eps": 0.01}),
    ("shishkin-internal-2d-eps0.01-n256", 2, "shishkin", 256, {"eps": 0.01, "layer_position": "internal"}),
    ("single-layer-3d-eps0.01-n12", 3, "single_layer", 12, {"eps": 0.01}),
)
BUILD_REPEATS = 9
FIXTURE_REPEATS = 5
SWEEP_REPEATS = 3
SCALES = ("raw", "rescaled")  # seconds as measured, and rescaled by perfbench/speed.py


def worker(src: str) -> dict:
    """The measurements of one run, on the package under src: medians of raw
    and of rescaled seconds over each measurement's repeats."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    from speed import SpeedProbe

    from meshspectra import GradingParams, LayerPosition, MeshFamily, assemble, build_mesh, spectra
    from meshspectra.harness import FIXTURES, run_sweep

    probe = SpeedProbe()

    def measure(fn, repeats: int) -> dict:
        raw, rescaled = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            own, scaled = probe.rescale(start, time.perf_counter())
            raw.append(own)
            rescaled.append(scaled)
        return {"raw": statistics.median(raw), "rescaled": statistics.median(rescaled)}

    build = spectra._Multigrid.build
    aggregate = spectra._aggregate
    level0 = []  # (raw, rescaled) seconds of level-0 aggregations

    def first_aggregate(table):
        spectra._aggregate = aggregate  # the coarser levels run untimed
        start = time.perf_counter()
        agg = aggregate(table)
        level0.append(probe.rescale(start, time.perf_counter()))
        return agg

    def build_timing_level0(M):
        spectra._aggregate = first_aggregate
        build(M)

    pinned = {}
    with probe.sampling():
        for name, dim, family, n, settings in PINNED:
            if "layer_position" in settings:
                settings = {**settings, "layer_position": LayerPosition(settings["layer_position"])}
            M = assemble(build_mesh(dim, GradingParams(MeshFamily(family), n, **settings)))
            levels = build(M).levels
            last, _, P, PT = levels[-1]
            # the matrix of every level, the coarsest (solved densely) last
            matrices = [A for A, *_ in levels] + [PT @ (last @ P)]
            from_level = [measure(lambda A=A: build(A), BUILD_REPEATS) for A in matrices]
            level0.clear()
            measure(lambda: build_timing_level0(M), BUILD_REPEATS)
            pinned[name] = {
                "levels": [A.shape[0] for A in matrices],
                "build_ms": {k: 1e3 * from_level[0][k] for k in SCALES},
                "per_level_ms": [
                    {k: 1e3 * (a[k] - (b[k] if b else 0.0)) for k in SCALES}
                    for a, b in zip(from_level, from_level[1:] + [None])
                ],
                "aggregate_level0_ms": {
                    k: 1e3 * statistics.median(t[i] for t in level0) for i, k in enumerate(SCALES)
                },
            }
        matrices = [assemble(build_mesh(s.dim, s.params_at(v))) for s in FIXTURES.values() for v in s.values]
        fixture_builds = measure(lambda: [build(A) for A in matrices], FIXTURE_REPEATS)
        fixture_sweeps = measure(lambda: [run_sweep(spec) for spec in FIXTURES.values()], SWEEP_REPEATS)
    return {
        "pinned": pinned,
        "fixture_points": len(matrices),
        "fixture_builds_s": fixture_builds,
        "fixture_sweeps_s": fixture_sweeps,
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float]) -> dict:
    p, c = summary(parent), summary(change)
    resolved = ((c["q3"] < p["q1"] or c["q1"] > p["q3"])
                and abs(c["median"] - p["median"]) > p["q3"] - p["q1"])
    return {"parent": p, "change": c, "change_pct": 100.0 * (c["median"] / p["median"] - 1.0),
            "resolved": resolved}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare with")
    parser.add_argument("--runs", type=int, default=5, help="worker runs per side")
    parser.add_argument("--out", default=str(HERE / "BENCH_multigrid_build.json"))
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(args.worker)))
        return 0

    rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    env = {**os.environ, **{var: "1" for var in BLAS_THREAD_VARS}}
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        sources = {"parent": str(Path(tmp) / "src"), "change": str(ROOT / "src")}
        for k in range(args.runs):
            for side in ("parent", "change")[:: 1 if k % 2 == 0 else -1]:
                out = subprocess.run([sys.executable, __file__, "--parent", rev, "--worker", sources[side]],
                                     env=env, check=True, capture_output=True, text=True).stdout
                runs[side].append(json.loads(out.splitlines()[-1]))
                print(f"run {k + 1}/{args.runs} {side}: fixture builds "
                      f"{runs[side][-1]['fixture_builds_s']['rescaled']:.3f} s rescaled", file=sys.stderr)

    def versus(pick):
        """Parent against change, raw and rescaled, of the measurement pick(run)."""
        return {k: compare(*([pick(run)[k] for run in runs[side]] for side in ("parent", "change")))
                for k in SCALES}

    pinned = {}
    for name, *_ in PINNED:
        levels = runs["change"][0]["pinned"][name]["levels"]
        pinned[name] = {
            "levels": levels,
            "build_ms": versus(lambda run: run["pinned"][name]["build_ms"]),
            "aggregate_level0_ms": versus(lambda run: run["pinned"][name]["aggregate_level0_ms"]),
            "per_level_ms": [versus(lambda run: run["pinned"][name]["per_level_ms"][i])
                             for i in range(len(levels))],
        }
    result = {
        "what": "multigrid hierarchy build cost; see bench/multigrid_build.py",
        "parent": rev,
        "change": "working tree of " + subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                                      check=True, capture_output=True, text=True).stdout.strip(),
        "runs_per_side": args.runs,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "scipy": __import__("scipy").__version__,
            "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        },
        "pinned": pinned,
        "fixture_points": runs["change"][0]["fixture_points"],
        "fixture_builds_s": versus(lambda run: run["fixture_builds_s"]),
        "fixture_sweeps_s": versus(lambda run: run["fixture_sweeps_s"]),
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    headline = {"fixture_builds_s": result["fixture_builds_s"], "fixture_sweeps_s": result["fixture_sweeps_s"],
                **{f"{name} aggregate_level0_ms": entry["aggregate_level0_ms"] for name, entry in pinned.items()}}
    for what, scales in headline.items():
        print(what, " ".join(f"{k} {v['change_pct']:+.1f}%{'' if v['resolved'] else ' (unresolved)'}"
                             for k, v in scales.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
