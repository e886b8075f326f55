"""Workload definitions: the CLI argument lists one benchmark pass runs.

Every workload is a function of a `random.Random` seeded from `--seed` and an
output directory.  The seed only moves parameters the program's cost does not
depend on (see README.md), so runs with different seeds measure the same work
on different inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

N3 = (4, 6, 8, 10, 12)


@dataclass(frozen=True)
class Point:
    """One mesh the program computes: a sweep row or one exported mesh."""

    dim: int
    family: str
    n: int
    eps: float | None
    beta: float | None
    param: float


@dataclass(frozen=True)
class Call:
    """One `meshspectra` command line and what it must produce."""

    kind: str  # "sweep" or "mesh"
    argv: tuple
    outputs: tuple  # files the call writes, in a fixed order
    points: tuple  # the Points it computes, in output order


def _mesh_flags(n=None, eps=None, beta=None):
    flags = []
    for flag, value in (("--n", n), ("--eps", eps), ("--beta", beta)):
        if value is not None:
            flags += [flag, repr(value)]
    return flags


def _sweep(out: Path, dim, family, axis, values, n=None, eps=None, beta=None) -> Call:
    argv = ["sweep", "--dim", str(dim), "--family", family, "--axis", axis,
            "--values", ",".join(repr(v) for v in values), "--out", str(out)]
    argv += _mesh_flags(n, eps, beta)
    points = tuple(
        Point(
            dim,
            family,
            int(v) if axis == "n" else n,
            v if axis == "eps" else eps,
            v if axis == "beta" else beta,
            float(v),
        )
        for v in values
    )
    outputs = (Path(f"{out}.csv"), Path(f"{out}.svg"))
    return Call("sweep", tuple(argv), outputs, points)


def _mesh(out: Path, dim, family, n, eps=None, beta=None) -> Call:
    argv = ["mesh", "--dim", str(dim), "--family", family, "--out", str(out)]
    argv += _mesh_flags(n, eps, beta)
    return Call("mesh", tuple(argv), (out,), (Point(dim, family, n, eps, beta, float(n)),))


def _jitter(rng: random.Random, value: float, share: float) -> float:
    return round(value * (1.0 + share * rng.random()), 6)


def sweep_2d_graded(rng: random.Random, out: Path) -> list[Call]:
    # The shipped bakhvalov-2d-eps fixture (n=128) cut to its two ends: the
    # hardest point eps=0.01 (70 outer iterations) and one point just below
    # eps=0.2 (12 iterations), which keeps one pass near 10 s.
    eps_hi = round(0.2 - 0.01 * rng.random(), 6)
    return [_sweep(out / "bakhvalov-2d-eps", 2, "bakhvalov", "eps", (eps_hi, 0.01), n=128)]


def sweep_3d(rng: random.Random, out: Path) -> list[Call]:
    # power-3d-n keeps the fixture's beta=3.0 exactly: at n=6 inverse iteration
    # needs 358 of its 500 outer steps there and stalls from beta=3.04 on.
    return [
        _sweep(out / "power-3d-n", 3, "power", "n", N3, beta=3.0),
        _sweep(out / "single-layer-3d-n", 3, "single_layer", "n", N3, eps=_jitter(rng, 0.05, 0.05)),
        _sweep(out / "power-3d-beta", 3, "power", "beta",
               (1.0,) + tuple(_jitter(rng, b, 0.02) for b in (1.5, 2.0, 3.0, 4.0)), n=12),
    ]


def mesh_export(rng: random.Random, out: Path) -> list[Call]:
    return [
        _mesh(out / "shishkin-2d-256.txt", 2, "shishkin", 256, eps=_jitter(rng, 0.05, 0.05)),
        _mesh(out / "power-3d-16.txt", 3, "power", 16, beta=_jitter(rng, 3.0, 0.02)),
    ]


def sweep_3d_export(rng: random.Random, out: Path) -> list[Call]:
    # the 3D sweeps and the mesh write path share one workload so that a run
    # can be long enough for a steady figure on a shared machine
    return sweep_3d(rng, out) + mesh_export(rng, out)


WORKLOADS = {
    "sweep-2d-graded": sweep_2d_graded,
    "sweep-3d-export": sweep_3d_export,
}


def make_calls(name: str, seed: int, out: Path) -> list[Call]:
    return WORKLOADS[name](random.Random(seed), out)
