"""Calibrated estimators for the smallest stiffness eigenvalue.

Three families of estimates, all driven by mesh geometry alone:

* "new"  - patch-volume bound; 2D uses N and the smallest patch through a
  log factor, 3D uses the (-1/2)-power sum of all free-vertex patches.
* "gm"   - the same shapes weighted by the mesh constants M (max cells per
  vertex) and H (max volume ratio of touching cells).
* "khx"  - element-volume analog running over cells instead of patches.

Each bound carries an unknown multiplicative constant; `calibrate` fixes it
so that the estimate reproduces the exact eigenvalue on one uniform
reference mesh per dimension (known in closed form there), after which the
estimators can be compared across families and sizes on equal footing.  The
calibrated values are estimates, not lower bounds: on graded meshes they can
exceed the exact eigenvalue.

`estimates(patch_stats(mesh), calibrate(mesh.dim))` returns (new, gm, khx);
calibration and estimation share one kernel table, `_kernels`, which
`calibrate` divides by and `estimates` multiplies by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .meshgen import (
    DEFAULT_REFERENCE_INTERVALS,
    GradingParams,
    MeshFamily,
    PatchStats,
    build_mesh,
    check_dim,
    patch_stats,
)

if TYPE_CHECKING:
    from .spectra import EigenResult


@dataclass(frozen=True)
class Calibration:
    """Per-dimension multiplicative constants, one per estimator family, fixed
    on the uniform mesh with n_ref intervals; the fields are in the order the
    calibrate command prints them."""

    dim: int
    n_ref: int
    c_new: float
    c_gm: float
    c_khx: float

    def __post_init__(self):
        check_dim(self.dim)
        for name in ("c_new", "c_gm", "c_khx"):
            c = getattr(self, name)
            if not (c > 0.0 and math.isfinite(c)):
                raise ValueError(f"{name} must be positive and finite, got {c!r}")
        if self.n_ref < 2:
            raise ValueError(f"n_ref must be >= 2, got {self.n_ref}")


@dataclass(frozen=True, eq=False)
class BoundReport:
    """One mesh's row of the comparison: the sweep value param, the geometry
    stats, the solve eigen of the stiffness matrix (its lambda_min is
    lambda_exact) and the three calibrated estimates; no mesh, no matrix."""

    param: float
    stats: PatchStats
    eigen: EigenResult
    lambda_new: float
    lambda_gm: float
    lambda_khx: float

    @property
    def lambda_exact(self) -> float:
        return self.eigen.lambda_min

    def __post_init__(self):
        for name in ("lambda_exact", "lambda_new", "lambda_gm", "lambda_khx"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


def _volume_kernel(volumes: np.ndarray, dim: int) -> float:
    """Shape shared by the new (patch) and KHX (cell) kernels: in 2D
    1/(n(1 + |ln(n v_min)|)) with n volumes, in 3D (sum v^-1/2)^(-2/3)."""
    if dim == 2:
        n = volumes.size
        return 1.0 / (n * (1.0 + abs(math.log(n * float(volumes.min())))))
    return float(np.sum(volumes**-0.5)) ** (-2.0 / 3.0)


def _kernels(stats: PatchStats) -> tuple[float, float, float]:
    """Uncalibrated (new, gm, khx) kernels of one mesh; each estimate is its
    calibration constant times its kernel."""
    if stats.cell_volumes.size == 0 or np.any(stats.cell_volumes <= 0.0):
        raise ValueError("cell volumes must be a nonempty positive array")
    new = _volume_kernel(stats.patch_volumes, stats.dim)
    mh = stats.m_const * stats.h_const
    if stats.dim == 2:
        n = stats.n_free
        gm = 1.0 / (n * (1.0 + abs(math.log(n * stats.omega_min / mh))))
    else:
        gm = mh ** (-1.0 / 3.0) * new
    return new, gm, _volume_kernel(stats.cell_volumes, stats.dim)


def estimates(stats: PatchStats, cal: Calibration) -> tuple[float, float, float]:
    """Calibrated (new, gm, khx) estimates for the mesh `stats` describe."""
    if cal.dim != stats.dim:
        raise ValueError(f"calibration is for dim={cal.dim}, mesh has dim={stats.dim}")
    new, gm, khx = _kernels(stats)
    return cal.c_new * new, cal.c_gm * gm, cal.c_khx * khx


def uniform_lambda_min(dim: int, n: int) -> float:
    """Smallest stiffness eigenvalue of the uniform mesh with n intervals per
    direction, in closed form: P1 there is h^(d-2) times the (2d+1)-point
    finite-difference Laplacian, whose smallest eigenvalue is
    4d sin^2(pi h / 2), so 8 sin^2(pi h/2) in 2D and 12 h sin^2(pi h/2) in 3D."""
    h = 1.0 / n
    return 4.0 * dim * h ** (dim - 2) * math.sin(math.pi * h / 2.0) ** 2


def calibrate(dim: int, n_ref: int | None = None) -> Calibration:
    """Fix the estimator constants on the uniform mesh with n_ref intervals per
    direction: each constant is set so its estimator returns that mesh's
    closed-form eigenvalue `uniform_lambda_min` exactly."""
    check_dim(dim)
    if n_ref is None:
        n_ref = DEFAULT_REFERENCE_INTERVALS[dim]
    ref = GradingParams(MeshFamily.UNIFORM, n_ref)
    stats = patch_stats(build_mesh(dim, ref))
    exact = uniform_lambda_min(dim, ref.n)
    c_new, c_gm, c_khx = (exact / k for k in _kernels(stats))
    return Calibration(dim=dim, n_ref=ref.n, c_new=c_new, c_gm=c_gm, c_khx=c_khx)
