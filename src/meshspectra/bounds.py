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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .meshgen import (
    GradingParams,
    MeshFamily,
    PatchStats,
    build_mesh,
    patch_stats,
)

# pinned per-dimension reference sizes (intervals per direction)
DEFAULT_REFERENCE_INTERVALS = {2: 64, 3: 12}


@dataclass(frozen=True)
class Calibration:
    """Per-dimension multiplicative constants, one per estimator family."""

    dim: int
    c_new: float
    c_gm: float
    c_khx: float
    n_ref: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        for name in ("c_new", "c_gm", "c_khx"):
            c = getattr(self, name)
            if not (c > 0.0 and math.isfinite(c)):
                raise ValueError(f"{name} must be positive and finite, got {c!r}")
        if self.n_ref < 2:
            raise ValueError(f"n_ref must be >= 2, got {self.n_ref}")


@dataclass(frozen=True)
class BoundReport:
    """One mesh's exact eigenvalue next to all three calibrated estimates and
    the geometry they were computed from, one field per CSV column in order.

    param is the sweep value the mesh stands for; wall_time is the seconds
    spent on the mesh, 0.0 when not measured.
    """

    param: float
    n_free: int
    lambda_exact: float
    lambda_new: float
    lambda_gm: float
    lambda_khx: float
    omega_min: float
    k_min: float
    m_const: int
    h_const: float
    wall_time: float

    def __post_init__(self):
        for name in ("lambda_exact", "lambda_new", "lambda_gm", "lambda_khx"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


def _check_dim(dim: int, cal: Calibration) -> None:
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if cal.dim != dim:
        raise ValueError(f"calibration is for dim={cal.dim}, mesh has dim={dim}")


def _kernel_new(stats: PatchStats, dim: int) -> float:
    if dim == 2:
        n = stats.n_free
        return 1.0 / (n * (1.0 + abs(math.log(n * stats.omega_min))))
    s = float(np.sum(stats.patch_volumes**-0.5))
    return s ** (-2.0 / 3.0)


def _kernel_gm(stats: PatchStats, dim: int) -> float:
    mh = stats.m_const * stats.h_const
    if dim == 2:
        n = stats.n_free
        return 1.0 / (n * (1.0 + abs(math.log(n * stats.omega_min / mh))))
    s = float(np.sum(stats.patch_volumes**-0.5))
    return mh ** (-1.0 / 3.0) * s ** (-2.0 / 3.0)


def _kernel_khx(volumes, dim: int) -> float:
    v = np.asarray(volumes, dtype=float)
    if v.size == 0 or np.any(v <= 0.0):
        raise ValueError("cell volumes must be a nonempty positive array")
    if dim == 2:
        n_ele = v.size
        return 1.0 / (n_ele * (1.0 + abs(math.log(n_ele * float(v.min())))))
    s = float(np.sum(v**-0.5))
    return s ** (-2.0 / 3.0)


def estimate_new(stats: PatchStats, dim: int, cal: Calibration) -> float:
    """Patch-volume estimate; in 2D only N and the smallest patch enter."""
    _check_dim(dim, cal)
    return cal.c_new * _kernel_new(stats, dim)


def estimate_gm(stats: PatchStats, dim: int, cal: Calibration) -> float:
    """Patch-volume estimate penalized by the mesh constants M and H."""
    _check_dim(dim, cal)
    return cal.c_gm * _kernel_gm(stats, dim)


def estimate_khx(volumes, dim: int, cal: Calibration) -> float:
    """Element-volume estimate over all cells (N_ele = cell count)."""
    _check_dim(dim, cal)
    return cal.c_khx * _kernel_khx(volumes, dim)


def uniform_lambda_min(dim: int, n: int) -> float:
    """Smallest stiffness eigenvalue of the uniform mesh with n intervals per
    direction, in closed form: P1 there is h^(d-2) times the (2d+1)-point
    finite-difference Laplacian, whose smallest eigenvalue is
    4d sin^2(pi h / 2), so 8 sin^2(pi h/2) in 2D and 12 h sin^2(pi h/2) in 3D."""
    h = 1.0 / n
    return 4.0 * dim * h ** (dim - 2) * math.sin(math.pi * h / 2.0) ** 2


def calibrate(dim: int, n_ref: int | None = None, exact: float | None = None) -> Calibration:
    """Fix the estimator constants on one uniform reference mesh.

    `exact` is the smallest stiffness eigenvalue of the uniform mesh with
    n_ref intervals per direction; when it is None the closed form
    `uniform_lambda_min` supplies it.  Each constant is set so its estimator
    returns exactly `exact` on that mesh.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if n_ref is None:
        n_ref = DEFAULT_REFERENCE_INTERVALS[dim]
    if exact is not None and not (exact > 0.0 and math.isfinite(exact)):
        raise ValueError(f"exact must be a positive finite eigenvalue, got {exact!r}")
    mesh = build_mesh(dim, GradingParams(MeshFamily.UNIFORM, n_ref))
    if exact is None:
        exact = uniform_lambda_min(dim, n_ref)
    stats = patch_stats(mesh)
    return Calibration(
        dim=dim,
        c_new=exact / _kernel_new(stats, dim),
        c_gm=exact / _kernel_gm(stats, dim),
        c_khx=exact / _kernel_khx(stats.cell_volumes, dim),
        n_ref=n_ref,
    )
