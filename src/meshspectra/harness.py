"""Parameter sweeps over mesh families, CSV tables, and log-log SVG plots.

A sweep fixes one grading family and varies a single axis (mesh size n, layer
width eps, or grading exponent beta).  A sweep first builds every point's mesh,
its statistics and its stiffness matrix; then it computes each point's exact
smallest eigenvalue and evaluates the three calibrated estimates.  Calibration
is computed once per sweep from the pinned uniform reference mesh, whose
eigenvalue is known in closed form.  Output is deterministic: the CSV's
seconds column is always 0, so two runs of the same spec produce
byte-identical CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import BoundReport, Calibration, calibrate, estimates
from .fem import assemble
from .meshgen import (
    GradingParams,
    LayerPosition,
    MeshFamily,
    PatchStats,
    SweepAxis,
    build_mesh,
    check_dim,
    check_intervals,
    graded_nodes,
    patch_stats,
)
from .spectra import ConvergenceError, check_tol, lambda_min_sparse

# y-series selectable for plotting, with their legend labels and colours
PLOT_COLUMNS = {
    "lambda_exact": ("λ_min", "#000000"),
    "lambda_new": ("λ̄", "#1f77b4"),
    "lambda_gm": ("λ̄_GM", "#ff7f0e"),
    "lambda_khx": ("λ̄_KHX", "#2ca02c"),
}

# CSV header: one name per value of csv_row in order, then seconds, written as 0
CSV_COLUMNS = (
    "param", "n_free", "lambda_exact", "lambda_new", "lambda_gm", "lambda_khx",
    "omega_min", "k_min", "M", "H", "seconds",
)
_CSV_ROW = "%.17g,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%.17g,0"


@dataclass(frozen=True)
class SweepSpec:
    """One family, one varying axis, everything else pinned.  The values set the
    swept setting, which takes no fixed value; an eps or beta sweep needs a fixed n."""

    dim: int
    family: MeshFamily
    axis: SweepAxis
    values: tuple
    n: int | None = None
    eps: float | None = None
    beta: float | None = None
    c_sigma: float | None = None
    layer_position: LayerPosition = LayerPosition.BOUNDARY
    tol: float = 1e-8
    calibration_ref: int | None = None

    def __post_init__(self):
        axis = self.axis.value
        if getattr(self, axis) is not None:
            raise ValueError(f"a sweep over '{axis}' takes no fixed '{axis}'")
        if self.n is None and self.axis is not SweepAxis.N:
            raise ValueError(f"sweeping '{axis}' needs a fixed mesh size: set 'n'")
        check_dim(self.dim)
        check_tol(self.tol)
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise ValueError(f"a sweep needs at least 2 values, got {len(vals)}")
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ValueError(f"'values' must be strictly monotone, got {vals}")
        if self.n is not None:
            object.__setattr__(self, "n", _mesh_size(self.n))
        # refuse a bad point before any is solved; the cap goes first so that no
        # oversized node set is built.  Two values with equal node sets would
        # solve the same mesh twice (a clamped Shishkin transition, say).
        seen = {}
        for value in vals:
            p = self.params_at(value)
            check_intervals(self.dim, p.n)
            nodes = graded_nodes(p).nodes.tobytes()
            if nodes in seen:
                raise ValueError(f"{axis}={seen[nodes]} and {axis}={value} build the same mesh")
            seen[nodes] = value

    def params_at(self, value) -> GradingParams:
        """The grading at one sweep value; a family that does not read the axis refuses it."""
        settings = dict(n=self.n, eps=self.eps, beta=self.beta, c_sigma=self.c_sigma)
        settings[self.axis.value] = _mesh_size(value) if self.axis is SweepAxis.N else float(value)
        return GradingParams(self.family, layer_position=self.layer_position, **settings)


def _mesh_size(n) -> int:
    """n as an int, or ValueError if it is not a whole number."""
    if not float(n).is_integer():
        raise ValueError(f"mesh sizes must be integers, got {n}")
    return int(n)


def analyze(stats: PatchStats, A, cal: Calibration, tol: float = 1e-8, param=0.0) -> BoundReport:
    """The record of one mesh, from its stats and its assembled matrix A: the
    solve of A, all three calibrated estimates, under the sweep value param."""
    return BoundReport(float(param), stats, lambda_min_sparse(A, tol=tol), *estimates(stats, cal))


def csv_row(r: BoundReport) -> tuple:
    """The record's values in the order of CSV_COLUMNS, up to seconds."""
    s = r.stats
    return (r.param, s.n_free, r.lambda_exact, r.lambda_new, r.lambda_gm, r.lambda_khx,
            s.omega_min, s.k_min, s.m_const, s.h_const)


def run_sweep(spec: SweepSpec) -> list[BoundReport]:
    """One BoundReport per sweep value, under a single shared calibration.

    Every point's statistics and matrix are computed, and its mesh dropped,
    before any point is solved, so a mesh that patch_stats or assemble refuses
    costs no solve.  A ConvergenceError or ValueError raised for a point gets
    the prefix "sweep point <axis>=<value>".
    """
    cal = calibrate(spec.dim, spec.calibration_ref)
    built, rows = [], []
    try:
        for value in spec.values:
            mesh = build_mesh(spec.dim, spec.params_at(value))
            built.append((value, patch_stats(mesh), assemble(mesh)))
        del mesh  # and its geometry, before the solves
        for value, stats, A in built:
            rows.append(analyze(stats, A, cal, spec.tol, value))
    except ConvergenceError as exc:
        exc.args = (f"sweep point {spec.axis.value}={value} did not converge: {exc}",)
        raise
    except ValueError as exc:
        exc.args = (f"sweep point {spec.axis.value}={value}: {exc}",)
        raise
    return rows


def emit_csv(rows, path) -> None:
    """Write BoundReports as CSV with 17-significant-digit floats.

    The format round-trips floats bit-exactly and is byte-deterministic for
    identical inputs; the seconds column is always 0.
    """
    lines = [",".join(CSV_COLUMNS)] + [_CSV_ROW % csv_row(r) for r in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _decades(lo: float, hi: float):
    first = math.ceil(lo - 1e-9)
    last = math.floor(hi + 1e-9)
    return [d for d in range(first, last + 1) if lo - 1e-9 <= d <= hi + 1e-9]


def emit_svg_loglog(rows, columns, path, normalize: bool = False) -> None:
    """Self-contained log-log SVG plot of selected columns against the sweep
    parameter, plus a dashed slope -1 reference guide.

    normalize=True multiplies every curve by n_free, plotting the ratio to
    the 1/N reference decay instead of the raw values.
    """
    rows = list(rows)
    if len(rows) < 2:
        raise ValueError(f"need at least 2 rows to plot, got {len(rows)}")
    for col in columns:
        if col not in PLOT_COLUMNS:
            raise ValueError(f"unknown plot column {col!r}; choose from {sorted(PLOT_COLUMNS)}")

    xs = [r.param for r in rows]
    series = {col: [getattr(r, col) * (r.stats.n_free if normalize else 1.0) for r in rows]
              for col in columns}
    for vals in [xs, *series.values()]:
        if any(not v > 0.0 for v in vals):
            raise ValueError("log-log plot requires positive data")

    lx = [math.log10(x) for x in xs]
    ly = [math.log10(y) for col in columns for y in series[col]]
    x_lo, x_hi = min(lx), max(lx)
    y_lo, y_hi = min(ly), max(ly)
    # data box maps exactly onto the frame; widen only degenerate ranges
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    width, height = 640.0, 480.0
    left, right, top, bottom = 70.0, 180.0, 20.0, 50.0
    fw, fh = width - left - right, height - top - bottom

    def px(logx):
        return left + (logx - x_lo) / (x_hi - x_lo) * fw

    def py(logy):
        return top + (y_hi - logy) / (y_hi - y_lo) * fh

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        f'<rect x="{left:g}" y="{top:g}" width="{fw:g}" height="{fh:g}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]

    for d in _decades(x_lo, x_hi):
        x = px(d)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top:g}" x2="{x:.2f}" y2="{top + fh:g}" '
            'stroke="#cccccc" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{top + fh + 18:.2f}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">1e{d}</text>'
        )
    for d in _decades(y_lo, y_hi):
        y = py(d)
        parts.append(
            f'<line x1="{left:g}" y1="{y:.2f}" x2="{left + fw:g}" y2="{y:.2f}" '
            'stroke="#cccccc" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{left - 6:.2f}" y="{y + 4:.2f}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">1e{d}</text>'
        )

    # slope -1 guide through the top-left frame corner, clipped to the frame
    guide_x_hi = min(x_hi, x_lo + (y_hi - y_lo))
    parts.append(
        f'<line x1="{px(x_lo):.2f}" y1="{py(y_hi):.2f}" '
        f'x2="{px(guide_x_hi):.2f}" y2="{py(y_hi - (guide_x_hi - x_lo)):.2f}" '
        'stroke="#888888" stroke-width="1" stroke-dasharray="6,4"/>'
    )

    for col in columns:
        color = PLOT_COLUMNS[col][1]
        pts = " ".join(
            f"{px(math.log10(x)):.2f},{py(math.log10(y)):.2f}"
            for x, y in zip(xs, series[col])
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        for x, y in zip(xs, series[col]):
            parts.append(
                f'<circle cx="{px(math.log10(x)):.2f}" cy="{py(math.log10(y)):.2f}" '
                f'r="3" fill="{color}"/>'
            )

    legend_x = left + fw + 14.0
    legend_y = top + 10.0
    for i, col in enumerate(columns):
        label, color = PLOT_COLUMNS[col]
        y = legend_y + 22.0 * i
        parts.append(
            f'<line x1="{legend_x:.2f}" y1="{y:.2f}" x2="{legend_x + 26:.2f}" y2="{y:.2f}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{legend_x + 32:.2f}" y="{y + 4:.2f}" font-size="13" '
            f'font-family="sans-serif">{label}</text>'
        )
    y = legend_y + 22.0 * len(columns)
    parts.append(
        f'<line x1="{legend_x:.2f}" y1="{y:.2f}" x2="{legend_x + 26:.2f}" y2="{y:.2f}" '
        'stroke="#888888" stroke-width="1" stroke-dasharray="6,4"/>'
    )
    parts.append(
        f'<text x="{legend_x + 32:.2f}" y="{y + 4:.2f}" font-size="13" '
        'font-family="sans-serif">slope -1</text>'
    )
    parts.append("</svg>")

    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _fixtures() -> dict[str, SweepSpec]:
    N2 = (8, 16, 32, 64, 128)
    N3 = (4, 6, 8, 10, 12)
    EPS2 = (0.2, 0.1, 0.05, 0.02, 0.01)
    BETAS = (1.0, 1.5, 2.0, 3.0, 4.0)
    U, S, B, P, L = (
        MeshFamily.UNIFORM,
        MeshFamily.SHISHKIN,
        MeshFamily.BAKHVALOV,
        MeshFamily.POWER,
        MeshFamily.SINGLE_LAYER,
    )
    inner = {"layer_position": LayerPosition.INTERNAL}
    return {
        "uniform-2d-n": SweepSpec(2, U, SweepAxis.N, N2),
        "uniform-3d-n": SweepSpec(3, U, SweepAxis.N, N3),
        "shishkin-2d-n": SweepSpec(2, S, SweepAxis.N, N2, eps=0.05),
        "shishkin-2d-eps": SweepSpec(2, S, SweepAxis.EPS, EPS2, n=128),
        "shishkin-internal-2d-n": SweepSpec(2, S, SweepAxis.N, N2, eps=0.05, **inner),
        "shishkin-internal-2d-eps": SweepSpec(2, S, SweepAxis.EPS, EPS2, n=128, **inner),
        "bakhvalov-2d-n": SweepSpec(2, B, SweepAxis.N, N2, eps=0.05),
        "bakhvalov-2d-eps": SweepSpec(2, B, SweepAxis.EPS, EPS2, n=128),
        "bakhvalov-internal-2d-n": SweepSpec(2, B, SweepAxis.N, N2, eps=0.05, **inner),
        "bakhvalov-internal-2d-eps": SweepSpec(2, B, SweepAxis.EPS, EPS2, n=128, **inner),
        "power-2d-n": SweepSpec(2, P, SweepAxis.N, N2, beta=3.0),
        "power-2d-beta": SweepSpec(2, P, SweepAxis.BETA, BETAS, n=128),
        "single-layer-2d-n": SweepSpec(2, L, SweepAxis.N, N2, eps=0.1),
        "single-layer-2d-eps": SweepSpec(2, L, SweepAxis.EPS, EPS2, n=128),
        "power-3d-n": SweepSpec(3, P, SweepAxis.N, N3, beta=3.0),
        "power-3d-beta": SweepSpec(3, P, SweepAxis.BETA, BETAS, n=12),
        "single-layer-3d-n": SweepSpec(3, L, SweepAxis.N, N3, eps=0.05),
        "single-layer-3d-eps": SweepSpec(3, L, SweepAxis.EPS, (0.1, 0.05, 0.02, 0.01), n=12),
    }


def __getattr__(name):
    # FIXTURES, the pinned sweep definitions mirroring every experiment
    # family/axis combination, is built on first access (PEP 562): its 18
    # specs check 89 graded node sets, which no command needs
    if name != "FIXTURES":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global FIXTURES
    FIXTURES = _fixtures()
    return FIXTURES
