"""Parameter sweeps over mesh families, CSV tables, and log-log SVG plots.

A sweep fixes one grading family and varies a single axis (mesh size n, layer
width eps, or grading exponent beta).  A sweep first prepares every point:
its mesh, its statistics and its stiffness matrix, all assembled through one
StiffnessPattern; then it computes each point's exact smallest eigenvalue and
evaluates the three calibrated estimates.  Calibration is computed once per
sweep from the pinned uniform reference mesh, whose eigenvalue is known in
closed form.  Output is deterministic: the CSV's seconds column is always 0,
so two runs of the same spec produce byte-identical CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import scipy.sparse as sp

from .bounds import BoundReport, Calibration, calibrate, estimates
from .fem import StiffnessPattern
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
        if self.n is not None:  # the fixed size as every point's GradingParams stores it
            object.__setattr__(self, "n", p.n)

    def params_at(self, value) -> GradingParams:
        """The grading at one sweep value; a family that does not read the axis refuses it."""
        settings = dict(n=self.n, eps=self.eps, beta=self.beta, c_sigma=self.c_sigma)
        settings[self.axis.value] = value if self.axis is SweepAxis.N else float(value)
        return GradingParams(self.family, layer_position=self.layer_position, **settings)


def prepare(dim: int, params: GradingParams,
            pattern: StiffnessPattern) -> tuple[PatchStats, sp.csr_matrix]:
    """One mesh's statistics and its matrix, assembled through pattern, which
    derives the mesh's topology when it has another.  The mesh and its
    geometry are freed on return, so a prepared point holds no mesh while it
    waits to be solved."""
    mesh = build_mesh(dim, params)
    return patch_stats(mesh), pattern.assemble(mesh)


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

    Every point is prepared before any point is solved, so a mesh that
    build_mesh, patch_stats or the assembly refuses costs no solve.  The
    points share one StiffnessPattern, which a sweep at fixed n derives once
    and an n-sweep at every point; it is dropped before the first solve.  A
    ConvergenceError or ValueError raised for a point gets the prefix
    "sweep point <axis>=<value>".
    """
    cal = calibrate(spec.dim, spec.calibration_ref)
    built, rows = [], []
    pattern = StiffnessPattern()
    try:
        for value in spec.values:
            built.append((value, *prepare(spec.dim, spec.params_at(value), pattern)))
        del pattern
        for value, stats, A in built:
            rows.append(analyze(stats, A, cal, spec.tol, value))
    except (ConvergenceError, ValueError) as exc:
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
    # the integers in [lo, hi], widened by 1e-9 against rounding
    return list(range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1))


_GRID = 'stroke="#cccccc" stroke-width="0.5"'
_GUIDE = 'stroke="#888888" stroke-width="1" stroke-dasharray="6,4"'


def _series_stroke(color: str) -> str:
    return f'stroke="{color}" stroke-width="1.8"'


def _line(x1: str, y1: str, x2: str, y2: str, stroke: str) -> str:
    """A <line> between two points whose coordinates are already formatted."""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {stroke}/>'


def _text(x: float, y: float, size: int, label: str, anchor: str | None = None) -> str:
    """A sans-serif <text>; without an anchor it starts at x."""
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}"{anchor_attr} '
            f'font-family="sans-serif">{label}</text>')


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

    def point(logx, logy):
        return f"{px(logx):.2f}", f"{py(logy):.2f}"

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
        parts.append(_line(f"{x:.2f}", f"{top:g}", f"{x:.2f}", f"{top + fh:g}", _GRID))
        parts.append(_text(x, top + fh + 18, 12, f"1e{d}", "middle"))
    for d in _decades(y_lo, y_hi):
        y = py(d)
        parts.append(_line(f"{left:g}", f"{y:.2f}", f"{left + fw:g}", f"{y:.2f}", _GRID))
        parts.append(_text(left - 6, y + 4, 12, f"1e{d}", "end"))

    # slope -1 guide through the top-left frame corner, clipped to the frame
    guide_x_hi = min(x_hi, x_lo + (y_hi - y_lo))
    guide_end = point(guide_x_hi, y_hi - (guide_x_hi - x_lo))
    parts.append(_line(*point(x_lo, y_hi), *guide_end, _GUIDE))

    for col in columns:
        color = PLOT_COLUMNS[col][1]
        points = [point(math.log10(x), math.log10(y)) for x, y in zip(xs, series[col])]
        polyline = " ".join(f"{cx},{cy}" for cx, cy in points)
        parts.append(f'<polyline points="{polyline}" fill="none" {_series_stroke(color)}/>')
        parts += [f'<circle cx="{cx}" cy="{cy}" r="3" fill="{color}"/>' for cx, cy in points]

    # one legend entry per column, then the guide's
    legend = [(PLOT_COLUMNS[col][0], _series_stroke(PLOT_COLUMNS[col][1])) for col in columns]
    legend.append(("slope -1", _GUIDE))
    legend_x = left + fw + 14.0
    legend_y = top + 10.0
    for i, (label, stroke) in enumerate(legend):
        y = legend_y + 22.0 * i
        parts.append(_line(f"{legend_x:.2f}", f"{y:.2f}",
                           f"{legend_x + 26:.2f}", f"{y:.2f}", stroke))
        parts.append(_text(legend_x + 32, y + 4, 13, label))
    parts.append("</svg>")

    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _fixtures() -> dict[str, SweepSpec]:
    N2 = (8, 16, 32, 64, 128)
    N3 = (4, 6, 8, 10, 12)
    EPS2 = (0.2, 0.1, 0.05, 0.02, 0.01)
    BETAS = (1.0, 1.5, 2.0, 3.0, 4.0)
    U, S, B, P, L = MeshFamily  # in definition order
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


# the pinned sweep definitions, one per experiment family/axis combination
FIXTURES = _fixtures()
