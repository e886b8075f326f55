"""Parameter sweeps over mesh families, CSV tables, and log-log SVG plots.

A sweep fixes one grading family and varies a single axis (mesh size n, layer
width eps, or grading exponent beta).  Every sweep point builds the mesh,
assembles the stiffness matrix, computes the exact smallest eigenvalue, and
evaluates the three calibrated estimates; calibration is computed once per
sweep from the pinned uniform reference mesh, whose eigenvalue is known in
closed form.  Output is deterministic:
wall_time is recorded as 0.0 unless timing is explicitly requested, so two
runs of the same spec produce byte-identical CSV.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import astuple, dataclass, replace

from .bounds import BoundReport, Calibration, calibrate, estimates
from .fem import assemble
from .meshgen import (
    GradingParams,
    LayerPosition,
    MeshFamily,
    SimplicialMesh,
    build_mesh,
    check_dim,
    check_family_reads,
    check_intervals,
    graded_nodes,
    patch_stats,
)
from .spectra import ConvergenceError, lambda_min_sparse

# y-series selectable for plotting, with their legend labels and colours
PLOT_COLUMNS = {
    "lambda_exact": ("λ_min", "#000000"),
    "lambda_new": ("λ̄", "#1f77b4"),
    "lambda_gm": ("λ̄_GM", "#ff7f0e"),
    "lambda_khx": ("λ̄_KHX", "#2ca02c"),
}

# CSV header, one name per BoundReport field in order
CSV_COLUMNS = (
    "param", "n_free", "lambda_exact", "lambda_new", "lambda_gm", "lambda_khx",
    "omega_min", "k_min", "M", "H", "seconds",
)
_CSV_ROW = "%.17g,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%.17g,%.17g"


class SweepAxis(enum.Enum):
    N = "n"
    EPS = "eps"
    BETA = "beta"


@dataclass(frozen=True)
class SweepSpec:
    """One family, one varying axis, everything else pinned."""

    dim: int
    base: GradingParams
    axis: SweepAxis
    values: tuple
    tol: float = 1e-8
    calibration_ref: int | None = None

    def __post_init__(self):
        check_dim(self.dim)
        check_family_reads(self.base.family, self.axis.value)
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise ValueError(f"a sweep needs at least 2 values, got {len(vals)}")
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ValueError(f"sweep_values must be strictly monotone, got {vals}")
        _mesh_size(self.base.n)
        # refuse a bad point before any is solved; the cap goes first so that no
        # oversized node set is built.  Two values with equal node sets would
        # solve the same mesh twice (a clamped Shishkin transition, say).
        seen = {}
        for value in vals:
            p = self.params_at(value)
            check_intervals(self.dim, p.n)
            nodes = graded_nodes(p).nodes.tobytes()
            if nodes in seen:
                axis = self.axis.value
                raise ValueError(f"{axis}={seen[nodes]} and {axis}={value} build the same mesh")
            seen[nodes] = value

    def params_at(self, value) -> GradingParams:
        cast = _mesh_size if self.axis is SweepAxis.N else float
        return replace(self.base, **{self.axis.value: cast(value)})


def _mesh_size(n) -> int:
    """n as an int, or ValueError if it is not a whole number."""
    if not float(n).is_integer():
        raise ValueError(f"mesh sizes must be integers, got {n}")
    return int(n)


def analyze_mesh(
    mesh: SimplicialMesh, cal: Calibration, tol: float = 1e-8, param: float = 0.0
) -> BoundReport:
    """Exact eigenvalue plus all three calibrated estimates for one mesh,
    recorded under the sweep value param, with wall_time 0.0."""
    stats = patch_stats(mesh)
    exact = lambda_min_sparse(assemble(mesh), tol=tol).lambda_min
    new, gm, khx = estimates(stats, cal)
    return BoundReport(
        param=float(param),
        n_free=stats.n_free,
        lambda_exact=exact,
        lambda_new=new,
        lambda_gm=gm,
        lambda_khx=khx,
        omega_min=stats.omega_min,
        k_min=stats.k_min,
        m_const=stats.m_const,
        h_const=stats.h_const,
        wall_time=0.0,
    )


def run_sweep(spec: SweepSpec, measure_time: bool = False) -> list[BoundReport]:
    """One BoundReport per sweep value, under a single shared calibration.

    measure_time=False (the default) records wall_time as 0.0, keeping the
    emitted CSV byte-deterministic.
    """
    cal = calibrate(spec.dim, spec.calibration_ref)
    rows = []
    for value in spec.values:
        mesh = build_mesh(spec.dim, spec.params_at(value))
        start = time.perf_counter()
        try:
            report = analyze_mesh(mesh, cal, tol=spec.tol, param=value)
        except ConvergenceError as exc:
            exc.args = (f"sweep point {spec.axis.value}={value} did not converge: {exc}",)
            raise
        if measure_time:
            report = replace(report, wall_time=time.perf_counter() - start)
        rows.append(report)
    return rows


def emit_csv(rows, path) -> None:
    """Write BoundReports as CSV with 17-significant-digit floats.

    The format round-trips floats bit-exactly and is byte-deterministic for
    identical inputs.
    """
    lines = [",".join(CSV_COLUMNS)] + [_CSV_ROW % astuple(r) for r in rows]
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
    series = {}
    for col in columns:
        ys = [getattr(r, col) * (r.n_free if normalize else 1.0) for r in rows]
        series[col] = ys
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


def _spec(
    dim, family, axis, values, n=None, tol=1e-8, calibration_ref=None, **grading
) -> SweepSpec:
    """Sweep spec from its settings; n defaults to the largest value of an n sweep.

    grading holds the GradingParams keywords (eps, beta, c_sigma, layer_position).
    """
    if n is None:
        if axis is not SweepAxis.N:
            raise ValueError(f"sweeping '{axis.value}' needs a fixed mesh size: set 'n'")
        n = max(values)
    return SweepSpec(
        dim=dim,
        base=GradingParams(family, _mesh_size(n), **grading),
        axis=axis,
        values=tuple(values),
        tol=tol,
        calibration_ref=calibration_ref,
    )


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
        "uniform-2d-n": _spec(2, U, SweepAxis.N, N2),
        "uniform-3d-n": _spec(3, U, SweepAxis.N, N3),
        "shishkin-2d-n": _spec(2, S, SweepAxis.N, N2, eps=0.05),
        "shishkin-2d-eps": _spec(2, S, SweepAxis.EPS, EPS2, n=128),
        "shishkin-internal-2d-n": _spec(2, S, SweepAxis.N, N2, eps=0.05, **inner),
        "shishkin-internal-2d-eps": _spec(2, S, SweepAxis.EPS, EPS2, n=128, **inner),
        "bakhvalov-2d-n": _spec(2, B, SweepAxis.N, N2, eps=0.05),
        "bakhvalov-2d-eps": _spec(2, B, SweepAxis.EPS, EPS2, n=128),
        "bakhvalov-internal-2d-n": _spec(2, B, SweepAxis.N, N2, eps=0.05, **inner),
        "bakhvalov-internal-2d-eps": _spec(2, B, SweepAxis.EPS, EPS2, n=128, **inner),
        "power-2d-n": _spec(2, P, SweepAxis.N, N2, beta=3.0),
        "power-2d-beta": _spec(2, P, SweepAxis.BETA, BETAS, n=128),
        "single-layer-2d-n": _spec(2, L, SweepAxis.N, N2, eps=0.1),
        "single-layer-2d-eps": _spec(2, L, SweepAxis.EPS, EPS2, n=128),
        "power-3d-n": _spec(3, P, SweepAxis.N, N3, beta=3.0),
        "power-3d-beta": _spec(3, P, SweepAxis.BETA, BETAS, n=12),
        "single-layer-3d-n": _spec(3, L, SweepAxis.N, N3, eps=0.05),
        "single-layer-3d-eps": _spec(3, L, SweepAxis.EPS, (0.1, 0.05, 0.02, 0.01), n=12),
    }


# pinned sweep definitions mirroring every experiment family/axis combination
FIXTURES = _fixtures()
