import hashlib
import math
import xml.etree.ElementTree as ET
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from meshspectra import (
    BoundReport,
    ConvergenceError,
    EigenResult,
    FIXTURES,
    MeshFamily,
    PatchStats,
    SweepAxis,
    SweepSpec,
    analyze,
    assemble,
    build_mesh,
    calibrate,
    cell_volumes,
    emit_csv,
    emit_svg_loglog,
    lambda_min_sparse,
    patch_stats,
    run_sweep,
)
from meshspectra.harness import csv_row

CSV_HEADER = "param,n_free,lambda_exact,lambda_new,lambda_gm,lambda_khx,omega_min,k_min,M,H,seconds"

SHISHKIN_SMALL = SweepSpec(
    dim=2,
    family=MeshFamily.SHISHKIN,
    eps=0.05,
    axis=SweepAxis.N,
    values=(8, 16),
)


def make_row(param, n_free, lam):
    """A record with every eigenvalue lam: n_free patches of volume 1e-3, cells of 1e-4."""
    stats = PatchStats(dim=2, patch_volumes=np.full(n_free, 1e-3),
                       cell_volumes=np.full(2 * n_free, 1e-4), m_const=6, h_const=1.0)
    eigen = EigenResult(lambda_min=lam, iterations=1, error_bound=0.0, preconditioner="Jacobi")
    return BoundReport(param=float(param), stats=stats, eigen=eigen,
                       lambda_new=lam, lambda_gm=lam, lambda_khx=lam)


# ------------------------------------------------------------- sweep specs


def test_spec_validation():
    uniform = dict(dim=2, family=MeshFamily.UNIFORM)
    with pytest.raises(ValueError):
        SweepSpec(dim=4, family=MeshFamily.UNIFORM, axis=SweepAxis.N, values=(4, 8))
    with pytest.raises(ValueError):
        SweepSpec(**uniform, axis=SweepAxis.N, values=())
    with pytest.raises(ValueError, match="at least 2 values"):
        SweepSpec(**uniform, axis=SweepAxis.N, values=(8,))
    with pytest.raises(ValueError):
        SweepSpec(**uniform, n=8, axis=SweepAxis.EPS, values=(0.1, -0.2))
    with pytest.raises(ValueError, match="'values' must be strictly monotone"):
        SweepSpec(**uniform, axis=SweepAxis.N, values=(8, 4, 16))
    with pytest.raises(ValueError):
        SweepSpec(**uniform, axis=SweepAxis.N, values=(8, 12.5))
    with pytest.raises(ValueError):
        SweepSpec(**uniform, axis=SweepAxis.N, values=(128, 512))
    with pytest.raises(ValueError):
        SweepSpec(dim=3, family=MeshFamily.UNIFORM, axis=SweepAxis.N, values=(8, 32))
    # the cap also applies to the pinned size of a non-N sweep
    with pytest.raises(ValueError):
        SweepSpec(
            dim=2,
            family=MeshFamily.SHISHKIN,
            n=512,
            axis=SweepAxis.EPS,
            values=(0.2, 0.1),
        )


@pytest.mark.parametrize("axis, fixed, values", [
    (SweepAxis.N, dict(n=16), (8, 32)),
    (SweepAxis.EPS, dict(n=16, eps=0.05), (0.2, 0.1)),
    (SweepAxis.BETA, dict(n=16, beta=3.0), (1.0, 2.0)),
])
def test_spec_refuses_a_fixed_value_for_the_swept_setting(axis, fixed, values):
    family = MeshFamily.POWER if axis is SweepAxis.BETA else MeshFamily.SHISHKIN
    message = f"a sweep over '{axis.value}' takes no fixed '{axis.value}'"
    with pytest.raises(ValueError, match=message):
        SweepSpec(dim=2, family=family, axis=axis, values=values, **fixed)


@pytest.mark.parametrize("family, axis, values", [
    (MeshFamily.SHISHKIN, SweepAxis.EPS, (0.2, 0.1)),
    (MeshFamily.POWER, SweepAxis.BETA, (1.0, 2.0)),
])
def test_spec_refuses_a_sweep_without_a_mesh_size(family, axis, values):
    with pytest.raises(ValueError, match=f"sweeping '{axis.value}' needs a fixed mesh size"):
        SweepSpec(dim=2, family=family, axis=axis, values=values)


@pytest.mark.parametrize("family, axis, values", [
    (MeshFamily.UNIFORM, SweepAxis.EPS, (0.2, 0.1)),
    (MeshFamily.POWER, SweepAxis.EPS, (0.2, 0.1)),
    (MeshFamily.SHISHKIN, SweepAxis.BETA, (1.0, 2.0)),
])
def test_spec_refuses_an_axis_the_family_does_not_read(family, axis, values):
    with pytest.raises(ValueError, match=f"{family.value} grading does not depend on {axis.value}"):
        SweepSpec(dim=2, family=family, n=16, axis=axis, values=values)


def test_spec_refuses_two_values_with_the_same_mesh():
    # tau = min(1, 2*c_sigma*eps*ln n) clamps to 1 at both values: two uniform meshes
    shishkin = dict(dim=2, family=MeshFamily.SHISHKIN, n=8, axis=SweepAxis.EPS)
    with pytest.raises(ValueError, match="eps=0.9 and eps=0.6 build the same mesh"):
        SweepSpec(**shishkin, values=(0.9, 0.6))
    # one clamped value next to unclamped ones is a sweep
    SweepSpec(**shishkin, values=(0.9, 0.2, 0.1))


def test_spec_refuses_infinite_mesh_size():
    with pytest.raises(ValueError, match="mesh sizes must be integers, got inf"):
        SweepSpec(dim=2, family=MeshFamily.UNIFORM, axis=SweepAxis.N, values=(8, math.inf))
    with pytest.raises(ValueError, match="mesh sizes must be integers, got inf"):
        SweepSpec(dim=2, family=MeshFamily.SHISHKIN, n=math.inf, axis=SweepAxis.EPS,
                  values=(0.2, 0.1))


def test_spec_allows_decreasing_values():
    spec = SweepSpec(
        dim=2,
        family=MeshFamily.SHISHKIN,
        n=8,
        axis=SweepAxis.EPS,
        values=[0.2, 0.1, 0.05],
    )
    assert spec.values == (0.2, 0.1, 0.05)  # normalized to a tuple


def test_params_at():
    spec = SHISHKIN_SMALL
    p = spec.params_at(32)
    assert p.n == 32 and p.eps == 0.05 and p.family is MeshFamily.SHISHKIN

    espec = SweepSpec(
        dim=2,
        family=MeshFamily.SHISHKIN,
        n=16,
        axis=SweepAxis.EPS,
        values=(0.2, 0.1),
    )
    assert espec.params_at(0.02).eps == 0.02
    assert espec.params_at(0.02).n == 16

    bspec = SweepSpec(
        dim=2,
        family=MeshFamily.POWER,
        n=8,
        axis=SweepAxis.BETA,
        values=(1.0, 2.0),
    )
    assert bspec.params_at(3.0).beta == 3.0


# -------------------------------------------------------------- sweep runs


def test_run_sweep_uniform_closed_form():
    spec = SweepSpec(
        dim=2,
        family=MeshFamily.UNIFORM,
        axis=SweepAxis.N,
        values=(4, 8),
        calibration_ref=16,
    )
    rows = run_sweep(spec)
    assert [r.param for r in rows] == [4.0, 8.0]
    for r, n in zip(rows, (4, 8)):
        assert r.stats.n_free == (n - 1) ** 2
        lam = 8.0 * math.sin(math.pi / (2 * n)) ** 2
        assert abs(r.lambda_exact - lam) <= 1e-6 * lam


def test_run_sweep_qualitative_ordering():
    rows = run_sweep(SHISHKIN_SMALL)
    assert rows[0].lambda_exact > rows[1].lambda_exact
    for r in rows:
        for v in (r.lambda_new, r.lambda_gm, r.lambda_khx, r.stats.omega_min, r.stats.k_min):
            assert v > 0.0
        assert r.lambda_gm < r.lambda_new  # the layer penalty bites harder on GM
        assert r.stats.m_const >= 3 and r.stats.h_const >= 1.0


def test_run_sweep_deterministic():
    r1 = run_sweep(SHISHKIN_SMALL)
    r2 = run_sweep(SHISHKIN_SMALL)
    assert len(r1) == len(r2)
    for a, b in zip(r1, r2):
        assert csv_row(a) == csv_row(b)
        assert a.eigen == b.eigen
        for name in ("patch_volumes", "cell_volumes"):
            assert getattr(a.stats, name).tobytes() == getattr(b.stats, name).tobytes()


def test_run_sweep_record_carries_the_solve_and_the_stats():
    spec = SweepSpec(dim=2, family=MeshFamily.BAKHVALOV, n=32, axis=SweepAxis.EPS,
                     values=(0.05, 0.01), calibration_ref=8)
    row = run_sweep(spec)[1]
    mesh = build_mesh(2, spec.params_at(0.01))
    eigen = lambda_min_sparse(assemble(mesh), spec.tol)
    assert eigen.preconditioner.startswith("multigrid")  # a hierarchy was built
    for field in ("lambda_min", "iterations", "error_bound", "preconditioner"):
        assert getattr(row.eigen, field) == getattr(eigen, field)
    stats = patch_stats(mesh)
    for name in ("patch_volumes", "cell_volumes"):
        assert getattr(row.stats, name).tobytes() == getattr(stats, name).tobytes()


def test_run_sweep_labels_convergence_failures(monkeypatch):
    import meshspectra.harness as hz

    raised = []

    def boom(A, tol=1e-8):
        raised.append(ConvergenceError("LOBPCG stalled at step 3 (last estimate 7.5, residual 0.5)"))
        raise raised[-1]

    monkeypatch.setattr(hz, "lambda_min_sparse", boom)
    spec = SweepSpec(
        dim=2,
        family=MeshFamily.SHISHKIN,
        n=8,
        axis=SweepAxis.EPS,
        values=(0.2, 0.1),
        calibration_ref=4,
    )
    with pytest.raises(ConvergenceError) as info:
        hz.run_sweep(spec)
    assert str(info.value) == (
        "sweep point eps=0.2 did not converge: LOBPCG stalled at step 3 (last estimate 7.5, residual 0.5)"
    )
    assert info.value is raised[0]


def test_run_sweep_labels_refused_points(monkeypatch):
    import meshspectra.harness as hz

    assembled = []

    def refuse(mesh):
        assembled.append(mesh)
        if len(assembled) == 2:
            raise ValueError("degenerate simplex")
        return assemble(mesh)

    def no_solve(*args, **kwargs):
        raise AssertionError("a point was solved before every point was assembled")

    monkeypatch.setattr(hz, "assemble", refuse)
    monkeypatch.setattr(hz, "lambda_min_sparse", no_solve)
    spec = SweepSpec(dim=2, family=MeshFamily.SHISHKIN, n=8, axis=SweepAxis.EPS,
                     values=(0.2, 0.1), calibration_ref=4)
    with pytest.raises(ValueError, match=r"^sweep point eps=0\.1: degenerate simplex$"):
        hz.run_sweep(spec)


# --------------------------------------------------------------------- CSV


def test_csv_header_and_roundtrip(tmp_path):
    rows = run_sweep(SHISHKIN_SMALL)
    path = tmp_path / "sweep.csv"
    emit_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        t = line.split(",")
        assert float(t[0]) == row.param
        assert int(t[1]) == row.stats.n_free
        assert float(t[2]) == row.lambda_exact  # %.17g is bit-exact
        assert float(t[3]) == row.lambda_new
        assert float(t[4]) == row.lambda_gm
        assert float(t[5]) == row.lambda_khx
        assert float(t[6]) == row.stats.omega_min
        assert float(t[7]) == row.stats.k_min
        assert int(t[8]) == row.stats.m_const
        assert float(t[9]) == row.stats.h_const
        assert t[10] == "0"


def test_csv_byte_deterministic(tmp_path):
    rows = run_sweep(SHISHKIN_SMALL)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows, a)
    emit_csv(run_sweep(SHISHKIN_SMALL), b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_empty_rows(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"


# --------------------------------------------------------------------- SVG


def test_svg_corner_mapping(tmp_path):
    # (1, 1) and (10, 0.1) span exactly one decade each way, so the two data
    # points must land on opposite frame corners: (70, 20) and (460, 430)
    rows = [make_row(1.0, 10, 1.0), make_row(10.0, 100, 0.1)]
    path = tmp_path / "plot.svg"
    emit_svg_loglog(rows, ["lambda_exact"], path)
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    polys = root.findall(f"{ns}polyline")
    assert len(polys) == 1
    assert polys[0].get("points") == "70.00,20.00 460.00,430.00"
    circles = root.findall(f"{ns}circle")
    assert [(c.get("cx"), c.get("cy")) for c in circles] == [
        ("70.00", "20.00"),
        ("460.00", "430.00"),
    ]


def test_svg_normalized_flat_series(tmp_path):
    # lambda = 1/n_free exactly: normalization flattens the curve and the
    # degenerate range is widened by half a decade each way (y center 225)
    rows = [make_row(10.0, 10, 0.1), make_row(100.0, 100, 0.01)]
    path = tmp_path / "norm.svg"
    emit_svg_loglog(rows, ["lambda_exact"], path, normalize=True)
    root = ET.parse(path).getroot()
    poly = root.find("{http://www.w3.org/2000/svg}polyline")
    assert poly.get("points") == "70.00,225.00 460.00,225.00"


def test_svg_structure_and_legend(tmp_path):
    rows = run_sweep(SHISHKIN_SMALL)
    cols = ["lambda_exact", "lambda_new", "lambda_gm", "lambda_khx"]
    path = tmp_path / "full.svg"
    emit_svg_loglog(rows, cols, path)
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    assert root.tag == f"{ns}svg"
    assert len(root.findall(f"{ns}polyline")) == len(cols)
    assert len(root.findall(f"{ns}circle")) == len(cols) * len(rows)
    texts = [t.text for t in root.findall(f"{ns}text")]
    for label in ("λ_min", "λ̄", "λ̄_GM", "λ̄_KHX", "slope -1"):
        assert label in texts
    assert any(t.startswith("1e") for t in texts)  # decade tick labels


def plot_row(param, n_free, exact, new, gm, khx):
    """A record whose four plotted columns each carry their own value."""
    return replace(make_row(param, n_free, exact), lambda_new=new, lambda_gm=gm, lambda_khx=khx)


ALL_COLUMNS = ["lambda_exact", "lambda_new", "lambda_gm", "lambda_khx"]
# rows with distinct values per column, spanning several decades both ways
SPREAD_ROWS = [
    plot_row(8.0, 49, 0.153, 0.121, 0.0871, 0.312),
    plot_row(16.0, 225, 0.0402, 0.0377, 0.0198, 0.0913),
    plot_row(32.0, 961, 0.0101, 0.00952, 0.00437, 0.0247),
    plot_row(64.0, 3969, 0.00254, 0.00231, 0.000981, 0.00652),
    plot_row(128.0, 16129, 0.000637, 0.000588, 0.000223, 0.00171),
]
# lambda = 1/n_free: flat once normalized, which widens the y range
FLAT_ROWS = [make_row(10.0, 10, 0.1), make_row(100.0, 100, 0.01)]
# params inside one decade: no x tick
SUB_DECADE_ROWS = [make_row(2.0, 10, 0.3), make_row(3.5, 20, 0.2), make_row(5.0, 40, 0.05)]
# one param only: the x range is widened
SAME_X_ROWS = [make_row(3.0, 10, 0.3), make_row(3.0, 20, 0.2)]
SVG_CASES = [
    (SPREAD_ROWS, ALL_COLUMNS),
    (SPREAD_ROWS, ["lambda_gm"]),
    (SPREAD_ROWS[::-1], ["lambda_khx", "lambda_exact"]),
    (FLAT_ROWS, ["lambda_exact"]),
    (FLAT_ROWS, ALL_COLUMNS),
    (SUB_DECADE_ROWS, ["lambda_new"]),
    (SAME_X_ROWS, ["lambda_exact", "lambda_new"]),
]
# SHA-256 of every case's SVG bytes, normalize off then on, written when each
# plot element still had its own markup code
SVG_DIGEST = "3fa3aca47e3f11caf570f2ed1cee0e93d00925c0ddace4fb835b9fd9291206b9"


def test_svg_bytes_are_pinned(tmp_path):
    digest = hashlib.sha256()
    path = tmp_path / "plot.svg"
    for rows, columns in SVG_CASES:
        for normalize in (False, True):
            emit_svg_loglog(rows, columns, path, normalize=normalize)
            digest.update(path.read_bytes())
    assert digest.hexdigest() == SVG_DIGEST


def test_svg_input_validation(tmp_path):
    path = tmp_path / "bad.svg"
    with pytest.raises(ValueError):
        emit_svg_loglog([make_row(1.0, 10, 1.0)], ["lambda_exact"], path)
    # BoundReport refuses a negative eigenvalue itself, so reach the plot's own
    # check through a record that does not validate
    negative = SimpleNamespace(**{**vars(make_row(2.0, 20, 1.0)), "lambda_exact": -1.0})
    rows = [make_row(1.0, 10, 1.0), negative]
    with pytest.raises(ValueError):
        emit_svg_loglog(rows, ["lambda_exact"], path)
    good = [make_row(1.0, 10, 1.0), make_row(2.0, 20, 0.5)]
    with pytest.raises(ValueError):
        emit_svg_loglog(good, ["lambda_min"], path)


# ---------------------------------------------------------------- fixtures


def test_fixture_catalog_shape():
    assert len(FIXTURES) == 18
    for name, spec in FIXTURES.items():
        assert name == name.lower()
        assert ("3d" in name) == (spec.dim == 3)
        assert isinstance(spec, SweepSpec)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_meshes_build(name):
    spec = FIXTURES[name]
    mesh = build_mesh(spec.dim, spec.params_at(spec.values[0]))
    assert mesh.dim == spec.dim
    assert mesh.n_free >= 1


# SHA-256 of every FIXTURES point's stiffness matrix and cell volumes, written
# when assembly and cell_volumes still gathered cell-major coordinates
FIXTURE_DIGEST = "90bc27c0fe80e923114ea6900f5d3808d27cc9a81e1b546ed4eeb70f901a0d35"


def test_fixture_matrices_and_volumes_are_bit_identical():
    digest = hashlib.sha256()
    points = 0
    for spec in FIXTURES.values():
        for value in spec.values:
            mesh = build_mesh(spec.dim, spec.params_at(value))
            A = assemble(mesh)
            for arr, dtype in ((A.indptr, np.int64), (A.indices, np.int64),
                               (A.data, np.float64), (cell_volumes(mesh), np.float64)):
                digest.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
            points += 1
    assert points == 89
    assert digest.hexdigest() == FIXTURE_DIGEST


# SHA-256 of the float-hex lambda_min, iterations, float-hex error_bound and
# preconditioner of every point of one multigrid sweep and the two 3D Jacobi
# sweeps whose lowest eigenvalues cluster, written before the Rayleigh-Ritz
# step called the LAPACK gufuncs directly
EIGEN_DIGEST = "5b4c26d688cf15985370bed9cccc1c1e155f17ce63f7d95674872c840fb061ee"


def test_fixture_eigen_results_are_bit_identical():
    digest = hashlib.sha256()
    points = 0
    for name in ("bakhvalov-2d-eps", "power-3d-n", "power-3d-beta"):
        spec = FIXTURES[name]
        for value in spec.values:
            A = assemble(build_mesh(spec.dim, spec.params_at(value)))
            r = lambda_min_sparse(A, tol=spec.tol)
            line = f"{r.lambda_min.hex()} {r.iterations} {r.error_bound.hex()} {r.preconditioner}\n"
            digest.update(line.encode())
            points += 1
    assert points == 15
    assert digest.hexdigest() == EIGEN_DIGEST


def test_analyze_consistent_with_run_sweep():
    cal = calibrate(2, n_ref=SHISHKIN_SMALL.calibration_ref)
    mesh = build_mesh(2, SHISHKIN_SMALL.params_at(8))
    report = analyze(patch_stats(mesh), assemble(mesh), cal, tol=SHISHKIN_SMALL.tol)
    row = run_sweep(SHISHKIN_SMALL)[0]
    assert report.lambda_exact == row.lambda_exact
    assert report.lambda_new == row.lambda_new
    assert report.lambda_gm == row.lambda_gm
    assert report.lambda_khx == row.lambda_khx
    assert report.stats.n_free == row.stats.n_free


def test_analyze_computes_cell_volumes_once(monkeypatch):
    import meshspectra.bounds as bd
    import meshspectra.harness as hz
    import meshspectra.meshgen as mg

    calls = []
    original = mg.cell_volumes

    def counted(mesh):
        calls.append(mesh)
        return original(mesh)

    # every module that could call it by its own imported name
    for module in (mg, bd, hz):
        monkeypatch.setattr(module, "cell_volumes", counted, raising=False)
    cal = calibrate(2, n_ref=4)
    assert len(calls) == 1  # calibrate reuses the volumes patch_stats computed
    mesh = build_mesh(2, SHISHKIN_SMALL.params_at(8))
    analyze(patch_stats(mesh), assemble(mesh), cal)
    assert len(calls) == 2


def test_run_sweep_computes_each_mesh_geometry_once(monkeypatch):
    import meshspectra.meshgen as mg

    calls = []
    original = mg.simplex_cofactors

    def counted(vertices, cells):
        calls.append(cells.shape[0])
        return original(vertices, cells)

    monkeypatch.setattr(mg, "simplex_cofactors", counted)
    spec = SweepSpec(dim=3, family=MeshFamily.POWER, beta=3.0, axis=SweepAxis.N,
                     values=(4, 6, 8), calibration_ref=4)
    run_sweep(spec)
    # patch_stats and assemble share each point's geometry; calibrate has no matrix
    assert calls == [6 * 4**3, 6 * 4**3, 6 * 6**3, 6 * 8**3]


def test_csv_matches_golden_fixture(tmp_path):
    import pathlib

    spec = SweepSpec(
        dim=2,
        family=MeshFamily.SHISHKIN,
        eps=0.1,
        axis=SweepAxis.N,
        values=(8, 16),
        calibration_ref=8,
    )
    fresh = tmp_path / "fresh.csv"
    emit_csv(run_sweep(spec), fresh)
    golden = pathlib.Path(__file__).parent / "data" / "golden-shishkin-2d.csv"
    assert fresh.read_bytes() == golden.read_bytes()


def test_csv_matches_golden_3d_fixture(tmp_path):
    """Pins the 3D sum kernel and the 3D GM prefactor byte for byte."""
    import pathlib

    spec = SweepSpec(
        dim=3,
        family=MeshFamily.POWER,
        beta=3.0,
        axis=SweepAxis.N,
        values=(4, 6),
        calibration_ref=4,
    )
    fresh = tmp_path / "fresh.csv"
    emit_csv(run_sweep(spec), fresh)
    golden = pathlib.Path(__file__).parent / "data" / "golden-power-3d.csv"
    assert fresh.read_bytes() == golden.read_bytes()
