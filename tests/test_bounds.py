import dataclasses
import math

import numpy as np
import pytest

from meshspectra import (
    DEFAULT_REFERENCE_INTERVALS,
    Calibration,
    GradingParams,
    MeshFamily,
    PatchStats,
    assemble,
    build_mesh,
    calibrate,
    estimates,
    lambda_min_sparse,
    patch_stats,
)
from meshspectra.bounds import uniform_lambda_min

from conftest import geo_form, holder_mean, lambda_min_dense


def make_stats(patch_volumes, m_const=6, h_const=1.0, dim=2):
    """Hand-built stats on the unit domain: two equal cells per free vertex."""
    pv = np.asarray(patch_volumes, dtype=float)
    return PatchStats(
        dim=dim,
        patch_volumes=pv,
        cell_volumes=np.full(2 * pv.size, 0.5 / pv.size),
        m_const=m_const,
        h_const=h_const,
    )


CAL2 = Calibration(dim=2, n_ref=64, c_new=1.0, c_gm=1.0, c_khx=1.0)
CAL3 = Calibration(dim=3, n_ref=12, c_new=1.0, c_gm=1.0, c_khx=1.0)


# -------------------------------------------------------------- power means


def test_holder_mean_hand_values():
    assert math.isclose(holder_mean([1.0, 2.0, 3.0], 1.0), 2.0, rel_tol=1e-15)
    assert math.isclose(holder_mean([1.0, 2.0], -1.0), 4.0 / 3.0, rel_tol=1e-15)
    assert math.isclose(holder_mean([4.0, 4.0, 4.0], -0.5), 4.0, rel_tol=1e-14)
    assert math.isclose(holder_mean([2.0, 8.0], 2.0), math.sqrt(34.0), rel_tol=1e-15)


def test_holder_mean_errors():
    with pytest.raises(ValueError):
        holder_mean([], 1.0)
    with pytest.raises(ValueError):
        holder_mean([1.0, -2.0], 1.0)
    with pytest.raises(ValueError):
        holder_mean([1.0, 0.0], -1.0)
    with pytest.raises(ValueError):
        holder_mean([1.0, 2.0], 0.0)


def test_holder_mean_monotone_in_p():
    rng = np.random.default_rng(3)
    for _ in range(10):
        vals = rng.uniform(0.1, 5.0, size=12)
        means = [holder_mean(vals, p) for p in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))


# ------------------------------------------------------------------ kernels


def test_estimate_new_2d_hand_value():
    # N*omega_min = 1 kills the log, leaving c/N
    st = make_stats([0.25, 0.3, 0.5, 0.7], m_const=6)
    assert math.isclose(estimates(st, CAL2)[0], 0.25, rel_tol=1e-15)
    cal = dataclasses.replace(CAL2, c_new=7.0)
    assert math.isclose(estimates(st, cal)[0], 7.0 * 0.25, rel_tol=1e-15)


def test_estimate_new_2d_log_penalty():
    st = make_stats([0.25 * math.exp(-1.0), 0.3, 0.5, 0.7])
    assert math.isclose(estimates(st, CAL2)[0], 0.25 / 2.0, rel_tol=1e-14)


def test_estimate_new_3d_equal_patches():
    # equal patches w: (N w^-1/2)^(-2/3) = N^(-2/3) w^(1/3)
    w = 0.015625
    st = make_stats([w] * 8, dim=3)
    assert math.isclose(estimates(st, CAL3)[0], 8.0 ** (-2.0 / 3.0) * w ** (1.0 / 3.0), rel_tol=1e-14)


def test_estimate_gm_2d_hand_value():
    # N*omega_min/(M*H) = 1 kills the log
    st = make_stats([1.5, 2.0], m_const=6, h_const=0.5)
    assert math.isclose(estimates(st, CAL2)[1], 0.5, rel_tol=1e-15)


def test_estimate_gm_3d_prefactor():
    w = 0.125
    st = make_stats([w] * 4, m_const=24, h_const=2.0, dim=3)
    expect = 48.0 ** (-1.0 / 3.0) * (4.0 / math.sqrt(w)) ** (-2.0 / 3.0)
    assert math.isclose(estimates(st, CAL3)[1], expect, rel_tol=1e-14)


def khx(volumes, cal):
    """KHX estimate of hand-built stats whose cells have the given volumes."""
    st = make_stats([0.25, 0.5], dim=cal.dim)
    return estimates(dataclasses.replace(st, cell_volumes=np.array(volumes, dtype=float)), cal)[2]


def test_estimate_khx_hand_values():
    assert math.isclose(khx([0.25, 0.3, 0.4, 0.6], CAL2), 0.25, rel_tol=1e-15)
    vols = [0.125] * 8
    expect = (8.0 / math.sqrt(0.125)) ** (-2.0 / 3.0)
    assert math.isclose(khx(vols, CAL3), expect, rel_tol=1e-14)
    with pytest.raises(ValueError):
        khx([], CAL2)
    with pytest.raises(ValueError):
        khx([0.1, -0.1], CAL2)


def test_new_2d_ignores_nonminimal_patches():
    st = make_stats([0.25, 0.3, 0.5, 0.7])
    bumped = dataclasses.replace(st, patch_volumes=np.array([0.25, 0.6, 0.5, 0.7]))
    assert estimates(st, CAL2)[0] == estimates(bumped, CAL2)[0]


def test_dim_mismatch_rejected():
    with pytest.raises(ValueError):
        estimates(make_stats([0.25, 0.5], dim=3), CAL2)
    with pytest.raises(ValueError):
        estimates(make_stats([0.25, 0.5]), CAL3)
    with pytest.raises(ValueError):
        estimates(make_stats([0.1], dim=4), CAL2)


def test_estimates_linear_in_calibration():
    st = make_stats([0.1, 0.2, 0.3])
    doubled = Calibration(dim=2, n_ref=64, c_new=2.0, c_gm=2.0, c_khx=2.0)
    assert estimates(st, doubled) == tuple(2.0 * e for e in estimates(st, CAL2))
    assert khx([0.3, 0.4], doubled) == 2.0 * khx([0.3, 0.4], CAL2)


# ------------------------------------------------------------- average form


def test_geo_form_matches_kernel_on_synthetic_stats():
    rng = np.random.default_rng(17)
    for _ in range(20):
        pv = rng.uniform(0.001, 0.1, size=rng.integers(3, 40))
        st = make_stats(pv)
        direct = float(np.sum(pv**-0.5)) ** (-2.0 / 3.0)
        assert math.isclose(geo_form(st, 3), direct, rel_tol=1e-12)


def test_geo_form_matches_kernel_on_meshes():
    for p in (GradingParams(MeshFamily.UNIFORM, 4), GradingParams(MeshFamily.POWER, 4, beta=2.0)):
        st = patch_stats(build_mesh(3, p))
        assert math.isclose(geo_form(st, 3), estimates(st, CAL3)[0], rel_tol=1e-12)


def test_geo_form_rejects_2d():
    with pytest.raises(ValueError):
        geo_form(make_stats([0.25, 0.5]), 2)


# -------------------------------------------------------------- calibration


def test_calibration_validation():
    with pytest.raises(ValueError, match="dim must be 2 or 3, got 4"):
        Calibration(dim=4, n_ref=64, c_new=1.0, c_gm=1.0, c_khx=1.0)
    with pytest.raises(ValueError):
        Calibration(dim=2, n_ref=64, c_new=-1.0, c_gm=1.0, c_khx=1.0)
    with pytest.raises(ValueError):
        Calibration(dim=2, n_ref=64, c_new=1.0, c_gm=math.inf, c_khx=1.0)
    with pytest.raises(ValueError):
        Calibration(dim=2, n_ref=1, c_new=1.0, c_gm=1.0, c_khx=1.0)


def test_calibrate_input_validation():
    with pytest.raises(ValueError):
        calibrate(4)
    with pytest.raises(ValueError):
        calibrate(2, n_ref=1)


def check_fixed_point(dim, n_ref):
    """Every calibrated estimate reproduces the reference mesh's eigenvalue."""
    mesh = build_mesh(dim, GradingParams(MeshFamily.UNIFORM, n_ref))
    exact = uniform_lambda_min(dim, n_ref)
    cal = calibrate(dim, n_ref=n_ref)
    assert cal.n_ref == n_ref and cal.dim == dim
    for est in estimates(patch_stats(mesh), cal):
        assert math.isclose(est, exact, rel_tol=1e-12)


def test_calibration_fixed_point_2d():
    check_fixed_point(2, 8)


def test_calibration_fixed_point_3d():
    check_fixed_point(3, 4)


@pytest.mark.parametrize("dim, n", [(2, 4), (2, 8), (2, 16), (3, 3), (3, 4), (3, 6)])
def test_uniform_closed_form_matches_dense(dim, n):
    A = assemble(build_mesh(dim, GradingParams(MeshFamily.UNIFORM, n)))
    lam = uniform_lambda_min(dim, n)
    assert abs(lam - lambda_min_dense(A)) <= 1e-13 * lam


@pytest.mark.parametrize("dim", [2, 3])
def test_calibrate_uses_closed_form_at_pinned_reference(dim):
    n_ref = DEFAULT_REFERENCE_INTERVALS[dim]
    lam = uniform_lambda_min(dim, n_ref)
    A = assemble(build_mesh(dim, GradingParams(MeshFamily.UNIFORM, n_ref)))
    assert abs(lam - lambda_min_sparse(A).lambda_min) <= 1e-12 * lam
    assert calibrate(dim) == calibrate(dim, n_ref)
    check_fixed_point(dim, n_ref)


def test_recalibration_stability():
    a = calibrate(2, n_ref=16)
    b = calibrate(2, n_ref=32)
    for ca, cb in ((a.c_new, b.c_new), (a.c_gm, b.c_gm), (a.c_khx, b.c_khx)):
        assert 0.5 < ca / cb < 2.0


def test_calibration_stores_the_reference_size_as_an_int():
    # the int GradingParams stores, which the calibrate command prints
    cal = calibrate(2, 64.0)
    assert cal.n_ref == 64 and type(cal.n_ref) is int


def test_default_reference_sizes():
    cal = calibrate(3, n_ref=None)
    assert cal.n_ref == 12 and cal.dim == 3


# ------------------------------------------------------------- whole meshes


def test_relabeling_invariance():
    from meshspectra import SimplicialMesh

    mesh = build_mesh(2, GradingParams(MeshFamily.SHISHKIN, 8, eps=0.1))
    rng = np.random.default_rng(41)
    perm = rng.permutation(mesh.n_cells)
    shuffled = SimplicialMesh(mesh.vertices, mesh.cells[perm])
    cal = calibrate(2, n_ref=8)
    new0, gm0, khx0 = estimates(patch_stats(mesh), cal)
    new1, gm1, khx1 = estimates(patch_stats(shuffled), cal)
    assert new0 == new1
    assert gm0 == gm1
    assert math.isclose(khx0, khx1, rel_tol=1e-14)


def test_uniform_family_tracks_exact():
    cal = calibrate(2, n_ref=16)
    for n in (8, 16, 32):
        mesh = build_mesh(2, GradingParams(MeshFamily.UNIFORM, n))
        st = patch_stats(mesh)
        exact = lambda_min_sparse(assemble(mesh), tol=1e-10).lambda_min
        for est in estimates(st, cal):
            assert 0.5 * exact <= est <= 2.0 * exact


def test_bound_report_validation():
    from meshspectra import BoundReport, EigenResult

    def solve(lam):
        return EigenResult(lambda_min=lam, iterations=1, error_bound=0.0, preconditioner="Jacobi")

    stats = make_stats([0.25, 0.5])
    with pytest.raises(ValueError):
        BoundReport(
            param=4.0,
            stats=stats,
            eigen=solve(0.0),
            lambda_new=1.0,
            lambda_gm=1.0,
            lambda_khx=1.0,
        )
    r = BoundReport(
        param=4.0, stats=stats, eigen=solve(2.0), lambda_new=1.0, lambda_gm=1.0, lambda_khx=1.0,
    )
    assert r.lambda_exact == 2.0
