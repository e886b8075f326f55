import ast
import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh

from meshspectra import (
    ConvergenceError,
    GradingParams,
    LayerPosition,
    MeshFamily,
    NodeSet1D,
    assemble,
    build_mesh,
    lambda_min_sparse,
    tensor_mesh,
)
from meshspectra import spectra
from meshspectra.harness import FIXTURES, SweepAxis
from meshspectra.meshgen import MAX_INTERVALS

from conftest import (
    lambda_min_dense,
    reference_aggregate,
    reference_damped_inverse_diagonal,
    reference_cycle,
)


def spd(dense):
    return sp.csr_matrix(np.asarray(dense, dtype=float))


def uniform_lambda(n):
    return 8.0 * math.sin(math.pi / (2 * n)) ** 2


SMALL_MESHES = [
    (2, GradingParams(MeshFamily.UNIFORM, 8)),
    (2, GradingParams(MeshFamily.SHISHKIN, 8, eps=0.05)),
    (2, GradingParams(MeshFamily.SHISHKIN, 8, eps=0.05, layer_position=LayerPosition.INTERNAL)),
    (2, GradingParams(MeshFamily.BAKHVALOV, 8, eps=0.1)),
    (2, GradingParams(MeshFamily.POWER, 8, beta=3.0)),
    (2, GradingParams(MeshFamily.SINGLE_LAYER, 8, eps=0.1)),
    (3, GradingParams(MeshFamily.UNIFORM, 4)),
    (3, GradingParams(MeshFamily.SINGLE_LAYER, 4, eps=0.1)),
]


# -------------------------------------------------------------- eigenvalues


def test_lambda_min_tiny_matrices():
    assert math.isclose(lambda_min_dense(spd([[4.0]])), 4.0, rel_tol=1e-14)
    assert math.isclose(lambda_min_dense(spd(np.diag([5.0, 2.0]))), 2.0, rel_tol=1e-14)
    assert math.isclose(lambda_min_dense(spd([[2.0, -1.0], [-1.0, 2.0]])), 1.0, rel_tol=1e-12)

    r = lambda_min_sparse(spd([[2.0, -1.0], [-1.0, 2.0]]), tol=1e-10)
    assert math.isclose(r.lambda_min, 1.0, rel_tol=1e-8)
    assert r.error_bound <= 1e-9
    assert r.iterations >= 1


def test_sparse_matches_dense_on_meshes():
    tol = 1e-10
    for dim, p in SMALL_MESHES:
        A = assemble(build_mesh(dim, p))
        assert A.shape[0] <= 400
        lam_dense = lambda_min_dense(A)
        r = lambda_min_sparse(A, tol=tol)
        assert abs(r.lambda_min - lam_dense) <= 1e-8 * lam_dense
        # the certificate covers the true error and meets the requested tol
        assert abs(r.lambda_min - lam_dense) <= r.error_bound <= tol * r.lambda_min


@pytest.mark.parametrize("n", [4, 8, 16])
def test_uniform_2d_closed_form(n):
    A = assemble(build_mesh(2, GradingParams(MeshFamily.UNIFORM, n)))
    lam = lambda_min_sparse(A, tol=1e-10).lambda_min
    assert abs(lam - uniform_lambda(n)) <= 1e-6 * uniform_lambda(n)


def test_uniform_2d_decreasing_in_n():
    lams = []
    for n in (4, 8, 16, 32):
        A = assemble(build_mesh(2, GradingParams(MeshFamily.UNIFORM, n)))
        lams.append(lambda_min_sparse(A).lambda_min)
    assert all(a > b for a, b in zip(lams, lams[1:]))


def test_scale_equivariance():
    A = assemble(build_mesh(2, GradingParams(MeshFamily.SHISHKIN, 8, eps=0.1)))
    base = lambda_min_sparse(A, tol=1e-10).lambda_min
    for c in (1e-6, 0.5, 2.0, 10.0, 1e4):
        lam = lambda_min_sparse(A * c, tol=1e-10).lambda_min
        assert abs(lam - c * base) <= 1e-10 * c * base


def test_tol_validation():
    A = spd([[1.0]])
    for tol in (0.0, -1.0, 1e-15, 0.5):
        with pytest.raises(ValueError):
            lambda_min_sparse(A, tol=tol)


def no_step(n):
    raise AssertionError("the solver started on a matrix it should refuse")


def test_max_outer_validation_before_first_step(monkeypatch):
    # no step count equals a negative or fractional cap, so the cap would
    # silently vanish: uniform n=8 returned after 22 steps with either
    A = assemble(build_mesh(2, GradingParams(MeshFamily.UNIFORM, 8)))
    monkeypatch.setattr(spectra, "_start_vector", no_step)
    for bad in (-1, 2.5, 100.0, "100", None):
        with pytest.raises(ValueError, match="max_outer must be a nonnegative int"):
            lambda_min_sparse(A, max_outer=bad)


def test_matrix_validation_before_first_step(monkeypatch):
    monkeypatch.setattr(spectra, "_start_vector", no_step)
    with pytest.raises(ValueError, match=re.escape("matrix must be square, got shape (2, 3)")):
        lambda_min_sparse(sp.csr_matrix(np.zeros((2, 3))))
    # the products read the CSR arrays: a CSC or BSR matrix would be read
    # wrongly, an integer one cast to integers
    for bad, got in ((spd(np.eye(2)).tocsc(), "float64 csc"), (spd(np.eye(2)).tobsr(), "float64 bsr"),
                     (sp.csr_matrix(np.eye(2, dtype=int)), "int64 csr")):
        with pytest.raises(ValueError, match=f"matrix must be float64 CSR, got {got}"):
            lambda_min_sparse(bad)
    for bad in (np.diag([1.0, 0.0]), -np.diag([1.0, 2.0])):
        with pytest.raises(ValueError, match="diagonal entries must be strictly positive"):
            lambda_min_sparse(spd(bad))


def test_empty_matrix_is_refused_before_first_step(monkeypatch):
    # it used to come back as lambda_min = 0.0, converged, with error bound 0.0
    monkeypatch.setattr(spectra, "_start_vector", no_step)
    with pytest.raises(ValueError, match=re.escape("matrix must have at least one row, got shape (0, 0)")):
        lambda_min_sparse(sp.csr_matrix((0, 0)))


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_nonfinite_diagonal_is_refused_before_first_step(monkeypatch, entry):
    # a NaN passed the old d <= 0 check; so did inf, which then warned about
    # an invalid subtraction and broke down at step 0
    monkeypatch.setattr(spectra, "_start_vector", no_step)
    with pytest.raises(ValueError, match="^diagonal entries must be strictly positive and finite$"):
        lambda_min_sparse(spd([[2.0, -1.0], [-1.0, entry]]))


def test_spectra_imports_no_package_module():
    # the solver takes a plain CSR matrix and depends on no other layer
    tree = ast.parse(Path(spectra.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert imported and not [m for m in imported if m.startswith((".", "meshspectra"))]


def test_no_module_imports_a_private_name_from_a_sibling():
    # a name that another module needs is public where it is defined
    private = []
    for path in sorted(Path(spectra.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("meshspectra")
            ):
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


def test_rayleigh_ritz_kernels_match_numpy_linalg():
    # the solver calls the LAPACK gufuncs behind numpy.linalg directly; a
    # numpy release that changes them fails here, not in the solver's digits
    rng = np.random.default_rng(23)
    for size in (2, 3) * 100:
        V = rng.standard_normal((size, 50)) * 10.0 ** rng.uniform(-8, 8, (size, 1))
        gram = V @ V.T
        L = spectra._cholesky(gram)
        assert L.tobytes() == np.linalg.cholesky(gram).tobytes()
        Li = spectra._inv(L)
        assert Li.tobytes() == np.linalg.inv(L).tobytes()
        reduced = Li @ (0.5 * (gram + gram.T)) @ Li.T
        for ours, theirs in zip(spectra._eigh(reduced), np.linalg.eigh(reduced)):
            assert ours.tobytes() == theirs.tobytes()
    for n in (1, 2, 3, 1331, 16129):
        v = rng.standard_normal(n)
        assert spectra._norm(v) == np.linalg.norm(v)
    # not positive definite: an exactly dependent row, an indefinite matrix
    V = rng.standard_normal((3, 50))
    V[2] = 0.0
    for gram in (V @ V.T, np.diag([1.0, -1.0, 1.0])):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)
        with pytest.warns(RuntimeWarning, match="invalid value"):
            spectra._cholesky(gram)
        with np.errstate(invalid="ignore"):
            assert np.isnan(spectra._cholesky(gram)).all()
    # a NaN entry need not fail the factorization, but reaches the last pivot
    gram = np.eye(3)
    gram[2, 0] = gram[0, 2] = np.nan
    with np.errstate(invalid="ignore"):
        assert np.isnan(spectra._cholesky(gram)[2, 2])


def failure_state(err):
    """The step, last estimate and residual a ConvergenceError message names."""
    match = re.search(r" at step (\d+) \(.*, last estimate (\S+), residual (\S+), target", str(err))
    assert match, str(err)
    return int(match.group(1)), float(match.group(2)), float(match.group(3))


def test_outer_convergence_error_carries_state():
    A = assemble(build_mesh(2, GradingParams(MeshFamily.UNIFORM, 8)))
    with pytest.raises(ConvergenceError, match="did not converge in 1 iterations") as info:
        lambda_min_sparse(A, tol=1e-12, max_outer=1)
    step, estimate, residual = failure_state(info.value)
    assert step == 1
    assert estimate > 0.0 and residual > 1e-12 * estimate


def test_not_positive_definite_raises_at_once():
    # diagonal positive, eigenvalues -1 and 3: the first Ritz step finds -1
    with pytest.raises(ConvergenceError, match="not positive definite") as info:
        lambda_min_sparse(spd([[1.0, 2.0], [2.0, 1.0]]))
    step, estimate, _ = failure_state(info.value)
    assert step == 1
    assert estimate < 0.0
    with pytest.raises(ConvergenceError, match="not positive definite") as info:
        lambda_min_sparse(spd([[1.0, np.nan], [np.nan, 1.0]]))
    assert failure_state(info.value)[0] == 0


def random_symmetric(seed, negate_smallest=False):
    """A seeded random symmetric matrix of order 3-11 with eigenvalues spread
    log-uniformly over 1e-3..1e3, the smallest negated if asked."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = 10.0 ** rng.uniform(-3.0, 3.0, n)
    if negate_smallest:
        lam[np.argmin(lam)] *= -1.0
    a = (q * lam) @ q.T
    return sp.csr_matrix(0.5 * (a + a.T))


def test_random_spd_matrices_are_never_called_indefinite():
    # the loop updates A x implicitly; on these matrices its Rayleigh quotient
    # drifted to <= 0 while x A x did not, and 114 of the 200 solves reported
    # "not positive definite".  At tol 1e-13 most cannot converge (the target
    # lies below rounding), so the cap is kept small and only the verdict read.
    # With the smallest eigenvalue negated, every seed is caught by a Rayleigh
    # quotient <= 0 within 200 steps (seed 0 at step 112)
    for seed in range(200):
        try:
            lambda_min_sparse(random_symmetric(seed), tol=1e-13, max_outer=100)
        except ConvergenceError as exc:
            assert "did not converge in 100 iterations" in str(exc)
    for seed in range(20):
        A = random_symmetric(seed, negate_smallest=True)
        if np.all(A.diagonal() > 0.0):
            with pytest.raises(ConvergenceError, match="not positive definite"):
                lambda_min_sparse(A, tol=1e-13, max_outer=200)


def test_solve_below_the_rounding_floor_stops_as_stalled():
    # at tol 1e-13 the target lies below the rounding floor on this matrix
    # (its eigenvalues span 1e-3..1e3), but the stall is the iteration's
    # stagnation, not rounding: the residual stops falling at about 1.17e-11,
    # far above the floor of 4.2e-14.  The solve stops after STALL_STEPS steps
    # without a smaller residual, not at max_outer (median step 154, at most
    # 329, over seeds 0-99)
    A = random_symmetric(0)
    with pytest.raises(ConvergenceError, match="stalled \\(no smaller residual in 128 steps\\)") as info:
        lambda_min_sparse(A, tol=1e-13)
    assert failure_state(info.value)[0] < 500
    # the message names the target tol * theta and the rounding floor
    # u || |A| |x| || at the last iterate, which lies above the target here;
    # the iterate is the eigenvector to far below the message's three digits
    match = re.search(r", target (\S+), rounding floor (\S+)\)$", str(info.value))
    assert match, str(info.value)
    target, floor = float(match.group(1)), float(match.group(2))
    u = 0.5 * np.finfo(np.float64).eps
    dense = A.toarray()
    v = np.linalg.eigh(dense)[1][:, 0]
    assert floor == pytest.approx(u * np.linalg.norm(np.abs(dense) @ np.abs(v)), rel=5e-3)
    assert target < floor


@pytest.mark.parametrize("max_outer", [150, 20000])
def test_failure_reports_the_estimate_of_an_explicit_product(max_outer):
    # no Rayleigh quotient of a unit vector lies below lambda_min, but one read
    # from the implicitly updated A x can (on seed 4, 0.00227146821419 at the
    # cap of 150 and at the stall, step 165, against lambda_min 0.0024003674),
    # so every exit decides on an explicit product
    for seed in range(8):
        A = random_symmetric(seed)
        with pytest.raises(ConvergenceError, match="did not converge|stalled") as info:
            lambda_min_sparse(A, tol=1e-13, max_outer=max_outer)
        assert failure_state(info.value)[1] >= lambda_min_dense(A) - 1e-12


def cholesky_calls(monkeypatch):
    """Record the order and the failure (all NaN) of every Gram factorization."""
    calls = []
    cholesky = spectra._cholesky

    def spy(gram):
        L = cholesky(gram)
        calls.append((gram.shape[0], bool(np.isnan(L).all())))
        return L

    monkeypatch.setattr(spectra, "_cholesky", spy)
    return calls


def test_dependent_basis_restarts_without_p(monkeypatch):
    # the first step leaves a residual of rounding size on the 1e12 entry; at
    # the second, p lies in span{x, w} to rounding, the 3x3 Cholesky fails and
    # the step is retried on [x, w]
    calls = cholesky_calls(monkeypatch)
    A = spd(np.diag([1.0, 2.0, 1e12]))
    r = lambda_min_sparse(A)
    assert calls[:3] == [(2, False), (3, True), (2, False)]
    assert (3, True) not in calls[3:]
    assert r.lambda_min == lambda_min_dense(A) == 1.0
    assert r.error_bound <= 1e-8 * r.lambda_min


def test_iterate_that_stops_moving_restarts_without_p(monkeypatch):
    # at tol 2e-14 the iterate on diag(1, 2, 3, 1e9) stops moving at rounding
    # level, which leaves p = 0; p is not scaled then, the next 3x3 Cholesky
    # fails on its zero row, and the solve runs out of steps without a warning
    norms = []
    norm = spectra._norm
    monkeypatch.setattr(spectra, "_norm", lambda v: norms.append(norm(v)) or norms[-1])
    calls = cholesky_calls(monkeypatch)
    with pytest.raises(ConvergenceError, match="did not converge in 40 iterations at step 40"):
        lambda_min_sparse(spd(np.diag([1.0, 2.0, 3.0, 1e9])), tol=2e-14, max_outer=40)
    assert 0.0 in norms
    assert (3, True) in calls and (2, True) not in calls


def test_parallel_residual_raises_basis_degenerated(monkeypatch):
    # from x proportional to (1, d^-1/2) the Jacobi residual of diag(1, d) is
    # parallel to x to rounding for d = 1e17, so even [x, w] has no Cholesky
    # factor at the first step
    d = 1e17
    x0 = np.array([1.0, d**-0.5])
    monkeypatch.setattr(spectra, "_start_vector", lambda n: x0 / np.linalg.norm(x0))
    calls = cholesky_calls(monkeypatch)
    with pytest.raises(ConvergenceError, match="basis degenerated at step 1 ") as info:
        lambda_min_sparse(spd(np.diag([1.0, d])))
    assert calls == [(2, True)]
    _, estimate, residual = failure_state(info.value)
    assert estimate == 2.0 and residual > 1e8


def test_power_2d_hardest_fixture_point_converges():
    # beta=3.0, n=128 is the last point of both power-2d-n and power-2d-beta
    A = assemble(build_mesh(2, GradingParams(MeshFamily.POWER, 128, beta=3.0)))
    r = lambda_min_sparse(A)
    ref = float(eigsh(A.tocsc(), k=1, sigma=0, which="LM")[0][0])
    assert abs(r.lambda_min - ref) <= 1e-8 * ref
    assert r.error_bound <= 1e-8 * r.lambda_min


def test_power_3d_beta_304_matches_dense():
    A = assemble(build_mesh(3, GradingParams(MeshFamily.POWER, 6, beta=3.04)))
    lam_dense = lambda_min_dense(A)
    r = lambda_min_sparse(A)
    assert abs(r.lambda_min - lam_dense) <= 1e-10 * lam_dense
    assert abs(r.lambda_min - lam_dense) <= r.error_bound <= 1e-8 * r.lambda_min


@pytest.mark.parametrize("n, beta", [(8, 3.0), (10, 3.0), (12, 3.0), (12, 4.0)])
def test_power_3d_eigenvalue_cluster_matches_dense(n, beta):
    # the six lowest eigenvalues lie within 3.4e-7 (n=8) down to 3e-13 (beta=4)
    # relative of each other; Jacobi keeps the mesh's symmetry and resolves
    # the smallest to 1.3e-13, multigrid from the first step moved the n=10
    # value by 6.3e-12
    A = assemble(build_mesh(3, GradingParams(MeshFamily.POWER, n, beta=beta)))
    lam_dense = lambda_min_dense(A)
    r = lambda_min_sparse(A)
    assert r.preconditioner == "Jacobi"
    assert abs(r.lambda_min - lam_dense) <= 1e-12 * lam_dense


def fixture_points_2d(max_n):
    for name, spec in FIXTURES.items():
        if spec.dim == 2 and spec.axis is SweepAxis.N:
            for n in spec.values:
                if n <= max_n:
                    yield pytest.param(spec.params_at(n), id=f"{name}-{n}")


@pytest.mark.parametrize("params", fixture_points_2d(32))
def test_small_2d_fixture_points_match_dense(params):
    # whichever preconditioner the switch rule picks
    A = assemble(build_mesh(2, params))
    assert A.shape[0] <= 1000
    tol = 1e-8
    lam_dense = lambda_min_dense(A)
    r = lambda_min_sparse(A, tol=tol)
    assert abs(r.lambda_min - lam_dense) <= 1e-10 * lam_dense
    assert r.error_bound <= tol * r.lambda_min


# --------------------------------------------------------------- multigrid

BAKHVALOV_32 = GradingParams(MeshFamily.BAKHVALOV, 32, eps=0.01)


def switch_step(preconditioner, sizes):
    match = re.fullmatch(f"multigrid {sizes} from step (\\d+)", preconditioner)
    assert match, preconditioner
    return int(match.group(1))


def test_multigrid_fallback_switch_matches_dense():
    # Jacobi has not converged after MG_SWITCH_STEP steps, so the hierarchy
    # is built at the next one
    A = assemble(build_mesh(2, BAKHVALOV_32))
    assert A.shape[0] <= spectra.MG_EAGER_ROWS
    tol = 1e-8
    lam_dense = lambda_min_dense(A)
    r = lambda_min_sparse(A, tol=tol)
    assert switch_step(r.preconditioner, "961/234/60") == spectra.MG_SWITCH_STEP + 1
    assert abs(r.lambda_min - lam_dense) <= 1e-10 * lam_dense
    assert abs(r.lambda_min - lam_dense) <= r.error_bound <= tol * r.lambda_min
    assert lambda_min_sparse(A, tol=tol) == r


def check_eager_step_count(params, sizes, steps):
    # a 16,129-row matrix builds its hierarchy before the first step and
    # converges within a few steps of the count measured when it was pinned
    A = assemble(build_mesh(2, params))
    assert A.shape[0] > spectra.MG_EAGER_ROWS
    r = lambda_min_sparse(A)
    assert switch_step(r.preconditioner, sizes) == 1
    assert r.iterations <= steps + 3
    assert r.error_bound <= 1e-8 * r.lambda_min


def test_multigrid_step_count_internal_layer():
    # Jacobi alone needs 1555 steps here, a switch at step 129 took 173 and
    # one at step 17 took 71; built before the first step, 55 with a V-cycle
    # and 35 with level 1's correction repeated
    params = GradingParams(MeshFamily.SHISHKIN, 128, eps=0.01, layer_position=LayerPosition.INTERNAL)
    check_eager_step_count(params, "16129/3159/666/146/26", 35)


def test_multigrid_step_count_bakhvalov():
    # the benchmark's hardest point: 63 steps with a V-cycle, 35 with level 1's
    # correction repeated
    params = GradingParams(MeshFamily.BAKHVALOV, 128, eps=0.01)
    check_eager_step_count(params, "16129/3331/688/184/41", 35)


def test_eager_rows_keep_every_3d_mesh_on_jacobi():
    # 3D power meshes with beta >= 3 resolve their eigenvalue cluster from the
    # Jacobi start (see the spectra docstring), so no 3D mesh builds eagerly
    cap = MAX_INTERVALS[3]
    assert spectra.MG_EAGER_ROWS >= (cap - 1) ** 3
    for family in MeshFamily:
        for position in LayerPosition:
            if position is LayerPosition.INTERNAL and family not in (
                MeshFamily.SHISHKIN, MeshFamily.BAKHVALOV
            ):
                continue
            mesh = build_mesh(3, GradingParams(family, cap, layer_position=position))
            assert mesh.n_free <= spectra.MG_EAGER_ROWS, (family, position)


@pytest.mark.parametrize("eager_rows", [960, 961])
def test_eager_build_starts_above_mg_eager_rows(monkeypatch, eager_rows):
    # Bakhvalov n=32 has 961 rows: above the threshold the hierarchy is built
    # before the first step, at it the build waits for step MG_SWITCH_STEP + 1
    # bit for bit
    A = assemble(build_mesh(2, BAKHVALOV_32))
    late = lambda_min_sparse(A)
    assert switch_step(late.preconditioner, "961/234/60") == spectra.MG_SWITCH_STEP + 1
    monkeypatch.setattr(spectra, "MG_EAGER_ROWS", eager_rows)
    r = lambda_min_sparse(A)
    if A.shape[0] > eager_rows:
        assert switch_step(r.preconditioner, "961/234/60") == 1
        assert abs(r.lambda_min - lambda_min_dense(A)) <= r.error_bound <= 1e-8 * r.lambda_min
        assert r.iterations < late.iterations
    else:
        assert r == late


def test_eager_build_on_a_matrix_that_is_not_positive_definite():
    # uniform n=128 shifted by twice its smallest eigenvalue: the first
    # multigrid step finds the negative mode
    A = assemble(build_mesh(2, GradingParams(MeshFamily.UNIFORM, 128)))
    assert A.shape[0] > spectra.MG_EAGER_ROWS
    shifted = (A - 2.0 * uniform_lambda(128) * sp.eye(A.shape[0], format="csr")).tocsr()
    message = "broke down: A is not positive definite .* at step 1 \\(preconditioner multigrid \\S+ from step 1,"
    with pytest.raises(ConvergenceError, match=message) as info:
        lambda_min_sparse(shifted)
    step, estimate, residual = failure_state(info.value)
    assert step == 1
    assert estimate < 0.0 and residual > 0.0


@pytest.mark.parametrize(
    "dim, params, sizes",
    [
        (2, BAKHVALOV_32, [961, 234, 60]),
        (3, GradingParams(MeshFamily.POWER, 8, beta=3.0), [343, 98]),
        # level 1 repeats a correction that is itself a V-cycle
        (2, GradingParams(MeshFamily.POWER, 38, beta=4.0), [1369, 356, 104, 20]),
    ],
)
def test_vcycle_is_symmetric_positive_definite(dim, params, sizes):
    M = assemble(build_mesh(dim, params))
    mg = spectra._Multigrid.build(M)
    assert mg.sizes == sizes
    V = np.column_stack([mg(e) for e in np.eye(M.shape[0])])
    norm = np.linalg.norm(V, 2)
    assert np.max(np.abs(V - V.T)) <= 1e-12 * norm
    assert np.linalg.eigvalsh(0.5 * (V + V.T))[0] > 0.0
    rng = np.random.default_rng(5)
    u, v = rng.standard_normal((2, M.shape[0]))
    assert abs(u @ mg(v) - v @ mg(u)) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v) * norm
    assert u @ mg(u) > 0.0


@pytest.mark.parametrize(
    "params, sizes",
    [
        (BAKHVALOV_32, [961, 234, 60]),
        (GradingParams(MeshFamily.BAKHVALOV, 128, eps=0.01), [16129, 3331, 688, 184, 41]),
        # level 1 is the exact coarse solve, so nothing repeats
        (GradingParams(MeshFamily.UNIFORM, 16), [225, 34]),
        # at most MG_COARSE_ROWS rows: no level, the exact coarse solve only
        (GradingParams(MeshFamily.UNIFORM, 8), [49]),
    ],
    ids=["bakhvalov-32", "bakhvalov-128", "two-level", "no-level"],
)
def test_vcycle_matches_the_plain_scipy_cycle_bit_for_bit(params, sizes):
    mg = spectra._Multigrid.build(assemble(build_mesh(2, params)))
    assert mg.sizes == sizes
    rng = np.random.default_rng(11)
    b, c = rng.standard_normal((2, sizes[0]))
    b_before = b.copy()
    first = mg(b)
    assert b.tobytes() == b_before.tobytes()
    assert first.tobytes() == reference_cycle(mg, b).tobytes()
    first_before = first.copy()
    second = mg(c)
    assert first.tobytes() == first_before.tobytes()
    assert second.tobytes() == reference_cycle(mg, c).tobytes()
    # written into a given array, as LOBPCG's w, the same bits
    out = np.empty(sizes[0])
    assert mg(c, out=out) is out
    assert out.tobytes() == second.tobytes()


# SHA-256 of the multigrid hierarchy of every FIXTURES point: per level the
# CSR arrays of A, P and P^T and the weighted inverse diagonal, then the
# coarse inverse.  The same at 1, 2 and 4 OpenBLAS threads
HIERARCHY_DIGEST = "0236a1b864da5ed164dc93a0d06b07b102df244aded5e2ec1953244f62b2fdf9"


def test_fixture_hierarchies_are_bit_identical():
    digest = hashlib.sha256()
    points = 0
    for spec in FIXTURES.values():
        for value in spec.values:
            mg = spectra._Multigrid.build(assemble(build_mesh(spec.dim, spec.params_at(value))))
            for A, wdinv, P, PT in mg.levels:
                for M in (A, P, PT):
                    for array in (M.indptr, M.indices, M.data):
                        digest.update(array.tobytes())
                digest.update(wdinv.tobytes())
            digest.update(mg.coarse_inv.tobytes())
            points += 1
    assert points == 89
    assert digest.hexdigest() == HIERARCHY_DIGEST


def hierarchy_matrices(dim, params):
    M = assemble(build_mesh(dim, params))
    return [A for A, *_ in spectra._Multigrid.build(M).levels]


@pytest.mark.parametrize(
    "dim, params", [(2, BAKHVALOV_32), (3, GradingParams(MeshFamily.POWER, 8, beta=3.0))]
)
def test_filtered_matrix_keeps_strong_entries_and_row_sums(dim, params):
    for A in hierarchy_matrices(dim, params):
        rows, diag, d, wdinv, strong = spectra._strong_entries(A)
        F, wdinv_f = spectra._filtered(A, rows, diag, d, strong)
        # the weighted inverse diagonals handed on are those of the stored matrices
        assert wdinv.tobytes() == reference_damped_inverse_diagonal(A).tobytes()
        assert wdinv_f.tobytes() == reference_damped_inverse_diagonal(F).tobytes()
        dense, fdense = A.toarray(), F.toarray()
        off = ~np.eye(A.shape[0], dtype=bool)
        # off the diagonal: exactly A's strong entries, stored and bitwise equal
        expected = np.zeros_like(dense)
        expected[rows[strong], A.indices[strong]] = A.data[strong]
        np.testing.assert_array_equal(fdense[off], expected[off])
        assert F.nnz == strong.sum() + A.shape[0]
        # the strength test is symmetric, so F is as symmetric as A is
        assert np.max(np.abs(fdense - fdense.T)) <= np.max(np.abs(dense - dense.T))
        assert np.all(F.diagonal() > 0.0)
        # the same row sums, to the rounding of sums of at most k terms
        k = np.diff(A.indptr)
        bound = k * np.finfo(float).eps * np.add.reduceat(np.abs(A.data), A.indptr[:-1])
        assert np.all(np.abs(F.sum(axis=1).A1 - A.sum(axis=1).A1) <= bound)


def chain_with_nonpositive_lumped_hub(n=200, hub=100, links=20, weight=0.1):
    """A shifted 1D Laplacian chain whose hub row also holds links weak
    entries -weight to far nodes, whose sum is the hub's whole diagonal."""
    A = sp.diags([-np.ones(n - 1), np.full(n, 2.5), -np.ones(n - 1)], [-1, 0, 1]).tolil()
    A[hub, hub] = links * weight
    for far in range(0, 5 * links, 5):
        A[hub, far] = A[far, hub] = -weight
    return A.tocsr()


def test_row_with_nonpositive_lumped_diagonal_stays_unfiltered():
    A = chain_with_nonpositive_lumped_hub()
    rows, diag, d, _, strong = spectra._strong_entries(A)
    hub = rows == 100
    weak = hub & ~strong & (A.indices != 100)
    assert weak.sum() == 20 and A[100, 100] + A.data[weak].sum() <= 0.0
    assert lambda_min_dense(A) > 0.0
    F, wdinv_f = spectra._filtered(A, rows, diag, d, strong)
    np.testing.assert_array_equal(F[100].toarray(), A[100].toarray())
    assert wdinv_f.tobytes() == reference_damped_inverse_diagonal(F).tobytes()
    # the far rows lose their weak entry to the hub
    assert F.nnz == A.nnz - 20
    mg = spectra._Multigrid.build(A)
    V = np.column_stack([mg(e) for e in np.eye(A.shape[0])])
    assert np.max(np.abs(V - V.T)) <= 1e-12 * np.linalg.norm(V, 2)
    assert np.linalg.eigvalsh(0.5 * (V + V.T))[0] > 0.0


@pytest.mark.parametrize("diagonal", [0.0, -1.0])
def test_strength_pass_refuses_a_nonpositive_diagonal_entry(diagonal):
    # a zero entry is not stored, a negative one is: both are refused
    A = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, diagonal]]))
    with pytest.raises(np.linalg.LinAlgError, match="^nonpositive diagonal entry$"):
        spectra._strong_entries(A)
    # so the build stops there, also when the last row stores nothing at all
    with pytest.raises(np.linalg.LinAlgError, match="^nonpositive diagonal entry$"):
        spectra._Multigrid.build(sp.csr_matrix(np.diag(np.r_[np.ones(spectra.MG_COARSE_ROWS), diagonal])))


def strength_table(n, edges):
    """The strength table of the directed graph with these (i, j) edges."""
    edges = sorted((i, j) for i, j in edges if i != j)
    rows, cols = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return spectra._strength_graph(n, rows, cols)


@st.composite
def strength_tables(draw):
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(node, node), max_size=4 * n))
    if draw(st.booleans()):
        edges |= {(j, i) for i, j in edges}
    return strength_table(n, edges)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(strength_tables())
@example(strength_table(1, []))  # a single node
@example(strength_table(6, []))  # no strong entry at all
@example(strength_table(8, [(i, i + 1) for i in range(7)]))  # a directed path
@example(strength_table(6, [(0, 1), (1, 2), (2, 0), (3, 4)]))  # a directed cycle, a lone edge
def test_aggregation_matches_the_full_table_rounds(table):
    assert spectra._aggregate(table).tobytes() == reference_aggregate(table).tobytes()


def test_aggregation_matches_the_full_table_rounds_on_every_bakhvalov_128_level():
    levels = hierarchy_matrices(2, GradingParams(MeshFamily.BAKHVALOV, 128, eps=0.01))
    assert [A.shape[0] for A in levels] == [16129, 3331, 688, 184]
    for A in levels:
        rows, _, _, _, strong = spectra._strong_entries(A)
        table = spectra._strength_graph(A.shape[0], rows[strong], A.indices[strong])
        assert spectra._aggregate(table).tobytes() == reference_aggregate(table).tobytes()


def test_operator_complexity_bakhvalov_128():
    # 2.18 when the prolongator was smoothed with A itself
    M = assemble(build_mesh(2, GradingParams(MeshFamily.BAKHVALOV, 128, eps=0.01)))
    mg = spectra._Multigrid.build(M)
    assert (sum(A.nnz for A, *_ in mg.levels) + mg.coarse_inv.size) / M.nnz <= 1.6


def test_multigrid_not_built_without_coarsening():
    # no off-diagonal entries: every node is its own aggregate
    assert spectra._Multigrid.build(sp.diags(np.arange(1.0, 202.0)).tocsr()) is None


def test_convergence_error_names_preconditioner(monkeypatch):
    A = assemble(build_mesh(2, BAKHVALOV_32))
    preconditioner = lambda_min_sparse(A).preconditioner
    step = switch_step(preconditioner, "961/234/60")
    with pytest.raises(ConvergenceError, match=f"at step {step + 1} \\(preconditioner {preconditioner},"):
        lambda_min_sparse(A, max_outer=step + 1)
    with pytest.raises(ConvergenceError, match="preconditioner Jacobi,"):
        lambda_min_sparse(A, max_outer=step - 1)
    monkeypatch.setattr(spectra._Multigrid, "build", classmethod(lambda cls, M: None))
    with pytest.raises(
        ConvergenceError, match=f"Jacobi \\(multigrid coarsening stalled at step {step}\\)"
    ):
        lambda_min_sparse(A, max_outer=step + 1)


def chain_with_hidden_negative_mode(n=100):
    """A 1D Laplacian chain plus a 4-node block with eigenvalue -0.1.

    The block's negative mode is (1, 1, -1, -1) on nodes with equal start
    vector entries; its rows hold the same values in the same order, so
    every Jacobi step keeps those entries bitwise equal and never sees the
    mode.  The slow chain keeps LOBPCG going until the multigrid build, where
    the exact coarse solve of this <= 100-row matrix meets the mode.
    """
    bits = spectra._index_hash(n) & np.uint64(0x80000000)
    block = [int(i) for i in np.flatnonzero(bits == bits[0])[:4]]
    chain = [i for i in range(n) if i not in block]
    rows = {}
    for k, i in enumerate(chain):
        rows[i] = [(i, 2.0)] + [(chain[j], -1.0) for j in (k - 1, k + 1) if 0 <= j < len(chain)]
    a, b, c, d = block
    for i, mate, others in ((a, b, (c, d)), (b, a, (c, d)), (c, d, (a, b)), (d, c, (a, b))):
        rows[i] = [(i, 1.0), (mate, -0.9), (others[0], 0.1), (others[1], 0.1)]
    indptr = np.cumsum([0] + [len(rows[i]) for i in range(n)])
    indices = np.array([j for i in range(n) for j, _ in rows[i]])
    data = np.array([v for i in range(n) for _, v in rows[i]])
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def test_indefinite_matrix_past_switch_raises_convergence_error():
    A = chain_with_hidden_negative_mode()
    assert lambda_min_dense(A) < 0.0
    message = "broke down: a multigrid level is not positive definite at step \\d+ \\(preconditioner Jacobi,"
    with pytest.raises(ConvergenceError, match=message) as info:
        lambda_min_sparse(A)
    step, estimate, residual = failure_state(info.value)
    assert step == spectra.MG_SWITCH_STEP + 1
    assert estimate > 0.0 and residual > 0.0


def test_dense_guard():
    big = sp.eye(5001, format="csr")
    with pytest.raises(ValueError):
        lambda_min_dense(big)


def test_residual_contract():
    A = assemble(build_mesh(2, GradingParams(MeshFamily.BAKHVALOV, 16, eps=0.05)))
    tol = 1e-9
    r = lambda_min_sparse(A, tol=tol)
    assert r.error_bound <= tol * r.lambda_min


def test_determinism():
    A = assemble(build_mesh(2, GradingParams(MeshFamily.POWER, 8, beta=2.0)))
    r1 = lambda_min_sparse(A, tol=1e-10)
    r2 = lambda_min_sparse(A, tol=1e-10)
    assert r1.lambda_min == r2.lambda_min
    assert r1.error_bound == r2.error_bound
    assert r1.iterations == r2.iterations


# ------------------------------------------------------------ random meshes


def node_sets(min_intervals=3, max_intervals=8):
    # step lengths spread over three decades, so the grid can be strongly graded
    exponents = st.lists(
        st.floats(min_value=-3.0, max_value=0.0), min_size=min_intervals, max_size=max_intervals
    )

    def to_nodes(exps):
        steps = 10.0 ** np.asarray(exps)
        inner = np.cumsum(steps)[:-1] / steps.sum()
        return NodeSet1D(np.concatenate(([0.0], inner, [1.0])))

    return exponents.map(to_nodes)


def check_against_dense(mesh):
    A = assemble(mesh)
    lam_dense = lambda_min_dense(A)
    r = lambda_min_sparse(A, tol=1e-10)
    assert abs(r.lambda_min - lam_dense) <= 1e-9 * lam_dense
    assert r.error_bound <= 1e-10 * r.lambda_min


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(node_sets(), node_sets())
def test_random_tensor_meshes_2d_match_dense(nx, ny):
    check_against_dense(tensor_mesh(nx, ny))


@settings(max_examples=6, derandomize=True, database=None, deadline=None)
@given(node_sets(max_intervals=6), node_sets(max_intervals=6), node_sets(max_intervals=6))
def test_random_tensor_meshes_3d_match_dense(nx, ny, nz):
    check_against_dense(tensor_mesh(nx, ny, nz))
