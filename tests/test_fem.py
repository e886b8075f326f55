from dataclasses import replace

import numpy as np
import pytest

from meshspectra import GradingParams, MeshFamily, assemble, build_mesh, local_stiffness

from conftest import brute_assemble

UNIT_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
UNIT_TET = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


# ----------------------------------------------------------- local matrices


def test_local_stiffness_unit_triangle():
    k = local_stiffness(UNIT_TRI)
    expect = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    np.testing.assert_array_equal(k, expect)


def test_local_stiffness_unit_tet():
    k = local_stiffness(UNIT_TET)
    expect = (1.0 / 6.0) * np.array(
        [
            [3.0, -1.0, -1.0, -1.0],
            [-1.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
        ]
    )
    np.testing.assert_allclose(k, expect, rtol=1e-15, atol=1e-16)


def test_local_stiffness_rows_sum_to_zero():
    rng = np.random.default_rng(7)
    for dim, base in ((2, UNIT_TRI), (3, UNIT_TET)):
        for _ in range(10):
            coords = base + 0.3 * rng.standard_normal(base.shape)
            k = local_stiffness(coords)
            assert np.max(np.abs(k.sum(axis=1))) <= 1e-14
            assert np.max(np.abs(k - k.T)) == 0.0  # symmetrized exactly


def test_local_stiffness_rejects_degenerate():
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        local_stiffness(flat)
    coplanar = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        local_stiffness(coplanar)


def test_local_stiffness_scaling():
    rng = np.random.default_rng(11)
    tri = UNIT_TRI + 0.2 * rng.standard_normal(UNIT_TRI.shape)
    tet = UNIT_TET + 0.2 * rng.standard_normal(UNIT_TET.shape)
    for s in (0.5, 2.0, 10.0):
        # 2D: |K| ~ s^2 cancels the two 1/s gradient factors
        np.testing.assert_allclose(local_stiffness(s * tri), local_stiffness(tri), rtol=1e-12)
        # 3D: one factor of s survives
        np.testing.assert_allclose(local_stiffness(s * tet), s * local_stiffness(tet), rtol=1e-12)


# ----------------------------------------------------------------- assembly


def test_assemble_single_free_vertex():
    A = assemble(build_mesh(2, GradingParams(MeshFamily.UNIFORM, 2)))
    assert A.format == "csr" and A.shape == (1, 1)
    np.testing.assert_array_equal(A.toarray(), [[4.0]])


def _five_point_matrix(n):
    """Dense 5-point stencil on the (n-1)x(n-1) interior grid, vertex order
    matching the tensor mesh (x-major)."""
    m = n - 1
    A = np.zeros((m * m, m * m))
    for i in range(m):
        for j in range(m):
            r = i * m + j
            A[r, r] = 4.0
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < m and 0 <= jj < m:
                    A[r, ii * m + jj] = -1.0
    return A


@pytest.mark.parametrize("n", [4, 8])
def test_assemble_uniform_2d_matches_stencil(n):
    mesh = build_mesh(2, GradingParams(MeshFamily.UNIFORM, n))
    A = assemble(mesh).toarray()
    np.testing.assert_allclose(A, _five_point_matrix(n), rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "dim, p",
    [
        (2, GradingParams(MeshFamily.BAKHVALOV, 16, eps=0.01)),
        (3, GradingParams(MeshFamily.POWER, 4)),
        (3, GradingParams(MeshFamily.SINGLE_LAYER, 4)),
        (3, GradingParams(MeshFamily.POWER, 12)),
        (2, GradingParams(MeshFamily.SHISHKIN, 64, eps=0.01)),
    ],
)
def test_assemble_matches_cell_loop_bitwise(dim, p):
    mesh = build_mesh(dim, p)
    A = assemble(mesh)
    B = brute_assemble(mesh)
    np.testing.assert_array_equal(A.indptr, B.indptr)
    np.testing.assert_array_equal(A.indices, B.indices)
    assert A.data.tobytes() == B.data.tobytes()


def test_assemble_rejects_degenerate_cell():
    mesh = build_mesh(2, GradingParams(MeshFamily.UNIFORM, 4))
    cells = mesh.cells.copy()
    cells[7] = [0, 1, 2]  # three vertices on the edge x = 0
    with pytest.raises(ValueError, match="degenerate simplex"):
        assemble(replace(mesh, cells=cells))


def test_assemble_exact_symmetry():
    for dim, p in (
        (2, GradingParams(MeshFamily.BAKHVALOV, 8, eps=0.1)),
        (3, GradingParams(MeshFamily.POWER, 4, beta=2.0)),
    ):
        A = assemble(build_mesh(dim, p))
        diff = (A - A.T).tocoo()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def test_assemble_row_sums_nonnegative():
    mesh = build_mesh(2, GradingParams(MeshFamily.UNIFORM, 6))
    A = assemble(mesh)
    s = A @ np.ones(A.shape[0])
    assert np.min(s) >= -1e-13
    assert np.max(s) > 0.1  # rows next to the boundary keep eliminated mass


def test_assemble_positive_definite_random_vectors():
    rng = np.random.default_rng(23)
    mesh = build_mesh(2, GradingParams(MeshFamily.POWER, 8, beta=3.0))
    A = assemble(mesh)
    for _ in range(20):
        u = rng.standard_normal(A.shape[0])
        assert u @ (A @ u) > 0.0
