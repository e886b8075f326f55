from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from meshspectra import (
    DiffusionTensor,
    GradingParams,
    MeshFamily,
    assemble,
    build_mesh,
    export_matrix_text,
    local_stiffness,
)

from conftest import brute_assemble, brute_export_matrix_text

I2 = DiffusionTensor.identity(2)
I3 = DiffusionTensor.identity(3)

UNIT_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
UNIT_TET = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


# ----------------------------------------------------------- local matrices


def test_local_stiffness_unit_triangle():
    k = local_stiffness(UNIT_TRI, I2)
    expect = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    np.testing.assert_array_equal(k, expect)


def test_local_stiffness_unit_tet():
    k = local_stiffness(UNIT_TET, I3)
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
        D = DiffusionTensor.identity(dim)
        for _ in range(10):
            coords = base + 0.3 * rng.standard_normal(base.shape)
            k = local_stiffness(coords, D)
            assert np.max(np.abs(k.sum(axis=1))) <= 1e-14
            assert np.max(np.abs(k - k.T)) == 0.0  # symmetrized exactly


def test_local_stiffness_rejects_degenerate():
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        local_stiffness(flat, I2)
    coplanar = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        local_stiffness(coplanar, I3)


def test_local_stiffness_scaling():
    rng = np.random.default_rng(11)
    tri = UNIT_TRI + 0.2 * rng.standard_normal(UNIT_TRI.shape)
    tet = UNIT_TET + 0.2 * rng.standard_normal(UNIT_TET.shape)
    for s in (0.5, 2.0, 10.0):
        # 2D: |K| ~ s^2 cancels the two 1/s gradient factors
        np.testing.assert_allclose(local_stiffness(s * tri, I2), local_stiffness(tri, I2), rtol=1e-12)
        # 3D: one factor of s survives
        np.testing.assert_allclose(local_stiffness(s * tet, I3), s * local_stiffness(tet, I3), rtol=1e-12)


def test_local_stiffness_linear_in_coefficient():
    d1 = DiffusionTensor(np.diag([2.0, 1.0]))
    d2 = DiffusionTensor(np.diag([1.0, 3.0]))
    d12 = DiffusionTensor(np.diag([3.0, 4.0]))
    k = local_stiffness(UNIT_TRI, d1) + local_stiffness(UNIT_TRI, d2)
    np.testing.assert_allclose(k, local_stiffness(UNIT_TRI, d12), rtol=1e-14)


# --------------------------------------------------------- coefficient class


def test_diffusion_tensor_validation():
    with pytest.raises(ValueError):
        DiffusionTensor(np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        DiffusionTensor(np.diag([1.0, -1.0]))  # indefinite
    with pytest.raises(ValueError):
        DiffusionTensor(np.zeros((2, 3)))
    assert np.array_equal(DiffusionTensor.identity(3).matrix, np.eye(3))


def test_coefficient_size_must_match_dimension():
    mesh = build_mesh(2, GradingParams(MeshFamily.UNIFORM, 4))
    message = "2D simplices need a 2x2 coefficient matrix, got 3x3"
    with pytest.raises(ValueError, match=message):
        assemble(mesh, I3)
    with pytest.raises(ValueError, match=message):
        local_stiffness(UNIT_TRI, I3)
    with pytest.raises(ValueError, match="3D simplices need a 3x3 coefficient matrix, got 2x2"):
        local_stiffness(UNIT_TET, I2)


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


def test_assemble_scalar_coefficient_scales_matrix():
    mesh = build_mesh(2, GradingParams(MeshFamily.SHISHKIN, 8, eps=0.1))
    A1 = assemble(mesh).toarray()
    for c in (2.0, 3.0):
        Ac = assemble(mesh, DiffusionTensor(c * np.eye(2))).toarray()
        np.testing.assert_allclose(Ac, c * A1, rtol=1e-15)


_SPD_2D = np.array([[2.0, 0.7], [0.7, 1.5]])
_SPD_3D = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.2]])


@pytest.mark.parametrize(
    "dim, p",
    [
        (2, GradingParams(MeshFamily.BAKHVALOV, 16, eps=0.01)),
        (3, GradingParams(MeshFamily.POWER, 4)),
        (3, GradingParams(MeshFamily.SINGLE_LAYER, 4)),
    ],
)
def test_assemble_matches_cell_loop_bitwise(dim, p):
    mesh = build_mesh(dim, p)
    coefficients = (np.eye(dim), np.diag([3.0, 5.0, 7.0][:dim]), _SPD_2D if dim == 2 else _SPD_3D)
    for m in coefficients:
        D = DiffusionTensor(m)
        A = assemble(mesh, D)
        B = brute_assemble(mesh, D)
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


def test_assemble_anisotropic_coefficient():
    # diag(a, b) on the diagonal-split uniform grid: axis couplings scale
    # separately, so the stencil becomes [2(a+b); -a twice; -b twice]
    mesh = build_mesh(2, GradingParams(MeshFamily.UNIFORM, 2))
    A = assemble(mesh, DiffusionTensor(np.diag([3.0, 5.0]))).toarray()
    np.testing.assert_allclose(A, [[2.0 * (3.0 + 5.0)]], rtol=1e-14)


def test_export_matrix_text_matches_entry_writer(tmp_path):
    # 13790 upper-triangle entries: three full 4096-row chunks and a partial one
    A = assemble(build_mesh(2, GradingParams(MeshFamily.SHISHKIN, 64, eps=0.05)))
    assert sp.triu(A).nnz == 13790
    export_matrix_text(A, tmp_path / "chunked.txt")
    brute_export_matrix_text(A, tmp_path / "entries.txt")
    assert (tmp_path / "chunked.txt").read_bytes() == (tmp_path / "entries.txt").read_bytes()


def test_export_matrix_text_roundtrip(tmp_path):
    mesh = build_mesh(2, GradingParams(MeshFamily.SINGLE_LAYER, 4, eps=0.3))
    A = assemble(mesh)
    path = tmp_path / "matrix.txt"
    export_matrix_text(A, path)
    lines = path.read_text().splitlines()
    dense = np.zeros(A.shape)
    prev = None
    for line in lines:
        si, sj, sv = line.split()
        i, j, v = int(si), int(sj), float(sv)
        assert j >= i  # upper triangle only
        assert prev is None or (i, j) > prev  # lexicographic order
        prev = (i, j)
        dense[i, j] = v
        dense[j, i] = v
    np.testing.assert_array_equal(dense, A.toarray())  # %.17g round-trips
