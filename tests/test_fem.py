from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meshspectra import (
    GradingParams, LayerPosition, MeshFamily, NodeSet1D, SimplicialMesh, assemble, build_mesh,
    tensor_mesh,
)
from meshspectra.fem import StiffnessPattern
from meshspectra.meshgen import uniform_nodes

from conftest import brute_assemble, coo_assemble, local_stiffness

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


def test_assemble_refuses_a_mesh_with_no_free_vertices():
    # every corner of the unit triangle lies on the boundary of the box
    mesh = SimplicialMesh(UNIT_TRI, np.array([[0, 1, 2]]))
    assert mesh.n_free == 0
    with pytest.raises(ValueError, match="^mesh has no free vertices; the Dirichlet system is empty$"):
        assemble(mesh)


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
    A = assemble(mesh)
    stencil = _five_point_matrix(n)
    np.testing.assert_array_equal(A.toarray(), stencil)
    # the Kuhn diagonals couple nothing: only the five-point entries are stored
    assert A.nnz == np.count_nonzero(stencil) == (n - 1) ** 2 + 4 * (n - 1) * (n - 2)


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


@pytest.mark.parametrize(
    "dim, p",
    [
        (2, GradingParams(MeshFamily.BAKHVALOV, 16, eps=0.01)),
        (2, GradingParams(MeshFamily.POWER, 16, beta=4.0)),
        (3, GradingParams(MeshFamily.POWER, 6, beta=3.0)),
        (3, GradingParams(MeshFamily.SINGLE_LAYER, 6, eps=0.01)),
    ],
)
def test_assemble_matches_det_inv_reference(dim, p):
    # the cell loop over det/inv local matrices, independent of the cofactors
    mesh = build_mesh(dim, p)
    A = assemble(mesh)
    R = brute_assemble(mesh, local=local_stiffness)
    scale = np.max(np.abs(R.data))
    assert np.max(np.abs((A - R).data), initial=0.0) <= 1e-14 * scale
    # what the reference stores at rounding level is zero in exact arithmetic
    # on a Kuhn mesh, and assemble stores none of it
    ref = R.tocoo()
    diag = R.diagonal()
    noise = np.abs(ref.data) < 1e-12 * np.sqrt(diag[ref.row] * diag[ref.col])
    assert noise.any()
    n = A.shape[0]
    stored = A.tocoo()
    assert not np.isin(ref.row[noise] * n + ref.col[noise], stored.row * n + stored.col).any()


def test_assemble_4d_matches_det_inv_reference():
    # beyond 3D the cofactors are det * inv(e)^T
    skewed = NodeSet1D(np.array([0.0, 0.3, 0.55, 1.0]))
    mesh = tensor_mesh(skewed, uniform_nodes(3), skewed, uniform_nodes(2))
    A = assemble(mesh)
    R = brute_assemble(mesh, local=local_stiffness)
    assert A.shape == (mesh.n_free, mesh.n_free) == (8, 8)
    np.testing.assert_allclose(A.toarray(), R.toarray(), rtol=0,
                               atol=1e-14 * np.max(np.abs(R.data)))


@pytest.mark.parametrize("dim, n", [(2, 8), (3, 4)])
def test_assemble_matches_det_inv_reference_on_perturbed_mesh(dim, n):
    # every interior vertex moved: general simplices, no right angles
    mesh = build_mesh(dim, GradingParams(MeshFamily.UNIFORM, n))
    shift = 0.1 / n * np.random.default_rng(dim).uniform(-1.0, 1.0, mesh.vertices.shape)
    shift[mesh.boundary_mask] = 0.0
    mesh = SimplicialMesh(mesh.vertices + shift, mesh.cells)
    A = assemble(mesh)
    R = brute_assemble(mesh, local=local_stiffness)
    assert A.nnz == R.nnz
    assert np.max(np.abs((A - R).data), initial=0.0) <= 1e-14 * np.max(np.abs(R.data))


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


# ------------------------------------------------------------ shared pattern


def _assert_same_bytes(A, B):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# the swept setting of each graded family, and the range it is drawn from
SWEPT = {
    MeshFamily.SHISHKIN: ("eps", st.floats(1e-3, 0.5)),
    MeshFamily.BAKHVALOV: ("eps", st.floats(1e-3, 0.5)),
    MeshFamily.SINGLE_LAYER: ("eps", st.floats(1e-3, 0.5)),
    MeshFamily.POWER: ("beta", st.floats(1.0, 4.0)),
}


@st.composite
def fixed_n_points(draw):
    """Two to four meshes of one family and one n that differ in eps or beta."""
    dim = draw(st.sampled_from([2, 3]))
    n = 2 * draw(st.integers(1, 16 if dim == 2 else 4))
    family = draw(st.sampled_from(sorted(SWEPT, key=lambda f: f.value)))
    key, values = SWEPT[family]
    settings_ = [{key: v} for v in draw(st.lists(values, min_size=2, max_size=4))]
    if family in (MeshFamily.SHISHKIN, MeshFamily.BAKHVALOV) and draw(st.booleans()):
        settings_ = [{**s, "layer_position": LayerPosition.INTERNAL} for s in settings_]
    meshes = []
    for s in settings_:
        try:
            meshes.append(build_mesh(dim, GradingParams(family, n, **s)))
        except ValueError:  # a grading that build_mesh refuses at this n
            assume(False)
    return meshes


@st.composite
def pattern_sequences(draw):
    """fixed_n_points, in some draws with the first mesh of another dim or n
    partway, so that a pattern derives that topology and then the first again."""
    meshes = draw(fixed_n_points())
    if draw(st.booleans()):
        other = draw(fixed_n_points())[0]
        assume(other.cells.shape != meshes[0].cells.shape)
        meshes.insert(draw(st.integers(1, len(meshes) - 1)), other)
    return meshes


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(pattern_sequences())
def test_stiffness_pattern_property(meshes):
    # one pattern assembles every mesh of the sequence as the COO reference does
    pattern = StiffnessPattern()
    for mesh in meshes:
        _assert_same_bytes(pattern.assemble(mesh), coo_assemble(mesh))
        assert pattern.fits(mesh)


def test_stiffness_pattern_derives_another_topology(monkeypatch):
    mesh = build_mesh(2, GradingParams(MeshFamily.SHISHKIN, 8, eps=0.1))
    others = {
        "other n": build_mesh(2, GradingParams(MeshFamily.SHISHKIN, 16, eps=0.1)),
        "other dim": build_mesh(3, GradingParams(MeshFamily.SHISHKIN, 8, eps=0.1)),
        "cells in another order": replace(mesh, cells=mesh.cells[::-1]),
        # the same cells, but no vertex on the box's boundary, so none is eliminated
        "other boundary": replace(mesh, vertices=0.25 + 0.5 * mesh.vertices),
    }
    derived = []
    derive = StiffnessPattern._derive

    def spy(pattern, m):
        derived.append(m)
        derive(pattern, m)

    monkeypatch.setattr(StiffnessPattern, "_derive", spy)
    pattern = StiffnessPattern()
    # a mesh of the same topology reuses the first mesh's
    same = build_mesh(2, GradingParams(MeshFamily.SHISHKIN, 8, eps=0.01))
    for m in (mesh, same):
        _assert_same_bytes(pattern.assemble(m), coo_assemble(m))
    assert len(derived) == 1 and derived[0] is mesh
    for name, other in others.items():
        assert not pattern.fits(other), name
        _assert_same_bytes(pattern.assemble(other), coo_assemble(other))
        assert derived[-1] is other and not pattern.fits(mesh), name
        # and back to the first topology
        _assert_same_bytes(pattern.assemble(same), coo_assemble(same))
        assert derived[-1] is same, name
    assert len(derived) == 1 + 2 * len(others)


@pytest.mark.parametrize("dim, n", [(2, 6), (3, 4)])
def test_stiffness_pattern_follows_a_mesh_whose_zeros_differ(dim, n):
    # one interior vertex moved: the couplings across the Kuhn diagonals next
    # to it are no longer exact zeros, so the stored entries change
    mesh = build_mesh(dim, GradingParams(MeshFamily.UNIFORM, n))
    vertices = mesh.vertices.copy()
    vertices[np.flatnonzero(~mesh.boundary_mask)[0]] += 0.1 / n
    moved = replace(mesh, vertices=vertices)
    assert coo_assemble(moved).nnz > coo_assemble(mesh).nnz
    pattern = StiffnessPattern()
    for m in (mesh, moved, moved, mesh):
        _assert_same_bytes(pattern.assemble(m), coo_assemble(m))


def test_stiffness_pattern_refuses_a_mesh_with_no_free_vertices():
    mesh = build_mesh(2, GradingParams(MeshFamily.UNIFORM, 4))
    empty = SimplicialMesh(UNIT_TRI, np.array([[0, 1, 2]]))
    pattern = StiffnessPattern()
    pattern.assemble(mesh)
    with pytest.raises(ValueError, match="^mesh has no free vertices; the Dirichlet system is empty$"):
        pattern.assemble(empty)
    # the refused derivation dropped the last topology first
    assert not pattern.fits(mesh) and not pattern.fits(empty)
    _assert_same_bytes(pattern.assemble(mesh), coo_assemble(mesh))
