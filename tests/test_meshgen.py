import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshspectra import (
    GradingParams,
    LayerPosition,
    MeshFamily,
    NodeSet1D,
    SimplicialMesh,
    assemble,
    build_mesh,
    cell_volumes,
    check_conforming,
    export_mesh_text,
    graded_nodes,
    patch_stats,
    tensor_mesh,
)
from meshspectra.meshgen import (
    FAMILY_PARAMS,
    bakhvalov_nodes,
    check_intervals,
    internalize,
    power_nodes,
    shishkin_nodes,
    single_layer_nodes,
    uniform_nodes,
)

from conftest import (
    brute_check_conforming,
    brute_export_mesh_text,
    brute_free_index,
    brute_h_const,
    brute_m_const,
    brute_patch_volumes,
    brute_tensor_mesh_2d,
    brute_tensor_mesh_3d,
)


def params(family, n, **kw):
    return GradingParams(family, n, **kw)


ALL_FAMILIES_2D = [
    params(MeshFamily.UNIFORM, 8),
    params(MeshFamily.SHISHKIN, 8, eps=0.05),
    params(MeshFamily.SHISHKIN, 8, eps=0.05, layer_position=LayerPosition.INTERNAL),
    params(MeshFamily.BAKHVALOV, 8, eps=0.1),
    params(MeshFamily.BAKHVALOV, 8, eps=0.1, layer_position=LayerPosition.INTERNAL),
    params(MeshFamily.POWER, 8, beta=3.0),
    params(MeshFamily.SINGLE_LAYER, 8, eps=0.2),
]
ALL_FAMILIES_3D = [
    params(MeshFamily.UNIFORM, 4),
    params(MeshFamily.POWER, 4, beta=2.0),
    params(MeshFamily.SINGLE_LAYER, 4, eps=0.1),
]


# ---------------------------------------------------------------- node sets


def test_uniform_nodes_small():
    assert np.array_equal(uniform_nodes(2).nodes, [0.0, 0.5, 1.0])
    assert np.array_equal(uniform_nodes(4).nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_uniform_nodes_rejects_tiny_n():
    with pytest.raises(ValueError):
        uniform_nodes(1)


@pytest.mark.parametrize(
    "kw",
    [
        dict(family=MeshFamily.UNIFORM, n=1),
        dict(family=MeshFamily.SHISHKIN, n=5),
        dict(family=MeshFamily.SHISHKIN, n=8, eps=0.0),
        dict(family=MeshFamily.SHISHKIN, n=8, eps=1.0),
        dict(family=MeshFamily.POWER, n=8, beta=0.5),
        dict(family=MeshFamily.SHISHKIN, n=8, c_sigma=0.0),
        dict(family=MeshFamily.POWER, n=8, layer_position=LayerPosition.INTERNAL),
        dict(family=MeshFamily.SINGLE_LAYER, n=8, layer_position=LayerPosition.INTERNAL),
        dict(family=MeshFamily.POWER, n=8, beta=math.nan),
        # a NaN c_sigma used to clamp the Shishkin transition to 1, the uniform mesh
        dict(family=MeshFamily.SHISHKIN, n=8, c_sigma=math.nan),
    ],
)
def test_grading_params_validation(kw):
    with pytest.raises(ValueError):
        GradingParams(**kw)


@pytest.mark.parametrize("family", list(MeshFamily))
def test_family_params_lists_what_the_nodes_read(family):
    base = GradingParams(family, 16, eps=0.05, beta=2.0, c_sigma=1.0)
    nodes = graded_nodes(base).nodes
    for field, value in (("eps", 0.1), ("beta", 3.0), ("c_sigma", 0.5)):
        changed = graded_nodes(replace(base, **{field: value})).nodes
        assert np.array_equal(changed, nodes) == (field not in FAMILY_PARAMS[family]), field


def test_nodeset_validation():
    with pytest.raises(ValueError):
        NodeSet1D(np.array([0.0, 0.5, 0.5, 1.0]))  # not strictly increasing
    with pytest.raises(ValueError):
        NodeSet1D(np.array([0.1, 1.0]))  # first endpoint off
    with pytest.raises(ValueError):
        NodeSet1D(np.array([0.0]))


def test_shishkin_hand_values():
    # n=4, eps=0.05: tau = 2*0.05*ln 4, fine steps tau/4, coarse from tau/2
    ns = shishkin_nodes(params(MeshFamily.SHISHKIN, 4, eps=0.05))
    expect = [0.0, 0.03465735902799726, 0.06931471805599453, 0.5346573590279973, 1.0]
    np.testing.assert_allclose(ns.nodes, expect, rtol=1e-14, atol=0)


def test_shishkin_step_ratio():
    ns = shishkin_nodes(params(MeshFamily.SHISHKIN, 4, eps=0.05))
    steps = ns.steps
    assert math.isclose(steps[2] / steps[0], 13.426950408889635, rel_tol=1e-12)


def test_shishkin_clamps_to_uniform():
    # 2*0.9*ln 4 > 1, so the transition clamps and the mesh is uniform
    ns = shishkin_nodes(params(MeshFamily.SHISHKIN, 4, eps=0.9))
    assert np.array_equal(ns.nodes, uniform_nodes(4).nodes)


def test_shishkin_needs_n_at_least_4():
    with pytest.raises(ValueError):
        shishkin_nodes(params(MeshFamily.SHISHKIN, 2, eps=0.05))


def test_bakhvalov_hand_values():
    # n=4, eps=0.1: x_i = -0.1*ln(1 - 0.45*i), transition -0.1*ln(0.1)
    ns = bakhvalov_nodes(params(MeshFamily.BAKHVALOV, 4, eps=0.1))
    expect = [0.0, 0.059783700075562045, 0.23025850929940456, 0.6151292546497023, 1.0]
    np.testing.assert_allclose(ns.nodes, expect, rtol=1e-14, atol=0)
    assert ns.nodes[0] == 0.0


@pytest.mark.parametrize("n", [4, 8, 16, 64])
@pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 0.2, 0.5, 0.9])
def test_bakhvalov_monotone(n, eps):
    ns = bakhvalov_nodes(params(MeshFamily.BAKHVALOV, n, eps=eps))
    assert np.all(np.diff(ns.nodes) > 0.0)
    assert len(ns) == n + 1


def test_bakhvalov_rejects_far_transition():
    # -c_sigma*eps*ln(eps) = 3.47 >= 1: fine region would leave the domain
    with pytest.raises(ValueError):
        bakhvalov_nodes(params(MeshFamily.BAKHVALOV, 8, eps=0.5, c_sigma=10.0))


def test_power_hand_values():
    ns = power_nodes(params(MeshFamily.POWER, 4, beta=3.0))
    assert np.array_equal(ns.nodes, [0.0, 0.0625, 0.5, 0.9375, 1.0])


def test_power_beta_one_is_uniform():
    ns = power_nodes(params(MeshFamily.POWER, 6, beta=1.0))
    np.testing.assert_allclose(ns.nodes, uniform_nodes(6).nodes, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n,beta", [(4, 3.0), (8, 1.5), (50, 2.0)])
def test_power_symmetry_exact(n, beta):
    x = power_nodes(params(MeshFamily.POWER, n, beta=beta)).nodes
    assert np.all(x + x[::-1] == 1.0)


def test_single_layer_hand_values():
    ns = single_layer_nodes(params(MeshFamily.SINGLE_LAYER, 2, eps=0.2))
    assert np.array_equal(ns.nodes, [0.0, 0.5, 0.6, 1.0])


def test_single_layer_counts_and_thinnest():
    ns = single_layer_nodes(params(MeshFamily.SINGLE_LAYER, 8, eps=0.05))
    assert len(ns) == 10  # n + 2 nodes
    assert math.isclose(ns.steps.min(), 0.05 / 8, rel_tol=1e-12)


def test_internalize_hand_values():
    ns = internalize(NodeSet1D(np.array([0.0, 0.25, 1.0])))
    assert np.array_equal(ns.nodes, [0.0, 0.375, 0.5, 0.625, 1.0])


def test_internalize_uniform_stays_uniform():
    assert np.array_equal(internalize(uniform_nodes(4)).nodes, uniform_nodes(8).nodes)


def test_graded_nodes_internal_dispatch():
    p = params(MeshFamily.SHISHKIN, 8, eps=0.05, layer_position=LayerPosition.INTERNAL)
    ns = graded_nodes(p)
    assert len(ns) == 9  # still n+1 nodes after halving and mirroring
    assert ns.nodes[4] == 0.5
    # mirrored construction is symmetric about the midpoint
    assert np.all(ns.nodes + ns.nodes[::-1] == 1.0)
    half = shishkin_nodes(params(MeshFamily.SHISHKIN, 4, eps=0.05))
    np.testing.assert_array_equal(ns.nodes, internalize(half).nodes)


def test_graded_nodes_internal_needs_multiple_of_4():
    p = params(MeshFamily.BAKHVALOV, 6, eps=0.1, layer_position=LayerPosition.INTERNAL)
    with pytest.raises(ValueError):
        graded_nodes(p)


def test_node_family_invariants():
    for p in ALL_FAMILIES_2D:
        ns = graded_nodes(p)
        assert ns.nodes[0] == 0.0 and ns.nodes[-1] == 1.0
        assert np.all(np.diff(ns.nodes) > 0.0)
        expected_len = p.n + 2 if p.family is MeshFamily.SINGLE_LAYER else p.n + 1
        assert len(ns) == expected_len


# ---------------------------------------------------------------- 2D meshes


def test_tensor_2d_small_counts():
    ns = uniform_nodes(2)
    mesh = tensor_mesh(ns, ns)
    assert mesh.n_vertices == 9
    assert mesh.n_cells == 8
    assert int(mesh.boundary_mask.sum()) == 8
    assert mesh.n_free == 1
    center = int(np.flatnonzero(~mesh.boundary_mask)[0])
    assert int(np.sum(mesh.cells == center)) == 6  # diagonal-split valence
    assert mesh.free_index[center] == 0


def test_tensor_2d_orientation_and_partition():
    for p in ALL_FAMILIES_2D:
        mesh = build_mesh(2, p)
        vols = cell_volumes(mesh)
        assert np.all(vols > 0.0)
        assert abs(vols.sum() - 1.0) <= 1e-12


def test_boundary_mask_matches_coordinates_2d():
    mesh = build_mesh(2, params(MeshFamily.SHISHKIN, 8, eps=0.05))
    on_edge = np.any((mesh.vertices == 0.0) | (mesh.vertices == 1.0), axis=1)
    np.testing.assert_array_equal(mesh.boundary_mask, on_edge)


# ---------------------------------------------------------------- 3D meshes


def test_tensor_3d_single_box():
    ns = NodeSet1D(np.array([0.0, 1.0]))
    mesh = tensor_mesh(ns, ns, ns)
    vols = cell_volumes(mesh)
    assert mesh.n_cells == 6
    np.testing.assert_allclose(vols, 1.0 / 6.0, rtol=1e-14)
    assert abs(vols.sum() - 1.0) <= 1e-14
    check_conforming(mesh)


def test_tensor_3d_free_counts():
    mesh = build_mesh(3, params(MeshFamily.UNIFORM, 12))
    assert mesh.n_free == 11**3
    mesh = build_mesh(3, params(MeshFamily.UNIFORM, 13))
    assert mesh.n_free == 12**3  # 1728 interior vertices on the 14-node grid


def test_tensor_3d_orientation_and_partition():
    for p in ALL_FAMILIES_3D:
        mesh = build_mesh(3, p)
        vols = cell_volumes(mesh)
        assert np.all(vols > 0.0)
        assert abs(vols.sum() - 1.0) <= 1e-12


# ------------------------------------------------------ any-dimension builder


def assert_same_mesh(mesh, oracle):
    assert mesh.dim == oracle.dim
    for field in ("vertices", "cells", "boundary_mask", "free_index"):
        got, want = getattr(mesh, field), getattr(oracle, field)
        assert got.dtype == want.dtype and got.shape == want.shape, field
        assert got.tobytes() == want.tobytes(), field
    np.testing.assert_array_equal(mesh.free_index, brute_free_index(mesh))


def test_tensor_mesh_matches_brute_builders():
    sets = [graded_nodes(p) for p in ALL_FAMILIES_2D] + [uniform_nodes(3)]
    for a, b in zip(sets, sets[1:] + sets[:1]):
        assert_same_mesh(tensor_mesh(a, b), brute_tensor_mesh_2d(a, b))
        assert_same_mesh(tensor_mesh(a, b, b), brute_tensor_mesh_3d(a, b, b))


@st.composite
def unequal_node_sets(draw, dim):
    """dim node sets with pairwise different interval counts."""
    counts = draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim, unique=True))
    sets = []
    for m in counts:
        steps = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
        inner = np.cumsum(steps)[:-1] / steps.sum()
        sets.append(NodeSet1D(np.concatenate(([0.0], inner, [1.0]))))
    return sets


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.one_of(unequal_node_sets(2), unequal_node_sets(3)))
def test_tensor_mesh_property(sets):
    mesh = tensor_mesh(*sets)
    oracle = brute_tensor_mesh_2d if len(sets) == 2 else brute_tensor_mesh_3d
    assert_same_mesh(mesh, oracle(*sets))
    check_conforming(mesh)
    vols = cell_volumes(mesh)
    assert np.all(vols > 0.0)
    assert abs(vols.sum() - 1.0) <= 1e-12


def test_tensor_mesh_4d():
    skewed = NodeSet1D(np.array([0.0, 0.3, 1.0]))
    mesh = tensor_mesh(uniform_nodes(2), skewed, uniform_nodes(3), uniform_nodes(2))
    assert mesh.n_vertices == 3 * 3 * 4 * 3 and mesh.n_free == 1 * 1 * 2 * 1
    assert mesh.n_cells == 24 * (2 * 2 * 3 * 2)  # 4! Kuhn simplices per box
    pts = mesh.vertices[mesh.cells]
    vols = np.linalg.det(pts[:, 1:] - pts[:, :1]) / 24.0
    assert np.all(vols > 0.0)
    assert abs(vols.sum() - 1.0) <= 1e-14
    check_conforming(mesh)


def test_cell_volumes_rejects_dim_4():
    # assembly takes any dim; the volume closed forms exist for 2 and 3 only
    mesh = tensor_mesh(*[uniform_nodes(2)] * 4)
    assert assemble(mesh).shape == (1, 1)
    for geometry in (cell_volumes, patch_stats):
        with pytest.raises(ValueError, match="dim 2 and 3, got dim 4"):
            geometry(mesh)


def _conforming_error(check, mesh):
    try:
        check(mesh)
    except ValueError as exc:
        return str(exc)
    return None


def test_conforming_all_families():
    meshes = [build_mesh(2, p) for p in ALL_FAMILIES_2D]
    meshes += [build_mesh(3, p) for p in ALL_FAMILIES_3D]
    for mesh in meshes:
        check_conforming(mesh)
        brute_check_conforming(mesh)
        # broken variants: both checks name the same first offending face
        mid = mesh.n_cells // 2
        for cells in (
            np.delete(mesh.cells, mid, axis=0),
            np.vstack([mesh.cells, mesh.cells[mid : mid + 1]]),
            np.vstack([mesh.cells[mid:], mesh.cells[:mid], mesh.cells[-1:]]),
        ):
            broken = replace(mesh, cells=cells)
            msg = _conforming_error(check_conforming, broken)
            assert msg is not None
            assert msg == _conforming_error(brute_check_conforming, broken)


def test_conforming_detects_duplicate_cell():
    mesh = build_mesh(2, params(MeshFamily.UNIFORM, 2))
    broken = replace(mesh, cells=np.vstack([mesh.cells, mesh.cells[:1]]))
    with pytest.raises(ValueError, match=r"^face \(3, 4\) shared by 3 cells$"):
        check_conforming(broken)


def test_conforming_detects_missing_cell():
    mesh = build_mesh(2, params(MeshFamily.UNIFORM, 2))
    broken = replace(mesh, cells=mesh.cells[1:])
    with pytest.raises(ValueError, match=r"^interior face \(0, 4\) belongs to only one cell$"):
        check_conforming(broken)


def test_conforming_rejects_unencodable_vertex_count():
    # 2.1e6**3 exceeds int64; the broadcast view allocates no coordinates
    mesh = build_mesh(3, params(MeshFamily.UNIFORM, 2))
    huge = SimplicialMesh(
        dim=3,
        vertices=np.broadcast_to(0.0, (2_100_000, 3)),
        cells=mesh.cells,
        boundary_mask=np.ones(2_100_000, dtype=bool),
    )
    with pytest.raises(ValueError, match="too many to encode"):
        check_conforming(huge)


def test_build_mesh_grading_policy():
    mesh = build_mesh(2, params(MeshFamily.SHISHKIN, 8, eps=0.05))
    xs = np.unique(mesh.vertices[:, 0])
    ys = np.unique(mesh.vertices[:, 1])
    np.testing.assert_array_equal(xs, ys)  # both directions graded alike
    expected = shishkin_nodes(params(MeshFamily.SHISHKIN, 8, eps=0.05)).nodes
    np.testing.assert_array_equal(xs, expected)

    mesh = build_mesh(2, params(MeshFamily.SINGLE_LAYER, 8, eps=0.2))
    assert np.unique(mesh.vertices[:, 0]).size == 10  # graded direction, n+2 nodes
    np.testing.assert_array_equal(np.unique(mesh.vertices[:, 1]), uniform_nodes(8).nodes)


def test_build_mesh_rejects_bad_dim():
    with pytest.raises(ValueError):
        build_mesh(4, params(MeshFamily.UNIFORM, 4))


@pytest.mark.parametrize("dim", [1, 4])
def test_check_intervals_rejects_unsupported_dim(dim):
    # one dimension rule for build_mesh, SweepSpec and calibrate
    with pytest.raises(ValueError, match=f"dim must be 2 or 3, got {dim}"):
        check_intervals(dim, 8)


# ---------------------------------------------------------------- statistics


def test_patch_stats_uniform_2d():
    mesh = build_mesh(2, params(MeshFamily.UNIFORM, 4))
    st = patch_stats(mesh)
    h = 0.25
    assert math.isclose(st.omega_min, 3 * h * h, rel_tol=1e-14)
    assert st.m_const == 6
    assert abs(st.h_const - 1.0) <= 1e-12
    assert st.n_free == 9
    assert st.cell_volumes.size == 32
    assert math.isclose(st.cell_volumes.sum(), 1.0, rel_tol=1e-14)
    # all interior patches of the uniform grid are congruent
    np.testing.assert_allclose(st.patch_volumes, 3 * h * h, rtol=1e-13)


def test_patch_stats_uniform_3d():
    mesh = build_mesh(3, params(MeshFamily.UNIFORM, 4))
    st = patch_stats(mesh)
    h = 0.25
    assert st.m_const == 24  # Kuhn subdivision: 24 tets at an interior vertex
    assert math.isclose(st.omega_min, 4 * h**3, rel_tol=1e-12)
    assert abs(st.h_const - 1.0) <= 1e-12


def test_patch_stats_single_layer_hand_values():
    mesh = build_mesh(2, params(MeshFamily.SINGLE_LAYER, 2, eps=0.2))
    st = patch_stats(mesh)
    np.testing.assert_allclose(np.sort(st.patch_volumes), [0.375, 0.45], rtol=0, atol=1e-15)
    assert math.isclose(st.k_min, 0.025, rel_tol=1e-13)
    assert math.isclose(st.h_const, 5.0, rel_tol=1e-12)
    assert st.m_const == 6
    assert st.n_free == 2


def test_patch_sum_identity():
    for dim, plist in ((2, ALL_FAMILIES_2D), (3, ALL_FAMILIES_3D)):
        for p in plist:
            mesh = build_mesh(dim, p)
            total = brute_patch_volumes(mesh).sum()
            expect = (dim + 1) * cell_volumes(mesh).sum()
            assert abs(total - expect) <= 1e-12


def test_patch_stats_brute_force_equivalence():
    small = [
        build_mesh(2, params(MeshFamily.UNIFORM, 4)),
        build_mesh(2, params(MeshFamily.SHISHKIN, 6, eps=0.1)),
        build_mesh(2, params(MeshFamily.SINGLE_LAYER, 4, eps=0.3)),
        build_mesh(3, params(MeshFamily.POWER, 2, beta=2.0)),
    ]
    for mesh in small:
        assert mesh.n_cells <= 200
        st = patch_stats(mesh)
        assert st.h_const == brute_h_const(mesh)
        assert st.m_const == brute_m_const(mesh)
        brute_free = brute_patch_volumes(mesh)[~mesh.boundary_mask]
        np.testing.assert_array_equal(st.patch_volumes, brute_free)
        np.testing.assert_array_equal(st.cell_volumes, cell_volumes(mesh))


def test_patch_stats_lower_bounds():
    for dim, plist in ((2, ALL_FAMILIES_2D), (3, ALL_FAMILIES_3D)):
        for p in plist:
            st = patch_stats(build_mesh(dim, p))
            assert st.h_const >= 1.0
            assert st.m_const >= dim + 1
            assert np.all(st.patch_volumes > 0.0)
            assert st.omega_min <= st.patch_volumes.min()


def test_patch_stats_requires_free_vertex():
    ns = NodeSet1D(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        patch_stats(tensor_mesh(ns, ns))


def test_export_mesh_text_roundtrip(tmp_path):
    mesh = build_mesh(2, params(MeshFamily.BAKHVALOV, 4, eps=0.1))
    path = tmp_path / "mesh.txt"
    export_mesh_text(mesh, path)
    lines = path.read_text().splitlines()
    dim, nv, nc = (int(t) for t in lines[0].split())
    assert (dim, nv, nc) == (2, mesh.n_vertices, mesh.n_cells)
    verts = np.array([[float(t) for t in line.split()] for line in lines[1 : 1 + nv]])
    cells = np.array([[int(t) for t in line.split()] for line in lines[1 + nv :]])
    np.testing.assert_array_equal(verts, mesh.vertices)  # %.17g round-trips
    np.testing.assert_array_equal(cells, mesh.cells)


def test_export_mesh_text_matches_row_writer(tmp_path):
    # 5202 vertex rows and 26112 cell rows: neither is a multiple of the chunk size
    mesh = build_mesh(3, params(MeshFamily.SINGLE_LAYER, 16, eps=0.05))
    assert (mesh.n_vertices, mesh.n_cells) == (5202, 26112)
    export_mesh_text(mesh, tmp_path / "chunked.txt")
    brute_export_mesh_text(mesh, tmp_path / "rows.txt")
    assert (tmp_path / "chunked.txt").read_bytes() == (tmp_path / "rows.txt").read_bytes()
