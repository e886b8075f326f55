import hashlib
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshspectra import (
    FIXTURES,
    GradingParams,
    LayerPosition,
    MeshFamily,
    NodeSet1D,
    SimplicialMesh,
    assemble,
    build_mesh,
    calibrate,
    cell_volumes,
    export_mesh_text,
    graded_nodes,
    patch_stats,
    tensor_mesh,
)
from meshspectra.meshgen import (
    EXPORT_CHUNK_ROWS,
    FAMILY_PARAMS,
    MAX_INTERVALS,
    bakhvalov_nodes,
    check_intervals,
    internalize,
    power_nodes,
    shishkin_nodes,
    simplex_cofactors,
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
    check_conforming,
    index_grid_tensor_mesh,
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
        # an infinite c_sigma clamped the Shishkin transition to 1 too, and made
        # the Bakhvalov nodes inf * 0 = NaN
        dict(family=MeshFamily.SHISHKIN, n=8, c_sigma=math.inf),
        dict(family=MeshFamily.BAKHVALOV, n=8, c_sigma=math.inf),
        dict(family=MeshFamily.POWER, n=8, beta=math.inf),
    ],
)
def test_grading_params_validation(kw):
    with pytest.raises(ValueError):
        GradingParams(**kw)


@pytest.mark.parametrize("family", list(MeshFamily))
@pytest.mark.parametrize("key", ["eps", "beta", "c_sigma"])
def test_grading_params_refuses_exactly_the_unread_settings(family, key):
    value = {"eps": 0.1, "beta": 2.0, "c_sigma": 0.5}[key]
    if key in FAMILY_PARAMS[family]:
        assert getattr(GradingParams(family, 16, **{key: value}), key) == value
    else:
        with pytest.raises(ValueError, match=f"{family.value} grading does not depend on {key}"):
            GradingParams(family, 16, **{key: value})
        assert getattr(GradingParams(family, 16), key) is None


def test_grading_params_defaults_the_settings_the_family_reads():
    p = GradingParams(MeshFamily.SHISHKIN, 16)
    assert (p.eps, p.beta, p.c_sigma) == (0.05, None, 1.0)
    assert GradingParams(MeshFamily.POWER, 16).beta == 3.0
    assert p == GradingParams(MeshFamily.SHISHKIN, 16, eps=0.05, c_sigma=1.0)


def test_grading_params_takes_a_whole_float_mesh_size_as_an_int():
    p = GradingParams(MeshFamily.UNIFORM, 8.0)
    assert p.n == 8 and type(p.n) is int
    assert np.array_equal(build_mesh(2, p).vertices,
                          build_mesh(2, GradingParams(MeshFamily.UNIFORM, 8)).vertices)
    assert calibrate(2, 64.0) == calibrate(2, 64)


@pytest.mark.parametrize("n", [8.5, math.nan, math.inf])
def test_grading_params_refuses_a_mesh_size_that_is_not_whole(n):
    # a fractional size is refused as such, before the layer families' even-n rule reads it
    for family in (MeshFamily.UNIFORM, MeshFamily.SHISHKIN):
        with pytest.raises(ValueError, match=f"^mesh sizes must be integers, got {n}$"):
            GradingParams(family, n)


@pytest.mark.parametrize("family", list(MeshFamily))
def test_family_params_lists_what_the_nodes_read(family):
    # each setting the family reads changes the nodes; each other one is refused
    base = GradingParams(family, 16)
    nodes = graded_nodes(base).nodes
    for field, value in (("eps", 0.1), ("beta", 2.0), ("c_sigma", 0.5)):
        if field in FAMILY_PARAMS[family]:
            changed = graded_nodes(replace(base, **{field: value})).nodes
            assert not np.array_equal(changed, nodes), field
        else:
            with pytest.raises(ValueError, match="does not depend on"):
                replace(base, **{field: value})


def test_nodeset_validation():
    with pytest.raises(ValueError):
        NodeSet1D(np.array([0.0, 0.5, 0.5, 1.0]))  # not strictly increasing
    with pytest.raises(ValueError):
        NodeSet1D(np.array([0.1, 1.0]))  # first endpoint off
    with pytest.raises(ValueError):
        NodeSet1D(np.array([0.0]))


def test_array_records_compare_and_hash_by_identity():
    # their fields are arrays, whose == has no single truth value: two records
    # are equal only when they are the same object, and each hashes as itself
    a, b = uniform_nodes(4), uniform_nodes(4)
    assert a == a and a != b and a in [a] and b not in [a]
    assert len({a, b, a}) == 2
    mesh = build_mesh(2, params(MeshFamily.UNIFORM, 4))
    other = replace(mesh)
    assert mesh == mesh and mesh != other and mesh in [mesh] and other not in [mesh]
    assert {mesh: 1, other: 2}[mesh] == 1


def test_shishkin_hand_values():
    # n=4, eps=0.05: tau = 2*0.05*ln 4, fine steps tau/4, coarse from tau/2
    ns = shishkin_nodes(params(MeshFamily.SHISHKIN, 4, eps=0.05))
    expect = [0.0, 0.03465735902799726, 0.06931471805599453, 0.5346573590279973, 1.0]
    np.testing.assert_allclose(ns.nodes, expect, rtol=1e-14, atol=0)


def test_shishkin_step_ratio():
    ns = shishkin_nodes(params(MeshFamily.SHISHKIN, 4, eps=0.05))
    steps = np.diff(ns.nodes)
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


@pytest.mark.parametrize("n", [4, 6, 64])
@pytest.mark.parametrize("eps", [1e-17, 5e-17])
def test_bakhvalov_refuses_eps_below_rounding(n, eps):
    # 1 - eps rounds to 1, so the last ln argument is 0: log1p(-1) would warn and
    # give an infinite transition
    with pytest.raises(ValueError, match=f"eps={eps:g} is too small for bakhvalov grading"):
        bakhvalov_nodes(params(MeshFamily.BAKHVALOV, n, eps=eps))
    # the smallest eps whose 1 - eps is below 1 still grades
    assert len(bakhvalov_nodes(params(MeshFamily.BAKHVALOV, n, eps=6e-17))) == n + 1


def test_power_hand_values():
    ns = power_nodes(params(MeshFamily.POWER, 4, beta=3.0))
    assert np.array_equal(ns.nodes, [0.0, 0.0625, 0.5, 0.9375, 1.0])


def test_power_beta_one_is_uniform():
    ns = power_nodes(params(MeshFamily.POWER, 6, beta=1.0))
    np.testing.assert_allclose(ns.nodes, uniform_nodes(6).nodes, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n, beta", [(256, 8.0), (256, 7.9), (16, 30.0), (256, 200.0)])
def test_power_refuses_beta_whose_end_nodes_round_together(n, beta):
    # 1 - x_1 rounds onto 1.0 (x_1 = 2^-57 at beta=8, n=256), or x_1 itself
    # underflows to 0.0 (beta=200): the refusal names beta and n, not the
    # node set's ordering rule
    with pytest.raises(ValueError, match=rf"^beta={beta:g} is too large for power grading "
                                         rf"at n={n}: a node next to 0 or 1 rounds onto"):
        power_nodes(params(MeshFamily.POWER, n, beta=beta))
    # the largest whole beta that still grades at the cap
    assert len(power_nodes(params(MeshFamily.POWER, 256, beta=7.0))) == 257


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
    assert math.isclose(np.diff(ns.nodes).min(), 0.05 / 8, rel_tol=1e-12)


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


def test_boundary_vertex_count_matches_distinct_coordinates():
    # a product grid with m_k distinct coordinates on axis k has prod(m_k - 2)
    # vertices off the box's boundary
    for dim, plist in ((2, ALL_FAMILIES_2D), (3, ALL_FAMILIES_3D)):
        for p in plist:
            mesh = build_mesh(dim, p)
            m = np.array([np.unique(mesh.vertices[:, k]).size for k in range(dim)])
            assert int(mesh.boundary_mask.sum()) == np.prod(m) - np.prod(m - 2)
            assert mesh.n_free == np.prod(m - 2)


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


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.one_of(unequal_node_sets(2), unequal_node_sets(3), unequal_node_sets(4)))
def test_tensor_mesh_matches_the_index_grid_builder(sets):
    mesh, oracle = tensor_mesh(*sets), index_grid_tensor_mesh(*sets)
    for got, want in ((mesh.vertices, oracle.vertices), (mesh.cells, oracle.cells)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # the cells are stored component-major: each column is contiguous
    assert mesh.cells.T.flags.c_contiguous and oracle.cells.flags.c_contiguous


def test_mesh_refuses_cells_of_the_wrong_shape():
    mesh = build_mesh(2, GradingParams(MeshFamily.UNIFORM, 4))
    wide = np.hstack([mesh.cells, mesh.cells[:, :1]])
    message = r"^cells of a 2D mesh must be an integer \(n_cells, 3\) array, got int64 of shape \(32, 4\)$"
    with pytest.raises(ValueError, match=message):
        SimplicialMesh(mesh.vertices, wide)
    with pytest.raises(ValueError, match=message):
        replace(mesh, cells=wide)
    with pytest.raises(ValueError, match=r"got float64 of shape \(32, 3\)$"):
        SimplicialMesh(mesh.vertices, mesh.cells.astype(float))
    with pytest.raises(ValueError, match=r"got int64 of shape \(96,\)$"):
        SimplicialMesh(mesh.vertices, mesh.cells.ravel())


def _random_simplices(dim, count, seed):
    """A mesh of count unconnected random simplices, one per cell: vertex 0 of
    each anywhere, its edges a random perturbation of the unit vectors."""
    rng = np.random.default_rng(seed)
    base = rng.random((count, 1, dim))
    tips = base + np.eye(dim) + 0.3 * rng.standard_normal((count, dim, dim))
    vertices = np.concatenate([base, tips], axis=1).reshape(-1, dim)
    return SimplicialMesh(vertices, np.arange(count * (dim + 1)).reshape(count, dim + 1))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_simplex_cofactors_invert_the_edges(dim):
    mesh = _random_simplices(dim, 50, dim)
    pts = mesh.vertices[mesh.cells]
    e = pts[:, 1:] - pts[:, :1]
    det, cof, scale = simplex_cofactors(mesh.vertices, mesh.cells)
    np.testing.assert_allclose(det, np.linalg.det(e), rtol=1e-13)
    # e_k . c_(j+1) = det * delta_kj, and the d+1 vectors sum to zero
    np.testing.assert_allclose(e @ cof[1:].transpose(2, 1, 0),
                               det[:, None, None] * np.eye(dim), atol=1e-13)
    np.testing.assert_allclose(cof.sum(axis=0), 0.0, atol=1e-14)
    np.testing.assert_allclose(scale, np.prod(np.linalg.norm(e, axis=2), axis=1), rtol=1e-15)
    # every result is one contiguous row per component, over the cells
    assert all(x.flags.c_contiguous for x in (det, cof, scale)) and cof.shape == (dim + 1, dim, 50)


def test_mesh_geometry_is_computed_once_and_not_shared_by_a_replaced_mesh():
    mesh = build_mesh(2, GradingParams(MeshFamily.UNIFORM, 4))
    assert mesh.geometry is mesh.geometry
    np.testing.assert_array_equal(cell_volumes(mesh), mesh.geometry[0] / 2)
    # move the center vertex: the cells around it change
    moved = mesh.vertices.copy()
    moved[12] += [0.05, 0.0]
    other = replace(mesh, vertices=moved)
    assert other.geometry is not mesh.geometry
    for got, want in zip(other.geometry, simplex_cofactors(moved, mesh.cells)):
        np.testing.assert_array_equal(got, want)
    assert not np.array_equal(other.geometry[0], mesh.geometry[0])
    assert math.isclose(cell_volumes(other).sum(), 1.0, rel_tol=1e-14)
    assert not np.array_equal(patch_stats(other).patch_volumes, patch_stats(mesh).patch_volumes)
    assert not np.array_equal(assemble(other).data, assemble(mesh).data)


def test_mesh_geometry_is_read_only():
    mesh = build_mesh(2, GradingParams(MeshFamily.UNIFORM, 4))
    volumes, matrix = cell_volumes(mesh), assemble(mesh)
    for array in mesh.geometry:
        with pytest.raises(ValueError, match="read-only"):
            array[:] *= 2
    np.testing.assert_array_equal(cell_volumes(mesh), volumes)
    assert (assemble(mesh) != matrix).nnz == 0


def test_mesh_boundary_mask_and_free_index_are_derived_once_and_read_only():
    mesh = build_mesh(2, GradingParams(MeshFamily.UNIFORM, 4))
    assert mesh.free_index is mesh.free_index
    free_index, matrix = mesh.free_index.copy(), assemble(mesh)
    # a writable mask would let this write move a vertex off the boundary
    # without changing n_free or free_index
    for array, value in ((mesh.boundary_mask, False), (mesh.free_index, 0)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = value
    assert mesh.boundary_mask[0] and mesh.n_free == 9
    np.testing.assert_array_equal(mesh.free_index, free_index)
    assert (assemble(mesh) != matrix).nnz == 0


@pytest.mark.parametrize("bad", [-1, 99])
def test_bad_cell_index_is_refused_by_patch_stats_and_assemble(bad):
    mesh = build_mesh(2, GradingParams(MeshFamily.UNIFORM, 4))
    cells = mesh.cells.copy()
    cells[0, 1] = bad
    message = (rf"^cell 0 \({cells[0, 0]}, {bad}, {cells[0, 2]}\) "
               rf"has a vertex index outside \[0, 25\)$")
    for reader in (patch_stats, assemble):
        # the mesh refuses the cell before either reader can see it
        with pytest.raises(ValueError, match=message):
            reader(SimplicialMesh(mesh.vertices, cells))


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
        with pytest.raises(ValueError, match=r"^dim must be 2 or 3, got 4$"):
            geometry(mesh)


def _conforming_error(check, mesh):
    try:
        check(mesh)
    except ValueError as exc:
        return str(exc)
    return None


def _checked_error(mesh):
    """check_conforming's message on mesh (None if it passes), asserted equal to
    the counting oracle's."""
    msg = _conforming_error(check_conforming, mesh)
    assert msg == _conforming_error(brute_check_conforming, mesh)
    return msg


def _traced_peak_mib(fn, *args):
    """Peak bytes, in MiB, that fn(*args) allocates beyond what is live before it."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_conforming_all_families():
    meshes = [build_mesh(2, p) for p in ALL_FAMILIES_2D]
    meshes += [build_mesh(3, p) for p in ALL_FAMILIES_3D]
    for mesh in meshes:
        assert _checked_error(mesh) is None
        # broken variants: both checks name the same first offending face
        mid = mesh.n_cells // 2
        for cells in (
            np.delete(mesh.cells, mid, axis=0),
            np.vstack([mesh.cells, mesh.cells[mid : mid + 1]]),
            np.vstack([mesh.cells[mid:], mesh.cells[:mid], mesh.cells[-1:]]),
        ):
            assert _checked_error(replace(mesh, cells=cells)) is not None
        # seeded random variants: cell i deleted, cell i duplicated in front of
        # cell j, and cell i moved to the end (conforming on its own, broken
        # once cell j is deleted too)
        rng = np.random.default_rng(mesh.n_cells)
        for _ in range(6):
            i, j = rng.choice(mesh.n_cells, size=2, replace=False)
            moved = np.vstack([np.delete(mesh.cells, i, axis=0), mesh.cells[i : i + 1]])
            assert _checked_error(replace(mesh, cells=moved)) is None
            for cells in (
                np.delete(mesh.cells, i, axis=0),
                np.insert(mesh.cells, j, mesh.cells[i], axis=0),
                np.delete(moved, j - (j > i), axis=0),
            ):
                assert _checked_error(replace(mesh, cells=cells)) is not None


@pytest.mark.parametrize("dim, n_cells", [(2, 32), (3, 384)])
def test_conforming_refuses_every_single_cell_deletion(dim, n_cells):
    # a deleted cell whose vertices all lie on the boundary still leaves faces
    # inside the box that only one cell uses
    mesh = build_mesh(dim, params(MeshFamily.UNIFORM, 4))
    assert mesh.n_cells == n_cells
    for c in range(n_cells):
        broken = replace(mesh, cells=np.delete(mesh.cells, c, axis=0))
        msg = _checked_error(broken)
        assert msg is not None and msg.startswith("interior face ")


@pytest.mark.parametrize("index", [-1, 25, 99])
def test_conforming_refuses_a_vertex_index_outside_the_mesh(index):
    # the mesh itself refuses the cell, so no reader (the geometry, the
    # conformity check, the exporter) sees an index that would wrap to the last
    # vertex (-1) or run past the vertex array (25, the vertex count, and 99)
    mesh = build_mesh(2, params(MeshFamily.UNIFORM, 4))
    cells = mesh.cells.copy()
    cells[5, 2] = index
    message = rf"^cell 5 \(2, 8, {index}\) has a vertex index outside \[0, 25\)$"
    with pytest.raises(ValueError, match=message):
        replace(mesh, cells=cells)
    with pytest.raises(ValueError, match=message):
        SimplicialMesh(mesh.vertices, cells)
    # the first cell that breaks the rule is named
    cells[7, 0] = index
    with pytest.raises(ValueError, match=r"^cell 5 "):
        SimplicialMesh(mesh.vertices, cells)
    cells[3, 1] = -2
    with pytest.raises(ValueError, match=r"^cell 3 "):
        SimplicialMesh(mesh.vertices, cells)


def test_conforming_detects_duplicate_cell():
    mesh = build_mesh(2, params(MeshFamily.UNIFORM, 2))
    broken = replace(mesh, cells=np.vstack([mesh.cells, mesh.cells[:1]]))
    with pytest.raises(ValueError, match=r"^face \(3, 4\) shared by 3 cells$"):
        check_conforming(broken)
    assert _checked_error(broken) is not None


def test_conforming_detects_missing_cell():
    mesh = build_mesh(2, params(MeshFamily.UNIFORM, 2))
    broken = replace(mesh, cells=mesh.cells[1:])
    with pytest.raises(ValueError, match=r"^interior face \(0, 4\) belongs to only one cell$"):
        check_conforming(broken)


def test_conforming_passes_every_fixture_mesh():
    for spec in FIXTURES.values():
        for value in spec.values:
            check_conforming(build_mesh(spec.dim, spec.params_at(value)))


def _accepted_placements():
    """Every (family, layer placement) pair that GradingParams accepts."""
    pairs = []
    for family, position in itertools.product(MeshFamily, LayerPosition):
        try:
            GradingParams(family, 4, layer_position=position)
        except ValueError:
            continue
        pairs.append((family, position))
    return pairs


# `meshspectra mesh` exports without checking conformity: every mesh it can
# build, at the largest size it accepts, is checked here instead
@pytest.mark.parametrize("dim", sorted(MAX_INTERVALS))
@pytest.mark.parametrize("family, position", _accepted_placements(), ids=lambda v: v.value)
def test_every_grading_conforms_at_the_cap(dim, family, position):
    p = GradingParams(family, MAX_INTERVALS[dim], layer_position=position)
    check_conforming(build_mesh(dim, p))


def test_conforming_takes_int32_cells():
    # face keys are built in int64: at n=256, 66049**2 overflows int32
    mesh = build_mesh(2, params(MeshFamily.UNIFORM, 256))
    narrow = replace(mesh, cells=mesh.cells.astype(np.int32))
    check_conforming(narrow)
    mid = mesh.n_cells // 2
    msg = _conforming_error(check_conforming, replace(mesh, cells=np.delete(mesh.cells, mid, axis=0)))
    assert msg is not None and msg.startswith("interior face ")
    assert msg == _conforming_error(
        check_conforming, replace(narrow, cells=np.delete(narrow.cells, mid, axis=0))
    )


# peak MiB allocated by build_mesh on each mesh: the mesh itself (4.0 and 0.86
# MiB) plus the boxes' lower corners or, once they are freed, the boundary
# mask's temporaries; the index-grid build took 8.5 and 1.3 MiB
BUILD_PEAK_MIB = [
    (2, params(MeshFamily.SHISHKIN, 256, eps=0.05), 4.6),
    (3, params(MeshFamily.POWER, 16, beta=3.0), 0.95),
]


@pytest.mark.parametrize("dim, p, bound", BUILD_PEAK_MIB, ids=["shishkin-2d", "power-3d"])
def test_build_mesh_memory_is_the_mesh_and_one_corner_per_box(dim, p, bound):
    assert _traced_peak_mib(build_mesh, dim, p) <= bound


def test_conforming_rejects_unencodable_vertex_count():
    # 2.1e6**3 exceeds int64; the broadcast view allocates no coordinates
    mesh = build_mesh(3, params(MeshFamily.UNIFORM, 2))
    huge = SimplicialMesh(np.broadcast_to(0.0, (2_100_000, 3)), mesh.cells)
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


def _readme_mesh():
    """The five-vertex example of the README: four boundary vertices and the center."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
    return SimplicialMesh(vertices, np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]))


@pytest.mark.parametrize("dim", [2, 3])
def test_patch_stats_refuses_a_free_vertex_no_cell_uses(dim):
    # one more interior vertex that no cell names: its patch volume would be 0,
    # and the estimates take a log of it (2D) or divide by it (3D)
    base = _readme_mesh() if dim == 2 else build_mesh(3, params(MeshFamily.UNIFORM, 2))
    mesh = SimplicialMesh(np.vstack([base.vertices, np.full(dim, 0.25)]), base.cells)
    with pytest.raises(ValueError, match=rf"^free vertex {base.n_vertices} belongs to no cell$"):
        patch_stats(mesh)


@pytest.mark.parametrize("dim", [2, 3])
def test_patch_stats_ignores_a_boundary_vertex_no_cell_uses(dim):
    base = build_mesh(dim, params(MeshFamily.POWER, 4, beta=2.0))
    mesh = SimplicialMesh(np.vstack([base.vertices, np.full(dim, 0.0)]), base.cells)
    got, want = patch_stats(mesh), patch_stats(base)
    assert got.patch_volumes.tobytes() == want.patch_volumes.tobytes()
    assert (got.m_const, got.h_const) == (want.m_const, want.h_const)


@pytest.mark.parametrize("eps, smallest", [(1e-160, "6.0276e-322"), (1e-300, "0")])
def test_patch_stats_refuses_underflowed_cell_volumes(eps, smallest):
    # the corner cell is subnormal (1e-160) or zero (1e-300): H = max/min would
    # overflow or divide by zero
    mesh = build_mesh(2, params(MeshFamily.SHISHKIN, 16, eps=eps))
    with pytest.raises(ValueError, match=f"smallest cell volume {smallest} is below"):
        patch_stats(mesh)


def test_patch_stats_measures_the_finest_normal_cells():
    st = patch_stats(build_mesh(2, params(MeshFamily.SHISHKIN, 16, eps=1e-150)))
    assert np.finfo(float).tiny < st.k_min < 1e-300
    assert 1e299 < st.h_const < 2e299


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


def assert_export_matches_row_writer(mesh, directory):
    export_mesh_text(mesh, directory / "chunked.txt")
    brute_export_mesh_text(mesh, directory / "rows.txt")
    assert (directory / "chunked.txt").read_bytes() == (directory / "rows.txt").read_bytes()


# SHA-256 of the exported text, pinned before the exporter's token index moved
# from np.unique(return_inverse=True) to np.searchsorted
EXPORT_DIGESTS = [
    (2, params(MeshFamily.SHISHKIN, 256, eps=0.05),
     "c70e07a150fcc86d48681f50969591321744cd5b4c29f91a15198a18c93cfee8"),
    (3, params(MeshFamily.POWER, 16, beta=3.0),
     "21c0d5084f3145159b2aeccb82d164f732766595420b508420eaeccf9ad526ba"),
]


@pytest.mark.parametrize("dim, p, digest", EXPORT_DIGESTS, ids=["shishkin-2d", "power-3d"])
def test_export_mesh_text_bytes_are_pinned(dim, p, digest, tmp_path):
    path = tmp_path / "mesh.txt"
    export_mesh_text(build_mesh(dim, p), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_export_mesh_text_memory(tmp_path):
    # the return_inverse form took 5.2 MiB on this mesh
    mesh = build_mesh(2, params(MeshFamily.SHISHKIN, 256, eps=0.05))
    assert _traced_peak_mib(export_mesh_text, mesh, tmp_path / "mesh.txt") <= 2.0


def test_export_mesh_text_matches_row_writer(tmp_path):
    # 5202 vertex rows and 26112 cell rows: neither is a multiple of the chunk size
    mesh = build_mesh(3, params(MeshFamily.SINGLE_LAYER, 16, eps=0.05))
    assert (mesh.n_vertices, mesh.n_cells) == (5202, 26112)
    assert_export_matches_row_writer(mesh, tmp_path)


@pytest.mark.parametrize("index", [-1, 25])
def test_export_mesh_text_refuses_a_vertex_index_outside_the_mesh(index, tmp_path):
    # the mesh refuses the cell, so the token gather never wraps -1 to the
    # last vertex's token and no file is opened
    mesh = build_mesh(2, params(MeshFamily.UNIFORM, 4))
    cells = mesh.cells.copy()
    cells[5, 2] = index
    path = tmp_path / "mesh.txt"
    with pytest.raises(ValueError, match=rf"^cell 5 \(2, 8, {index}\) has a vertex index "
                                         rf"outside \[0, 25\)$"):
        export_mesh_text(replace(mesh, cells=cells), path)
    assert not path.exists()


EXPORT_SETTINGS = settings(max_examples=25, derandomize=True, database=None, deadline=None)


@EXPORT_SETTINGS
@given(dim=st.sampled_from([2, 3]), n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_export_property_perturbed_vertices(dim, n, seed, tmp_path_factory):
    # every interior coordinate moves, so no coordinate value repeats inside
    mesh = build_mesh(dim, params(MeshFamily.UNIFORM, n))
    vertices = mesh.vertices.copy()
    inside = ~mesh.boundary_mask
    shift = np.random.default_rng(seed).uniform(-0.25, 0.25, vertices[inside].shape)
    vertices[inside] += shift / n
    assert np.unique(vertices[inside]).size == vertices[inside].size
    assert_export_matches_row_writer(replace(mesh, vertices=vertices), tmp_path_factory.mktemp("e"))


@EXPORT_SETTINGS
@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_export_property_signed_zeros(dim, seed, tmp_path_factory):
    # -0.0 and 0.0 compare equal but print as "-0" and "0"
    mesh = build_mesh(dim, params(MeshFamily.UNIFORM, 3))
    vertices = mesh.vertices.copy()
    zero = np.flatnonzero(vertices == 0.0)
    flip = np.random.default_rng(seed).permutation(zero)[: 1 + seed % (zero.size - 1)]
    vertices.flat[flip] = -0.0
    negative = np.signbit(vertices[vertices == 0.0])
    assert negative.any() and not negative.all()
    directory = tmp_path_factory.mktemp("e")
    assert_export_matches_row_writer(replace(mesh, vertices=vertices), directory)
    tokens = (directory / "chunked.txt").read_text().split()[3 : 3 + vertices.size]
    assert "-0" in tokens and "0" in tokens


@st.composite
def random_meshes(draw, n_vertices, n_cells):
    """Unchecked meshes: vertices drawn from a pool of any floats, random cells
    that name vertex n_vertices - 1."""
    dim = draw(st.sampled_from([2, 3]))
    nv, nc = draw(n_vertices), draw(n_cells)
    pool = np.array(draw(st.lists(st.floats(width=64), min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vertices = rng.choice(pool, size=(nv, dim))
    cells = rng.integers(0, nv, size=(nc, dim + 1))
    cells[-1, -1] = nv - 1
    return SimplicialMesh(vertices, cells)


@EXPORT_SETTINGS
@given(mesh=random_meshes(st.sampled_from([1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001]),
                          st.integers(1, 40)))
def test_export_property_index_digit_widths(mesh, tmp_path_factory):
    assert_export_matches_row_writer(mesh, tmp_path_factory.mktemp("e"))


@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(mesh=random_meshes(st.sampled_from([2, 3]).map(lambda k: k * EXPORT_CHUNK_ROWS // 2 + 1),
                          st.sampled_from([-1, 1, 7]).map(lambda r: 2 * EXPORT_CHUNK_ROWS + r)))
def test_export_property_rows_off_the_chunk_size(mesh, tmp_path_factory):
    assert mesh.n_vertices % EXPORT_CHUNK_ROWS and mesh.n_cells % EXPORT_CHUNK_ROWS
    assert_export_matches_row_writer(mesh, tmp_path_factory.mktemp("e"))
