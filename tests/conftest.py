"""Shared brute-force oracles: slow, independent recomputations of the tensor
meshes (and the index-grid form of the any-dimension builder), the mesh
statistics, the stiffness matrix, the smallest eigenvalue and the mesh text
format, used to cross-check the vectorized implementations; the COO assembly
whose bytes every stiffness matrix must reproduce; the suite's
conformity check, in sort-and-run-length form, with its counting oracle; and
the average-patch form of the 3D kernel that cross-checks the estimators, the
multigrid cycle in plain scipy products that cross-checks the one with work
vectors, and the multigrid build's weighted inverse diagonal read back from a
stored matrix and its MIS(2) aggregation in rounds over the whole strength
table."""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import scipy.sparse as sp

from meshspectra import (
    NodeSet1D,
    PatchStats,
    SimplicialMesh,
    cell_volumes,
)
from meshspectra.fem import _local_values
from meshspectra.meshgen import _kuhn_permutations
from meshspectra.spectra import MG_LEVEL1_CYCLES, _index_hash

MAX_DENSE_DIM = 5000


def holder_mean(values, p: float) -> float:
    """Power mean M_p(values) = ((1/n) sum v_i^p)^(1/p) for nonzero p."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("holder_mean needs at least one value")
    if np.any(v <= 0.0):
        raise ValueError("holder_mean is defined for positive values only")
    if p == 0.0:
        raise ValueError("p must be nonzero")
    return float(np.mean(v**p) ** (1.0 / p))


def geo_form(stats: PatchStats, dim: int = 3) -> float:
    """Average-patch form of the 3D kernel.

    Rescales every patch by the mean patch size w = d*|domain|/N and combines
    them through a Hölder mean.  On the unit domain this is algebraically the
    same number as the raw (-1/2)-power-sum kernel; keeping both forms gives a
    cross-check routed through independent code paths.
    """
    if dim != 3:
        raise ValueError("the average-patch form is implemented for dim=3 only")
    d = float(dim)
    n = stats.n_free
    omega_tilde = d * float(stats.cell_volumes.sum()) / n
    mean = holder_mean(stats.patch_volumes / omega_tilde, 1.0 - d / 2.0)
    return mean ** (1.0 - 2.0 / d) * d ** ((d - 2.0) / d) / n


def lambda_min_dense(A: sp.csr_matrix) -> float:
    """Dense-oracle smallest eigenvalue: the Rayleigh quotient of the vetted
    symmetric eigensolver's lowest eigenvector.

    The quotient's error is quadratic in the vector's, so it is sharper than
    the eigenvalue eigh reports (on uniform 2D n=16, 1.8e-16 against 1.1e-13
    relative to the closed form).
    """
    n = A.shape[0]
    if n > MAX_DENSE_DIM:
        raise ValueError(f"dense oracle capped at n <= {MAX_DENSE_DIM}, got {n}")
    x = np.linalg.eigh(A.toarray())[1][:, 0]
    return float(x @ (A @ x) / (x @ x))


def reference_cycle(mg, b: np.ndarray, level: int = 0) -> np.ndarray:
    """The multigrid cycle of the hierarchy mg from the given level down,
    applied to b, written with plain scipy products that allocate every
    temporary: one damped-Jacobi sweep, then the coarse correction and one
    sweep, repeated MG_LEVEL1_CYCLES times on level 1 and done once on every
    other level; the coarsest level is solved exactly.  The same arithmetic
    in the same order as spectra._Multigrid.__call__, without its work
    vectors."""
    if level == len(mg.levels):
        return mg.coarse_inv @ b
    A, wdinv, P, PT = mg.levels[level]
    x = wdinv * b
    for _ in range(MG_LEVEL1_CYCLES if level == 1 else 1):
        x += P @ reference_cycle(mg, PT @ (b - A @ x), level + 1)
        x += wdinv * (b - A @ x)
    return x


def reference_damped_inverse_diagonal(M: sp.csr_matrix) -> np.ndarray:
    """4/(3 rho) D^-1 read back from the stored matrix M: its diagonal and the
    row sums of |m_ij|, rho the Gershgorin bound on D^-1 M."""
    dinv = 1.0 / M.diagonal()
    rho = float(np.max(np.add.reduceat(np.abs(M.data), M.indptr[:-1]) * dinv))
    return dinv * (4.0 / (3.0 * rho))


def reference_aggregate(table: np.ndarray) -> np.ndarray:
    """The MIS(2) aggregation of spectra._aggregate in rounds over the whole
    strength table: every round gathers all n columns four times, decided
    nodes included, and both joining rounds visit every node."""

    def neighbour_max(values):
        return values[table].max(axis=0)

    n = table.shape[1]
    prio = _index_hash(n).astype(np.int64)
    undecided = np.ones(n, dtype=bool)
    root = np.zeros(n, dtype=bool)
    while undecided.any():
        p = np.where(undecided, prio, -1)
        new = undecided & (p == neighbour_max(neighbour_max(p)))
        root |= new
        undecided &= ~neighbour_max(neighbour_max(new))
    agg = np.where(root, np.cumsum(root) - 1, -1)
    for _ in range(2):
        agg = np.where(agg < 0, neighbour_max(agg), agg)
    return agg


def brute_tensor_mesh_2d(nx: NodeSet1D, ny: NodeSet1D) -> SimplicialMesh:
    """Product mesh of the unit square, every rectangle split along its
    lower-left to upper-right diagonal.

    Vertex (i, j) gets index i*len(ny) + j.  The two triangles of rectangle
    (i, j) are (v00, v10, v11) and (v00, v11, v01), both counterclockwise.
    """
    x, y = nx.nodes, ny.nodes
    mx, my = x.size, y.size
    vertices = np.column_stack([np.repeat(x, my), np.tile(y, mx)])

    ri, rj = np.meshgrid(np.arange(mx - 1), np.arange(my - 1), indexing="ij")
    v00 = (ri * my + rj).ravel()
    v10 = v00 + my
    v01 = v00 + 1
    v11 = v10 + 1
    cells = np.empty((2 * v00.size, 3), dtype=np.int64)
    cells[0::2] = np.column_stack([v00, v10, v11])
    cells[1::2] = np.column_stack([v00, v11, v01])
    return SimplicialMesh(vertices, cells)


# Kuhn subdivision: one tetrahedron per axis permutation, all sharing the main
# diagonal of the box.  Odd permutations get their last two vertices swapped to
# keep a positive orientation.
_KUHN_PERMS = (
    ((0, 1, 2), False),
    ((1, 2, 0), False),
    ((2, 0, 1), False),
    ((0, 2, 1), True),
    ((2, 1, 0), True),
    ((1, 0, 2), True),
)


def brute_tensor_mesh_3d(nx: NodeSet1D, ny: NodeSet1D, nz: NodeSet1D) -> SimplicialMesh:
    """Product mesh of the unit cube; every box is Kuhn-subdivided into 6 tets."""
    x, y, z = nx.nodes, ny.nodes, nz.nodes
    mx, my, mz = x.size, y.size, z.size
    xi, yi, zi = np.meshgrid(x, y, z, indexing="ij")
    vertices = np.column_stack([xi.ravel(), yi.ravel(), zi.ravel()])

    bi, bj, bk = np.meshgrid(
        np.arange(mx - 1), np.arange(my - 1), np.arange(mz - 1), indexing="ij"
    )
    base = ((bi * my + bj) * mz + bk).ravel()
    stride = np.array([my * mz, mz, 1], dtype=np.int64)
    cells = np.empty((6 * base.size, 4), dtype=np.int64)
    for t, (perm, swap) in enumerate(_KUHN_PERMS):
        c0 = base
        c1 = c0 + stride[perm[0]]
        c2 = c1 + stride[perm[1]]
        c3 = c2 + stride[perm[2]]
        tet = (c0, c2, c1, c3) if swap else (c0, c1, c2, c3)
        cells[t::6] = np.column_stack(tet)
    return SimplicialMesh(vertices, cells)


def index_grid_tensor_mesh(*node_sets: NodeSet1D) -> SimplicialMesh:
    """The index-grid form of meshgen.tensor_mesh, in any dimension: one
    np.indices grid over the axes gives the vertices (gathered per axis and
    column-stacked) and the lower corner of every box, and each Kuhn
    permutation's corners are built as one array and written, C-ordered, to
    every len(perms)-th cell row."""
    shape = tuple(len(ns) for ns in node_sets)
    dim = len(shape)
    index = np.indices(shape).reshape(dim, -1)
    vertices = np.column_stack([ns.nodes[i] for ns, i in zip(node_sets, index)])
    last = np.array(shape)[:, None] - 1
    base = np.flatnonzero(np.all(index < last, axis=0))
    stride = np.array([math.prod(shape[k + 1 :]) for k in range(dim)])

    perms = _kuhn_permutations(dim)
    cells = np.empty((len(perms) * base.size, dim + 1), dtype=np.int64)
    for t, perm in enumerate(perms):
        corners = base + np.cumsum([0, *stride[list(perm)]])[:, None]
        if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2:
            corners[[1, 2]] = corners[[2, 1]]
        cells[t :: len(perms)] = corners.T
    return SimplicialMesh(vertices, cells)


def brute_free_index(mesh: SimplicialMesh) -> np.ndarray:
    """Matrix row of every vertex, counted vertex by vertex; -1 on the boundary."""
    rows, free = [], 0
    for on_boundary in mesh.boundary_mask:
        rows.append(-1 if on_boundary else free)
        free += not on_boundary
    return np.array(rows, dtype=np.int64)


def brute_patch_volumes(mesh: SimplicialMesh) -> np.ndarray:
    """Per-vertex patch volumes over ALL vertices, accumulated cell by cell."""
    vols = cell_volumes(mesh)
    patches = np.zeros(mesh.n_vertices)
    for c, cell in enumerate(mesh.cells):
        for v in cell:
            patches[v] += vols[c]
    return patches


def brute_h_const(mesh: SimplicialMesh) -> float:
    """All-pairs max volume ratio between cells sharing at least one vertex."""
    vols = cell_volumes(mesh)
    sets = [set(int(v) for v in cell) for cell in mesh.cells]
    h = 1.0
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            if sets[a] & sets[b]:
                h = max(h, vols[a] / vols[b], vols[b] / vols[a])
    return float(h)


def brute_m_const(mesh: SimplicialMesh) -> int:
    counts = {}
    for cell in mesh.cells:
        for v in cell:
            counts[int(v)] = counts.get(int(v), 0) + 1
    return max(counts.values())


def local_stiffness(simplex_vertices: np.ndarray) -> np.ndarray:
    """One simplex's stiffness matrix from its own det/inv/matmul calls.

    simplex_vertices is (d+1, d); the result is (d+1, d+1), symmetric positive
    semidefinite with zero row sums (constants lie in the kernel of the
    gradient).  An independent reference: no cofactor appears in it.
    """
    pts = np.asarray(simplex_vertices, dtype=float)
    d = pts.shape[1]
    if pts.shape != (d + 1, d):
        raise ValueError(f"expected {d + 1} vertices of dimension {d}, got shape {pts.shape}")
    edges = (pts[1:] - pts[0]).T  # columns are edge vectors from vertex 0
    det = np.linalg.det(edges)
    scale = float(np.prod(np.linalg.norm(edges, axis=0)))
    if scale == 0.0 or abs(det) < 1e-14 * scale:
        raise ValueError(f"degenerate simplex (det {det:.3g} vs edge scale {scale:.3g})")
    grads = np.empty((d, d + 1))
    grads[:, 1:] = np.linalg.inv(edges).T
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    vol = abs(det) / math.factorial(d)
    k = vol * grads.T @ grads
    return 0.5 * (k + k.T)


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def brute_local_stiffness(simplex_vertices: np.ndarray) -> np.ndarray:
    """One triangle's or tetrahedron's stiffness matrix from the scalar cofactor
    formula: K_ab = (c_a . c_b) / (d! |det|), with c_a the cofactor vectors of
    the edges from vertex 0 (c_0 minus the sum of the others), in Python floats."""
    p = [[float(x) for x in row] for row in simplex_vertices]
    d = len(p) - 1
    e = [[p[k + 1][i] - p[0][i] for i in range(d)] for k in range(d)]
    if d == 2:
        det = e[0][0] * e[1][1] - e[0][1] * e[1][0]
        cof = [[e[1][1], -e[1][0]], [-e[0][1], e[0][0]]]
    elif d == 3:
        cof = [_cross(e[1], e[2]), _cross(e[2], e[0]), _cross(e[0], e[1])]
        # summed as (x + z) + y, the order of meshgen.simplex_cofactors
        det = (e[0][0] * cof[0][0] + e[0][2] * cof[0][2]) + e[0][1] * cof[0][1]
    else:
        raise ValueError(f"the scalar cofactor formula is written for d = 2 and 3, got {d}")
    scale = float(np.prod(np.linalg.norm(np.array(e), axis=1)))
    if scale == 0.0 or abs(det) < 1e-14 * scale:
        raise ValueError(f"degenerate simplex (det {det:.3g} vs edge scale {scale:.3g})")
    c0 = [-sum(c[i] for c in cof) for i in range(d)]
    cof = [c0, *cof]
    w = math.factorial(d) * abs(det)
    k = np.empty((d + 1, d + 1))
    for a in range(d + 1):
        for b in range(a, d + 1):
            dot = cof[a][0] * cof[b][0]
            for i in range(1, d):
                dot += cof[a][i] * cof[b][i]
            k[a, b] = k[b, a] = dot / w
    return k


def brute_assemble(mesh: SimplicialMesh, local=brute_local_stiffness) -> sp.csr_matrix:
    """Cell-by-cell assembly: each cell's local pairs a <= b go to the upper
    triangle of the free pairs, then the mirror; exact zeros are dropped."""
    n = mesh.n_free
    d = mesh.dim
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for cell in mesh.cells:
        k = local(mesh.vertices[cell])
        gi = mesh.free_index[cell]
        for a in range(d + 1):
            for b in range(a, d + 1):
                i, j = sorted((gi[a], gi[b]))
                if i < 0:
                    continue
                rows.append(i)
                cols.append(j)
                vals.append(k[a, b])
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    full = (upper + sp.triu(upper, k=1).T).tocsr()
    full.eliminate_zeros()
    return full


def coo_assemble(mesh: SimplicialMesh) -> sp.csr_matrix:
    """The stiffness matrix through scipy's COO-to-CSR conversion, the bit
    reference of fem.StiffnessPattern.  Each cell's local pairs (a, b), a <= b,
    go to the upper triangle in (cell, a, b) order; tocsr sorts each row by
    column index alone and sums each run of equal indices left to right; the
    mirror makes the matrix exactly symmetric, and exact zeros are dropped."""
    n = mesh.n_free
    vals = _local_values(mesh)
    a, b = np.triu_indices(mesh.dim + 1)
    # int32, scipy's own index type below 2**31 rows, so the COO keeps these arrays
    gi = mesh.free_index.astype(np.int32)[mesh.cells.T]
    rows, cols = np.minimum(gi[a], gi[b]), np.maximum(gi[a], gi[b])
    # pairs with a boundary vertex are eliminated; the transposed mask hands
    # the COO its entries in (cell, a, b) order
    keep = (rows >= 0).T
    upper = sp.coo_matrix((vals.T[keep], (rows.T[keep], cols.T[keep])), shape=(n, n)).tocsr()
    full = (upper + sp.triu(upper, k=1).T).tocsr()
    full.eliminate_zeros()
    return full


def brute_check_conforming(mesh: SimplicialMesh) -> None:
    """Count every face with a Counter, then check counts in first-seen order;
    a face counted once must lie on a facet of the box, with every vertex at
    0.0, or every vertex at 1.0, on one axis."""
    faces = Counter()
    for cell in mesh.cells:
        for drop in range(mesh.dim + 1):
            face = tuple(sorted(int(v) for k, v in enumerate(cell) if k != drop))
            faces[face] += 1
    for face, count in faces.items():
        if count > 2:
            raise ValueError(f"face {face} shared by {count} cells")
        if count == 1 and not any(
            all(mesh.vertices[v][k] == side for v in face)
            for k in range(mesh.dim)
            for side in (0.0, 1.0)
        ):
            raise ValueError(f"interior face {face} belongs to only one cell")


def check_conforming(mesh: SimplicialMesh) -> None:
    """Raise if any codimension-1 face is shared by more than two cells, or a
    once-counted face is off the box's facets (a facet face has all its
    vertices at 0.0, or all at 1.0, on one axis).

    Every face key is built at once from gathered vertex columns (its vertex
    indices ascending, read as digits in radix n_vertices, widened to int64
    first), the distinct faces and their counts come from the run lengths of a
    sorted copy, and the error names the first offending face in cell order
    (cell by cell, dropping vertex 0, 1, ...), as brute_check_conforming
    does."""
    nv, dim = mesh.n_vertices, mesh.dim
    if nv**dim > np.iinfo(np.int64).max:
        raise ValueError(f"{nv} vertices are too many to encode {dim}-vertex faces in int64")
    place = nv ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    cells = mesh.cells.astype(np.int64)
    # face k of a cell drops its vertex k; verts[j] is vertex j of every face
    local = np.array([np.delete(np.arange(dim + 1), k) for k in range(dim + 1)])
    verts = [cells[:, local[:, j]] for j in range(dim)]
    for top in range(dim - 1, 0, -1):
        for j in range(top):
            verts[j], verts[j + 1] = (np.minimum(verts[j], verts[j + 1]),
                                      np.maximum(verts[j], verts[j + 1]))
    keys = verts[0]
    for v in verts[1:]:
        keys = keys * nv + v
    keys = keys.ravel()
    ordered = np.sort(keys)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(first)
    distinct = ordered[starts]
    counts = np.diff(starts, append=ordered.size)
    lonely = distinct[counts == 1]
    coords = mesh.vertices[lonely[:, None] // place % nv]
    on_facet = ((coords == 0.0).all(axis=1) | (coords == 1.0).all(axis=1)).any(axis=1)
    bad = np.concatenate([distinct[counts > 2], lonely[~on_facet]])
    if bad.size == 0:
        return
    key = keys[np.argmax(np.isin(keys, bad))]
    face = tuple((key // place % nv).tolist())
    count = int(counts[np.searchsorted(distinct, key)])
    if count > 2:
        raise ValueError(f"face {face} shared by {count} cells")
    raise ValueError(f"interior face {face} belongs to only one cell")


def brute_export_mesh_text(mesh: SimplicialMesh, path) -> None:
    """Row-by-row writer of the mesh text format."""
    lines = [f"{mesh.dim} {mesh.n_vertices} {mesh.n_cells}"]
    for v in mesh.vertices:
        lines.append(" ".join(format(c, ".17g") for c in v))
    for cell in mesh.cells:
        lines.append(" ".join(str(int(i)) for i in cell))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
