"""Shared brute-force oracles: slow, independent recomputations of the tensor
meshes, the mesh statistics, the stiffness matrix, the conformity check, the
smallest eigenvalue and the mesh text format, used to cross-check the
vectorized implementations, plus the average-patch form of the 3D kernel that
cross-checks the estimators."""

from __future__ import annotations

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
    """Dense-oracle smallest eigenvalue (vetted symmetric eigensolver)."""
    n = A.shape[0]
    if n > MAX_DENSE_DIM:
        raise ValueError(f"dense oracle capped at n <= {MAX_DENSE_DIM}, got {n}")
    return float(np.linalg.eigvalsh(A.toarray())[0])


def brute_tensor_mesh_2d(nx: NodeSet1D, ny: NodeSet1D) -> SimplicialMesh:
    """Product mesh of the unit square, every rectangle split along its
    lower-left to upper-right diagonal.

    Vertex (i, j) gets index i*len(ny) + j.  The two triangles of rectangle
    (i, j) are (v00, v10, v11) and (v00, v11, v01), both counterclockwise.
    """
    x, y = nx.nodes, ny.nodes
    mx, my = x.size, y.size
    vertices = np.column_stack([np.repeat(x, my), np.tile(y, mx)])

    ii, jj = np.meshgrid(np.arange(mx), np.arange(my), indexing="ij")
    boundary = (ii == 0) | (ii == mx - 1) | (jj == 0) | (jj == my - 1)

    ri, rj = np.meshgrid(np.arange(mx - 1), np.arange(my - 1), indexing="ij")
    v00 = (ri * my + rj).ravel()
    v10 = v00 + my
    v01 = v00 + 1
    v11 = v10 + 1
    cells = np.empty((2 * v00.size, 3), dtype=np.int64)
    cells[0::2] = np.column_stack([v00, v10, v11])
    cells[1::2] = np.column_stack([v00, v11, v01])
    return SimplicialMesh(dim=2, vertices=vertices, cells=cells, boundary_mask=boundary.ravel())


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

    ii, jj, kk = np.meshgrid(np.arange(mx), np.arange(my), np.arange(mz), indexing="ij")
    boundary = (
        (ii == 0) | (ii == mx - 1) | (jj == 0) | (jj == my - 1) | (kk == 0) | (kk == mz - 1)
    )

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
    return SimplicialMesh(dim=3, vertices=vertices, cells=cells, boundary_mask=boundary.ravel())


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


def brute_local_stiffness(simplex_vertices: np.ndarray) -> np.ndarray:
    """One cell's stiffness matrix from its own det/inv/matmul calls."""
    pts = np.asarray(simplex_vertices, dtype=float)
    d = pts.shape[1]
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


def brute_assemble(mesh: SimplicialMesh) -> sp.csr_matrix:
    """Cell-by-cell assembly: upper-triangle free pairs, then the mirror."""
    n = mesh.n_free
    d = mesh.dim
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for cell in mesh.cells:
        k = brute_local_stiffness(mesh.vertices[cell])
        gi = mesh.free_index[cell]
        for a in range(d + 1):
            ia = gi[a]
            if ia < 0:
                continue
            for b in range(d + 1):
                ib = gi[b]
                if ib < ia:
                    continue
                rows.append(ia)
                cols.append(ib)
                vals.append(k[a, b])
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return (upper + sp.triu(upper, k=1).T).tocsr()


def brute_check_conforming(mesh: SimplicialMesh) -> None:
    """Count every face with a Counter, then check counts in first-seen order."""
    faces = Counter()
    for cell in mesh.cells:
        for drop in range(mesh.dim + 1):
            face = tuple(sorted(int(v) for k, v in enumerate(cell) if k != drop))
            faces[face] += 1
    for face, count in faces.items():
        if count > 2:
            raise ValueError(f"face {face} shared by {count} cells")
        if count == 1 and not all(mesh.boundary_mask[v] for v in face):
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
