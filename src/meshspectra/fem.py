"""P1 stiffness matrix assembly for the Dirichlet Laplacian.

Assembles A_ij = integral of grad(phi_i) . grad(phi_j) over the free vertices
of a simplicial mesh, with homogeneous Dirichlet conditions imposed by
eliminating boundary rows and columns.  Gradients of the P1 hat functions are
constant on each cell, so the local matrix is |K| * G^T G with G the matrix of
barycentric-coordinate gradients.  The result is a plain scipy CSR matrix; the
eigensolver checks what it needs of it.

All cells are processed as one batch: stacked edge matrices, one batched
determinant and inverse, stacked local matrices, and a single COO scatter.
Every per-cell operation is the same numpy/LAPACK call a one-cell computation
makes, in the same order, so the matrix does not depend on how cells are
grouped; local_stiffness is the one-cell case of the same kernel.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .meshgen import SimplicialMesh


def _local_matrices(pts: np.ndarray) -> np.ndarray:
    """Element stiffness matrices of a stack of simplices.

    pts is (c, d+1, d); returns (c, d+1, d+1), each exactly symmetric.  Raises
    on the first degenerate simplex.
    """
    d = pts.shape[2]
    edges = (pts[:, 1:] - pts[:, :1]).transpose(0, 2, 1)  # columns are edge vectors from vertex 0
    det = np.linalg.det(edges)
    scale = np.prod(np.linalg.norm(edges, axis=1), axis=1)
    bad = (scale == 0.0) | (np.abs(det) < 1e-14 * scale)
    if bad.any():
        c = int(np.argmax(bad))
        raise ValueError(f"degenerate simplex (det {det[c]:.3g} vs edge scale {scale[c]:.3g})")
    grads = np.empty((pts.shape[0], d, d + 1))
    grads[:, :, 1:] = np.linalg.inv(edges).transpose(0, 2, 1)
    grads[:, :, 0] = -grads[:, :, 1:].sum(axis=2)
    vol = np.abs(det) / math.factorial(d)
    k = vol[:, None, None] * grads.transpose(0, 2, 1) @ grads
    # exact symmetry so the mirrored assembly is bit-identical
    return 0.5 * (k + k.transpose(0, 2, 1))


def local_stiffness(simplex_vertices: np.ndarray) -> np.ndarray:
    """Element stiffness matrix of one simplex.

    Parameters
    ----------
    simplex_vertices : (d+1, d) array
        Vertex coordinates.

    Returns
    -------
    (d+1, d+1) symmetric positive semidefinite matrix with zero row sums
    (constants lie in the kernel of the gradient).
    """
    pts = np.asarray(simplex_vertices, dtype=float)
    d = pts.shape[1]
    if pts.shape != (d + 1, d):
        raise ValueError(f"expected {d + 1} vertices of dimension {d}, got shape {pts.shape}")
    return _local_matrices(pts[None])[0]


def assemble(mesh: SimplicialMesh) -> sp.csr_matrix:
    """Assemble the stiffness matrix over free vertices.

    Boundary rows/columns are eliminated (homogeneous Dirichlet): only pairs of
    free vertices are scattered.  Only upper-triangle entries (by global row)
    are accumulated; the transpose is mirrored afterwards, which makes the
    matrix exactly symmetric.  Entries are scattered in (cell, a, b) order, so
    duplicates are summed in a fixed order.

    Returns the CSR matrix of dimension mesh.n_free, exactly symmetric.
    """
    n = mesh.n_free
    if n == 0:
        raise ValueError("mesh has no free vertices; the Dirichlet system is empty")
    k = _local_matrices(mesh.vertices[mesh.cells])
    gi = mesh.free_index[mesh.cells]
    rows = gi[:, :, None]
    cols = gi[:, None, :]
    keep = (rows >= 0) & (cols >= rows)  # lower triangle comes from the mirror
    rows, cols = np.broadcast_arrays(rows, cols)
    upper = sp.coo_matrix((k[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    full = upper + sp.triu(upper, k=1).T
    return full.tocsr()
