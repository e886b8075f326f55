"""P1 stiffness matrix assembly for the Dirichlet diffusion problem.

Assembles A_ij = integral of grad(phi_i) . D grad(phi_j) over the free vertices
of a simplicial mesh, with homogeneous Dirichlet conditions imposed by
eliminating boundary rows and columns.  Gradients of the P1 hat functions are
constant on each cell, so the local matrix is |K| * G^T D G with G the matrix of
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
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .meshgen import EXPORT_CHUNK_ROWS, SimplicialMesh


@dataclass(frozen=True)
class DiffusionTensor:
    """Constant symmetric positive definite coefficient matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"coefficient matrix must be square, got shape {m.shape}")
        if np.max(np.abs(m - m.T)) > 1e-14 * max(1.0, np.max(np.abs(m))):
            raise ValueError("coefficient matrix must be symmetric")
        if np.linalg.eigvalsh(m)[0] <= 0.0:
            raise ValueError("coefficient matrix must be positive definite")

    @staticmethod
    def identity(dim: int) -> "DiffusionTensor":
        return DiffusionTensor(np.eye(dim))


def _local_matrices(pts: np.ndarray, D: DiffusionTensor) -> np.ndarray:
    """Element stiffness matrices of a stack of simplices.

    pts is (c, d+1, d); returns (c, d+1, d+1), each exactly symmetric.  Raises
    when D is not d x d, and on the first degenerate simplex.
    """
    d = pts.shape[2]
    if D.matrix.shape != (d, d):
        m = D.matrix.shape[0]
        raise ValueError(f"{d}D simplices need a {d}x{d} coefficient matrix, got {m}x{m}")
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
    k = vol[:, None, None] * grads.transpose(0, 2, 1) @ D.matrix @ grads
    # exact symmetry so the mirrored assembly is bit-identical
    return 0.5 * (k + k.transpose(0, 2, 1))


def local_stiffness(simplex_vertices: np.ndarray, D: DiffusionTensor) -> np.ndarray:
    """Element stiffness matrix of one simplex.

    Parameters
    ----------
    simplex_vertices : (d+1, d) array
        Vertex coordinates.
    D : DiffusionTensor
        Constant coefficient matrix, d x d.

    Returns
    -------
    (d+1, d+1) symmetric positive semidefinite matrix with zero row sums
    (constants lie in the kernel of the gradient).
    """
    pts = np.asarray(simplex_vertices, dtype=float)
    d = pts.shape[1]
    if pts.shape != (d + 1, d):
        raise ValueError(f"expected {d + 1} vertices of dimension {d}, got shape {pts.shape}")
    return _local_matrices(pts[None], D)[0]


def assemble(mesh: SimplicialMesh, D: DiffusionTensor | None = None) -> sp.csr_matrix:
    """Assemble the stiffness matrix over free vertices.

    Boundary rows/columns are eliminated (homogeneous Dirichlet): only pairs of
    free vertices are scattered.  Only upper-triangle entries (by global row)
    are accumulated; the transpose is mirrored afterwards, which makes the
    matrix exactly symmetric.  Entries are scattered in (cell, a, b) order, so
    duplicates are summed in a fixed order.

    Parameters
    ----------
    mesh : SimplicialMesh
    D : DiffusionTensor, optional
        Defaults to the identity (Laplacian).

    Returns
    -------
    CSR matrix of dimension mesh.n_free, exactly symmetric.
    """
    if D is None:
        D = DiffusionTensor.identity(mesh.dim)
    n = mesh.n_free
    if n == 0:
        raise ValueError("mesh has no free vertices; the Dirichlet system is empty")
    k = _local_matrices(mesh.vertices[mesh.cells], D)
    gi = mesh.free_index[mesh.cells]
    rows = gi[:, :, None]
    cols = gi[:, None, :]
    keep = (rows >= 0) & (cols >= rows)  # lower triangle comes from the mirror
    rows, cols = np.broadcast_arrays(rows, cols)
    upper = sp.coo_matrix((k[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    full = upper + sp.triu(upper, k=1).T
    return full.tocsr()


def export_matrix_text(M: sp.csr_matrix, path) -> None:
    """Coordinate-format dump 'i j value', 0-based, upper triangle only, in
    (i, j) order.  Values are written with %.17g, which round-trips float64."""
    coo = sp.triu(M, k=0).tocoo()
    order = np.lexsort((coo.col, coo.row))
    columns = (coo.row[order], coo.col[order], coo.data[order])
    with open(path, "w", newline="") as fh:
        for start in range(0, order.size, EXPORT_CHUNK_ROWS):
            rows = [c[start : start + EXPORT_CHUNK_ROWS].tolist() for c in columns]
            fh.write(("%d %d %.17g\n" * len(rows[0])) % tuple(chain.from_iterable(zip(*rows))))
