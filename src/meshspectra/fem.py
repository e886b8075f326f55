"""P1 stiffness matrix assembly for the Dirichlet Laplacian.

Assembles A_ij = integral of grad(phi_i) . grad(phi_j) over the free vertices
of a simplicial mesh; homogeneous Dirichlet conditions eliminate the boundary
rows and columns.  On each cell the gradient of vertex a's hat function is
c_a / det, with det and the cofactor vectors c_a read from the mesh's
geometry (meshgen.simplex_cofactors, computed once per mesh and shared with
cell_volumes), so the local entry |K| grad_a . grad_b is (c_a . c_b) /
(d! |det|): closed form for d <= 3, no inverse.  All cells form one batch of
array expressions, one contiguous row per local pair, and one COO scatter.
On Kuhn tensor meshes every coupling that is zero in exact arithmetic is a sum
of products with a zero factor, so it comes out as an exact zero and is not
stored.  The result is a plain scipy CSR matrix; assemble imports scipy.sparse
itself, so that the CLI commands that build no matrix never load scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .meshgen import SimplicialMesh


def assemble(mesh: SimplicialMesh) -> sp.csr_matrix:
    """Assemble the stiffness matrix over free vertices.

    Each cell's local pairs (a, b), a <= b, go to the upper triangle in (cell,
    a, b) order, so duplicates are summed in a fixed order; its mirror makes
    the matrix exactly symmetric, and entries that sum to exactly zero are
    dropped.  Raises on the first degenerate simplex."""
    import scipy.sparse as sp
    n = mesh.n_free
    if n == 0:
        raise ValueError("mesh has no free vertices; the Dirichlet system is empty")
    det, cof, scale = mesh.geometry
    bad = (scale == 0.0) | (np.abs(det) < 1e-14 * scale)
    if bad.any():
        c = int(np.argmax(bad))
        raise ValueError(f"degenerate simplex (det {det[c]:.3g} vs edge scale {scale[c]:.3g})")
    # one contiguous row over the cells per local pair, like the cofactors
    a, b = np.triu_indices(mesh.dim + 1)
    vals = np.empty((a.size, det.size))
    for p, (i, j) in enumerate(zip(a, b)):
        vals[p] = sum(cof[i, k] * cof[j, k] for k in range(mesh.dim))
    vals /= math.factorial(mesh.dim) * np.abs(det)
    # int32, scipy's own index type below 2**31 rows, so the COO keeps these arrays
    gi = mesh.free_index.astype(np.int32)[mesh.cells.T]
    rows, cols = np.minimum(gi[a], gi[b]), np.maximum(gi[a], gi[b])
    # pairs with a boundary vertex are eliminated; the transposed mask hands
    # the COO its entries in (cell, a, b) order, one array at a time, so each
    # pair-major source is freed before the next copy
    keep = (rows >= 0).T
    vals = vals.T[keep]
    rows = rows.T[keep]
    cols = cols.T[keep]
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    del vals, rows, cols, gi, keep  # the mirror below holds three matrices at once
    full = (upper + sp.triu(upper, k=1).T).tocsr()
    full.eliminate_zeros()
    return full
