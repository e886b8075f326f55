"""P1 stiffness matrix assembly for the Dirichlet Laplacian.

Assembles A_ij = integral of grad(phi_i) . grad(phi_j) over the free vertices
of a simplicial mesh; homogeneous Dirichlet conditions eliminate the boundary
rows and columns.  On each cell the gradient of vertex a's hat function is
c_a / det, with det and the cofactor vectors c_a read from the mesh's
geometry (meshgen.simplex_cofactors, computed once per mesh and shared with
cell_volumes), so the local entry |K| grad_a . grad_b is (c_a . c_b) /
(d! |det|): closed form for d <= 3, no inverse.  All cells form one batch of
array expressions, one contiguous row per local pair.  On Kuhn tensor meshes
every coupling that is zero in exact arithmetic is a sum of products with a
zero factor, so it comes out as an exact zero and is not stored.

Every matrix is assembled through a StiffnessPattern, which finds once per
topology (cells and boundary vertices) in which order the local entries are
summed, and derives a new topology in place when a mesh's differs: the points
of a sweep at fixed n share one topology, those of an n-sweep each have their
own.  assemble(mesh) goes through a fresh pattern.  The result is a plain
scipy CSR matrix, exactly symmetric.  The CLI commands that build no matrix
never import this module, so they never load scipy.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse._sparsetools as sparsetools

from .meshgen import SimplicialMesh


def _local_values(mesh: SimplicialMesh) -> np.ndarray:
    """Every cell's local entries (a, b), a <= b, one contiguous row over the
    cells per pair, the pairs in np.triu_indices order.  Raises on the first
    degenerate simplex."""
    det, cof, scale = mesh.geometry
    bad = (scale == 0.0) | (np.abs(det) < 1e-14 * scale)
    if bad.any():
        c = int(np.argmax(bad))
        raise ValueError(f"degenerate simplex (det {det[c]:.3g} vs edge scale {scale[c]:.3g})")
    a, b = np.triu_indices(mesh.dim + 1)
    vals = np.empty((a.size, det.size))
    term = np.empty(det.size)
    # sum(cof[i, k] * cof[j, k] for k) in place; only a zero entry may differ,
    # by its sign, and the matrix stores no zero sum
    for p, (i, j) in enumerate(zip(a, b)):
        np.multiply(cof[i, 0], cof[j, 0], out=vals[p])
        for k in range(1, mesh.dim):
            vals[p] += np.multiply(cof[i, k], cof[j, k], out=term)
    vals /= math.factorial(mesh.dim) * np.abs(det)
    return vals


class StiffnessPattern:
    """The stiffness matrix of every mesh of one topology, its sums found once.

    A topology is a mesh's cells and boundary vertices.  Each cell's local
    pairs (a, b), a <= b, go to the upper triangle in (cell, a, b) order;
    each row is then sorted by column index alone, as scipy's
    csr_sort_indices does, and each run of equal indices is summed left to
    right.  On rows of at most 16 entries (every 2D row) that sort is an
    insertion sort and keeps (cell, a, b) order; on longer rows (3D) it is an
    introsort, which reorders equal indices.  The order of the sums thus
    depends on the index arrays alone, so the pattern runs scipy's
    conversion and sort once, on each local pair's position in _local_values
    instead of its value.  It keeps that order (source), each entry's run of
    equal indices (slot), and the upper triangle's rows and columns, all as
    int32.  It also keeps the exactly symmetric structure without the slots
    that sum to zero, with each stored entry's slot, and rebuilds it when a
    mesh's zero slots differ from the last mesh's.

    assemble(mesh) is then one gather of the local values, one np.add.at and
    one more gather.  A mesh of another topology first makes the pattern
    derive that topology in place, the old one freed first.  np.add.at adds
    each slot's values left to right from 0.0, so a sum differs from one
    begun at its first value only in the sign of a zero, and the matrix
    stores no zero, whatever its sign.
    """

    def __init__(self):
        self._cells = self._boundary = None  # no topology until the first mesh

    def fits(self, mesh: SimplicialMesh) -> bool:
        """Whether mesh has the pattern's cells and boundary vertices."""
        return (self._cells is not None and np.array_equal(mesh.cells, self._cells)
                and np.array_equal(mesh.boundary_mask, self._boundary))

    def assemble(self, mesh: SimplicialMesh) -> sp.csr_matrix:
        """mesh's stiffness matrix, the pattern first derived from mesh's
        topology when it does not fit.  Raises on a mesh with no free vertex
        and on the first degenerate simplex."""
        if not self.fits(mesh):
            self._derive(mesh)
        # indexing and np.add.at read the int32 arrays as they are; take and
        # np.bincount would first copy them to int64
        values = _local_values(mesh).ravel()[self._source]
        upper = np.zeros(self._upper[1].size)
        np.add.at(upper, self._slot, values)
        del values
        nonzero = upper != 0.0
        if self._nonzero is None or not np.array_equal(nonzero, self._nonzero):
            self._nonzero, self._full = nonzero, self._mirror(nonzero)
        indptr, indices, entry = self._full
        return sp.csr_matrix((upper[entry], indices.copy(), indptr.copy()), shape=(self._n, self._n))

    def _derive(self, mesh: SimplicialMesh) -> None:
        """Make mesh's cells and boundary vertices the pattern's topology."""
        # the old topology goes first; the pattern fits no mesh until the new
        # one is whole
        self._cells = self._boundary = self._source = self._slot = self._upper = None
        self._nonzero = self._full = None
        n = self._n = mesh.n_free
        if n == 0:
            raise ValueError("mesh has no free vertices; the Dirichlet system is empty")
        a, b = np.triu_indices(mesh.dim + 1)
        gi = mesh.free_index.astype(np.int32)[mesh.cells.T]
        rows, cols = np.minimum(gi[a], gi[b]), np.maximum(gi[a], gi[b])
        del gi
        # every pair in (cell, a, b) order, without a mask: a pair with a
        # boundary vertex (row -1, the largest uint32) goes to an extra row n
        cell_major = np.empty(rows.shape[::-1], dtype=np.int32)
        np.minimum(rows.T.view(np.uint32), n, out=cell_major.view(np.uint32))
        rows, cols = cell_major.ravel(), np.ascontiguousarray(cols.T).ravel()
        position = np.add.outer(np.arange(mesh.n_cells, dtype=np.float64),
                                np.arange(0, rows.size, mesh.n_cells, dtype=np.float64)).ravel()
        indptr = np.empty(n + 2, dtype=np.int32)
        indices = np.empty(rows.size, dtype=np.int32)
        payload = np.empty(rows.size)
        sparsetools.coo_tocsr(n + 1, n, rows.size, rows, cols, position, indptr, indices, payload)
        del rows, cols, cell_major, position
        # scipy's sort_indices, on the n rows of the matrix
        if not sparsetools.csr_has_sorted_indices(n, indptr, indices):
            sparsetools.csr_sort_indices(n, indptr, indices, payload)
        indptr = indptr[:-1]
        self._source = payload[:indptr[-1]].astype(np.int32)
        # csr_sum_duplicates on ones leaves the run lengths in payload and the
        # upper triangle's rows and columns in indptr and indices
        payload.fill(1.0)
        sparsetools.csr_sum_duplicates(n, n, indptr, indices, payload)
        n_upper = indptr[-1]
        self._slot = np.repeat(np.arange(n_upper, dtype=np.int32), payload[:n_upper].astype(np.intp))
        self._upper = indptr, indices[:n_upper].copy()
        self._cells, self._boundary = mesh.cells.astype(np.int32), mesh.boundary_mask

    def _mirror(self, nonzero: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """indptr and indices of the symmetric matrix over the nonzero upper
        slots, with each stored entry's slot, each row sorted by column."""
        indptr, indices = self._upper
        kept = np.flatnonzero(nonzero).astype(np.int32)
        counts = np.zeros(nonzero.size + 1, dtype=np.int32)
        np.cumsum(nonzero, out=counts[1:])
        # the payload is slot + 1 > 0: the transpose's diagonal meets the upper
        # triangle's in an elementwise maximum, and no entry reads as zero
        upper = sp.csr_matrix((kept + 1, indices[kept], counts[indptr]), shape=(self._n, self._n))
        full = upper.maximum(upper.T.tocsr())
        return full.indptr, full.indices, full.data - 1


def assemble(mesh: SimplicialMesh) -> sp.csr_matrix:
    """The stiffness matrix over mesh's free vertices, through a fresh StiffnessPattern."""
    return StiffnessPattern().assemble(mesh)
