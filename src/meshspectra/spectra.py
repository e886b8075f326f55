"""Smallest eigenvalue of an assembled SPD matrix, passed as plain scipy CSR.

The production path is single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23,
2001): each step does Rayleigh-Ritz on span{x, w, p}, where w is the
preconditioned residual and p the previous search direction.  On small
matrices it starts with the Jacobi preconditioner: diagonal scaling reduces
the effect of mesh nonuniformity on the conditioning (Kamenski-Huang-Xu,
Math. Comp. 83, 2014) but does not remove it.  That is enough for most 3D
meshes, but on strongly graded 2D meshes the step count grows into the
thousands.  There a smoothed-aggregation multigrid hierarchy, built from the
matrix once with prolongators smoothed by the filtered matrix, gives a cycle
preconditioner that needs far fewer steps.  The cycle is a V-cycle except on
level 1, which repeats its coarse correction MG_LEVEL1_CYCLES times (a W-type
cycle there, Notay-Vassilevski, Numer. Linear Algebra Appl. 15, 2008): the
rough solve of the first coarse level, not the smoother, is what the V-cycle's
extra steps cost.

A matrix with more than MG_EAGER_ROWS rows builds the hierarchy before the
first step: on the 2D meshes of that size the probe below always calls for
the build, so its Jacobi steps would only delay it.  On smaller matrices the
build costs at most about MG_SWITCH_STEP Jacobi steps, so the solve's own
residual history decides when it pays: after MG_PROBE_STEP steps, the
reduction of ||r|| over the last few Jacobi steps predicts how many more
Jacobi would need, and the hierarchy is built as soon as that exceeds
MG_SWITCH_STEP, or at step MG_SWITCH_STEP + 1 at the latest.  A solve that Jacobi is predicted to finish sooner stays on
Jacobi, which also keeps the mesh's symmetry: on 3D power meshes with
beta >= 3 the six lowest eigenvalues form a tight cluster, well below the next
eigenvalue, which the symmetric start vector and Jacobi steps resolve to the
dense oracle, while hash-ordered aggregation breaks the symmetry and moves the
result off it.  No 3D mesh has more than MG_EAGER_ROWS rows.

The iteration stops on the relative residual ||Ax - theta x|| <= tol * theta,
which does not change when A is scaled; for symmetric A some eigenvalue lies
within ||Ax - theta x|| of theta (Krylov-Bogoliubov), and that residual is
returned as the error bound.  Inside a cluster of eigenvalues closer than the
bound, the bound is the only accuracy guarantee.

The fixed cost of a step is kept small, with bitwise the same results.  Every
sparse product (LOBPCG's A x and A w, the cycle's A, P and P^T products)
calls csr_matvec from scipy.sparse._sparsetools, the kernel behind A @ x,
through _matvec into a zeroed preallocated vector, without A @ x's dispatch,
fresh zeroed vector and copy; the kernel is private, so CI pins scipy.  The
LOBPCG residual is allocated once per solve and the cycle's work vectors
once per hierarchy, and the cycle writes straight into LOBPCG's w.  The
Rayleigh-Ritz step calls the LAPACK gufuncs behind numpy.linalg.cholesky, inv
and eigh (numpy.linalg._umath_linalg) on its 3x3 Gram matrices, and norms are
sqrt(v @ v), without the wrappers' checks on every call.  scipy.linalg.lapack
has the same kernels, but importing it raises the peak RSS of a sweep.  The
hierarchy's build is trimmed the same way: its matrix products call
csr_matmat, the kernel behind A @ B, through _matmat, without the symbolic
pass that sizes A @ B's output.

The tests check it against a dense eigendecomposition on small matrices.
Everything is deterministic: the starting vector and the aggregation are
fixed by an index hash and the switch reads the row count and residual
norms, never the clock, so repeated runs agree bitwise.  This module loads
scipy.sparse; the CLI imports it only in the commands that solve, so the CLI
import and the commands that build no matrix stay scipy-free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse._sparsetools as sparsetools
from numpy.linalg import _umath_linalg

# what the switch charges for building the multigrid hierarchy, in Jacobi
# LOBPCG steps, on a matrix with at most MG_EAGER_ROWS rows: the hierarchy is
# built once the Jacobi steps still needed, predicted from the residual
# history, exceed it, and at step MG_SWITCH_STEP + 1 at the latest.  Measured
# (median of 21 adjacent build/step timings, one BLAS thread), a build costs
# 48-55 steps at 16,129 unknowns, 46 on 3D single-layer n=12 and 19-38 at
# 225-961 unknowns.  Set to 79 or lower, it would move 2D Shishkin eps=0.1
# n=16 (81 Jacobi steps) off Jacobi and change that golden-CSV row's bytes
MG_SWITCH_STEP = 128
# a matrix with more rows builds the hierarchy before the first step, without
# the probe: on 2D meshes of that size the probe always calls for the build,
# so its Jacobi steps only delay it.  It is the most rows a 3D mesh has at the
# cap (single-layer n=16: 16 x 15 x 15), so every 3D solve keeps the probe and
# the 3D power clusters their Jacobi start
MG_EAGER_ROWS = 3600
# the first step at which the prediction is made; it reads the residual
# reduction over the last MG_PROBE_STEP // 2 steps
MG_PROBE_STEP = 16
# strength-of-connection threshold of the aggregation
MG_STRENGTH = 0.25
# the coarsest level, solved exactly, has at most this many rows
MG_COARSE_ROWS = 100
# how many times level 1 does its coarse correction, when it is not the
# coarsest level: its rough solve, not the smoother, is what costs the steps
MG_LEVEL1_CYCLES = 3
# a solve stops as stalled after this many steps without a new smallest ||r||:
# below the rounding floor of about u || |A| |x| || the residual stops falling, and
# the steps up to max_outer would be spent for nothing
STALL_STEPS = 128


# the LAPACK gufuncs behind np.linalg.cholesky, inv and eigh, without the
# wrappers (see above); a failed call sets the invalid flag and returns NaN
_cholesky = _umath_linalg.cholesky_lo
_inv = _umath_linalg.inv
_eigh = _umath_linalg.eigh_lo


def _norm(v: np.ndarray) -> float:
    # what np.linalg.norm computes for a 1-D float64 vector, bit for bit
    return math.sqrt(v @ v)


def _matvec(A: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = A @ x for a float64 CSR matrix A, through the kernel that A @ x
    calls, so bit for bit the same; returns out.  The kernel adds into out
    and checks no bounds: out must have A's rows and x its columns."""
    out.fill(0.0)
    sparsetools.csr_matvec(A.shape[0], A.shape[1], A.indptr, A.indices, A.data, x, out)
    return out


def _matmat(A: sp.csr_matrix, B: sp.csr_matrix) -> sp.csr_matrix:
    """A @ B for float64 CSR matrices, through the kernel that A @ B calls,
    with the same inputs, so bit for bit the same.  A @ B first sizes its
    output in a symbolic pass that costs about as much as the product; here
    the output has room for one entry per scalar product, which is at least
    the result's number of entries, and is trimmed to them."""
    shape = (A.shape[0], B.shape[1])
    products = int(np.diff(B.indptr).take(A.indices).sum())
    idx = np.int64 if products > np.iinfo(np.int32).max else np.result_type(A.indices, B.indices)
    indptr = np.empty(shape[0] + 1, dtype=idx)
    indices = np.empty(products, dtype=idx)
    data = np.empty(products)
    sparsetools.csr_matmat(
        *shape,
        np.asarray(A.indptr, dtype=idx), np.asarray(A.indices, dtype=idx), A.data,
        np.asarray(B.indptr, dtype=idx), np.asarray(B.indices, dtype=idx), B.data,
        indptr, indices, data,
    )
    nnz = indptr[-1]
    return sp.csr_matrix((data[:nnz].copy(), indices[:nnz].copy(), indptr), shape=shape)


class ConvergenceError(RuntimeError):
    """The solve stopped without converging; the message names the reason,
    the step, the preconditioner, the last estimate and its residual."""


@dataclass(frozen=True)
class EigenResult:
    """lambda_min is the Rayleigh quotient of the final iterate; some
    eigenvalue of A lies within error_bound of it.  preconditioner names the
    one the last step used, as ConvergenceError messages do: "Jacobi",
    "Jacobi (multigrid coarsening stalled at step k)" or
    "multigrid <level sizes> from step k"."""

    lambda_min: float
    iterations: int
    error_bound: float
    preconditioner: str


def _index_hash(n: int) -> np.ndarray:
    # multiplicative hash of 0..n-1: a bijection on 32-bit integers, so the
    # values are distinct and deterministic
    idx = np.arange(n, dtype=np.uint64)
    return (idx * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)


def _start_vector(n: int) -> np.ndarray:
    # all ones, perturbed by an index-hashed +-1e-3 so the iteration cannot
    # start orthogonal to the target eigenvector; fully deterministic
    bits = _index_hash(n) & np.uint64(0x80000000)
    v = 1.0 + np.where(bits > 0, 1e-3, -1e-3)
    return v / _norm(v)


def _damped_inverse_diagonal(d: np.ndarray, abs_sums: np.ndarray) -> np.ndarray:
    """4/(3 rho) D^-1 from the diagonal d and the row sums of |a_ij|, rho the
    Gershgorin bound on D^-1 A: the weighted D^-1 A has spectral radius at
    most 4/3."""
    dinv = 1.0 / d
    return dinv * (4.0 / (3.0 * float(np.max(abs_sums * dinv))))


def _strong_entries(M: sp.csr_matrix) -> tuple[np.ndarray, ...]:
    """The one pass over a level's stored entries that everything the level
    builds reads: the row index of every entry, the diagonal mask, the
    diagonal, the weighted inverse diagonal (_damped_inverse_diagonal) and
    which entries are strong.

    i-j is strong when a_ij^2 >= MG_STRENGTH^2 m_i m_j, m_i being row i's
    largest off-diagonal magnitude; the test is symmetric in i and j, and the
    diagonal is never strong.  Raises np.linalg.LinAlgError when a diagonal
    entry is not positive.
    """
    d = M.diagonal()
    if not np.all(d > 0.0):
        raise np.linalg.LinAlgError("nonpositive diagonal entry")
    n = M.shape[0]
    rows = np.repeat(np.arange(n), np.diff(M.indptr))
    diag = rows == M.indices
    mag = np.abs(M.data)
    wdinv = _damped_inverse_diagonal(d, np.add.reduceat(mag, M.indptr[:-1]))
    np.putmask(mag, diag, 0.0)
    # no row is empty (each stores its positive diagonal) and no magnitude is
    # negative, so maxima that start from 0 are the row maxima
    m = np.zeros(n)
    np.maximum.at(m, rows, mag)
    bound = m.take(rows)
    bound *= MG_STRENGTH**2
    bound *= m.take(M.indices)
    strong = np.square(mag) >= bound
    strong &= mag > 0.0
    return rows, diag, d, wdinv, strong


def _strength_graph(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(k, n) table of the strong connections (rows[e], cols[e]) of every row
    plus the row itself.

    Rows with fewer than k entries are padded with their own index, so a
    maximum over a column of the gathered table is the maximum over the row's
    neighbourhood.
    """
    counts = np.bincount(rows, minlength=n)
    table = np.tile(np.arange(n), (int(counts.max()) + 1, 1))
    # rows are sorted, so entry e goes to slot 1 + e - (the row's first entry),
    # at flat index slot * n + row
    first = np.cumsum(counts) - counts
    offset = np.arange(n) - (first - 1) * n
    table.ravel()[np.arange(0, rows.size * n, n) + offset.take(rows)] = cols
    return table


def _filtered(
    M: sp.csr_matrix, rows: np.ndarray, diag: np.ndarray, d: np.ndarray, strong: np.ndarray
) -> tuple[sp.csr_matrix, np.ndarray]:
    """M with its weak off-diagonal entries lumped onto the diagonal d, which
    M stores once in every row, and the filtered matrix's weighted inverse
    diagonal (_damped_inverse_diagonal).

    Every row keeps its strong entries and its row sum, so the filtered
    matrix has M's near-nullspace.  A row whose lumped diagonal would not be
    positive keeps all its entries unfiltered; that happens on a few rows of
    some coarse levels, and then the filtered matrix is not symmetric.
    """
    n = M.shape[0]
    keep = strong | diag
    weak = np.flatnonzero(~keep)
    weak_rows = rows.take(weak)
    lumped = d + np.bincount(weak_rows, weights=M.data.take(weak), minlength=n)
    filtered = lumped > 0.0
    keep[weak[~filtered.take(weak_rows)]] = True
    dropped = np.where(filtered, np.bincount(weak_rows, minlength=n), 0)
    indptr = M.indptr - np.concatenate(([0], np.cumsum(dropped)))
    d_f = np.where(filtered, lumped, d)
    kept = np.flatnonzero(keep)
    data = np.where(diag, d_f.take(rows), M.data).take(kept)
    wdinv = _damped_inverse_diagonal(d_f, np.add.reduceat(np.abs(data), indptr[:-1]))
    return sp.csr_matrix((data, M.indices.take(kept), indptr), shape=M.shape), wdinv


def _aggregate(table: np.ndarray) -> np.ndarray:
    """Aggregate index of every node: MIS(2) roots, then two joining rounds
    (the aggregation of Bell-Dalton-Olson, SIAM J. Sci. Comput. 34, 2012).

    Roots form a maximal set at pairwise graph distance > 2, chosen by the
    largest index hash among undecided nodes within distance 2; every other
    node lies within distance 2 of a root, so it joins the largest-numbered
    neighbouring aggregate in the first round or the second.

    A round reads the undecided nodes and their out-neighbours only: each
    of its two distance-2 maxima (of the priorities, then of the new roots)
    takes its first hop on the table columns of those nodes, gathered anew
    every round, and its second hop on the undecided columns.  Decided nodes
    keep priority -1, so every round picks the roots that a round over the
    whole table picks, also on a directed graph; tests/conftest.py keeps that
    form as the reference.  Most nodes are decided in the first rounds, so
    the later ones read a small part of the table.  The second joining round
    visits only the nodes the first one left out.
    """
    n = table.shape[1]
    prio = _index_hash(n).astype(np.int64)  # -1 once decided
    root = np.zeros(n, dtype=bool)
    hop = np.empty(n, dtype=np.int64)  # first hop of prio, on the nodes read
    near = np.empty(n, dtype=bool)  # first hop of root, on the nodes read
    undecided = np.arange(n)
    rows = table  # the undecided nodes' table columns
    read, cols = undecided, table  # the nodes read and their table columns
    while undecided.size:
        hop[read] = prio.take(cols).max(axis=0)
        new = undecided[prio.take(undecided) == hop.take(rows).max(axis=0)]
        root[new] = True
        # an older root within distance 2 would have decided the node already
        near[read] = root.take(cols).max(axis=0)
        decided = near.take(rows).max(axis=0)
        prio[undecided[decided]] = -1
        left = np.flatnonzero(~decided)
        undecided = undecided.take(left)
        rows = rows.take(left, axis=1)
        mask = np.zeros(n, dtype=bool)
        mask[rows] = True
        read = np.flatnonzero(mask)
        cols = table.take(read, axis=1)
    agg = np.where(root, np.cumsum(root) - 1, -1)
    agg = np.where(agg < 0, agg.take(table).max(axis=0), agg)
    left = np.flatnonzero(agg < 0)
    agg[left] = agg.take(table.take(left, axis=1)).max(axis=0)
    return agg


class _Multigrid:
    """Smoothed-aggregation multigrid cycle (Vanek-Mandel-Brezina, Computing
    56, 1996).

    Levels are Galerkin products P^T A P of smoothed piecewise-constant
    prolongators until one has at most MG_COARSE_ROWS rows, which is solved
    exactly through its Cholesky factor.  Each tentative prolongator T is
    smoothed with the filtered matrix A_F, whose weak entries are lumped onto
    its diagonal: P = T - omega D_F^-1 A_F T with omega = 4/(3 rho_F), rho_F
    the Gershgorin bound on D_F^-1 A_F.  A_F has A's row sums, so P keeps the
    near-nullspace, but P A P^T is far sparser than with A itself, so the
    operator complexity (sum of level nnz, the coarsest level dense, over
    nnz(A)) is lower.  One pass over a level's entries (_strong_entries)
    hands its row indices, diagonal and strength mask to the aggregation, to
    A_F and to the weighted inverse diagonals of A and A_F.  One damped-Jacobi
    sweep with the true A, of weight 4/(3 rho) before and after each coarse
    correction, rho the Gershgorin bound on D^-1 A, so that the weighted
    D^-1 A has spectral radius at most 4/3 < 2.  Level 0 and the levels below
    1 do one coarse correction (a V-cycle); level 1, when it is not the
    coarsest level, does it MG_LEVEL1_CYCLES times, each followed by a sweep:
    S (C S)^k with S the sweep, C the correction and k = MG_LEVEL1_CYCLES.  Every level's
    sequence of steps is a palindrome of symmetric ones, so the cycle stays
    symmetric positive definite whatever P is.  Raises np.linalg.LinAlgError
    when a level is not positive definite.

    Work vectors are allocated once, with the hierarchy: each level's
    residual (which also takes its P x and A x products) and each coarser
    level's right-hand side and iterate; level 1's repeats reuse them.  A
    call allocates at most the finest iterate, which it returns, and never
    writes b.  With no level (M has at most MG_COARSE_ROWS rows) the cycle is
    the coarse solve alone.
    """

    def __init__(self, levels, coarse_inv):
        self.levels = levels  # (A, weighted inverse diagonal, P, P^T) per level
        self.coarse_inv = coarse_inv
        # work vectors, sized by the matrices (see the class docstring)
        sizes = self.sizes
        self._r = [np.empty(n) for n in sizes[:-1]]
        self._b = [np.empty(n) for n in sizes[1:]]
        self._x = [np.empty(n) for n in sizes[1:]]

    @classmethod
    def build(cls, M: sp.csr_matrix):
        """The hierarchy for M, or None when a level fails to halve its rows."""
        levels = []
        A = M
        while A.shape[0] > MG_COARSE_ROWS:
            rows, diag, d, wdinv, strong = _strong_entries(A)
            n = A.shape[0]
            links = np.flatnonzero(strong)
            agg = _aggregate(_strength_graph(n, rows.take(links), A.indices.take(links)))
            n_agg = int(agg.max()) + 1
            if 2 * n_agg > n:
                return None
            size = np.bincount(agg, minlength=n_agg)
            T = sp.csr_matrix((1.0 / np.sqrt(size[agg]), agg, np.arange(n + 1)), shape=(n, n_agg))
            AF, wdinv_f = _filtered(A, rows, diag, d, strong)
            AT = _matmat(AF, T)
            AT.data *= np.repeat(wdinv_f, np.diff(AT.indptr))
            P = T - AT
            PT = P.T.tocsr()
            levels.append((A, wdinv, P, PT))
            A = _matmat(PT, _matmat(A, P))
        L = np.linalg.cholesky(A.toarray())
        Li = np.linalg.inv(L)
        coarse_inv = Li.T @ Li
        return cls(levels, 0.5 * (coarse_inv + coarse_inv.T))

    @property
    def sizes(self) -> list[int]:
        return [A.shape[0] for A, *_ in self.levels] + [self.coarse_inv.shape[0]]

    def __call__(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The cycle applied to b, in out (a new array when None); b is not
        written and must not be out."""
        x = np.empty(b.shape[0]) if out is None else out
        self._cycle(0, b, x)
        return x

    def _cycle(self, i: int, b: np.ndarray, x: np.ndarray) -> None:
        """x = the cycle from level i down, applied to b."""
        if i == len(self.levels):
            np.matmul(self.coarse_inv, b, out=x)
            return
        A, wdinv, P, PT = self.levels[i]
        r, bc, xc = self._r[i], self._b[i], self._x[i]
        np.multiply(wdinv, b, out=x)
        for _ in range(MG_LEVEL1_CYCLES if i == 1 else 1):
            np.subtract(b, _matvec(A, x, r), out=r)
            _matvec(PT, r, bc)
            self._cycle(i + 1, bc, xc)
            x += _matvec(P, xc, r)
            np.subtract(b, _matvec(A, x, r), out=r)
            r *= wdinv
            x += r


def _build_pays(history: list[float], target: float) -> bool:
    """Whether building the multigrid hierarchy pays before the next step.

    history[i] is ||r|| after i Jacobi steps.  After MG_PROBE_STEP steps, the
    per-step reduction q of ||r|| over the last MG_PROBE_STEP // 2 steps
    predicts log(target / ||r||) / log(q) more Jacobi steps; the build pays when
    that exceeds MG_SWITCH_STEP (a residual that did not fall predicts no end).
    After MG_SWITCH_STEP steps it pays regardless.
    """
    steps = len(history) - 1
    if steps >= MG_SWITCH_STEP:
        return True
    if steps < MG_PROBE_STEP:
        return False
    window = MG_PROBE_STEP // 2
    q = (history[-1] / history[-1 - window]) ** (1.0 / window)
    return q >= 1.0 or math.log(target / history[-1]) / math.log(q) > MG_SWITCH_STEP


def check_tol(tol: float) -> None:
    """Raise unless the relative residual target tol lies in (1e-14, 1e-2)."""
    if not 1e-14 < tol < 1e-2:
        raise ValueError(f"tol must lie in (1e-14, 1e-2), got {tol:g}")


def lambda_min_sparse(M: sp.csr_matrix, tol: float = 1e-8, max_outer: int = 20000) -> EigenResult:
    """Smallest eigenvalue of the symmetric CSR matrix M (A in the formulas
    below) by preconditioned single-vector LOBPCG.

    The multigrid cycle from the first step when M has more than
    MG_EAGER_ROWS rows; otherwise Jacobi preconditioning until the residual
    history predicts more than MG_SWITCH_STEP further Jacobi steps (see
    _build_pays), the cycle from then on; Jacobi still when the matrix
    does not coarsen.

    Converged when the eigen-residual of the unit iterate x satisfies
    ||Ax - theta x|| <= tol * theta.  The loop updates A x implicitly, one
    sparse product per step, so every verdict below, convergence included,
    is decided on an explicit product A x.  max_outer caps the number of
    steps.  Raises ConvergenceError when the cap is reached, when STALL_STEPS
    steps in a row bring no smaller ||r||, when the basis degenerates, or when
    a Rayleigh quotient that is not positive and finite or a multigrid level
    that is not positive definite shows A is not SPD; the message names the
    step, the preconditioner in use, the last estimate and residual and the
    target tol * theta, and a stall's also the rounding floor u || |A| |x| ||
    at the last iterate x.  The SPD detection is best effort, not a check of
    A: an iterate that never meets a negative mode can converge to a
    positive eigenvalue above it, with a small error bound and nothing to
    say that A is indefinite.  Raises
    ValueError before the first step when tol fails check_tol, M is
    not square, not float64 CSR (the products read its CSR arrays) or empty,
    or a diagonal entry is not positive and finite.
    """
    check_tol(tol)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if M.format != "csr" or M.dtype != np.float64:
        raise ValueError(f"matrix must be float64 CSR, got {M.dtype} {M.format}")
    if M.shape[0] == 0:
        raise ValueError(f"matrix must have at least one row, got shape {M.shape}")
    d = M.diagonal()
    if not np.all((d > 0.0) & (d < np.inf)):
        raise ValueError("diagonal entries must be strictly positive and finite")
    dinv = 1.0 / d
    # rows x, w, p and their products; B[:3] @ B.T holds both Gram matrices
    B = np.zeros((6, M.shape[0]))
    x, w, p, Ax, Aw, Ap = B
    x[:] = _start_vector(M.shape[0])
    _matvec(M, x, Ax)
    r = np.empty(M.shape[0])
    k = 2  # Ritz basis size; p joins after the first step
    it = 0
    mg = None  # the multigrid cycle, once built
    eager = M.shape[0] > MG_EAGER_ROWS  # build before the first step, unprobed
    preconditioner = "Jacobi"
    history = []  # ||r|| after 0, 1, ... Jacobi steps
    best, best_step = math.inf, 0  # the smallest ||r|| so far, and its step

    def failure(reason: str) -> ConvergenceError:
        target = f"target {tol * theta:.3g}"
        if reason.startswith("stalled"):
            # u || |A| |x| ||, u the unit roundoff: the componentwise rounding
            # of A x at the last iterate, row by row
            floor = 0.5 * np.finfo(np.float64).eps * _norm(abs(M) @ np.abs(x))
            target += f", rounding floor {floor:.3g}"
        return ConvergenceError(
            f"LOBPCG {reason} at step {it} (preconditioner {preconditioner}, "
            f"last estimate {theta:.12g}, residual {resid:.3g}, {target})"
        )

    def rayleigh_quotient() -> tuple[float, float]:
        """theta = x A x and ||A x - theta x||, leaving A x - theta x in r."""
        theta = float(x @ Ax)
        np.subtract(Ax, np.multiply(x, theta, out=r), out=r)
        return theta, _norm(r)

    def stop_reason() -> str | None:
        """Why the solve stops at this step ("converged" or a failure), or None."""
        if resid <= tol * theta:
            return "converged"
        if not (theta > 0.0 and math.isfinite(resid)):
            return "broke down: A is not positive definite or not finite"
        if it == max_outer:
            return f"did not converge in {max_outer} iterations"
        if it - best_step == STALL_STEPS:
            return f"stalled (no smaller residual in {STALL_STEPS} steps)"
        return None

    while True:
        theta, resid = rayleigh_quotient()
        if resid < best:
            best, best_step = resid, it
        reason = stop_reason()
        if reason is not None and it > 0:
            # after step 0, A x is an implicit update whose drift, not A, may be
            # at fault: decide on an explicit A x, without counting its residual
            # as the step's
            _matvec(M, x, Ax)
            theta, resid = rayleigh_quotient()
            reason = stop_reason()
        if reason == "converged":
            return EigenResult(
                lambda_min=theta,
                iterations=it,
                error_bound=resid,
                preconditioner=preconditioner,
            )
        if reason is not None:
            raise failure(reason)
        it += 1
        if preconditioner == "Jacobi":  # no build tried yet
            history.append(resid)
            if eager or _build_pays(history, tol * theta):
                try:
                    mg = _Multigrid.build(M)
                except np.linalg.LinAlgError:
                    raise failure(
                        "broke down: a multigrid level is not positive definite"
                    ) from None
                if mg is None:
                    preconditioner = f"Jacobi (multigrid coarsening stalled at step {it})"
                else:
                    sizes = "/".join(str(m) for m in mg.sizes)
                    preconditioner = f"multigrid {sizes} from step {it}"
        if mg is None:
            np.multiply(dinv, r, out=w)
        else:
            mg(r, out=w)
        w /= _norm(w)
        _matvec(M, w, Aw)
        Q = B[:3] @ B.T  # [x, w, p] against [x, w, p, Ax, Aw, Ap]
        # a failed factorization comes back as NaN, and so does the last pivot
        # of a Gram matrix with a NaN entry
        with np.errstate(invalid="ignore"):
            L = _cholesky(Q[:k, :k])
            if k == 3 and math.isnan(L[2, 2]):
                k = 2  # x, w, p numerically dependent: restart without p
                L = _cholesky(Q[:2, :2])
        if math.isnan(L[-1, -1]):
            raise failure("basis degenerated")
        Li = _inv(L)
        T = Q[:k, 3 : 3 + k]
        _, vecs = _eigh(Li @ (0.5 * (T + T.T)) @ Li.T)
        c = Li.T @ vecs[:, 0]  # smallest Ritz vector in the basis [x, w, p]
        p[:] = c[1:] @ B[1:k]
        Ap[:] = c[1:] @ B[4 : 3 + k]
        x *= c[0]
        x += p
        Ax *= c[0]
        Ax += Ap
        for v, Av in ((x, Ax), (p, Ap)):
            norm = _norm(v)
            if norm > 0.0:  # p = 0 when x did not move: the next step restarts without p
                scale = 1.0 / norm
                v *= scale
                Av *= scale
        k = 3

