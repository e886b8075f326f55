"""Smallest-eigenvalue computation for the assembled SPD matrices.

The production path is single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23,
2001) with a Jacobi preconditioner: each step does Rayleigh-Ritz on
span{x, w, p}, where w is the diagonally scaled residual and p the previous
search direction.  Diagonal scaling removes the effect of mesh nonuniformity
on the conditioning (Kamenski-Huang-Xu, Math. Comp. 83, 2014), so strongly
graded meshes need no other preconditioner.  The iteration stops on the
relative residual ||Ax - theta x|| <= tol * theta, which does not change when A
is scaled; for symmetric A some eigenvalue lies within ||Ax - theta x|| of
theta (Krylov-Bogoliubov), and that residual is returned as the error bound.

A dense eigendecomposition serves as the validation oracle on small matrices.
Everything is deterministic: the starting vector is fixed, so repeated runs
agree bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import SparseSPD

MAX_DENSE_DIM = 5000


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the last iterate."""

    def __init__(self, message, lambda_estimate=None, vector=None, residual=None, iterations=None):
        super().__init__(message)
        self.lambda_estimate = lambda_estimate
        self.vector = vector
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class EigenResult:
    """lambda_min is the Rayleigh quotient of the final iterate; some
    eigenvalue of A lies within error_bound of it."""

    lambda_min: float
    residual: float
    iterations: int
    error_bound: float


def _start_vector(n: int) -> np.ndarray:
    # all ones, perturbed by an index-hashed +-1e-3 so the iteration cannot
    # start orthogonal to the target eigenvector; fully deterministic
    idx = np.arange(n, dtype=np.uint64)
    bits = (idx * np.uint64(2654435761)) & np.uint64(0x80000000)
    v = 1.0 + np.where(bits > 0, 1e-3, -1e-3)
    return v / np.linalg.norm(v)


def lambda_min_sparse(A: SparseSPD, tol: float = 1e-8, max_outer: int = 20000) -> EigenResult:
    """Smallest eigenvalue by Jacobi-preconditioned single-vector LOBPCG.

    Converged when the eigen-residual of the unit iterate x satisfies
    ||Ax - theta x|| <= tol * theta, checked on an explicit product A x (the
    loop itself updates A x implicitly, one sparse product per step).
    max_outer caps the number of steps.  Raises ConvergenceError with the last
    iterate when the cap is reached, when the basis degenerates, or when a
    Rayleigh quotient that is not positive and finite shows A is not SPD.
    """
    if not 1e-14 < tol < 1e-2:
        raise ValueError(f"tol must lie in (1e-14, 1e-2), got {tol:g}")
    M = A.matrix
    dinv = 1.0 / M.diagonal()
    # rows x, w, p and their products; B[:3] @ B.T holds both Gram matrices
    B = np.zeros((6, A.n))
    x, w, p, Ax, Aw, Ap = B
    x[:] = _start_vector(A.n)
    Ax[:] = M @ x
    exact = True  # Ax is an explicit product, not an implicit update
    k = 2  # Ritz basis size; p joins after the first step
    it = 0

    def failure(reason: str) -> ConvergenceError:
        return ConvergenceError(
            f"LOBPCG {reason} (last estimate {theta:.12g}, residual {resid:.3g}, "
            f"target {tol * theta:.3g})",
            lambda_estimate=theta,
            vector=x.copy(),
            residual=resid,
            iterations=it,
        )

    while True:
        theta = float(x @ Ax)
        r = Ax - theta * x
        resid = float(np.linalg.norm(r))
        if resid <= tol * theta:
            if exact:
                return EigenResult(lambda_min=theta, residual=resid, iterations=it, error_bound=resid)
            Ax[:] = M @ x
            exact = True
            continue
        if not (theta > 0.0 and math.isfinite(resid)):
            raise failure("broke down: A is not positive definite or not finite")
        if it == max_outer:
            raise failure(f"did not converge in {max_outer} iterations")
        it += 1
        np.multiply(dinv, r, out=w)
        w /= np.linalg.norm(w)
        Aw[:] = M @ w
        Q = B[:3] @ B.T  # [x, w, p] against [x, w, p, Ax, Aw, Ap]
        while True:
            try:
                L = np.linalg.cholesky(Q[:k, :k])
                break
            except np.linalg.LinAlgError:
                if k == 2:
                    raise failure("basis degenerated") from None
                k = 2  # x, w, p numerically dependent: restart without p
        Li = np.linalg.inv(L)
        T = Q[:k, 3 : 3 + k]
        _, vecs = np.linalg.eigh(Li @ (0.5 * (T + T.T)) @ Li.T)
        c = Li.T @ vecs[:, 0]  # smallest Ritz vector in the basis [x, w, p]
        p[:] = c[1:] @ B[1:k]
        Ap[:] = c[1:] @ B[4 : 3 + k]
        x *= c[0]
        x += p
        Ax *= c[0]
        Ax += Ap
        for v, Av in ((x, Ax), (p, Ap)):
            scale = 1.0 / np.linalg.norm(v)
            v *= scale
            Av *= scale
        exact = False
        k = 3


def lambda_min_dense(A: SparseSPD) -> float:
    """Dense-oracle smallest eigenvalue (vetted symmetric eigensolver)."""
    if A.n > MAX_DENSE_DIM:
        raise ValueError(f"dense oracle capped at n <= {MAX_DENSE_DIM}, got {A.n}")
    return float(np.linalg.eigvalsh(A.toarray())[0])
