"""Correctness checks on what the CLI wrote, trusting neither `fem` nor `spectra`.

Reference eigenvalues come from the closed form on uniform meshes, from a
dense `numpy.linalg.eigvalsh` when the system has at most 5000 unknowns, and
from `scipy.sparse.linalg.eigsh` in shift-invert mode above that.  The matrix
they are taken of is assembled here, independently of `fem.assemble`; only the
mesh itself comes from `meshgen.build_mesh`.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from meshspectra.meshgen import GradingParams, MeshFamily, build_mesh

# the CLI's default tol: the relative accuracy every lambda_exact must meet
LAMBDA_RTOL = 1e-8
# the three references agree to about 1e-13 on the benchmark's meshes, so a
# smaller error is not resolved; it is reported as this floor
REL_ERR_FLOOR = 1e-12
MAX_DENSE = 5000


@dataclass
class PointResult:
    ok: bool
    rel_err: float | None = None
    reason: str = ""


def _mesh_for(point):
    kw = {k: v for k, v in (("eps", point.eps), ("beta", point.beta)) if v is not None}
    return build_mesh(point.dim, GradingParams(MeshFamily(point.family), point.n, **kw))


def stiffness(mesh) -> sp.csr_matrix:
    """P1 Dirichlet Laplacian over the free vertices, one batched pass over cells."""
    d = mesh.dim
    pts = mesh.vertices[mesh.cells]
    edges = np.swapaxes(pts[:, 1:, :] - pts[:, :1, :], 1, 2)  # columns p_k - p_0
    inv = np.linalg.inv(edges)  # row k is the gradient of barycentric coordinate k+1
    grads = np.concatenate([-inv.sum(axis=1, keepdims=True), inv], axis=1)
    vol = np.abs(np.linalg.det(edges)) / math.factorial(d)
    local = vol[:, None, None] * grads @ np.swapaxes(grads, 1, 2)
    local = 0.5 * (local + np.swapaxes(local, 1, 2))
    free = mesh.free_index[mesh.cells]
    rows = np.repeat(free, d + 1, axis=1).ravel()
    cols = np.tile(free, (1, d + 1)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    n = int(np.count_nonzero(mesh.free_index >= 0))
    return sp.coo_matrix((local.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()


def _uniform_intervals(mesh) -> int | None:
    n = None
    for axis in range(mesh.dim):
        coords = np.unique(mesh.vertices[:, axis])
        m = coords.size - 1
        if n not in (None, m) or np.max(np.abs(coords - np.linspace(0.0, 1.0, m + 1))) > 1e-14:
            return None
        n = m
    return n


def reference_lambda(mesh) -> tuple[float, int, str]:
    """(smallest eigenvalue, number of unknowns, method) for one mesh."""
    n = _uniform_intervals(mesh)
    n_free = int(np.count_nonzero(mesh.free_index >= 0))
    if n is not None:
        # P1 on the uniform mesh is h^(d-2) times the (2d+1)-point stencil
        h = 1.0 / n
        return 4.0 * mesh.dim * h ** (mesh.dim - 2) * math.sin(math.pi * h / 2.0) ** 2, n_free, "closed-form"
    A = stiffness(mesh)
    if n_free <= MAX_DENSE:
        return float(np.linalg.eigvalsh(A.toarray())[0]), n_free, "eigvalsh"
    vals = sla.eigsh(A.tocsc(), k=1, sigma=0.0, which="LM", return_eigenvectors=False, tol=0)
    return float(vals[0]), n_free, "eigsh-shift-invert"


class Checker:
    """Validates output files; reference eigenvalues are computed once per point."""

    def __init__(self):
        self._refs = {}

    def reference(self, point):
        if point not in self._refs:
            self._refs[point] = reference_lambda(_mesh_for(point))
        return self._refs[point]

    def check(self, call) -> list[PointResult]:
        try:
            if call.kind == "sweep":
                return self._check_sweep(call)
            return [self._check_mesh(call.outputs[0], call.points[0])]
        except FileNotFoundError as exc:
            reason = f"missing output {exc.filename}"
        except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
            reason = f"unparseable output: {exc!r}"
        return [PointResult(False, reason=reason) for _ in call.points]

    def _check_sweep(self, call) -> list[PointResult]:
        csv_path, svg_path = call.outputs
        svg = Path(svg_path).read_text(encoding="utf-8")
        if not (svg.startswith("<?xml") and svg.rstrip().endswith("</svg>")):
            raise ValueError(f"{svg_path} is not a complete SVG document")
        rows = list(csv.DictReader(io.StringIO(Path(csv_path).read_text())))
        if len(rows) != len(call.points):
            raise ValueError(f"{csv_path} has {len(rows)} rows, expected {len(call.points)}")
        results = []
        for row, point in zip(rows, call.points):
            lam_ref, n_free, method = self.reference(point)
            lam = float(row["lambda_exact"])
            err = abs(lam - lam_ref) / lam_ref
            if float(row["param"]) != point.param:
                results.append(PointResult(False, err, f"param {row['param']} != {point.param!r}"))
            elif int(row["n_free"]) != n_free:
                results.append(PointResult(False, err, f"n_free {row['n_free']} != {n_free}"))
            elif not err <= LAMBDA_RTOL:
                results.append(PointResult(False, err, f"lambda {lam!r} vs {method} {lam_ref!r}"))
            else:
                results.append(PointResult(True, err))
        return results

    def _check_mesh(self, path, point) -> PointResult:
        """Header 'dim n_vertices n_cells' must match the lines that follow."""
        d = point.dim
        lines = Path(path).read_bytes().split(b"\n")
        if lines[-1] != b"":
            return PointResult(False, reason=f"{path} does not end in a newline")
        dim, nv, nc = (int(t) for t in lines[0].split())
        per_axis = [point.n + 1] * d
        if point.family == "single_layer":
            per_axis[0] += 1
        want_nv = math.prod(per_axis)
        want_nc = math.factorial(d) * math.prod(k - 1 for k in per_axis)
        if (dim, nv, nc) != (d, want_nv, want_nc):
            return PointResult(False, reason=f"header {dim} {nv} {nc}, expected {d} {want_nv} {want_nc}")
        if len(lines) != 2 + nv + nc:
            return PointResult(False, reason=f"header counts {nv}+{nc} lines, file has {len(lines) - 2}")
        verts, cells = lines[1 : 1 + nv], lines[1 + nv : 1 + nv + nc]
        if any(len(v.split()) != d for v in verts) or any(len(c.split()) != d + 1 for c in cells):
            return PointResult(False, reason=f"{path}: wrong field count on a vertex or cell line")
        coords = np.array(b" ".join(verts).split(), dtype=float)
        index = np.array(b" ".join(cells).split(), dtype=np.int64)
        if coords.min() < 0.0 or coords.max() > 1.0 or index.min() < 0 or index.max() >= nv:
            return PointResult(False, reason=f"{path}: coordinate or vertex index out of range")
        return PointResult(True)
