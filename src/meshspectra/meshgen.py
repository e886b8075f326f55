"""Graded 1D node families and Kuhn-subdivided tensor meshes of the unit box.

Node sets live on [0, 1] and encode a grading family (uniform, Shishkin,
Bakhvalov-type, power-graded, or a single thin slab).  tensor_mesh takes one
node set per axis, in any dimension, and splits every grid box into d!
simplices by the Kuhn subdivision (two triangles in 2D, six tetrahedra in 3D);
the same pattern in every box keeps the mesh conforming.  patch_stats collects
the geometric quantities the eigenvalue estimators consume: per-node patch
volumes, the smallest cell, the max cells-per-vertex count M and the max volume
ratio H between cells whose closures intersect.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np


class MeshFamily(enum.Enum):
    UNIFORM = "uniform"
    SHISHKIN = "shishkin"
    BAKHVALOV = "bakhvalov"
    POWER = "power"
    SINGLE_LAYER = "single_layer"


class LayerPosition(enum.Enum):
    BOUNDARY = "boundary"
    INTERNAL = "internal"


@dataclass(frozen=True)
class GradingParams:
    """Parameters selecting one 1D grading.

    n counts intervals per direction.  eps is the layer width parameter for the
    layer-adapted families, beta the exponent of the power grading, c_sigma the
    transition constant of the Shishkin/Bakhvalov constructions.
    """

    family: MeshFamily
    n: int
    eps: float = 0.05
    beta: float = 3.0
    c_sigma: float = 1.0
    layer_position: LayerPosition = LayerPosition.BOUNDARY

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 intervals per direction, got n={self.n}")
        if self.family is not MeshFamily.UNIFORM and self.n % 2 != 0:
            raise ValueError(
                f"{self.family.value} grading indexes half the intervals; n must be even, got {self.n}"
            )
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"layer parameter eps must lie in (0, 1), got {self.eps}")
        if not self.beta >= 1.0:
            raise ValueError(f"grading exponent beta must be >= 1, got {self.beta}")
        if not self.c_sigma > 0.0:
            raise ValueError(f"transition constant c_sigma must be positive, got {self.c_sigma}")
        if self.layer_position is LayerPosition.INTERNAL and self.family not in (
            MeshFamily.SHISHKIN,
            MeshFamily.BAKHVALOV,
        ):
            raise ValueError("internal layer placement only applies to shishkin/bakhvalov gradings")


@dataclass(frozen=True)
class NodeSet1D:
    """Strictly increasing grid on [0, 1], endpoints included exactly."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("node set needs at least the two endpoints")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("node set must span [0, 1] with exact endpoints")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")

    def __len__(self) -> int:
        return int(self.nodes.size)

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.nodes)


def uniform_nodes(n: int) -> NodeSet1D:
    """Equidistant nodes i/n, i = 0..n."""
    if n < 2:
        raise ValueError(f"need at least 2 intervals, got n={n}")
    return NodeSet1D(np.linspace(0.0, 1.0, n + 1))


def shishkin_nodes(p: GradingParams) -> NodeSet1D:
    """Piecewise-equidistant layer mesh: n/2 fine steps on [0, tau/2], n/2 coarse to 1.

    The transition tau = min(1, 2*c_sigma*eps*ln n) clamps to 1 for large eps,
    in which case the node set degenerates to the uniform one (not an error).
    """
    if p.n < 4:
        raise ValueError(f"shishkin grading needs n >= 4, got {p.n}")
    tau = min(1.0, 2.0 * p.c_sigma * p.eps * math.log(p.n))
    half = p.n // 2
    fine = tau * (np.arange(half + 1) / p.n)
    coarse = np.linspace(tau / 2.0, 1.0, half + 1)
    return NodeSet1D(np.concatenate([fine, coarse[1:]]))


def bakhvalov_nodes(p: GradingParams) -> NodeSet1D:
    """Logarithmically graded layer mesh with a smooth fine-to-coarse transition.

    Fine nodes x_i = -c_sigma*eps*ln(1 - 2(1-eps)*i/n) for i = 0..n/2; the
    remaining n/2 steps split [x_{n/2}, 1] equidistantly.  The ln argument stays
    positive because 2(1-eps)*(i/n) <= 1-eps < 1.
    """
    half = p.n // 2
    i = np.arange(half + 1)
    fine = -p.c_sigma * p.eps * np.log1p(-2.0 * (1.0 - p.eps) * i / p.n)
    fine[0] = 0.0  # -0.0 from the i=0 evaluation
    if fine[-1] >= 1.0:
        raise ValueError(
            f"fine region reaches the far boundary (transition {fine[-1]:.4g} >= 1); "
            f"reduce c_sigma*eps"
        )
    coarse = np.linspace(fine[-1], 1.0, half + 1)
    return NodeSet1D(np.concatenate([fine, coarse[1:]]))


def power_nodes(p: GradingParams) -> NodeSet1D:
    """Symmetric power grading: x_i = (2i/n)^beta / 2 up to the midpoint, reflected above."""
    half = p.n // 2
    lower = 0.5 * (2.0 * np.arange(half + 1) / p.n) ** p.beta
    upper = (1.0 - lower[:-1])[::-1]  # exact reflection, not re-evaluation
    return NodeSet1D(np.concatenate([lower, upper]))


def single_layer_nodes(p: GradingParams) -> NodeSet1D:
    """Uniform grid plus one extra node at 1/2 + eps/n: a single slab of relative width eps."""
    # eps < 1 strictly keeps the inserted node off the neighbor node 1/2 + 1/n
    base = np.linspace(0.0, 1.0, p.n + 1)
    mid = p.n // 2
    extra = 0.5 + p.eps / p.n
    return NodeSet1D(np.concatenate([base[: mid + 1], [extra], base[mid + 1 :]]))


def internalize(ns: NodeSet1D) -> NodeSet1D:
    """Move a boundary layer at 0 to the domain center.

    Maps the input set through (1-x)/2 (reversed) and (1+x)/2 and drops the
    duplicate midpoint, so a fine region adjacent to 0 becomes a fine region
    centered at 1/2 with all steps halved.  Output has 2*(len-1)+1 nodes.
    """
    nodes = ns.nodes
    left = ((1.0 - nodes) / 2.0)[::-1]
    right = (1.0 + nodes) / 2.0
    return NodeSet1D(np.concatenate([left, right[1:]]))


_NODE_BUILDERS = {
    MeshFamily.UNIFORM: lambda p: uniform_nodes(p.n),
    MeshFamily.SHISHKIN: shishkin_nodes,
    MeshFamily.BAKHVALOV: bakhvalov_nodes,
    MeshFamily.POWER: power_nodes,
    MeshFamily.SINGLE_LAYER: single_layer_nodes,
}

# the GradingParams fields each family's node builder reads
FAMILY_PARAMS = {
    MeshFamily.UNIFORM: ("n",),
    MeshFamily.SHISHKIN: ("n", "eps", "c_sigma"),
    MeshFamily.BAKHVALOV: ("n", "eps", "c_sigma"),
    MeshFamily.POWER: ("n", "beta"),
    MeshFamily.SINGLE_LAYER: ("n", "eps"),
}


def check_family_reads(family: MeshFamily, key: str) -> None:
    """Raise unless the family's node builder reads the GradingParams field key."""
    if key not in FAMILY_PARAMS[family]:
        raise ValueError(f"{family.value} grading does not depend on {key}")


def graded_nodes(p: GradingParams) -> NodeSet1D:
    """Dispatch to the family's node builder, applying internal-layer placement if set."""
    if p.layer_position is LayerPosition.INTERNAL:
        # build the boundary-layer set at half resolution, then mirror to the
        # center: the result has exactly p.n intervals again
        if p.n % 4 != 0:
            raise ValueError(f"internal layer placement needs n divisible by 4, got {p.n}")
        base = replace(p, n=p.n // 2, layer_position=LayerPosition.BOUNDARY)
        return internalize(_NODE_BUILDERS[p.family](base))
    return _NODE_BUILDERS[p.family](p)


@dataclass(frozen=True)
class SimplicialMesh:
    """Conforming simplicial mesh of the unit box.

    vertices is (n_vertices, dim); cells holds dim+1 vertex indices per simplex
    with positive orientation.  boundary_mask flags vertices on the domain
    boundary.  Instances are immutable and shareable.
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray
    boundary_mask: np.ndarray

    @property
    def n_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def n_cells(self) -> int:
        return int(self.cells.shape[0])

    @property
    def n_free(self) -> int:
        return int(np.count_nonzero(~self.boundary_mask))

    @property
    def free_index(self) -> np.ndarray:
        """Matrix row of every non-boundary vertex, in vertex order; -1 on the boundary."""
        free = np.full(self.n_vertices, -1, dtype=np.int64)
        free[~self.boundary_mask] = np.arange(self.n_free)
        return free


@dataclass(frozen=True)
class PatchStats:
    """Geometric statistics of one mesh.

    patch_volumes[i] is the volume of the patch of free vertex i (union of cells
    whose closure contains it), indexed by matrix row.  m_const is the max number
    of cells sharing any single vertex; h_const the max volume ratio between two
    cells whose closures intersect.  cell_volumes holds the per-cell volumes the
    statistics were computed from; dim is the mesh's dimension.
    """

    dim: int
    patch_volumes: np.ndarray
    omega_min: float
    k_min: float
    m_const: int
    h_const: float
    n_free: int
    cell_volumes: np.ndarray


def _kuhn_permutations(dim: int) -> list[tuple[int, ...]]:
    """Axis orders of the Kuhn simplices of a box: the dim cyclic shifts of every
    order that starts with axis 0.  2D: (0, 1), (1, 0); 3D: (0, 1, 2), (1, 2, 0),
    (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)."""
    perms = []
    for tail in itertools.permutations(range(1, dim)):
        first = (0, *tail)
        perms += [first[s:] + first[:s] for s in range(dim)]
    return perms


def tensor_mesh(*node_sets: NodeSet1D) -> SimplicialMesh:
    """Product mesh of the unit box, one node set per axis; every grid box is
    Kuhn-subdivided into dim! simplices.

    Vertices are numbered in C order of their axis indices.  The simplex of
    axis order perm walks from the box's lower corner to its upper corner one
    axis at a time, so all of them share the box's main diagonal and the faces
    of neighboring boxes carry matching triangulations.  Its determinant has
    the sign of perm; an odd perm swaps its 2nd and 3rd vertex to keep a
    positive orientation.
    """
    shape = tuple(len(ns) for ns in node_sets)
    dim = len(shape)
    index = np.indices(shape).reshape(dim, -1)
    vertices = np.column_stack([ns.nodes[i] for ns, i in zip(node_sets, index)])
    last = np.array(shape)[:, None] - 1
    boundary_mask = np.any((index == 0) | (index == last), axis=0)
    # lower corner of every box, boxes in C order
    base = np.flatnonzero(np.all(index < last, axis=0))
    stride = np.array([math.prod(shape[k + 1 :]) for k in range(dim)])

    perms = _kuhn_permutations(dim)
    cells = np.empty((len(perms) * base.size, dim + 1), dtype=np.int64)
    for t, perm in enumerate(perms):
        corners = base + np.cumsum([0, *stride[list(perm)]])[:, None]
        if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2:
            corners[[1, 2]] = corners[[2, 1]]
        cells[t :: len(perms)] = corners.T

    return SimplicialMesh(dim=dim, vertices=vertices, cells=cells, boundary_mask=boundary_mask)


# most intervals per direction, per dimension: cells and unknowns grow as n^dim
MAX_INTERVALS = {2: 256, 3: 16}


def check_dim(dim: int) -> None:
    """Raise unless dim is a supported mesh dimension, a key of MAX_INTERVALS."""
    if dim not in MAX_INTERVALS:
        raise ValueError(f"dim must be {' or '.join(map(str, MAX_INTERVALS))}, got {dim}")


def check_intervals(dim: int, n) -> None:
    """Raise if dim is unsupported, or n intervals per direction exceed its cap."""
    check_dim(dim)
    cap = MAX_INTERVALS[dim]
    if n > cap:
        raise ValueError(f"n={int(n)} exceeds the {dim}D cap of {cap} intervals")


def build_mesh(dim: int, p: GradingParams) -> SimplicialMesh:
    """Mesh of the unit square/cube under the grading policy of the family.

    Shishkin/Bakhvalov/power gradings apply to every direction (product meshes);
    the single-layer family grades x only and keeps the other directions uniform.
    """
    check_intervals(dim, p.n)
    graded = graded_nodes(p)
    rest = uniform_nodes(p.n) if p.family is MeshFamily.SINGLE_LAYER else graded
    return tensor_mesh(graded, *[rest] * (dim - 1))


def cell_volumes(mesh: SimplicialMesh) -> np.ndarray:
    """Signed cell volumes; positive for the orientation the builders guarantee.

    Implemented for dim 2 and 3 only: their closed forms set the digits of the
    geometry columns.  Raises ValueError for any other dim.
    """
    if mesh.dim not in (2, 3):
        raise ValueError(f"cell volumes are implemented for dim 2 and 3, got dim {mesh.dim}")
    pts = mesh.vertices[mesh.cells]
    e = pts[:, 1:, :] - pts[:, :1, :]
    if mesh.dim == 2:
        det = e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]
        return det / 2.0
    det = np.einsum("ci,ci->c", e[:, 0], np.cross(e[:, 1], e[:, 2]))
    return det / 6.0


def patch_stats(mesh: SimplicialMesh) -> PatchStats:
    """Collect patch volumes and the mesh constants the bound formulas use.

    omega_min ranges over free vertices only (the values entering the bounds);
    m_const and h_const range over all vertices/cells.  Two cells' closures
    intersect exactly when they share a vertex in a conforming mesh, so H is the
    max over vertices of the incident max/min volume ratio.
    """
    if mesh.n_free == 0:
        raise ValueError("mesh has no free vertices; nothing to bound")
    vols = cell_volumes(mesh)
    nv = mesh.n_vertices
    corner = mesh.cells.ravel()
    vrep = np.repeat(vols, mesh.dim + 1)

    patch_all = np.zeros(nv)
    np.add.at(patch_all, corner, vrep)
    counts = np.bincount(corner, minlength=nv)

    vmax = np.full(nv, -np.inf)
    vmin = np.full(nv, np.inf)
    np.maximum.at(vmax, corner, vrep)
    np.minimum.at(vmin, corner, vrep)
    touched = counts > 0
    h_const = float(np.max(vmax[touched] / vmin[touched]))

    patch_free = patch_all[~mesh.boundary_mask]
    return PatchStats(
        dim=mesh.dim,
        patch_volumes=patch_free,
        omega_min=float(patch_free.min()),
        k_min=float(vols.min()),
        m_const=int(counts.max()),
        h_const=h_const,
        n_free=mesh.n_free,
        cell_volumes=vols,
    )


def check_conforming(mesh: SimplicialMesh) -> None:
    """Raise if any codimension-1 face is shared by more than two cells, or a
    once-counted face is not a boundary face.

    Faces are checked in order of first appearance (cell by cell, dropping
    vertex 0, 1, ...), and the error names the first offending face.
    """
    nv = mesh.n_vertices
    if nv**mesh.dim > np.iinfo(np.int64).max:
        raise ValueError(f"{nv} vertices are too many to encode {mesh.dim}-vertex faces in int64")
    # face k of a cell drops its vertex k; one row of local vertex indices per face
    local = np.array([np.delete(np.arange(mesh.dim + 1), k) for k in range(mesh.dim + 1)])
    faces = np.sort(mesh.cells[:, local], axis=2).reshape(-1, mesh.dim)
    # mixed radix nv: one int64 per face, ordered like the sorted vertex tuples
    keys = faces @ (nv ** np.arange(mesh.dim - 1, -1, -1, dtype=np.int64))
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    shared = counts > 2
    lonely = (counts == 1) & ~mesh.boundary_mask[faces[first]].all(axis=1)
    bad = np.flatnonzero(shared | lonely)
    if bad.size == 0:
        return
    u = bad[np.argmin(first[bad])]
    face = tuple(faces[first[u]].tolist())
    if shared[u]:
        raise ValueError(f"face {face} shared by {counts[u]} cells")
    raise ValueError(f"interior face {face} belongs to only one cell")


# rows per write in the text exporters: bounds the formatted text held at once
EXPORT_CHUNK_ROWS = 4096


def export_mesh_text(mesh: SimplicialMesh, path) -> None:
    """Plain-text dump: 'dim n_vertices n_cells' header, vertex lines, 0-based cell lines.

    Coordinates are written with %.17g, which round-trips float64.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"{mesh.dim} {mesh.n_vertices} {mesh.n_cells}\n")
        for rows, fmt in ((mesh.vertices, "%.17g"), (mesh.cells, "%d")):
            line = " ".join([fmt] * rows.shape[1]) + "\n"
            for start in range(0, rows.shape[0], EXPORT_CHUNK_ROWS):
                chunk = rows[start : start + EXPORT_CHUNK_ROWS]
                fh.write((line * chunk.shape[0]) % tuple(chunk.ravel().tolist()))
