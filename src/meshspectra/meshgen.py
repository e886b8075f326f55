"""Graded 1D node families and Kuhn-subdivided tensor meshes of the unit box.

Node sets live on [0, 1] and encode a grading family (uniform, Shishkin,
Bakhvalov-type, power-graded, or a single thin slab).  tensor_mesh takes one node
set per axis, in any dimension, and splits every grid box into d! simplices by
the Kuhn subdivision (two triangles in 2D, six tetrahedra in 3D); the same
pattern in every box keeps the mesh conforming.  It writes the vertices and
the cells by broadcasting and stores the cells component-major, so the
readers that take one cell column at a time (the geometry, the conformity
check, assembly) read contiguous memory.  A mesh is its vertices and cells;
its boundary vertices are those with a coordinate at 0 or 1.  Its cell
geometry (determinants and cofactor vectors, from simplex_cofactors) is
computed once, on first use, and shared by cell_volumes and fem.assemble.
patch_stats collects the geometric quantities the eigenvalue estimators
consume: per-node patch volumes, the smallest cell, the max cells-per-vertex
count M and the max volume ratio H between cells whose closures intersect.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

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


# the GradingParams fields each family's node builder reads
FAMILY_PARAMS = {
    MeshFamily.UNIFORM: ("n",),
    MeshFamily.SHISHKIN: ("n", "eps", "c_sigma"),
    MeshFamily.BAKHVALOV: ("n", "eps", "c_sigma"),
    MeshFamily.POWER: ("n", "beta"),
    MeshFamily.SINGLE_LAYER: ("n", "eps"),
}

# the value of a setting its family reads when it is not given
_GRADING_DEFAULTS = {"eps": 0.05, "beta": 3.0, "c_sigma": 1.0}


@dataclass(frozen=True)
class GradingParams:
    """Parameters selecting one 1D grading.

    n counts intervals per direction; it must be a whole number, and 8.0 is
    stored as the int 8.  eps is the layer width parameter for the
    layer-adapted families, beta the exponent of the power grading, c_sigma the
    transition constant of the Shishkin/Bakhvalov constructions.  A setting the
    family reads (FAMILY_PARAMS) defaults to eps=0.05, beta=3.0, c_sigma=1.0; one
    it does not read stays None, and giving it is an error.
    """

    family: MeshFamily
    n: int
    eps: float | None = None
    beta: float | None = None
    c_sigma: float | None = None
    layer_position: LayerPosition = LayerPosition.BOUNDARY

    def __post_init__(self):
        for key, default in _GRADING_DEFAULTS.items():
            if key not in FAMILY_PARAMS[self.family]:
                if getattr(self, key) is not None:
                    raise ValueError(f"{self.family.value} grading does not depend on {key}")
            elif getattr(self, key) is None:
                object.__setattr__(self, key, default)
        if not float(self.n).is_integer():
            raise ValueError(f"mesh sizes must be integers, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if self.n < 2:
            raise ValueError(f"need at least 2 intervals per direction, got n={self.n}")
        if self.family is not MeshFamily.UNIFORM and self.n % 2 != 0:
            raise ValueError(
                f"{self.family.value} grading indexes half the intervals; n must be even, got {self.n}"
            )
        if self.eps is not None and not 0.0 < self.eps < 1.0:
            raise ValueError(f"layer parameter eps must lie in (0, 1), got {self.eps}")
        if self.beta is not None and not self.beta >= 1.0:
            raise ValueError(f"grading exponent beta must be >= 1, got {self.beta}")
        if self.c_sigma is not None and not self.c_sigma > 0.0:
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
    positive because 2(1-eps)*(i/n) <= 1-eps < 1, unless eps is so small
    (about 5e-17) that the last argument rounds to 0; such an eps is refused.
    """
    half = p.n // 2
    i = np.arange(half + 1)
    arg = -2.0 * (1.0 - p.eps) * i / p.n
    if arg[-1] <= -1.0:
        raise ValueError(f"eps={p.eps:g} is too small for bakhvalov grading: 1 - eps rounds to 1")
    fine = -p.c_sigma * p.eps * np.log1p(arg)
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
    """Conforming simplicial mesh of the unit box: its vertices and cells.

    vertices is (n_vertices, dim); cells, an integer (n_cells, dim+1) array,
    holds each simplex's vertex indices, each in [0, n_vertices), with
    positive orientation, in any memory order (tensor_mesh stores it
    component-major).  boundary_mask and n_free, derived once from the
    vertices, flag those with some coordinate exactly 0.0 or 1.0 and count
    the others; free_index and geometry, derived on first use, number the
    free vertices and hold simplex_cofactors of the cells.  The derived
    arrays are read-only, since every reader shares them.  Instances are
    immutable and shareable: since all of these are derived once, the mesh's
    own arrays may not be modified in place either (dataclasses.replace makes
    a new mesh, with its own derived data, and checks its cells again).
    """

    vertices: np.ndarray
    cells: np.ndarray
    boundary_mask: np.ndarray = field(init=False)
    n_free: int = field(init=False)

    def __post_init__(self):
        cells, dim = self.cells, self.dim
        if cells.dtype.kind not in "iu" or cells.ndim != 2 or cells.shape[1] != dim + 1:
            raise ValueError(f"cells of a {dim}D mesh must be an integer (n_cells, {dim + 1}) "
                             f"array, got {cells.dtype} of shape {cells.shape}")
        nv = self.n_vertices
        if cells.size and (cells.min() < 0 or cells.max() >= nv):
            c = int(np.flatnonzero(((cells < 0) | (cells >= nv)).any(axis=1))[0])
            raise ValueError(
                f"cell {c} {tuple(cells[c].tolist())} has a vertex index outside [0, {nv})"
            )
        on_box = np.any((self.vertices == 0.0) | (self.vertices == 1.0), axis=1)
        on_box.setflags(write=False)
        object.__setattr__(self, "boundary_mask", on_box)
        object.__setattr__(self, "n_free", int(on_box.size - np.count_nonzero(on_box)))

    @cached_property
    def geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(det, cof, scale) of every cell, from simplex_cofactors, read-only
        since every reader shares them."""
        geometry = simplex_cofactors(self.vertices, self.cells)
        for a in geometry:
            a.setflags(write=False)
        return geometry

    @cached_property
    def free_index(self) -> np.ndarray:
        """Matrix row of every non-boundary vertex, in vertex order; -1 on the
        boundary.  Read-only, like geometry."""
        free = np.full(self.n_vertices, -1, dtype=np.int64)
        free[~self.boundary_mask] = np.arange(self.n_free)
        free.setflags(write=False)
        return free

    @property
    def dim(self) -> int:
        return int(self.vertices.shape[1])

    @property
    def n_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def n_cells(self) -> int:
        return int(self.cells.shape[0])


@dataclass(frozen=True, eq=False)
class PatchStats:
    """Geometric statistics of one mesh of dimension dim.

    patch_volumes[i] is the volume of the patch of free vertex i (union of cells
    whose closure contains it), indexed by matrix row, so n_free is its size and
    omega_min its minimum; cell_volumes[c] is that of cell c, k_min their minimum.
    m_const is the max number of cells sharing any single vertex; h_const the max
    volume ratio between two cells whose closures intersect."""

    dim: int
    patch_volumes: np.ndarray
    cell_volumes: np.ndarray
    m_const: int
    h_const: float

    @property
    def n_free(self) -> int:
        return int(self.patch_volumes.size)

    @property
    def omega_min(self) -> float:
        return float(self.patch_volumes.min())

    @property
    def k_min(self) -> float:
        return float(self.cell_volumes.min())


def _kuhn_permutations(dim: int) -> list[tuple[int, ...]]:
    """Axis orders of the Kuhn simplices of a box: the dim cyclic shifts of every
    order that starts with axis 0.  2D: (0, 1), (1, 0); 3D: (0, 1, 2), (1, 2, 0),
    (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)."""
    perms = []
    for tail in itertools.permutations(range(1, dim)):
        first = (0, *tail)
        perms += [first[s:] + first[:s] for s in range(dim)]
    return perms


def _kuhn_cells(shape: tuple[int, ...]) -> np.ndarray:
    """Component-major Kuhn cells of a vertex grid of the given shape: a
    C-contiguous (dim+1, n_cells) int64 array whose row k holds vertex k of
    every cell, the boxes in C order and each box's simplices in the order of
    _kuhn_permutations.

    The simplex of axis order perm walks from the box's lower corner to its
    upper corner one axis at a time; its determinant has the sign of perm, so
    an odd perm swaps its 2nd and 3rd vertex.  So vertex k of every simplex lies a fixed offset from its box's lower
    corner, and the cells are one broadcast sum of the offsets and the corners.
    """
    dim = len(shape)
    stride = [math.prod(shape[k + 1 :]) for k in range(dim)]
    # lower corner of every box, boxes in C order
    base = np.zeros((), dtype=np.int64)
    for size, step in zip(shape, stride):
        base = np.add.outer(base, np.arange(size - 1) * step)

    perms = _kuhn_permutations(dim)
    # offsets[k, t]: vertex k of simplex t, counted from its box's lower corner
    offsets = np.zeros((dim + 1, len(perms)), dtype=np.int64)
    for t, perm in enumerate(perms):
        offsets[1:, t] = np.cumsum([stride[a] for a in perm])
        if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2:
            offsets[[1, 2], t] = offsets[[2, 1], t]
    # cells[k, box, t] = offsets[k, t] + base[box], summed in C order of (k, t,
    # box): each inner run adds one offset to every box corner, where the runs
    # over t alone (dim! long) would make numpy buffer them, slower and larger
    cells = np.empty((dim + 1, base.size, len(perms)), dtype=np.int64)
    np.add(offsets[:, :, None], base.ravel(), out=cells.transpose(0, 2, 1), order="C")
    return cells.reshape(dim + 1, -1)


def tensor_mesh(*node_sets: NodeSet1D) -> SimplicialMesh:
    """Product mesh of the unit box, one node set per axis; every grid box is
    Kuhn-subdivided into dim! simplices (see _kuhn_cells).

    Vertices are numbered in C order of their axis indices.  All simplices of
    a box share its main diagonal, so the faces of neighboring boxes carry
    matching triangulations, and each has positive orientation.  Both arrays
    are written by broadcasting, with no index grid: each coordinate column
    from its node set, the cells from the Kuhn offsets and the box corners.
    The cells are stored component-major, so mesh.cells is the transpose of a
    C-contiguous (dim+1, n_cells) array and each of its columns is contiguous.
    """
    shape = tuple(len(ns) for ns in node_sets)
    dim = len(shape)
    vertices = np.empty((*shape, dim))
    for k, ns in enumerate(node_sets):
        vertices[..., k] = ns.nodes.reshape([-1 if a == k else 1 for a in range(dim)])
    return SimplicialMesh(vertices.reshape(-1, dim), _kuhn_cells(shape).T)


# most intervals per direction, per dimension: cells and unknowns grow as n^dim
MAX_INTERVALS = {2: 256, 3: 16}
# pinned per-dimension calibration reference sizes (intervals per direction)
DEFAULT_REFERENCE_INTERVALS = {2: 64, 3: 12}


# the grading setting a sweep varies
class SweepAxis(enum.Enum):
    N = "n"
    EPS = "eps"
    BETA = "beta"


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


def simplex_cofactors(vertices: np.ndarray, cells: np.ndarray):
    """Signed determinant, cofactor vectors and edge-length product of every cell.

    The edges run from vertex 0 of a cell to its vertices 1..d; they are
    gathered component-major, so every edge component, cofactor component and
    determinant is one contiguous row over the cells.  Returns det (c,), cof
    (d+1, d, c) and scale (c,): cof[a, :, i] is det[i] times the gradient of
    vertex a's barycentric coordinate on cell i.  For a >= 1 it is row a-1 of
    the cofactor matrix of the edges (a rotated edge in 2D, a cross product of
    edges in 3D, det * inv(e)^T beyond); cof[0] is minus their sum.  scale[i]
    is the product of cell i's edge lengths, the size a degenerate det is
    judged against.  The indices in cells must lie in [0, len(vertices)).
    """
    d = vertices.shape[1]
    pts = np.ascontiguousarray(vertices.T).take(cells.T, axis=1)  # [i, k]: component i of vertex k
    comp = (pts[:, 1:] - pts[:, :1]).transpose(1, 0, 2)  # comp[k, i]: component i of edge k
    del pts
    cof = np.empty((d + 1, d, cells.shape[0]))
    if d == 2:
        det = comp[0, 0] * comp[1, 1] - comp[0, 1] * comp[1, 0]
        cof[1, 0], cof[2, 1] = comp[1, 1], comp[0, 0]
        np.negative(comp[1, 0], out=cof[1, 1])
        np.negative(comp[0, 1], out=cof[2, 0])
    elif d == 3:
        # c_1 = e_1 x e_2, c_2 = e_2 x e_0, c_3 = e_0 x e_1, as np.cross forms them
        cyclic = ((1, 2), (2, 0), (0, 1))
        for a, (j, k) in enumerate(cyclic, 1):
            for i, (i1, i2) in enumerate(cyclic):
                cof[a, i] = comp[j, i1] * comp[k, i2] - comp[j, i2] * comp[k, i1]
        # e_0 . c_1 summed as (x + z) + y, the order that set the geometry digits
        det = (comp[0, 0] * cof[1, 0] + comp[0, 2] * cof[1, 2]) + comp[0, 1] * cof[1, 1]
    else:
        e = comp.transpose(2, 0, 1)  # e[c, k, i], the stack linalg takes
        det = np.linalg.det(e)
        cof[1:] = (det[:, None, None] * np.linalg.inv(e)).transpose(2, 1, 0)
    np.negative(cof[1:].sum(axis=0), out=cof[0])
    scale = np.sqrt((comp * comp).sum(axis=1)).prod(axis=0)
    return det, cof, scale


def cell_volumes(mesh: SimplicialMesh) -> np.ndarray:
    """Signed cell volumes det / d! from the mesh's geometry; positive for the
    orientation the builders guarantee.  Implemented for the dimensions
    check_dim accepts, 2 and 3, whose closed forms set the geometry digits."""
    check_dim(mesh.dim)
    return mesh.geometry[0] / math.factorial(mesh.dim)


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
    # a volume below the smallest normal float has lost its digits, and H
    # divides by it: refuse the mesh before the division overflows
    tiny = np.finfo(float).tiny
    if vols.min() < tiny:
        raise ValueError(f"smallest cell volume {vols.min():.6g} is below {tiny:.6g}: "
                         "the mesh is degenerate or too fine for double precision")
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
    return PatchStats(
        dim=mesh.dim,
        patch_volumes=patch_all[~mesh.boundary_mask],
        cell_volumes=vols,
        m_const=int(counts.max()),
        h_const=float(np.max(vmax[touched] / vmin[touched])),
    )


def _face_vertices(keys: np.ndarray, nv: int, dim: int) -> np.ndarray:
    """The sorted vertex tuples, one row per key, that _face_keys encoded."""
    place = nv ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    return keys[:, None] // place % nv


def _face_keys(cells: np.ndarray, nv: int) -> np.ndarray:
    """One int64 key per face, as an (n_cells, dim+1) array in cell order: column
    k holds the face that drops vertex k, its vertex indices ascending and read
    as digits in radix nv, so keys order like the sorted vertex tuples.

    Built one face slot at a time, so the only temporaries are dim+1 int64
    columns over the cells; the indices are widened to int64 before any
    arithmetic, so int32 cells do not overflow.
    """
    n_cells, dim = cells.shape[0], cells.shape[1] - 1
    keys = np.empty((n_cells, dim + 1), dtype=np.int64)
    verts = [np.empty(n_cells, dtype=np.int64) for _ in range(dim)]
    low = np.empty(n_cells, dtype=np.int64)
    for k in range(dim + 1):
        for j, c in enumerate(c for c in range(dim + 1) if c != k):
            verts[j][:] = cells[:, c]
        # bubble-sort network of compare-exchanges: each face's vertices ascend in j
        for top in range(dim - 1, 0, -1):
            for j in range(top):
                np.minimum(verts[j], verts[j + 1], out=low)
                np.maximum(verts[j], verts[j + 1], out=verts[j + 1])
                # the minimum becomes vertex j; the old column is the next scratch
                verts[j], low = low, verts[j]
        key = keys[:, k]
        key[:] = verts[0]
        for v in verts[1:]:
            key *= nv
            key += v
    return keys


def check_conforming(mesh: SimplicialMesh) -> None:
    """Raise if any codimension-1 face is shared by more than two cells, or a
    once-counted face is off the box's facets (a facet face has all its
    vertices at 0.0, or all at 1.0, on one axis).

    Faces are checked in order of first appearance (cell by cell, dropping
    vertex 0, 1, ...), and the error names the first offending face.  Memory:
    one int64 key per face, sorted in place, plus O(n_cells) bytes of work
    columns and masks; a mesh that fails builds its keys once more, in cell
    order, to name the face.
    """
    nv, dim = mesh.n_vertices, mesh.dim
    if nv**dim > np.iinfo(np.int64).max:
        raise ValueError(f"{nv} vertices are too many to encode {dim}-vertex faces in int64")
    ordered = _face_keys(mesh.cells, nv).reshape(-1)
    ordered.sort()
    # edge[i]: a run of equal keys ends before ordered[i] (and at both ends)
    edge = np.ones(ordered.size + 1, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=edge[1:-1])
    # a key alone in its run is a face one cell uses; one equal to both of its
    # neighbours is a face that more than two cells share
    crowded = np.unique(ordered[~(edge[:-1] | edge[1:])])
    lonely = ordered[edge[:-1] & edge[1:]]
    # coordinates of every lonely face: (face, vertex, axis)
    coords = mesh.vertices[_face_vertices(lonely, nv, dim)]
    on_facet = ((coords == 0.0).all(axis=1) | (coords == 1.0).all(axis=1)).any(axis=1)
    bad = np.concatenate([crowded, lonely[~on_facet]])
    if bad.size == 0:
        return
    keys = _face_keys(mesh.cells, nv).reshape(-1)
    key = keys[np.argmax(np.isin(keys, bad))]
    face = tuple(_face_vertices(key[None], nv, dim)[0].tolist())
    count = int(np.searchsorted(ordered, key, "right") - np.searchsorted(ordered, key))
    if count > 2:
        raise ValueError(f"face {face} shared by {count} cells")
    raise ValueError(f"interior face {face} belongs to only one cell")


# rows per write in the text exporters: bounds the formatted text held at once
EXPORT_CHUNK_ROWS = 4096


def _float_tokens(values: np.ndarray) -> np.ndarray:
    """%.17g of each value as a row of ASCII bytes, zero-padded, plus one zero column."""
    # no float64 takes more than 24 characters in %.17g ("-1.2345678901234567e-308")
    text = (("%-24.17g" * values.size) % tuple(values.tolist())).encode()
    table = np.zeros((values.size, 25), dtype=np.uint8)
    table[:, :-1] = np.frombuffer(text, np.uint8).reshape(values.size, 24)
    table[table == ord(" ")] = 0
    return table


def _index_tokens(count: int) -> np.ndarray:
    """Decimal digits of 0..count-1, one row each, leading zeros as zero bytes,
    plus one zero column."""
    width = len(str(max(count - 1, 0)))
    table = np.zeros((count, width + 1), dtype=np.uint8)
    for k, place in enumerate(10 ** np.arange(width - 1, -1, -1)):
        # the digit at this place runs through '0'..'9', each held for place rows;
        # rows below place have no digit there (except the ones digit of 0)
        cycle = np.repeat(np.arange(ord("0"), ord("9") + 1, dtype=np.uint8), place)
        digits = np.resize(cycle, count)
        lead = place if place > 1 else 0
        table[lead:, k] = digits[lead:]
    return table


def _row_chunks(rows: np.ndarray):
    """rows in slices of at most EXPORT_CHUNK_ROWS rows."""
    for start in range(0, rows.shape[0], EXPORT_CHUNK_ROWS):
        yield rows[start : start + EXPORT_CHUNK_ROWS]


def _coordinate_index(distinct: np.ndarray, bits: np.ndarray):
    """The row of distinct that holds each entry of bits, one chunk of rows of
    EXPORT_CHUNK_ROWS at a time.

    Each column is searched on its own: within a column of a tensor mesh's
    vertices the values come in long ascending runs, which numpy's search
    walks faster than the interleaved rows.
    """
    for chunk in _row_chunks(bits):
        yield np.column_stack([np.searchsorted(distinct, column) for column in chunk.T])


def _write_rows(fh, table: np.ndarray, chunks) -> None:
    """Write one line per row of each index array in chunks: its tokens from
    table, space separated.

    The zero bytes that pad each token are dropped, and the zero column after
    it carries the separator, so no line has a trailing space.  The rows are
    gathered with take, which copies whole token rows about three times as fast
    as the equivalent fancy index.
    """
    for index in chunks:
        grid = table.take(index, axis=0)
        grid[:, :, -1] = ord(" ")
        grid[:, -1, -1] = ord("\n")
        flat = grid.ravel()
        fh.write(flat[flat != 0])


def export_mesh_text(mesh: SimplicialMesh, path) -> None:
    """Plain-text dump: 'dim n_vertices n_cells' header, vertex lines, 0-based cell lines.

    Coordinates are written with %.17g, which round-trips float64; each
    distinct coordinate bit pattern is formatted once, so -0.0 stays "-0", and
    each coordinate's token is found by a search over the distinct patterns,
    one coordinate column and EXPORT_CHUNK_ROWS vertices at a time.  Memory:
    beyond the mesh, one sorted copy of the coordinates, one row of tokens per
    distinct value and per vertex index, and the indices and text of
    EXPORT_CHUNK_ROWS lines at a time.
    """
    bits = np.ascontiguousarray(mesh.vertices, dtype=float).view(np.int64)
    # the distinct patterns, ascending: one sort and an adjacent-difference
    # mask (np.unique hashes int64: 5x slower on 2D Shishkin n=256)
    ordered = np.sort(bits, axis=None)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    with open(path, "wb") as fh:
        fh.write(f"{mesh.dim} {mesh.n_vertices} {mesh.n_cells}\n".encode())
        _write_rows(fh, _float_tokens(distinct.view(float)), _coordinate_index(distinct, bits))
        _write_rows(fh, _index_tokens(mesh.n_vertices), _row_chunks(mesh.cells))
