"""Mesh-spectral laboratory: graded simplicial meshes of the unit square/cube,
P1 stiffness assembly, exact smallest eigenvalues, and geometric estimates of
them calibrated on a uniform reference mesh."""

from .bounds import (
    DEFAULT_REFERENCE_INTERVALS,
    BoundReport,
    Calibration,
    calibrate,
    estimates,
)
from .fem import assemble
from .harness import (
    FIXTURES,
    SweepAxis,
    SweepSpec,
    analyze,
    emit_csv,
    emit_svg_loglog,
    run_sweep,
)
from .meshgen import (
    GradingParams,
    LayerPosition,
    MeshFamily,
    NodeSet1D,
    PatchStats,
    SimplicialMesh,
    build_mesh,
    cell_volumes,
    check_conforming,
    export_mesh_text,
    graded_nodes,
    patch_stats,
    tensor_mesh,
)
from .spectra import ConvergenceError, EigenResult, lambda_min_sparse

__all__ = [
    "BoundReport",
    "Calibration",
    "ConvergenceError",
    "DEFAULT_REFERENCE_INTERVALS",
    "EigenResult",
    "FIXTURES",
    "GradingParams",
    "LayerPosition",
    "MeshFamily",
    "NodeSet1D",
    "PatchStats",
    "SimplicialMesh",
    "SweepAxis",
    "SweepSpec",
    "analyze",
    "assemble",
    "build_mesh",
    "calibrate",
    "cell_volumes",
    "check_conforming",
    "emit_csv",
    "emit_svg_loglog",
    "estimates",
    "export_mesh_text",
    "graded_nodes",
    "lambda_min_sparse",
    "patch_stats",
    "run_sweep",
    "tensor_mesh",
]

__version__ = "0.1.0"
