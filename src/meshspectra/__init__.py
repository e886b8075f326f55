"""Mesh-spectral laboratory: graded simplicial meshes of the unit square/cube,
P1 stiffness assembly, exact smallest eigenvalues, and geometric estimates of
them calibrated on a uniform reference mesh."""

import importlib

# the module that defines each public name; importing the package loads none
# of them, and a name loads its module on first access (PEP 562)
_HOME = {
    **dict.fromkeys(("BoundReport", "Calibration", "calibrate", "estimates"), "bounds"),
    "assemble": "fem",
    **dict.fromkeys(("FIXTURES", "SweepSpec", "analyze", "emit_csv", "emit_svg_loglog",
                     "run_sweep"), "harness"),
    **dict.fromkeys(("DEFAULT_REFERENCE_INTERVALS", "GradingParams", "LayerPosition",
                     "MeshFamily", "NodeSet1D", "PatchStats", "SimplicialMesh", "SweepAxis",
                     "build_mesh", "cell_volumes", "export_mesh_text", "graded_nodes",
                     "patch_stats", "tensor_mesh"), "meshgen"),
    **dict.fromkeys(("ConvergenceError", "EigenResult", "lambda_min_sparse"), "spectra"),
}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
