"""Command line front end.

Subcommands: mesh (generate and export), analyze (one mesh, full report),
sweep (parameter sweep to CSV + SVG), calibrate (print/store the reference
constants).  Exit codes: 0 success, 1 usage error, 2 numerical failure.

Importing this module loads the mesh layer only; each command imports the
layers it runs, so `mesh` loads nothing more, `calibrate` adds bounds, and
`analyze` and `sweep` add fem, spectra, harness and bounds.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

from .meshgen import (
    DEFAULT_REFERENCE_INTERVALS,
    GradingParams,
    LayerPosition,
    MeshFamily,
    SweepAxis,
    build_mesh,
    export_mesh_text,
)

_FAMILIES = [f.value for f in MeshFamily]
_LAYERS = [p.value for p in LayerPosition]
_AXES = [a.value for a in SweepAxis]


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2, which we reserve for
    # numerical failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_mesh_args(p, required=True):
    p.add_argument("--dim", type=int, required=required, help="2 or 3")
    p.add_argument("--family", choices=_FAMILIES, required=required)
    p.add_argument("--n", type=int, required=required, help="intervals per direction")
    p.add_argument("--eps", type=float, default=None, help="layer width parameter")
    p.add_argument("--beta", type=float, default=None, help="power grading exponent")
    p.add_argument("--c-sigma", type=float, default=None, dest="c_sigma")
    p.add_argument("--layer", choices=_LAYERS, default="boundary", help="layer placement")


def _params_from_args(args) -> GradingParams:
    return GradingParams(MeshFamily(args.family), args.n, eps=args.eps, beta=args.beta,
                         c_sigma=args.c_sigma, layer_position=LayerPosition(args.layer))


def _ensure_parent(path):
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _print_table(pairs):
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        text = f"{value:.12g}" if isinstance(value, float) else str(value)
        print(f"{key:<{width}}  {text}")


def _read_config(path, keys):
    """key = value settings from path; a key outside keys, or repeated, is an error."""
    settings = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in settings:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}; known: {', '.join(keys)}")
            settings[key] = value.strip()
    return settings


def _parse_values(text):
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma separated list of numbers: {text!r}")


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"cannot read {text!r} as a boolean")


def _cmd_mesh(args) -> int:
    mesh = build_mesh(args.dim, _params_from_args(args))
    _ensure_parent(args.out)
    export_mesh_text(mesh, args.out)
    print(
        f"mesh: dim={mesh.dim} family={args.family} n={args.n} "
        f"vertices={mesh.n_vertices} cells={mesh.n_cells} free={mesh.n_free} -> {args.out}"
    )
    return 0


def _cmd_analyze(args) -> int:
    from .bounds import calibrate
    from .fem import StiffnessPattern
    from .harness import CSV_COLUMNS, analyze, csv_row, emit_csv, prepare
    from .spectra import check_tol

    check_tol(args.tol)
    # a mesh that prepare refuses costs no calibration
    stats, A = prepare(args.dim, _params_from_args(args), StiffnessPattern())
    report = analyze(stats, A, calibrate(args.dim, args.ref), args.tol, args.n)
    # the CSV columns between param and seconds
    columns = zip(CSV_COLUMNS[1:10], csv_row(report)[1:])
    _print_table([("dim", args.dim), ("family", args.family), ("n", args.n), *columns])
    if args.csv:
        _ensure_parent(args.csv)
        emit_csv([report], args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_calibrate(args) -> int:
    from .bounds import calibrate

    pairs = list(asdict(calibrate(args.dim, args.ref)).items())
    _print_table(pairs)
    if args.out:
        _ensure_parent(args.out)
        with open(args.out, "w", newline="\n") as fh:
            for key, value in pairs:
                text = "%.17g" % value if isinstance(value, float) else str(value)
                fh.write(f"{key} = {text}\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    from .harness import PLOT_COLUMNS, SweepSpec, emit_csv, emit_svg_loglog, run_sweep

    for key in ("dim", "family", "axis", "values", "out"):
        if getattr(args, key) is None:
            raise ValueError(f"missing required setting '{key}' (flag or config)")
    spec = SweepSpec(args.dim, MeshFamily(args.family), SweepAxis(args.axis), args.values,
                     n=args.n, eps=args.eps, beta=args.beta, c_sigma=args.c_sigma,
                     layer_position=LayerPosition(args.layer), tol=args.tol,
                     calibration_ref=args.ref)

    rows = run_sweep(spec)
    _ensure_parent(args.out)
    csv_path, svg_path = args.out + ".csv", args.out + ".svg"
    emit_csv(rows, csv_path)
    emit_svg_loglog(rows, list(PLOT_COLUMNS), svg_path, normalize=args.normalize)
    print(f"sweep: {len(rows)} points -> {csv_path}, {svg_path}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="meshspectra", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="generate a mesh and export it as text")
    _add_mesh_args(p)
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("analyze", help="exact eigenvalue and all bounds for one mesh")
    _add_mesh_args(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--ref", type=int, default=None, help="calibration reference intervals")
    p.add_argument("--csv", default=None, help="also write the report as CSV")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="run a parameter sweep, write CSV and SVG")
    p.add_argument("--config", default=None, help="key = value file; flags override")
    _add_mesh_args(p, required=False)
    p.add_argument("--axis", choices=_AXES)
    p.add_argument("--values", type=_parse_values, help="comma separated sweep values")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--ref", type=int, default=None)
    p.add_argument("--normalize", type=_parse_bool, nargs="?", const=True, default=False,
                   help="plot ratios to the 1/N decay instead of raw values")
    p.add_argument("--out", help="output basename (.csv/.svg appended)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("calibrate", help="compute the reference-mesh constants")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--ref", type=int, default=None,
                   help=f"reference intervals (default {DEFAULT_REFERENCE_INTERVALS})")
    p.add_argument("--out", default=None, help="store constants as a key = value file")
    p.set_defaults(func=_cmd_calibrate)
    return parser


def _convergence_error():
    # only spectra raises ConvergenceError: until a command has loaded it,
    # the empty tuple, which matches no exception, stands in
    spectra = sys.modules.get(f"{__package__}.spectra")
    return spectra.ConvergenceError if spectra else ()


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's settings become flags between the subcommand and the
            # command line's flags: argparse checks both alike, the last one wins
            keys = [k for k in vars(args) if k not in ("command", "config", "func")]
            settings = _read_config(args.config, keys)
            flags = [f"--{key.replace('_', '-')}={value}" for key, value in settings.items()]
            args = parser.parse_args(argv[:1] + flags + argv[1:])
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except _convergence_error() as exc:
        print(f"meshspectra: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"meshspectra: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"meshspectra: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
