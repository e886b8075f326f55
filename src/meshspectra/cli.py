"""Command line front end.

Subcommands: mesh (generate and export), analyze (one mesh, full report),
sweep (parameter sweep to CSV + SVG), calibrate (print/store the reference
constants).  Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple

from .bounds import DEFAULT_REFERENCE_INTERVALS, calibrate
from .harness import (
    CSV_COLUMNS,
    PLOT_COLUMNS,
    SweepAxis,
    _spec,
    analyze_mesh,
    emit_csv,
    emit_svg_loglog,
    run_sweep,
)
from .meshgen import (
    GradingParams,
    LayerPosition,
    MeshFamily,
    build_mesh,
    check_conforming,
    check_family_reads,
    export_mesh_text,
)
from .spectra import ConvergenceError

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
    p.add_argument("--layer", choices=_LAYERS, default=None, help="layer placement")


def _grading_kwargs(family, eps, beta, c_sigma, layer):
    """GradingParams keywords of the settings given; one the family's nodes do
    not read is an error."""
    for key, value in (("eps", eps), ("beta", beta), ("c_sigma", c_sigma)):
        if value is not None:
            check_family_reads(family, key)
    position = None if layer is None else LayerPosition(layer)
    kw = dict(eps=eps, beta=beta, c_sigma=c_sigma, layer_position=position)
    return {key: value for key, value in kw.items() if value is not None}


def _params_from_args(args) -> GradingParams:
    family = MeshFamily(args.family)
    kw = _grading_kwargs(family, args.eps, args.beta, args.c_sigma, args.layer)
    return GradingParams(family, args.n, **kw)


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
    tokens = [t.strip() for t in str(text).split(",") if t.strip()]
    if not tokens:
        raise ValueError(f"empty sweep value list {text!r}")
    return tuple(float(t) for t in tokens)


def _parse_bool(text):
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot read {text!r} as a boolean")


def _cmd_mesh(args) -> int:
    mesh = build_mesh(args.dim, _params_from_args(args))
    check_conforming(mesh)
    _ensure_parent(args.out)
    export_mesh_text(mesh, args.out)
    print(
        f"mesh: dim={mesh.dim} family={args.family} n={args.n} "
        f"vertices={mesh.n_vertices} cells={mesh.n_cells} free={mesh.n_free} -> {args.out}"
    )
    return 0


def _cmd_analyze(args) -> int:
    params = _params_from_args(args)
    cal = calibrate(args.dim, args.ref)
    mesh = build_mesh(args.dim, params)
    report = analyze_mesh(mesh, cal, tol=args.tol, param=args.n)
    # the CSV columns between param and seconds
    columns = zip(CSV_COLUMNS[1:10], astuple(report)[1:10])
    _print_table([("dim", args.dim), ("family", args.family), ("n", args.n), *columns])
    if args.csv:
        _ensure_parent(args.csv)
        emit_csv([report], args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_calibrate(args) -> int:
    cal = calibrate(args.dim, args.ref)
    pairs = [
        ("dim", cal.dim),
        ("n_ref", cal.n_ref),
        ("c_new", cal.c_new),
        ("c_gm", cal.c_gm),
        ("c_khx", cal.c_khx),
    ]
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
    keys = [k for k in vars(args) if k not in ("command", "config", "func")]
    config = _read_config(args.config, keys) if args.config else {}

    def pick(key, cast, default=None):
        flag = getattr(args, key)
        if flag is not None:
            return flag
        if key in config:
            return cast(config[key])
        return default

    def require(key, cast):
        value = pick(key, cast)
        if value is None:
            raise ValueError(f"missing required setting '{key}' (flag or config)")
        return value

    dim = require("dim", int)
    family = MeshFamily(require("family", str))
    axis = SweepAxis(require("axis", str))
    values = _parse_values(require("values", str))
    out = require("out", str)
    tol = pick("tol", float, 1e-8)
    ref = pick("ref", int)
    normalize = pick("normalize", _parse_bool, False)
    n = pick("n", int)
    kw = _grading_kwargs(
        family, pick("eps", float), pick("beta", float), pick("c_sigma", float), pick("layer", str)
    )
    spec = _spec(dim, family, axis, values, n=n, tol=tol, calibration_ref=ref, **kw)

    rows = run_sweep(spec)
    _ensure_parent(out)
    csv_path, svg_path = out + ".csv", out + ".svg"
    emit_csv(rows, csv_path)
    emit_svg_loglog(rows, list(PLOT_COLUMNS), svg_path, normalize=normalize)
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
    p.add_argument("--axis", choices=_AXES, default=None)
    p.add_argument("--values", default=None, help="comma separated sweep values")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--ref", type=int, default=None)
    p.add_argument("--normalize", action="store_true", default=None,
                   help="plot ratios to the 1/N decay instead of raw values")
    p.add_argument("--out", default=None, help="output basename (.csv/.svg appended)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("calibrate", help="compute the reference-mesh constants")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--ref", type=int, default=None,
                   help=f"reference intervals (default {DEFAULT_REFERENCE_INTERVALS})")
    p.add_argument("--out", default=None, help="store constants as a key = value file")
    p.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConvergenceError as exc:
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
