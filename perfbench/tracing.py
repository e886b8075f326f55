"""Spans around the calls into each layer's public functions, from outside the package.

`Tracer.install` rebinds every traced function, in every `meshspectra` module
that refers to it, to a wrapper that records a span; `uninstall` puts the
originals back.  Spans stay in memory and are written as JSON lines once the
run ends.  A layer's self time is the time inside its spans not covered by
their child spans.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

LAYERS = ("cli", "harness", "meshgen", "fem", "spectra", "bounds")

# module -> public functions the traced pass times; a name the package no
# longer has is skipped and its metrics read 0
TRACED = {
    "cli": ("main",),
    "harness": ("run_sweep", "calibration_for", "analyze_mesh", "emit_csv", "emit_svg_loglog"),
    "meshgen": ("build_mesh", "patch_stats", "cell_volumes", "check_conforming", "export_mesh_text"),
    "fem": ("assemble",),
    "spectra": ("lambda_min_sparse",),
    "bounds": ("calibrate", "estimate_new", "estimate_gm", "estimate_khx"),
}

# per-layer metric -> span names whose inclusive durations it sums
SPAN_SECONDS = {
    "fem.assemble_s": ("fem.assemble",),
    "spectra.lambda_min_sparse_s": ("spectra.lambda_min_sparse",),
    "harness.calibration_for_s": ("harness.calibration_for",),
    "harness.emit_csv_s": ("harness.emit_csv",),
    "harness.emit_svg_s": ("harness.emit_svg_loglog",),
    "meshgen.build_mesh_s": ("meshgen.build_mesh",),
    "meshgen.patch_stats_s": ("meshgen.patch_stats",),
    "meshgen.cell_volumes_s": ("meshgen.cell_volumes",),
    "meshgen.check_conforming_s": ("meshgen.check_conforming",),
    "meshgen.export_mesh_text_s": ("meshgen.export_mesh_text",),
    "bounds.estimates_s": ("bounds.estimate_new", "bounds.estimate_gm", "bounds.estimate_khx"),
}

# per-layer metric -> (span name, count key) summed over a pass
SPAN_COUNTS = {
    "fem.nnz": ("fem.assemble", "nnz"),
    "fem.n_free": ("fem.assemble", "n_free"),
    "spectra.outer_iterations": ("spectra.lambda_min_sparse", "iterations"),
    "spectra.failed": ("spectra.lambda_min_sparse", "failed"),
    "meshgen.cells": ("meshgen.build_mesh", "cells"),
    "meshgen.bytes_written": ("meshgen.export_mesh_text", "bytes"),
}


def _counts(name, args, result, error):
    if name == "fem.assemble" and error is None:
        m = getattr(result, "matrix", result)  # the scipy matrix inside SparseSPD
        return {"nnz": int(m.nnz), "n_free": int(m.shape[0]), "cells": int(args[0].cells.shape[0])}
    if name == "spectra.lambda_min_sparse":
        source = error if error is not None else result
        iterations = getattr(source, "iterations", None) or 0
        return {"iterations": int(iterations), "failed": int(error is not None)}
    if name == "meshgen.build_mesh" and error is None:
        return {"cells": int(result.cells.shape[0])}
    if name == "meshgen.export_mesh_text" and error is None:
        return {"bytes": os.path.getsize(args[1])}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self._pass = 0
        self._call = 0
        self._row = 0
        self.point = ""

    def begin_pass(self, index: int) -> None:
        self._pass, self._call = index, 0

    def _enter_point(self, name: str) -> None:
        # a point is one CLI call; inside a sweep, each row's build_mesh starts
        # the row's point and the shared calibration gets its own
        parent = self._stack[-1]["name"] if self._stack else None
        if name == "cli.main":
            self._call += 1
            self._row = 0
            self.point = f"p{self._pass}.c{self._call}"
        elif parent == "harness.run_sweep":
            call = self.point.split("/")[0]
            if name == "meshgen.build_mesh":
                self.point = f"{call}/row{self._row}"
                self._row += 1
            elif name == "harness.calibration_for":
                self.point = f"{call}/calibration"

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            self._enter_point(name)
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "point": self.point,
                "pass": self._pass,
            }
            self.spans.append(span)
            self._stack.append(span)
            result = error = None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if name == "harness.run_sweep":
                    self.point = self.point.split("/")[0]
                span["counts"] = _counts(name, args, result, error)

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.startswith("meshspectra.")]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"meshspectra.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def pass_metrics(self) -> list[dict]:
        """Per traced pass: self seconds per layer, summed span seconds and counts."""
        by_pass = {}
        for span in self.spans:
            by_pass.setdefault(span["pass"], []).append(span)
        return [_summarize(spans) for _, spans in sorted(by_pass.items())]


def _summarize(spans) -> dict:
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration[s["id"]]
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        layer = s["name"].split(".")[0]
        out[f"{layer}.self_s"] += duration[s["id"]] - child_time.get(s["id"], 0.0)
    for metric, names in SPAN_SECONDS.items():
        out[metric] = sum(duration[s["id"]] for s in spans if s["name"] in names)
    for metric, (name, key) in SPAN_COUNTS.items():
        out[metric] = sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)
    cells = sum(s["counts"].get("cells", 0) for s in spans if s["name"] == "fem.assemble")
    out["fem.cells_per_s"] = cells / out["fem.assemble_s"] if out["fem.assemble_s"] > 0 else 0.0
    out["trace.spans"] = len(spans)
    return out


def median_metrics(passes: list[dict]) -> dict:
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
