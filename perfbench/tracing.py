"""In-memory span recorder for the traced benchmark pass.

Spans are recorded only around calls into driftlab's public functions, by
replacing module and class attributes with timing wrappers.  Nothing inside
``src/`` is edited: a module that imported a function by name
(``from .solver import solve``) holds its own binding, so every binding of a
wrapped function across the package is replaced.
"""
import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _steps_attrs(result, args, kwargs):
    return {"steps": len(result.step_times) - 1,
            "cells": int(np.prod(result.trajectory.grid.shape))}


def _shell_attrs(result, args, kwargs):
    return {"points": int(sum(s.size for s in result.samples))}


def _file_attrs(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, attrs-from-result).  Attributes with a dot
# are methods, wrapped on their class.
TARGETS = [
    ("fields", "shell_restrict", "fields.shell_restrict", _shell_attrs),
    ("fields", "read_field", "fields.read_field", _file_attrs),
    ("fields", "write_field", "fields.write_field", _file_attrs),
    ("norms", "mixed_norm", "norms.mixed_norm", None),
    ("norms", "criticality_index", "norms.criticality_index", None),
    ("norms", "good_slices", "norms.good_slices", None),
    ("norms", "fbc_test", "norms.fbc_test", None),
    ("drifts", "assemble_borderline", "drifts.assemble_borderline", None),
    ("drifts", "assemble_selfsimilar", "drifts.assemble_selfsimilar", None),
    ("drifts", "DriftAssembly.sample_drift", "drifts.sample_drift", None),
    ("drifts", "DriftAssembly.subsolution_at", "drifts.subsolution_at", None),
    ("drifts", "hodge_decompose", "drifts.hodge_decompose", None),
    ("drifts", "HodgeDecomposition.reconstruct", "drifts.reconstruct", None),
    ("solver", "solve", "solver.solve", _steps_attrs),
    ("solver", "fundamental_solution", "solver.fundamental_solution", None),
    ("solver", "FieldDrift.face_velocities", "solver.face_velocities", None),
    ("solver", "ZeroDrift.face_velocities", "solver.face_velocities", None),
    ("analysis", "fundsol_params", "analysis.fundsol_params", None),
    ("analysis", "drift_free_params", "analysis.drift_free_params", None),
    ("analysis", "fbc_tilde_test", "analysis.fbc_tilde_test", None),
    ("analysis", "moser_trace", "analysis.moser_trace", None),
    ("analysis", "davies_probe", "analysis.davies_probe", None),
    ("analysis", "davies_energy", "analysis.davies_energy", None),
    ("analysis", "tail_check", "analysis.tail_check", None),
    ("cli", "main", "cli.main", None),
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "trig_stream_field", "cli.trig_stream_field", None),
    ("cli", "blowup_probe_series", "cli.blowup_probe_series", None),
    ("cli", "_nash_member", "cli.nash_member", None),
]

LAYERS = ("fields", "norms", "drifts", "solver", "analysis", "cli")


class Tracer:
    """Records (name, start, end, parent, attrs) spans; parent is an index."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name, attrs_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            idx = len(tracer.spans)
            span = [name, time.perf_counter(), None, parent, None]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if attrs_fn is not None:
                span[4] = attrs_fn(result, args, kwargs)
            return result

        return wrapper

    def install(self):
        """Wrap every TARGETS entry in every loaded driftlab module."""
        mods = {k: v for k, v in sys.modules.items()
                if k == "driftlab" or k.startswith("driftlab.")}
        for modname, attr, name, attrs_fn in TARGETS:
            home = mods["driftlab." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name, attrs_fn))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(orig, name, attrs_fn)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def dump(self):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "attrs": s[4]} for s in self.spans]


def _ancestors(spans, i):
    p = spans[i]["parent"]
    while p is not None:
        yield spans[p]
        p = spans[p]["parent"]


def layer_metrics(spans, wall_s):
    """Per-layer counts and times from one traced execution.

    Inclusive times sum the outermost spans of a name (a span nested in a span
    of the same name is not counted twice).  Self time is a span's duration
    minus the durations of its direct children.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    calls = defaultdict(int)
    incl = defaultdict(float)
    self_by_layer = defaultdict(float)
    steps = cells_steps = 0
    faces_calls, faces_s = 0, 0.0
    analysis_calls, analysis_s = 0, 0.0
    shell_points = io_bytes = 0
    covered = 0.0
    for i, s in enumerate(spans):
        name = s["name"]
        dur = s["end"] - s["start"]
        anc = list(_ancestors(spans, i))
        calls[name] += 1
        if not any(a["name"] == name for a in anc):
            incl[name] += dur
        self_by_layer[name.split(".")[0]] += dur - child_time[i]
        if s["parent"] is None:
            covered += dur
        attrs = s["attrs"] or {}
        if name == "solver.solve":
            steps += attrs["steps"]
            cells_steps += attrs["steps"] * attrs["cells"]
        elif name == "solver.face_velocities" and any(
                a["name"] == "solver.solve" for a in anc):
            faces_calls += 1
            faces_s += dur
        elif name == "fields.shell_restrict":
            shell_points += attrs["points"]
        elif name in ("fields.read_field", "fields.write_field"):
            io_bytes += attrs["bytes"]
        if name.startswith("analysis."):
            analysis_calls += 1
            if not any(a["name"].startswith("analysis.") for a in anc):
                analysis_s += dur

    solve_self = incl["solver.solve"] - faces_s
    m = {
        "solver.solve_calls": calls["solver.solve"],
        "solver.solve_s": incl["solver.solve"],
        "solver.steps": steps,
        "solver.step_ms": 1e3 * solve_self / steps if steps else 0.0,
        "solver.cell_steps_per_s": cells_steps / solve_self if steps else 0.0,
        "solver.faces_calls": faces_calls,
        "solver.faces_s": faces_s,
        "drifts.sample_calls": calls["drifts.sample_drift"],
        "drifts.sample_s": incl["drifts.sample_drift"],
        "drifts.subsolution_s": incl["drifts.subsolution_at"],
        "drifts.hodge_calls": calls["drifts.hodge_decompose"],
        "drifts.hodge_s": incl["drifts.hodge_decompose"],
        "norms.mixed_norm_calls": calls["norms.mixed_norm"],
        "norms.mixed_norm_s": incl["norms.mixed_norm"],
        "norms.fbc_calls": calls["norms.fbc_test"],
        "norms.fbc_s": incl["norms.fbc_test"],
        "norms.classify_s": incl["norms.criticality_index"],
        "fields.shell_calls": calls["fields.shell_restrict"],
        "fields.shell_s": incl["fields.shell_restrict"],
        "fields.shell_points": shell_points,
        "fields.io_s": incl["fields.read_field"] + incl["fields.write_field"],
        "fields.io_bytes": io_bytes,
        "analysis.calls": analysis_calls,
        "analysis.s": analysis_s,
        "analysis.fbc_tilde_s": incl["analysis.fbc_tilde_test"],
        "untraced_share": 1.0 - covered / wall_s,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    m["nash_member_s"] = incl["cli.nash_member"]
    return m
