"""Span recorder for one benchmark pass, installed from outside the package.

Each wrapped entry point records a span: name, start, end (perf_counter
nanoseconds), the index of the enclosing span, and an optional count taken
at the boundary (grid points, file bytes, modes).  Spans stay in memory and
are written out by the caller when the pass ends.

Wrappers are placed where the names are looked up.  Methods are replaced on
their class, which every caller shares.  A module-level function is replaced
in every loaded ``quasiflow`` module that binds the original object, because
``from .symmetry import generate_frequency_module`` gives ``snapshots`` and
``cli`` their own binding, which replacing ``symmetry``'s alone would miss.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
import time

MARK = "_perfbench_original"


def _modes(args, kwargs, result):
    return len(args[0])


def _grid_points(args, kwargs, result):
    return int(result.size)


def _input_points(args, kwargs, result):
    return int(args[1].size)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def targets():
    """(owner, attribute, span name, count) for every traced entry point."""
    from quasiflow import brusselator, config, diagnostics, hull, sh, snapshots, symmetry

    return [
        (hull.ActiveModeSet, "__init__", "hull.ActiveModeSet", _modes),
        (hull.ActiveModeSet, "grid_values", "hull.grid_values", _grid_points),
        (hull.ActiveModeSet, "coefficients_from_grid", "hull.coefficients_from_grid",
         _input_points),
        (sh, "step", "sh.step", None),
        (sh.SolverState, "tables", "sh.SolverState.tables", None),
        (brusselator, "bruss_step", "brusselator.bruss_step", None),
        (brusselator.BrusselatorState, "tables", "brusselator.BrusselatorState.tables",
         None),
        (brusselator, "turing_analysis", "brusselator.turing_analysis", None),
        (diagnostics, "record", "diagnostics.record", None),
        (snapshots, "read_snapshot", "snapshots.read_snapshot", None),
        (snapshots, "write_snapshot", "snapshots.write_snapshot", _file_bytes),
        (snapshots, "write_diagnostics_csv", "snapshots.write_diagnostics_csv",
         _file_bytes),
        (config, "parse_config", "config.parse_config", None),
        (symmetry, "build_holohedry", "symmetry.build_holohedry", None),
        (symmetry, "generate_frequency_module", "symmetry.generate_frequency_module",
         None),
    ]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "quasiflow" or name.startswith("quasiflow."))]


class Tracer:
    """Collects spans; ``install`` wraps the entry points, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent, count]
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter_ns()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][4] = count(args, kwargs, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self):
        modules = _package_modules()
        for owner, attr, name, count in targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, count)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def surviving_wrappers():
    """Names in the package that still hold a wrapper; empty after uninstall."""
    left = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                left.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                left.extend(f"{mod.__name__}.{key}.{k}"
                            for k, v in vars(value).items() if hasattr(v, MARK))
    return left


STEP_SPANS = ("sh.step", "brusselator.bruss_step")
TABLE_SPANS = ("sh.SolverState.tables", "brusselator.BrusselatorState.tables")
PHASE_SPANS = ("phase.setup", "phase.ic", "phase.integrate", "phase.output")
COMPLEX_BYTES = 16  # the transforms run on complex128 grids


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _durations(spans):
    """(duration, self time) of every span, in nanoseconds."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def layer_metrics(spans, wall_ns):
    """Per-layer figures of one traced pass: {name: (value, unit)}.

    ``wall_ns`` is the pass's own wall time, measured outside the spans.
    ``trace.coverage`` is the share of it that the wrapped entry points
    account for: the wall time minus the self time of the benchmark's own
    ``phase.*`` spans, which is time spent outside every wrapped call.
    """
    n = len(spans)
    dur, own = _durations(spans)
    in_step = [False] * n
    phase = [None] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            in_step[i] = in_step[parent] or spans[parent][0] in STEP_SPANS
            phase[i] = phase[parent]
        if name.startswith("phase."):
            phase[i] = name

    def pick(names, where=lambda i: True):
        names = (names,) if isinstance(names, str) else names
        return [i for i in range(n) if spans[i][0] in names and where(i)]

    def total(idx):
        return sum(dur[i] for i in idx)

    ms, s = 1e-6, 1e-9
    setup_ns = total(pick("phase.setup"))
    integrate_ns = total(pick("phase.integrate"))
    steps = pick(STEP_SPANS)
    inverse = pick("hull.grid_values", lambda i: in_step[i])
    forward = pick("hull.coefficients_from_grid", lambda i: in_step[i])
    transforms = pick(("hull.grid_values", "hull.coefficients_from_grid"),
                      lambda i: phase[i] == "phase.integrate")
    records = pick("diagnostics.record")
    writes = pick("snapshots.write_snapshot")
    csv = pick("snapshots.write_diagnostics_csv")
    active = pick("hull.ActiveModeSet")
    tables = pick(TABLE_SPANS)
    grid_points = spans[inverse[0]][4] if inverse else 0
    nsteps = max(len(steps), 1)
    return {
        "config.parse_ms": (total(pick("config.parse_config")) * ms, "ms"),
        "symmetry.module_s": (total(pick(("symmetry.build_holohedry",
                                          "symmetry.generate_frequency_module"))) * s, "s"),
        "hull.active_set_s": (total(active) * s, "s"),
        "hull.active_set_share": (total(active) / setup_ns, "ratio"),
        "hull.modes": (spans[active[-1]][4], "count"),
        "hull.grid_points": (grid_points, "count"),
        "hull.bytes_per_transform": (grid_points * COMPLEX_BYTES, "bytes"),
        "hull.inverse_ms": (_median([dur[i] for i in inverse]) * ms, "ms"),
        "hull.forward_ms": (_median([dur[i] for i in forward]) * ms, "ms"),
        "hull.inverse_calls_per_step": (len(inverse) / nsteps, "count"),
        "hull.forward_calls_per_step": (len(forward) / nsteps, "count"),
        "hull.transform_share": (total(transforms) / integrate_ns, "ratio"),
        "etd.tables_ms": (dur[tables[0]] * ms, "ms"),
        "ic.ms": (total(pick("phase.ic")) * ms, "ms"),
        "stepper.step_ms": (_median([dur[i] for i in steps]) * ms, "ms"),
        "stepper.step_self_ms": (_median([own[i] for i in steps]) * ms, "ms"),
        "stepper.steps": (len(steps), "count"),
        "stepper.share": (total(steps) / integrate_ns, "ratio"),
        "diagnostics.record_ms": (_median([dur[i] for i in records]) * ms, "ms"),
        "diagnostics.record_self_ms": (_median([own[i] for i in records]) * ms, "ms"),
        "diagnostics.records": (len(records), "count"),
        "diagnostics.record_share": (total(records) / integrate_ns, "ratio"),
        "snapshots.write_ms": (_median([dur[i] for i in writes]) * ms, "ms"),
        "snapshots.writes": (len(writes), "count"),
        "snapshots.csv_write_ms": (total(csv) * ms, "ms"),
        "snapshots.bytes_written": (sum(spans[i][4] for i in writes + csv), "bytes"),
        "trace.spans": (n, "count"),
        "trace.coverage": (1.0 - sum(own[i] for i in pick(PHASE_SPANS)) / wall_ns,
                           "ratio"),
    }


def span_table(spans) -> dict:
    """{span name: [calls, total ms, self ms]} over one traced pass."""
    table = {}
    for (name, *_), d, o in zip(spans, *_durations(spans)):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += d * 1e-6
        row[2] += o * 1e-6
    return table
