"""Snapshot, CSV, and raster persistence.

A snapshot is a text manifest followed by a raw binary payload:

    quasiflow-snapshot 2
    <key = value lines: the resolved run configuration>
    generator <i> = <17-significant-digit components>
    active_count = <number of modes>
    t = <time>
    step_index = <count>
    ---
    <little-endian float64 pairs, real then imaginary, one pair per active
     mode in lexicographic index order; two such blocks for two components>

Coefficients survive the round trip bit-exactly, the sign of a zero
included, because they never pass through decimal.  A reader without a set
rebuilds the module from the symmetry descriptor and seed wavevector and
cross-checks it against the stored generator decimals; a restart compares
the manifest with the set its run has built instead.
"""

from __future__ import annotations

import io
import os
from dataclasses import fields

import numpy as np

from . import brusselator as br
from . import config as cfgmod
from . import sh
from .diagnostics import DiagnosticsRecord, Trajectory
from .hull import HERMITIAN_TOL, ActiveModeSet, render_image
from .symmetry import build_holohedry, generate_frequency_module

FORMAT_NAME = "quasiflow-snapshot"
FORMAT_VERSION = 2
_SEPARATOR = b"---\n"


class FormatVersionMismatch(ValueError):
    """Snapshot written by an incompatible format revision."""


class CorruptPayload(ValueError):
    """Payload length, payload values or manifest consistency check failed."""


def _manifest_text(state, cfg: cfgmod.RunConfig) -> str:
    active = state.active
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    lines.extend(cfgmod.to_text(cfg).splitlines())
    for i, row in enumerate(active.module.generators):
        lines.append(
            f"generator {i} = " + " ".join(f"{x:.17g}" for x in row)
        )
    lines.append(f"active_count = {len(active)}")
    lines.append(f"t = {state.t:.17g}")
    lines.append(f"step_index = {state.step_index}")
    return "\n".join(lines) + "\n"


def write_snapshot(state, path, cfg: cfgmod.RunConfig | None = None) -> None:
    """Persist a solver state; ``cfg`` defaults to one synthesized from it."""
    if cfg is None:
        cfg = config_from_state(state)
    blob = io.BytesIO()
    blob.write(_manifest_text(state, cfg).encode("ascii"))
    blob.write(_SEPARATOR)
    pairs = np.empty(state.coeffs.shape + (2,), dtype="<f8")
    pairs[..., 0] = state.coeffs.real
    pairs[..., 1] = state.coeffs.imag
    blob.write(pairs.tobytes())
    data = blob.getvalue()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def config_from_state(state) -> cfgmod.RunConfig:
    """Minimal reconstruction config for states not born from a file."""
    active = state.active
    module = active.module
    return cfgmod.RunConfig(
        symmetry=module.holohedry.name,
        T=0.0,
        k0=tuple(float(x) for x in module.k0),
        N=active.N,
        dt=state.dt,
        scheme=state.scheme,
        **state.params.config_keys(),
    ).validate()


def _parse_manifest(text: str):
    lines = text.splitlines()
    if not lines:
        raise CorruptPayload("empty manifest")
    head = lines[0].split()
    if len(head) != 2 or head[0] != FORMAT_NAME:
        raise FormatVersionMismatch(f"not a {FORMAT_NAME} file")
    if not head[1].isdigit() or int(head[1]) != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"format version {head[1]}, this build reads {FORMAT_VERSION}"
        )
    config_lines = []
    generators = {}
    meta = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key.startswith("generator "):
            generators[int(key.split()[1])] = np.array(
                [float(x) for x in raw.split()]
            )
        elif key in ("active_count", "t", "step_index"):
            meta[key] = raw
        else:
            config_lines.append(line)
    missing = [key for key in ("active_count", "t", "step_index") if key not in meta]
    if missing:
        raise CorruptPayload(f"manifest lacks {', '.join(missing)}")
    cfg = cfgmod.parse_config("\n".join(config_lines))
    gen = np.array([generators[i] for i in sorted(generators)])
    return cfg, gen, int(meta["active_count"]), float(meta["t"]), int(meta["step_index"])


def read_snapshot(path, active: ActiveModeSet | None = None):
    """Rebuild the solver state; raises on version or consistency mismatch.

    Without ``active`` the frequency module and the active set are rebuilt
    from the manifest.  A run that has built its set already passes it as
    ``active``: the snapshot's holohedry, its stored generators (exactly)
    and its N must then be the set's, or a ValueError says that the
    snapshot's set is not the run's, and nothing is rebuilt.  Either way the
    manifest's mode count and the payload are checked against the set.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    sep = data.find(_SEPARATOR)
    if sep < 0:
        raise CorruptPayload("missing manifest/payload separator")
    cfg, gen, count, t, step_index = _parse_manifest(
        data[:sep].decode("ascii")
    )
    payload = data[sep + len(_SEPARATOR):]

    if active is None:
        module = generate_frequency_module(
            build_holohedry(cfg.symmetry),
            None if cfg.k0 is None else np.array(cfg.k0, dtype=float),
        )
        if gen.shape != module.generators.shape or not np.allclose(
            gen, module.generators, atol=1e-12, rtol=0.0
        ):
            raise CorruptPayload(
                "stored generators disagree with the rebuilt frequency module"
            )
        active = ActiveModeSet(module, cfg.N)
    elif not (
        np.array_equal(build_holohedry(cfg.symmetry).matrices,
                       active.module.holohedry.matrices)
        and np.array_equal(gen, active.module.generators)
        and cfg.N == active.N
    ):
        raise ValueError(
            f"snapshot's active set ({count} modes, N = {cfg.N}) is not "
            f"the run's ({len(active)} modes, N = {active.N})"
        )
    if len(active) != count:
        raise CorruptPayload(
            f"manifest says {count} active modes, the set has {len(active)}"
        )
    if cfg.equation == "brusselator":
        params = br.BrusselatorParams(A=cfg.A, B=cfg.B, d1=cfg.d1, d2=cfg.d2)
        state_type = br.BrusselatorState
    else:
        params = sh.SHParams(cfg.lam)
        state_type = sh.SolverState
    expected = 16 * count * params.ncomp
    if len(payload) != expected:
        raise CorruptPayload(
            f"payload is {len(payload)} bytes, expected {expected}"
        )
    # complex128 read straight from the pairs keeps the sign of a zero
    coeffs = np.frombuffer(payload, dtype="<c16").reshape(params.ncomp, count).astype(complex)
    if not np.all(np.isfinite(coeffs)):
        raise CorruptPayload("payload holds a non-finite coefficient")
    defect = active.hermitian_defect(coeffs)
    if defect > HERMITIAN_TOL * max(1.0, np.max(np.abs(coeffs))):
        raise CorruptPayload(f"payload is not Hermitian (defect {defect:.3e})")
    state = state_type(active, coeffs, t, params, cfg.scheme, cfg.dt, step_index=step_index)
    return state, cfg


def write_diagnostics_csv(traj: Trajectory, path) -> None:
    """One row per record, 17 significant digits throughout.

    The header is ``DiagnosticsRecord``'s fields in order, less ``step`` and
    less any column that is None in the first record; an empty trajectory
    leaves out the columns whose default is None, the one-component header.
    """
    first = traj.records[0] if traj.records else None
    columns = [f.name for f in fields(DiagnosticsRecord)
               if f.name != "step" and getattr(first, f.name, f.default) is not None]
    rows = [",".join(columns)]
    for rec in traj.records:
        rows.append(",".join(f"{getattr(rec, c):.17g}" for c in columns))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def read_diagnostics_csv(path) -> dict:
    """Columns back as float arrays, keyed by header name."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        body = fh.read()
    if not body.strip():
        return {name: np.empty(0) for name in header}
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return {name: table[:, i] for i, name in enumerate(header)}


def export_raster(active: ActiveModeSet, coeffs: np.ndarray, window, resolution, path) -> None:
    """Binary PGM (P5, maxval 255) of a planar field's coefficients over a square window."""
    pixels = render_image(active, coeffs, window, resolution)
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pixels.tobytes())
