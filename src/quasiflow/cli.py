"""Command-line surface: simulate, analyze onset, render, verify.

Exit codes: 0 success, 1 failure (bad config, blow-up, failed verification),
2 usage errors from the argument parser.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import brusselator as br
from . import config as cfgmod
from . import sh, snapshots
from .diagnostics import NonFiniteState
from .hull import ActiveModeSet, HullField
from .symmetry import RelationSearchExhausted, build_holohedry, generate_frequency_module


def _build_active(cfg: cfgmod.RunConfig) -> ActiveModeSet:
    k0 = None if cfg.k0 is None else np.asarray(cfg.k0, dtype=float)
    module = generate_frequency_module(build_holohedry(cfg.symmetry), k0)
    return ActiveModeSet(module, cfg.N)


def _restart_coeffs(cfg: cfgmod.RunConfig, active: ActiveModeSet, equation: str):
    """The snapshot's stacked coefficients, refused unless it was run on ``active``.

    ``read_snapshot`` compares the snapshot's module and N with the run's
    set, not the config text: a snapshot written without a config names its
    k0 explicitly where a run config may not.
    """
    state, snap_cfg = snapshots.read_snapshot(cfg.ic_file, active)
    if snap_cfg.equation != equation:
        raise cfgmod.BadValue(f"snapshot holds a {snap_cfg.equation} state, not {equation}")
    return state.coeffs


def _sh_initial_field(cfg: cfgmod.RunConfig, active: ActiveModeSet):
    if cfg.ic == "quasicrystal":
        return sh.quasicrystal_ic(
            active, cfg.lam, cfg.ic_amplitude, cfg.perturbation, cfg.seed
        )
    if cfg.ic == "random":
        return sh.random_ic(active, cfg.ic_amplitude, cfg.seed)
    if cfg.ic == "file":
        return HullField(active, _restart_coeffs(cfg, active, "sh")[0])
    raise cfgmod.BadValue(f"ic {cfg.ic!r} not available for sh runs")


def _bruss_initial_fields(cfg: cfgmod.RunConfig, active: ActiveModeSet, params):
    if cfg.ic == "steady-plus-critical":
        onset = br.turing_analysis(cfg.A, cfg.d1, cfg.d2)
        return br.steady_plus_critical_ic(active, params, onset.critical_eigenvector,
                                          cfg.perturbation)
    if cfg.ic == "file":
        u, v = _restart_coeffs(cfg, active, "brusselator")
        return HullField(active, u), HullField(active, v)
    raise cfgmod.BadValue(f"ic {cfg.ic!r} not available for brusselator runs")


def _snapshot_hook(outdir: Path, cfg: cfgmod.RunConfig):
    every = cfg.snapshot_every

    def hook(state, rec):
        if every > 0 and rec.step % every == 0:
            snapshots.write_snapshot(
                state, outdir / f"snapshot_{rec.step:08d}.qcs", cfg
            )

    return hook


def _run_simulation(cfg: cfgmod.RunConfig, outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.txt").write_text(cfgmod.to_text(cfg), encoding="ascii")
    active = _build_active(cfg)
    hook = _snapshot_hook(outdir, cfg)
    if cfg.equation == "sh":
        field = _sh_initial_field(cfg, active)
        state = sh.make_state(field, cfg.lam, scheme=cfg.scheme, dt=cfg.dt)
        integrate = sh.integrate
    else:
        params = br.BrusselatorParams(A=cfg.A, B=cfg.B, d1=cfg.d1, d2=cfg.d2)
        u, v = _bruss_initial_fields(cfg, active, params)
        state = br.make_bruss_state(u, v, params, dt=cfg.dt, scheme=cfg.scheme)
        integrate = br.bruss_integrate
    try:
        final, traj = integrate(
            state, cfg.T, hooks=(hook,), diag_every=cfg.diag_every, s=cfg.s
        )
    except NonFiniteState as exc:
        # keep the records taken before the blow-up
        snapshots.write_diagnostics_csv(exc.trajectory, outdir / "diagnostics.csv")
        raise
    snapshots.write_diagnostics_csv(traj, outdir / "diagnostics.csv")
    snapshots.write_snapshot(final, outdir / "final.qcs", cfg)
    print(f"wrote {outdir}/diagnostics.csv ({len(traj)} records) and final.qcs")
    return 0


def _cmd_simulate(args) -> int:
    cfg = cfgmod.parse_config(Path(args.config).read_text(encoding="ascii"))
    outdir = Path(args.output) if args.output else Path(cfg.output_dir)
    return _run_simulation(cfg, outdir)


def _cmd_turing(args) -> int:
    rep = br.turing_analysis(args.A, args.d1, args.d2)
    for line in rep.lines():
        print(line)
    return 0


def _cmd_render(args) -> int:
    state, _ = snapshots.read_snapshot(args.snapshot)
    # the first component: the pattern, or the Brusselator's activator
    snapshots.export_raster(
        state.active, state.coeffs[0],
        (args.window[0], args.window[1]), args.resolution, args.out,
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    from . import verification

    reports = verification.run_all(progress=print)
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiflow",
        description="pseudospectral pattern dynamics on quasiperiodic hulls",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="run a config of either equation")
    p.add_argument("--config", required=True, help="path to key = value config")
    p.add_argument("--output", default=None, help="override output directory")

    p = sub.add_parser("turing", help="onset analysis for a parameter triple")
    p.add_argument("--A", type=float, required=True)
    p.add_argument("--d1", type=float, required=True)
    p.add_argument("--d2", type=float, required=True)

    p = sub.add_parser("render", help="rasterize a snapshot to PGM")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=float, nargs=2, default=(-20.0, 20.0))
    p.add_argument("--resolution", type=int, default=512)

    sub.add_parser("verify", help="run the full verification suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.subcommand == "simulate":
            return _cmd_simulate(args)
        if args.subcommand == "turing":
            return _cmd_turing(args)
        if args.subcommand == "render":
            return _cmd_render(args)
        if args.subcommand == "verify":
            return _cmd_verify(args)
    except (OSError, ValueError, NonFiniteState, OverflowError, br.NoBracket,
            RelationSearchExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
