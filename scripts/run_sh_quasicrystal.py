#!/usr/bin/env python3
"""Evolve a twelvefold pattern from the critical-ring seed and save outputs.

Writes diagnostics.csv, final.qcs, and a raster of the hull function
restricted to physical space into the output directory.
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from quasiflow import diagnostics, sh, snapshots
from quasiflow.hull import ActiveModeSet
from quasiflow.symmetry import build_holohedry, generate_frequency_module


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", type=float, default=0.2)
    ap.add_argument("--N", type=int, default=3)
    ap.add_argument("--T", type=float, default=50.0)
    ap.add_argument("--dt", type=float, default=0.01)
    ap.add_argument("--perturbation", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="runs/sh12")
    args = ap.parse_args()

    module = generate_frequency_module(build_holohedry("dihedral:12"))
    active = ActiveModeSet(module, args.N)
    ic = sh.quasicrystal_ic(active, args.lam, 0.5, args.perturbation, args.seed)
    state = sh.make_state(ic, args.lam, dt=args.dt)
    print(f"{len(active)} active modes, marching to T = {args.T}")
    final, traj = sh.integrate(state, args.T, diag_every=10)

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    snapshots.write_diagnostics_csv(traj, outdir / "diagnostics.csv")
    snapshots.write_snapshot(final, outdir / "final.qcs")
    snapshots.export_raster(final.active, final.coeffs[0], (-40.0, 40.0), 512,
                            outdir / "final.pgm")

    l2 = traj.column("l2")
    print(f"l2: start {l2[0]:.6f}, final {l2[-1]:.6f}, "
          f"ball radius {np.sqrt(args.lam):.6f}")
    print(f"symmetry drift max {np.max(traj.column('sym_drift')):.3e}")
    mono, ident = diagnostics.check_lyapunov(traj)
    print(mono.line())
    print(f"wrote {outdir}/diagnostics.csv, final.qcs, final.pgm")


if __name__ == "__main__":
    main()
