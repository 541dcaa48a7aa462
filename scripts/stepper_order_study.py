#!/usr/bin/env python3
"""dt-halving error tables for the exponential integrators.

Errors are final-state coefficient distances against a same-scheme dt/64
reference at time T: ETDRK2 and ETDRK4 on a twelvefold Swift-Hohenberg
pattern run, and ETDRK4 on the Brusselator's coupled linear block at
B = 1.05 B_c (A = 2, d1 = 1, d2 = 4) from the steady state plus a
critical-orbit mode of amplitude 1e-2.
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from quasiflow import brusselator as br
from quasiflow import sh
from quasiflow.hull import ActiveModeSet
from quasiflow.symmetry import build_holohedry, generate_frequency_module
from quasiflow.verification import dt_ladder


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", type=float, default=0.3)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--N", type=int, default=1)
    ap.add_argument("--dts", type=float, nargs="+",
                    default=[0.1, 0.05, 0.025])
    args = ap.parse_args()

    module = generate_frequency_module(build_holohedry("dihedral:12"))
    active = ActiveModeSet(module, args.N)
    ic = sh.quasicrystal_ic(active, args.lam, 0.5, 1e-3, seed=2)

    onset = br.turing_analysis(2.0, 1.0, 4.0)
    params = br.BrusselatorParams(A=2.0, B=1.05 * onset.B_c, d1=1.0, d2=4.0)
    bruss_ic = br.steady_plus_critical_ic(active, params, onset.critical_eigenvector, 1e-2)

    for equation, state in (
        ("sh", sh.make_state(ic, args.lam)),
        ("sh", sh.make_state(ic, args.lam, scheme="etdrk4")),
        ("brusselator", br.make_bruss_state(*bruss_ic, params, scheme="etdrk4")),
    ):
        errs = dt_ladder(state, args.T, args.dts)
        print(f"{equation} {state.scheme}:")
        prev = None
        for dt, err in zip(args.dts, errs):
            order = "" if prev is None else f"  order {np.log2(prev / err):.4f}"
            print(f"  dt = {dt:<8g} err = {err:.6e}{order}")
            prev = err


if __name__ == "__main__":
    main()
