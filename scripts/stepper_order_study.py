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

    def final_coeffs(equation, scheme, dt):
        if equation == "sh":
            st = sh.make_state(ic.copy(), args.lam, scheme=scheme, dt=dt)
            fin, _ = sh.integrate(st, args.T, diag_every=10 ** 9)
        else:
            st = br.make_bruss_state(*bruss_ic, params, dt=dt, scheme=scheme)
            fin, _ = br.bruss_integrate(st, args.T, diag_every=10 ** 9)
        return fin.coeffs

    for equation, scheme in (("sh", "etdrk2"), ("sh", "etdrk4"),
                             ("brusselator", "etdrk4")):
        ref = final_coeffs(equation, scheme, min(args.dts) / 64)
        errs = [float(np.linalg.norm(final_coeffs(equation, scheme, dt) - ref))
                for dt in args.dts]
        print(f"{equation} {scheme}:")
        prev = None
        for dt, err in zip(args.dts, errs):
            order = "" if prev is None else f"  order {np.log2(prev / err):.4f}"
            print(f"  dt = {dt:<8g} err = {err:.6e}{order}")
            prev = err


if __name__ == "__main__":
    main()
