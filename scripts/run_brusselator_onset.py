#!/usr/bin/env python3
"""Locate the Turing threshold, then watch the critical mode grow past it.

Prints the onset analysis, runs the planar twelvefold system slightly above
threshold from a seeded critical perturbation, and compares the measured
exponential growth rate of the critical mode against the dispersion
eigenvalue.
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from quasiflow import brusselator as br
from quasiflow.hull import ActiveModeSet
from quasiflow.symmetry import build_holohedry, generate_frequency_module
from quasiflow.verification import growth_rate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    # d1 = 1, d2 = 4 puts the critical ring exactly on the unit generators
    ap.add_argument("--A", type=float, default=2.0)
    ap.add_argument("--d1", type=float, default=1.0)
    ap.add_argument("--d2", type=float, default=4.0)
    ap.add_argument("--margin", type=float, default=1.05,
                    help="B as a multiple of B_c")
    ap.add_argument("--T", type=float, default=40.0)
    ap.add_argument("--N", type=int, default=1)
    args = ap.parse_args()

    onset = br.turing_analysis(args.A, args.d1, args.d2)
    for line in onset.lines():
        print(line)
    print(onset.note)

    params = br.BrusselatorParams(A=args.A, B=args.margin * onset.B_c,
                                  d1=args.d1, d2=args.d2)
    predicted = float(np.max(np.linalg.eigvals(
        br.dispersion_matrix(params, onset.k_c ** 2)).real))

    module = generate_frequency_module(build_holohedry("dihedral:12"))
    active = ActiveModeSet(module, args.N)
    u, v = br.steady_plus_critical_ic(active, params,
                                      onset.critical_eigenvector, 1e-6)
    # fit past T/2: the transient from the stable eigendirection has died
    rate = growth_rate(br.make_bruss_state(u, v, params, dt=0.01), args.T, args.T / 2)
    print(f"B = {params.B:.6f} ({args.margin:g} B_c)")
    print(f"critical-mode growth rate: measured {rate:.6f}, "
          f"dispersion {predicted:.6f}, "
          f"rel err {abs(rate - predicted) / abs(predicted):.2e}")


if __name__ == "__main__":
    main()
