"""End-to-end verification of every advertised quantitative property.

``run_all`` executes the full battery on freshly built runs and returns one
CheckReport per property, in a stable order with numbered names.  Runs are
shared across checks where the properties refer to the same trajectory, so
the whole suite takes about 15 s on a 2-vCPU host with one BLAS thread.

Nothing here is adaptive: thresholds, horizons, seeds, and truncations are
frozen so that a pass is reproducible bit-for-bit.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import replace

import numpy as np

from . import brusselator as br
from . import diagnostics, etd, sh, snapshots
from .diagnostics import CheckReport
from .hull import ActiveModeSet, convolve_direct, l1_hs_bound_constant
from .symmetry import GOLDEN, build_holohedry, generate_frequency_module

# seed on an icosahedral vertex axis: its orbit is the 12-element vertex set
# whose integer span has rank 6
VERTEX_K0 = np.array([0.0, 1.0, GOLDEN]) / np.sqrt(1.0 + GOLDEN ** 2)
DESK_N = 3
DT = 0.01


def _twelvefold_active(N: int = DESK_N) -> ActiveModeSet:
    module = generate_frequency_module(build_holohedry("dihedral:12"))
    return ActiveModeSet(module, N)


def _icosahedral_vertex_active() -> ActiveModeSet:
    module = generate_frequency_module(build_holohedry("icosahedral"), VERTEX_K0)
    return ActiveModeSet(module, 1)


def _pass_report(name: str, value: float) -> CheckReport:
    """A reported-but-not-asserted quantity; tolerance infinite by design."""
    return CheckReport(name, value, 0.0, np.inf)


def dt_ladder(state: etd.EtdState, T: float, dts) -> list[float]:
    """Final-state errors at T for each dt, against the state's scheme at min(dts)/64.

    Every rung, and the reference, steps ``state`` with its own dt to T with
    no intermediate records; the error is the l2 distance of the stacked
    final coefficients from the reference's.
    """
    def final(dt):
        fin, _ = etd.integrate(replace(state, dt=dt), T, etd.step, diag_every=10 ** 9)
        return fin.coeffs

    ref = final(min(dts) / 64)
    return [float(np.linalg.norm(final(dt) - ref)) for dt in dts]


def growth_rate(state: etd.EtdState, T: float, t_fit: float) -> float:
    """Least-squares slope of log|a_e0| over t >= t_fit, from a run to T.

    a_e0 is the first component's coefficient on the first generator,
    sampled every 10 steps; seeded on the critical orbit it grows at that
    orbit's linear rate once the other eigendirections have died out.  The
    run takes whole steps only, so a T off the step grid ends at the last
    whole step before it.
    """
    e0 = np.zeros(state.active.rank, dtype=int)
    e0[0] = 1
    i = state.active.position(e0)
    ts, amps = [state.t], [abs(state.coeffs[0, i])]
    for k in range(1, int(np.floor(T / state.dt + 1e-9)) + 1):
        state = etd.step(state)
        if k % 10 == 0:
            ts.append(state.t)
            amps.append(abs(state.coeffs[0, i]))
    ts, amps = np.array(ts), np.array(amps)
    mask = ts >= t_fit
    return float(np.polyfit(ts[mask], np.log(amps[mask]), 1)[0])


def run_all(progress=None) -> list:
    reports = []

    def add(rep: CheckReport, name: str | None = None):
        # a check function names its report; the battery's row name replaces it
        if name is not None:
            rep = replace(rep, name=name)
        reports.append(rep)
        if progress is not None:
            progress(rep.line())

    act = _twelvefold_active()

    # -- shared supercritical run: lam = 0.2, pattern IC, T = 50 ------------
    # Recorded every step: the dissipation-identity check compares finite
    # differences of the descent functional against the instantaneous
    # decay rate, and the early harmonic transient is only resolved at the
    # stepping cadence.
    lam = 0.2
    ic = sh.quasicrystal_ic(act, lam, relative_amplitude=0.5)
    state = sh.make_state(ic, lam, dt=DT)
    _, traj_sup = sh.integrate(state, 50.0, diag_every=1)

    # 1. exponential decay at lam = -0.5
    dec_state = sh.make_state(sh.random_ic(act, 0.1, seed=1), -0.5, dt=DT)
    _, traj_dec = sh.integrate(dec_state, 8.0, diag_every=10)
    add(diagnostics.check_decay_negative_lambda(traj_dec, -0.5), "01-exponential-decay")

    # 2. polynomial decay at lam = 0
    zero_state = sh.make_state(sh.quasicrystal_ic(act, 0.09, 1.0), 0.0, dt=DT)
    _, traj_zero = sh.integrate(zero_state, 100.0, diag_every=10)
    add(diagnostics.check_decay_zero_lambda(traj_zero), "02-polynomial-decay")

    # 3. absorbing ball: invariance from inside, entry from outside
    add(diagnostics.check_absorbing_ball(traj_sup, lam), "03a-ball-invariance")
    big_state = sh.make_state(
        sh.random_ic(act, 3.0 * np.sqrt(lam), seed=2), lam, dt=DT
    )
    _, traj_big = sh.integrate(big_state, 50.0, diag_every=10)
    add(diagnostics.check_absorbing_ball(traj_big, lam), "03b-ball-entry")

    # 4. branch bounds: sup already covered by 03a; assert the infimum and
    # report the Sobolev-to-l2 ratio without asserting it
    l2 = traj_sup.column("l2")
    inf_ratio = float(np.min(l2) / np.sqrt(lam))
    add(CheckReport("04a-branch-lower-bound", 0.05 - inf_ratio,
                    traj_sup.times[np.argmin(l2)], 0.0))
    hs_ratio = float(np.max(traj_sup.column("hs") / l2))
    add(_pass_report("04b-sobolev-ratio-reported", hs_ratio))

    # 5. separation from constants
    add(diagnostics.check_separation(traj_sup, 0.1 * np.sqrt(lam)), "05-separation")

    # 6. Lyapunov functional: monotone descent and the dissipation identity
    mono, ident = diagnostics.check_lyapunov(traj_sup)
    add(mono, "06a-lyapunov-monotonicity")
    add(ident, "06b-lyapunov-identity")

    # 7. mass inequality for three parameter signs
    for tag, tr, lm in (("a", traj_dec, -0.5), ("b", traj_zero, 0.0),
                        ("c", traj_sup, lam)):
        add(diagnostics.check_energy_inequality(tr, lm), f"07{tag}-mass-inequality-lam={lm:g}")

    # 8. gradient growth bound to T = 20
    early = diagnostics.Trajectory(
        [r for r in traj_sup.records if r.t <= 20.0 + 1e-9],
        dt=traj_sup.dt,
    )
    add(diagnostics.check_h1_growth(early, lam), "08-gradient-growth")

    # 9. summability controlled by the Sobolev norm
    add(diagnostics.check_l1_control(traj_sup, l1_hs_bound_constant(act, 3.0)), "09-l1-control")

    # 10. the equations' dealiased products equal brute-force convolutions
    mod4 = generate_frequency_module(build_holohedry("dihedral:4"))
    act4 = ActiveModeSet(mod4, 2)
    rng = np.random.default_rng(3)
    n = len(act4)
    fu = act4.hermitian(rng.normal(size=n) + 1j * rng.normal(size=n))
    fv = act4.hermitian(rng.normal(size=n) + 1j * rng.normal(size=n))
    grids = act4.grid_values(np.stack((fu, fv)))
    cubic_err = float(np.max(np.abs(
        -sh.SHParams(lam).nonlinear(grids[:1], act4)[0] - convolve_direct(act4, fu, fu, fu)
    )))
    # N_v = -u^2 v: the feed A enters N_u only
    p10 = br.BrusselatorParams(A=2.0, B=4.2, d1=1.0, d2=4.0)
    uuv = -p10.nonlinear(grids, act4)[1]
    uuv_err = float(np.max(np.abs(uuv - convolve_direct(act4, fu, fu, fv))))
    worst = max(cubic_err, uuv_err)
    add(CheckReport("10-product-oracle", worst, 0.0, 1e-12))

    # 11. stepper convergence orders: both schemes on a twelvefold SH run,
    # and ETDRK4 on the Brusselator's coupled block just above onset
    act1 = ActiveModeSet(act.module, 1)
    order_ic = sh.quasicrystal_ic(act1, 0.3, 0.5, 1e-3, seed=2)
    onset = br.turing_analysis(2.0, 1.0, 4.0)  # critical ring at |k| = 1
    p_grow = br.BrusselatorParams(A=2.0, B=1.05 * onset.B_c, d1=1.0, d2=4.0)
    bruss_ic = br.steady_plus_critical_ic(act1, p_grow, onset.critical_eigenvector, 1e-2)
    for state, floor, name in (
        (sh.make_state(order_ic, 0.3), 1.9, "11a-order-etdrk2"),
        (sh.make_state(order_ic, 0.3, scheme="etdrk4"), 3.8, "11b-order-etdrk4"),
        (br.make_bruss_state(*bruss_ic, p_grow, scheme="etdrk4"), 3.8,
         "11c-order-etdrk4-brusselator"),
    ):
        errs = dt_ladder(state, 1.0, (0.1, 0.05, 0.025))
        order = float(min(np.log2(errs[i] / errs[i + 1]) for i in range(2)))
        add(CheckReport(name, floor - order, 0.0, 0.0))

    # 12. symmetry preservation over 10^3 steps, planar and spatial
    drift12 = float(np.max(traj_sup.column("sym_drift")))
    add(CheckReport("12a-symmetry-drift-twelvefold", drift12, traj_sup.times[-1], 1e-10))
    act_ico = _icosahedral_vertex_active()
    ico_state = sh.make_state(
        sh.quasicrystal_ic(act_ico, lam, 0.5, 1e-3, seed=4), lam, dt=DT
    )
    for _ in range(1000):
        ico_state = sh.step(ico_state)
    drift_ico = act_ico.symmetry_drift(ico_state.coeffs)
    add(CheckReport("12b-symmetry-drift-icosahedral", drift_ico, ico_state.t, 1e-10))

    # 13. quasicrystal classification at t = 10, noise-perturbed IC so all
    # active modes start populated
    noisy = sh.quasicrystal_ic(act, lam, 0.5, perturbation=1e-3, seed=0)
    cls_state, _ = sh.integrate(
        sh.make_state(noisy, lam, dt=DT), 10.0, diag_every=10 ** 9
    )
    cls = diagnostics.classify_quasicrystal(
        act, cls_state.coeffs[0], eps_grid=np.geomspace(1e-10, 1e-2, 17), M=2.0, r=0.5
    )
    add(CheckReport("13a-classification-rank-gap", 0.0 if cls.condition_ii else 1.0, 10.0, 0.0))
    ok_iii = cls.condition_iii and cls.best_eps > 1e-10
    add(CheckReport("13b-classification-covering", -cls.best_eps if ok_iii else 1.0, 10.0, 0.0))

    # 14. onset analysis against the scan oracle
    rep14 = br.turing_analysis(2.0, 0.25, 1.0)
    scan_err = max(abs(rep14.B_c_scan - 4.0) / 4.0,
                   abs(rep14.k_c_scan - 2.0) / 2.0)
    add(CheckReport("14a-onset-reference", scan_err, 0.0, 1e-8))
    ev = np.array(rep14.critical_eigenvector)
    want = np.array([-2.0, 1.0]) / np.sqrt(5.0)
    angle = float(np.arccos(np.clip(abs(ev @ want), 0.0, 1.0)))
    add(CheckReport("14b-onset-eigenvector", angle, 0.0, 1e-6))
    rng = np.random.default_rng(11)
    worst_triple = 0.0
    for _ in range(20):
        A = rng.uniform(0.5, 3.0)
        d1 = rng.uniform(0.05, 2.0)
        d2 = rng.uniform(0.05, 2.0)
        r20 = br.turing_analysis(A, d1, d2)
        closed = (1.0 + A * np.sqrt(d1 / d2)) ** 2
        worst_triple = max(worst_triple, abs(r20.B_c_scan - closed) / closed)
    add(CheckReport("14c-onset-random-triples", worst_triple, 0.0, 1e-8))

    # 15. two-component dynamics: fixed point, onset growth, positivity
    p_steady = br.BrusselatorParams(A=2.0, B=4.2, d1=1.0, d2=4.0)
    st = br.make_bruss_state(*br.steady_ic(act1, p_steady), p_steady, dt=DT)
    fin, _ = br.bruss_integrate(st, 10.0, diag_every=100)
    steady_err = max(
        *np.abs(fin.coeffs[:, act1.zero_position] - (2.0, 2.1)).tolist(),
        *np.sort(np.abs(fin.coeffs), axis=-1)[:, -2].tolist(),
    )
    add(CheckReport("15a-steady-state-fixed", steady_err, 10.0, 1e-12))

    predicted = float(np.max(np.linalg.eigvals(
        br.dispersion_matrix(p_grow, 1.0)).real))
    u, v = br.steady_plus_critical_ic(act1, p_grow,
                                      onset.critical_eigenvector, 1e-6)
    rate = growth_rate(br.make_bruss_state(u, v, p_grow, dt=DT), 40.0, 20.0)
    rate_err = abs(rate - predicted) / abs(predicted)
    add(CheckReport("15b-onset-growth-rate", rate_err, 40.0, 0.05))

    pst = br.make_bruss_state(*br.steady_ic(act1, p_steady), p_steady, dt=DT)
    bump = np.zeros(len(act1), dtype=complex)
    act1.set_mode(bump, (1, 0, 0, 0), 0.05)
    pst.coeffs[0] += act1.symmetrize(bump)
    pfin, _ = br.bruss_integrate(pst, 10.0, diag_every=10)
    min_u, min_v = br.positivity_check(pfin)
    worst_min = min(min_u, min_v)
    add(CheckReport("15c-positivity", -worst_min, 10.0, 1e-6))

    # 16. exact group algebra and the crystallographic restriction
    algebra_ok = True
    for name in ("dihedral:8", "dihedral:12", "icosahedral"):
        hol = build_holohedry(name)
        mod = generate_frequency_module(
            hol, VERTEX_K0 if name == "icosahedral" else None)
        reps = mod.integer_reps
        for i in range(hol.order):
            for j in range(hol.order):
                k = hol.product_index(i, j)
                if not np.array_equal(reps[i] @ reps[j], reps[k]):
                    algebra_ok = False
    witness_ok = True
    for q, rank in ((2, 1), (4, 2), (6, 2)):
        m = generate_frequency_module(build_holohedry(f"dihedral:{q}"))
        witness_ok &= m.uniformly_discrete and m.rank == rank
    for q in (8, 10, 12):
        m = generate_frequency_module(build_holohedry(f"dihedral:{q}"))
        witness_ok &= (not m.uniformly_discrete) and m.rank == 4
    m = generate_frequency_module(build_holohedry("icosahedral"), VERTEX_K0)
    witness_ok &= (not m.uniformly_discrete) and m.rank == 6
    ok16 = algebra_ok and witness_ok
    add(CheckReport("16-group-algebra", 0.0 if ok16 else 1.0, 0.0, 0.0))

    # 17. persistence: bit-exact round trips and exact byte layouts
    io_ok, io_detail = _io_checks()
    add(CheckReport(f"17-io-{io_detail}", 0.0 if io_ok else 1.0, 0.0, 0.0))

    return reports


def _io_checks():
    """Round-trip and layout checks; returns (ok, short tag)."""
    act1 = _twelvefold_active(1)
    with tempfile.TemporaryDirectory() as tmp:
        # one-component snapshot
        f = sh.random_ic(act1, 0.3, seed=7)
        st = sh.make_state(f, 0.2, dt=0.01)
        st = sh.step(sh.step(st))
        path = os.path.join(tmp, "a.qcs")
        snapshots.write_snapshot(st, path)
        back, _ = snapshots.read_snapshot(path)
        if not np.array_equal(back.coeffs, st.coeffs):
            return False, "sh-roundtrip"
        if back.t != st.t or back.step_index != 2:
            return False, "sh-metadata"

        # two-component snapshot
        p = br.BrusselatorParams(A=2.0, B=4.2, d1=1.0, d2=4.0)
        bst = br.make_bruss_state(*br.steady_ic(act1, p), p, dt=0.01)
        bst = br.bruss_step(bst)
        bpath = os.path.join(tmp, "b.qcs")
        snapshots.write_snapshot(bst, bpath)
        bback, _ = snapshots.read_snapshot(bpath)
        if not np.array_equal(bback.coeffs, bst.coeffs):
            return False, "bruss-roundtrip"

        # CSV header and numeric round trip
        _, traj = sh.integrate(sh.make_state(f, 0.2, dt=0.01), 0.2,
                               diag_every=5)
        cpath = os.path.join(tmp, "d.csv")
        snapshots.write_diagnostics_csv(traj, cpath)
        with open(cpath, "rb") as fh:
            header = fh.readline()
        if header != b"t,l2,l1,hs,energy,rhs_l2,grad_hull_sq,sym_drift,min_u,max_u\n":
            return False, "csv-header"
        cols = snapshots.read_diagnostics_csv(cpath)
        if not np.array_equal(cols["l2"], traj.column("l2")):
            return False, "csv-roundtrip"

        # PGM layout for a constant field
        const = np.zeros(len(act1), dtype=complex)
        act1.set_mode(const, np.zeros(4, dtype=int), 1.0)
        ppath = os.path.join(tmp, "c.pgm")
        snapshots.export_raster(act1, const, (-5.0, 5.0), 16, ppath)
        with open(ppath, "rb") as fh:
            data = fh.read()
        if data != b"P5\n16 16\n255\n" + bytes([128]) * 256:
            return False, "pgm-layout"
    return True, "roundtrips"
