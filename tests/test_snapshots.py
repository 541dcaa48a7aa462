"""Snapshot, CSV, and raster persistence: round trips and corruption."""

import os

import numpy as np
import pytest

from quasiflow import brusselator as br
from quasiflow import etd, sh, snapshots
from quasiflow.config import parse_config
from quasiflow.etd import SCHEMES
from quasiflow.hull import ActiveModeSet, HullField
from quasiflow.snapshots import (
    CorruptPayload,
    FormatVersionMismatch,
    read_diagnostics_csv,
    read_snapshot,
    write_diagnostics_csv,
    write_snapshot,
)
from quasiflow.symmetry import build_holohedry, generate_frequency_module


@pytest.fixture(scope="module")
def act12():
    module = generate_frequency_module(build_holohedry("dihedral:12"))
    return ActiveModeSet(module, 1)


@pytest.fixture()
def sh_state(act12):
    st = sh.make_state(sh.random_ic(act12, 0.3, seed=7), 0.2, dt=0.01)
    for _ in range(3):
        st = sh.step(st)
    return st


@pytest.fixture()
def bruss_state(act12):
    p = br.BrusselatorParams(A=2.0, B=4.2, d1=1.0, d2=4.0)
    u, v = br.steady_plus_critical_ic(act12, p, (-0.894, 0.447), 1e-3)
    return br.bruss_step(br.make_bruss_state(u, v, p, dt=0.02))


class TestSnapshotRoundTrip:
    def test_sh_bit_exact(self, tmp_path, sh_state):
        path = tmp_path / "s.qcs"
        write_snapshot(sh_state, path)
        back, cfg = read_snapshot(path)
        assert np.array_equal(back.field.coeffs, sh_state.field.coeffs)
        assert back.t == sh_state.t
        assert back.step_index == 3
        assert back.params.lam == 0.2
        assert back.dt == 0.01
        assert back.scheme == "etdrk2"
        assert cfg.symmetry == "dihedral:12"
        assert cfg.N == 1

    def test_bruss_bit_exact(self, tmp_path, bruss_state):
        path = tmp_path / "b.qcs"
        write_snapshot(bruss_state, path)
        back, cfg = read_snapshot(path)
        assert np.array_equal(back.u_field.coeffs, bruss_state.u_field.coeffs)
        assert np.array_equal(back.v_field.coeffs, bruss_state.v_field.coeffs)
        assert back.t == bruss_state.t
        assert back.params == bruss_state.params
        assert cfg.equation == "brusselator"

    def test_signed_zeros_survive(self, tmp_path, act12):
        # set_mode stores conj of the real steady values, so the zero
        # mode's imaginary parts are -0.0; array_equal alone would miss them
        p = br.BrusselatorParams(A=2.0, B=4.2, d1=1.0, d2=4.0)
        state = br.make_bruss_state(*br.steady_ic(act12, p), p)
        assert np.signbit(state.coeffs.imag).any()
        write_snapshot(state, tmp_path / "b.qcs")
        back, _ = read_snapshot(tmp_path / "b.qcs")
        assert back.coeffs.tobytes() == state.coeffs.tobytes()
        assert back.coeffs.flags.writeable

    def test_runs_set_is_reused(self, tmp_path, sh_state, act12):
        write_snapshot(sh_state, tmp_path / "s.qcs")
        rebuilt, _ = read_snapshot(tmp_path / "s.qcs")
        reused, _ = read_snapshot(tmp_path / "s.qcs", act12)
        assert reused.active is act12
        assert reused.coeffs.tobytes() == rebuilt.coeffs.tobytes()

    def test_no_temp_file_left(self, tmp_path, sh_state):
        write_snapshot(sh_state, tmp_path / "s.qcs")
        assert os.listdir(tmp_path) == ["s.qcs"]

    def test_explicit_config_echoed(self, tmp_path, sh_state):
        from quasiflow.config import to_text

        cfg = snapshots.config_from_state(sh_state)
        cfg = parse_config(to_text(cfg).replace("T = 0", "T = 50"))
        write_snapshot(sh_state, tmp_path / "s.qcs", cfg)
        _, back = read_snapshot(tmp_path / "s.qcs")
        assert back == cfg
        assert back.T == 50.0

    def test_manifest_is_readable_text(self, tmp_path, sh_state):
        path = tmp_path / "s.qcs"
        write_snapshot(sh_state, path)
        head = path.read_bytes().split(b"---\n")[0].decode("ascii")
        lines = head.splitlines()
        assert lines[0] == "quasiflow-snapshot 2"
        assert "symmetry = dihedral:12" in lines
        assert any(line.startswith("generator 0 = ") for line in lines)
        assert "active_count = 49" in lines

    def test_manifest_config_block_is_to_text(self, tmp_path, sh_state):
        from quasiflow.config import to_text

        cfg = snapshots.config_from_state(sh_state)
        path = tmp_path / "s.qcs"
        write_snapshot(sh_state, path, cfg)
        head = path.read_bytes().split(b"---\n")[0].decode("ascii")
        block = head.split("\n", 1)[1].split("generator 0 = ")[0]
        assert block == to_text(cfg)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("equation", ["sh", "bruss"])
def test_restart_matches_uninterrupted_run(tmp_path, act12, equation, scheme):
    # a run to T equals, bit for bit, a run to T/2, a snapshot and a restart
    # for T/2 more; complex Hermitian noise makes the pairing nontrivial
    rng = np.random.default_rng(10)
    noise = [act12.hermitian(1e-2 * (rng.normal(size=len(act12))
                                     + 1j * rng.normal(size=len(act12)))) for _ in range(2)]
    dt = 1.0 / 64.0
    if equation == "sh":
        state = sh.make_state(HullField(act12, noise[0]), 0.2, scheme=scheme, dt=dt)
    else:
        p = br.BrusselatorParams(A=2.0, B=4.2, d1=1.0, d2=4.0)
        u, v = br.steady_plus_critical_ic(act12, p, (-0.894, 0.447), 1e-3)
        u.coeffs += noise[0]
        v.coeffs += noise[1]
        state = br.make_bruss_state(u, v, p, dt=dt, scheme=scheme)
    full, _ = etd.integrate(state, 0.5, etd.step)
    half, _ = etd.integrate(state, 0.25, etd.step)
    path = tmp_path / "half.qcs"
    write_snapshot(half, path)
    back, _ = read_snapshot(path)
    assert back.coeffs.tobytes() == half.coeffs.tobytes()
    assert (back.t, back.step_index) == (half.t, half.step_index) == (0.25, 16)
    rest, _ = etd.integrate(back, 0.25, etd.step)
    assert rest.step_index == full.step_index == 32
    assert rest.coeffs.tobytes() == full.coeffs.tobytes()


def _written(tmp_path, state) -> bytes:
    path = tmp_path / "x.qcs"
    write_snapshot(state, path)
    return path.read_bytes()


class TestCorruption:
    def test_truncated_payload(self, tmp_path, sh_state):
        data = _written(tmp_path, sh_state)
        (tmp_path / "t.qcs").write_bytes(data[:-8])
        with pytest.raises(CorruptPayload, match="bytes"):
            read_snapshot(tmp_path / "t.qcs")

    def test_padded_payload(self, tmp_path, sh_state):
        data = _written(tmp_path, sh_state)
        (tmp_path / "t.qcs").write_bytes(data + b"\x00" * 16)
        with pytest.raises(CorruptPayload, match="bytes"):
            read_snapshot(tmp_path / "t.qcs")

    def test_future_version(self, tmp_path, sh_state):
        data = _written(tmp_path, sh_state)
        data = data.replace(b"quasiflow-snapshot 2", b"quasiflow-snapshot 3", 1)
        (tmp_path / "t.qcs").write_bytes(data)
        with pytest.raises(FormatVersionMismatch, match="version 3"):
            read_snapshot(tmp_path / "t.qcs")

    def test_version_1_refused(self, tmp_path, sh_state):
        # version 1 manifests carried the wavevector cap, K_max = inf; the
        # header check refuses them before the config block is parsed
        data = _written(tmp_path, sh_state)
        data = data.replace(b"quasiflow-snapshot 2\n", b"quasiflow-snapshot 1\n", 1)
        data = data.replace(b"\ndt = ", b"\nK_max = inf\ndt = ", 1)
        assert b"\nK_max = inf\n" in data
        (tmp_path / "t.qcs").write_bytes(data)
        with pytest.raises(FormatVersionMismatch, match="version 1"):
            read_snapshot(tmp_path / "t.qcs")

    def test_not_a_snapshot(self, tmp_path):
        (tmp_path / "t.qcs").write_bytes(b"hello world\n---\n")
        with pytest.raises(FormatVersionMismatch):
            read_snapshot(tmp_path / "t.qcs")

    def test_missing_separator(self, tmp_path, sh_state):
        data = _written(tmp_path, sh_state)
        (tmp_path / "t.qcs").write_bytes(data.replace(b"---\n", b"===\n", 1))
        with pytest.raises(CorruptPayload, match="separator"):
            read_snapshot(tmp_path / "t.qcs")

    def test_tampered_generator(self, tmp_path, sh_state):
        data = _written(tmp_path, sh_state)
        head, _, payload = data.partition(b"---\n")
        lines = head.decode("ascii").splitlines()
        lines = [
            "generator 0 = 0.5 0.5" if l.startswith("generator 0 = ") else l
            for l in lines
        ]
        (tmp_path / "t.qcs").write_bytes(
            "\n".join(lines).encode("ascii") + b"\n---\n" + payload
        )
        with pytest.raises(CorruptPayload, match="generators disagree"):
            read_snapshot(tmp_path / "t.qcs")

    def test_non_finite_payload(self, tmp_path, sh_state):
        head, sep, payload = _written(tmp_path, sh_state).partition(b"---\n")
        pairs = np.frombuffer(payload, dtype="<f8").copy()
        pairs[5] = np.nan
        (tmp_path / "t.qcs").write_bytes(head + sep + pairs.tobytes())
        with pytest.raises(CorruptPayload, match="non-finite"):
            read_snapshot(tmp_path / "t.qcs")

    def test_non_hermitian_payload(self, tmp_path, sh_state):
        head, sep, payload = _written(tmp_path, sh_state).partition(b"---\n")
        pairs = np.frombuffer(payload, dtype="<f8").copy()
        pairs[2] += 1.0  # real part of mode 1; its partner is left alone
        (tmp_path / "t.qcs").write_bytes(head + sep + pairs.tobytes())
        with pytest.raises(CorruptPayload, match="not Hermitian"):
            read_snapshot(tmp_path / "t.qcs")

    def test_non_hermitian_second_component(self, tmp_path, bruss_state, act12):
        # every component is checked: a skewed v is refused with u intact
        head, sep, payload = _written(tmp_path, bruss_state).partition(b"---\n")
        pairs = np.frombuffer(payload, dtype="<f8").copy()
        pairs[2 * len(act12) + 2] += 1.0  # real part of v's mode 1
        (tmp_path / "t.qcs").write_bytes(head + sep + pairs.tobytes())
        with pytest.raises(CorruptPayload, match="not Hermitian"):
            read_snapshot(tmp_path / "t.qcs")

    @pytest.mark.parametrize("key", ["t", "step_index", "active_count"])
    def test_missing_manifest_key(self, tmp_path, sh_state, key):
        head, sep, payload = _written(tmp_path, sh_state).partition(b"---\n")
        lines = [l for l in head.decode("ascii").splitlines()
                 if not l.startswith(f"{key} = ")]
        (tmp_path / "t.qcs").write_bytes("\n".join(lines).encode("ascii") + b"\n" + sep + payload)
        with pytest.raises(CorruptPayload, match=f"lacks {key}"):
            read_snapshot(tmp_path / "t.qcs")

    def test_wrong_mode_count(self, tmp_path, sh_state):
        data = _written(tmp_path, sh_state)
        (tmp_path / "t.qcs").write_bytes(
            data.replace(b"\nN = 1\n", b"\nN = 2\n", 1)
        )
        with pytest.raises(CorruptPayload, match="active modes"):
            read_snapshot(tmp_path / "t.qcs")


class TestReadWithTheRunsSet:
    """``read_snapshot(path, active)`` checks the manifest against ``active``."""

    @pytest.mark.parametrize("symmetry,k0,N", [
        ("dihedral:12", None, 2), ("cyclic:12", None, 1), ("dihedral:8", None, 1),
        ("dihedral:12", (np.cos(0.1), np.sin(0.1)), 1),
    ], ids=["N", "holohedry", "order", "k0"])
    def test_another_set_refused(self, tmp_path, sh_state, symmetry, k0, N):
        write_snapshot(sh_state, tmp_path / "s.qcs")
        module = generate_frequency_module(build_holohedry(symmetry),
                                           None if k0 is None else np.array(k0))
        with pytest.raises(ValueError, match=r"snapshot's active set \(49 modes, N = 1\) "
                                             r"is not the run's"):
            read_snapshot(tmp_path / "s.qcs", ActiveModeSet(module, N))

    def test_tampered_mode_count(self, tmp_path, sh_state, act12):
        data = _written(tmp_path, sh_state)
        (tmp_path / "t.qcs").write_bytes(
            data.replace(b"active_count = 49\n", b"active_count = 48\n", 1)
        )
        with pytest.raises(CorruptPayload, match="48 active modes"):
            read_snapshot(tmp_path / "t.qcs", act12)

    def test_payload_checks_still_run(self, tmp_path, sh_state, act12):
        head, sep, payload = _written(tmp_path, sh_state).partition(b"---\n")
        pairs = np.frombuffer(payload, dtype="<f8").copy()
        (tmp_path / "short.qcs").write_bytes(head + sep + payload[:-8])
        pairs[5] = np.nan
        (tmp_path / "nan.qcs").write_bytes(head + sep + pairs.tobytes())
        pairs[5] = 0.0
        pairs[2] += 1.0
        (tmp_path / "skew.qcs").write_bytes(head + sep + pairs.tobytes())
        for name, match in [("short", "bytes, expected"), ("nan", "non-finite"),
                            ("skew", "not Hermitian")]:
            with pytest.raises(CorruptPayload, match=match):
                read_snapshot(tmp_path / f"{name}.qcs", act12)


class TestCSV:
    def test_one_component_header(self, tmp_path, act12):
        st = sh.make_state(sh.random_ic(act12, 0.2, seed=3), 0.2, dt=0.01)
        _, traj = sh.integrate(st, 0.1, diag_every=5)
        write_diagnostics_csv(traj, tmp_path / "d.csv")
        first = (tmp_path / "d.csv").read_bytes().split(b"\n")[0]
        assert first == (
            b"t,l2,l1,hs,energy,rhs_l2,grad_hull_sq,sym_drift,min_u,max_u"
        )

    def test_two_component_header(self, tmp_path, bruss_state):
        _, traj = br.bruss_integrate(bruss_state, 0.04, diag_every=1)
        write_diagnostics_csv(traj, tmp_path / "d.csv")
        first = (tmp_path / "d.csv").read_bytes().split(b"\n")[0]
        assert first.endswith(b",min_v,max_v")
        assert first == (
            b"t,l2,l1,hs,energy,rhs_l2,grad_hull_sq,sym_drift,min_u,max_u,min_v,max_v"
        )

    def test_values_round_trip_exactly(self, tmp_path, act12):
        st = sh.make_state(sh.random_ic(act12, 0.2, seed=3), 0.2, dt=0.01)
        _, traj = sh.integrate(st, 0.3, diag_every=10)
        write_diagnostics_csv(traj, tmp_path / "d.csv")
        cols = read_diagnostics_csv(tmp_path / "d.csv")
        for name in ("t", "l2", "energy", "sym_drift"):
            assert np.array_equal(cols[name], traj.column(name))

    def test_empty_trajectory(self, tmp_path):
        from quasiflow.diagnostics import Trajectory

        write_diagnostics_csv(Trajectory([], dt=0.01), tmp_path / "d.csv")
        text = (tmp_path / "d.csv").read_text()
        assert text.count("\n") == 1
        assert text == "t,l2,l1,hs,energy,rhs_l2,grad_hull_sq,sym_drift,min_u,max_u\n"
        cols = read_diagnostics_csv(tmp_path / "d.csv")
        assert len(cols["t"]) == 0

    def test_single_record(self, tmp_path, act12):
        st = sh.make_state(sh.random_ic(act12, 0.2, seed=3), 0.2, dt=0.01)
        _, traj = sh.integrate(st, 0.0, diag_every=10)
        write_diagnostics_csv(traj, tmp_path / "d.csv")
        cols = read_diagnostics_csv(tmp_path / "d.csv")
        assert cols["t"].shape == (1,)
        assert cols["t"][0] == 0.0


class TestRaster:
    def test_header_and_size(self, tmp_path, act12):
        f = sh.random_ic(act12, 0.3, seed=2)
        snapshots.export_raster(act12, f.coeffs, (-10.0, 10.0), 32, tmp_path / "r.pgm")
        data = (tmp_path / "r.pgm").read_bytes()
        assert data.startswith(b"P5\n32 32\n255\n")
        assert len(data) == len(b"P5\n32 32\n255\n") + 32 * 32

    def test_constant_field_mid_gray(self, tmp_path, act12):
        f = np.zeros(len(act12), dtype=complex)
        act12.set_mode(f, np.zeros(4, dtype=int), 2.5)
        snapshots.export_raster(act12, f, (-5.0, 5.0), 16, tmp_path / "r.pgm")
        data = (tmp_path / "r.pgm").read_bytes()
        assert data == b"P5\n16 16\n255\n" + bytes([128]) * 256

    def test_full_dynamic_range(self, tmp_path, act12):
        f = sh.quasicrystal_ic(act12, 0.2)
        snapshots.export_raster(act12, f.coeffs, (-20.0, 20.0), 64, tmp_path / "r.pgm")
        body = (tmp_path / "r.pgm").read_bytes()[len(b"P5\n64 64\n255\n"):]
        assert min(body) == 0 and max(body) == 255
