"""Run-configuration parsing, validation ranges, and serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiflow import config
from quasiflow.config import (
    BadValue,
    RunConfig,
    UnknownKey,
    parse_config,
    to_text,
)
from quasiflow.etd import SCHEMES

MINIMAL = "symmetry = dihedral:12\nT = 1\nlam = 0.2\n"


class TestParse:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.symmetry == "dihedral:12"
        assert cfg.T == 1.0
        assert cfg.lam == 0.2
        assert cfg.equation == "sh"
        assert cfg.N == 3
        assert cfg.dt == 0.01
        assert cfg.scheme == "etdrk2"
        assert cfg.dealias == 2
        assert cfg.ic == "quasicrystal"
        assert cfg.ic_amplitude == 0.5
        assert cfg.perturbation == 0.0
        assert cfg.seed == 0
        assert cfg.diag_every == 10
        assert cfg.snapshot_every == 0
        assert cfg.s == 3.0
        assert cfg.output_dir == "out"
        assert cfg.k0 is None
        assert cfg.ic_file is None

    def test_comments_and_blank_lines(self):
        text = (
            "# header comment\n"
            "\n"
            "symmetry = dihedral:12   # trailing comment\n"
            "T=1\n"
            "lam = 0.2\n"
        )
        assert parse_config(text) == parse_config(MINIMAL)

    def test_unknown_key_carries_line_number(self):
        text = MINIMAL + "lamda = 0.3\n"
        with pytest.raises(UnknownKey, match=r"line 4.*lamda"):
            parse_config(text)

    def test_k_max_refused(self):
        # the truncation is the box |m|_inf <= N alone
        with pytest.raises(UnknownKey, match=r"line 4.*K_max"):
            parse_config(MINIMAL + "K_max = inf\n")

    def test_missing_equals(self):
        with pytest.raises(BadValue, match="line 2"):
            parse_config("symmetry = dihedral:12\njust some words\nT = 1\n")

    @pytest.mark.parametrize("drop,needed", [("symmetry", "symmetry"), ("T", "T")])
    def test_required_keys(self, drop, needed):
        text = "".join(
            line + "\n" for line in MINIMAL.splitlines()
            if not line.startswith(drop)
        )
        with pytest.raises(BadValue, match=needed):
            parse_config(text)

    def test_integer_keys_reject_fractions(self):
        with pytest.raises(BadValue, match=r"line 4.*N"):
            parse_config(MINIMAL + "N = 2.5\n")

    def test_integer_keys_accept_integral_floats(self):
        cfg = parse_config(MINIMAL + "N = 2.0\nseed = 1e2\n")
        assert cfg.N == 2 and isinstance(cfg.N, int)
        assert cfg.seed == 100

    def test_unparsable_float(self):
        with pytest.raises(BadValue, match="fast"):
            parse_config(MINIMAL + "dt = fast\n")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("key", sorted(config._INT_KEYS | config._FLOAT_KEYS))
    def test_numeric_keys_refuse_non_finite(self, key, raw):
        # 1e400 overflows to inf, which int() refuses with an OverflowError
        with pytest.raises(BadValue, match=rf"line 4: .*{key} = .*finite"):
            parse_config(MINIMAL + f"{key} = {raw}\n")

    @pytest.mark.parametrize("raw", ["1, 0, 0", "1 0 0", "1.0,0.0,0.0"])
    def test_k0_formats(self, raw):
        cfg = parse_config(MINIMAL + f"k0 = {raw}\n")
        assert cfg.k0 == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("raw", ["", "a b", "1 two 3",
                                     "nan 0", "1 inf", "-inf 0 0", "1e400 0"])
    def test_k0_garbage(self, raw):
        with pytest.raises(BadValue, match="k0"):
            parse_config(MINIMAL + f"k0 = {raw}\n")

    def test_ic_file_form(self):
        cfg = parse_config(MINIMAL + "ic = file:/tmp/x.qcs\n")
        assert cfg.ic == "file"
        assert cfg.ic_file == "/tmp/x.qcs"

    def test_ic_file_empty_path(self):
        with pytest.raises(BadValue, match="empty path"):
            parse_config(MINIMAL + "ic = file:\n")

    def test_last_duplicate_wins(self):
        cfg = parse_config(MINIMAL + "dt = 0.1\ndt = 0.2\n")
        assert cfg.dt == 0.2

    def test_critical_amplitude_resolved_when_omitted(self):
        # steady-plus-critical seeds 1e-6 when no perturbation is given, and
        # exactly the given amplitude otherwise, 0 included
        bruss = ("symmetry = dihedral:12\nT = 1\nequation = brusselator\n"
                 "A = 2\nB = 4.2\nd1 = 1\nd2 = 4\nic = steady-plus-critical\n")
        assert parse_config(bruss).perturbation == 1e-6
        assert parse_config(bruss + "perturbation = 0\n").perturbation == 0.0
        assert parse_config(bruss + "perturbation = 1e-3\n").perturbation == 1e-3
        assert "perturbation = 9.9999999999999995e-07\n" in to_text(parse_config(bruss))
        assert parse_config(MINIMAL).perturbation == 0.0


class TestValidate:
    def test_bad_equation(self):
        with pytest.raises(BadValue, match="equation"):
            parse_config("symmetry = d\nT = 1\nequation = pde\nlam = 1\n")

    def test_bad_scheme(self):
        with pytest.raises(BadValue, match="scheme"):
            parse_config(MINIMAL + "scheme = euler\n")

    def test_bad_ic_kind(self):
        with pytest.raises(BadValue, match="ic"):
            parse_config(MINIMAL + "ic = bump\n")

    def test_sh_needs_lam(self):
        with pytest.raises(BadValue, match="lam"):
            parse_config("symmetry = dihedral:12\nT = 1\n")

    def test_brusselator_reports_missing_parameters(self):
        text = "symmetry = dihedral:12\nT = 1\nequation = brusselator\nA = 2\n"
        with pytest.raises(BadValue, match="B, d1, d2"):
            parse_config(text)

    def test_brusselator_rejects_nonpositive(self):
        text = (
            "symmetry = dihedral:12\nT = 1\nequation = brusselator\n"
            "A = 2\nB = -4\nd1 = 1\nd2 = 4\n"
        )
        with pytest.raises(BadValue, match="positive"):
            parse_config(text)

    def test_brusselator_accepts_etdrk4(self):
        text = (
            "symmetry = dihedral:12\nT = 1\nequation = brusselator\n"
            "A = 2\nB = 4.2\nd1 = 1\nd2 = 4\nscheme = etdrk4\n"
        )
        assert parse_config(text).scheme == "etdrk4"

    @pytest.mark.parametrize("every", [15, 5, 1])
    def test_snapshot_cadence_must_follow_records(self, every):
        # snapshots are taken at records, so 15 with diag_every = 10 would
        # write steps 0, 30, 60, ... instead of every 15th
        with pytest.raises(BadValue, match="multiple of diag_every"):
            parse_config(MINIMAL + f"diag_every = 10\nsnapshot_every = {every}\n")

    @pytest.mark.parametrize("line,msg", [
        ("T = -1", "T"),
        ("dt = 0", "dt"),
        ("N = -1", "N"),
        ("dealias = 1", "dealias"),
        ("dealias = 3", "dealias"),
        ("ic_amplitude = 0", "ic_amplitude"),
        ("ic_amplitude = 1.5", "ic_amplitude"),
        ("perturbation = -1e-3", "perturbation"),
        ("seed = -1", "seed"),
        ("diag_every = 0", "diag_every"),
        ("snapshot_every = -1", "snapshot_every"),
        ("s = 0", "s"),
    ])
    def test_range_violations(self, line, msg):
        # appending works even for keys already in MINIMAL: last value wins
        with pytest.raises(BadValue, match=msg):
            parse_config(MINIMAL + line + "\n")

    def test_large_amplitude_allowed_for_random_ic(self):
        # the (0, 1] window is specific to the pattern seed
        cfg = parse_config(MINIMAL + "ic = random\nic_amplitude = 3.0\n")
        assert cfg.ic_amplitude == 3.0


class TestToText:
    def test_round_trip_minimal(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(to_text(cfg)) == cfg

    def test_skips_absent_parameters(self):
        text = to_text(parse_config(MINIMAL))
        assert "lam = " in text
        assert "A = " not in text and "B = " not in text

    def test_k0_round_trip(self):
        cfg = parse_config(MINIMAL + "k0 = 0.3, 0.7\n")
        assert parse_config(to_text(cfg)).k0 == (0.3, 0.7)

    def test_ic_file_round_trip(self):
        cfg = parse_config(MINIMAL + "ic = file:runs/a/final.qcs\n")
        back = parse_config(to_text(cfg))
        assert back.ic == "file" and back.ic_file == "runs/a/final.qcs"


@st.composite
def run_configs(draw):
    eq = draw(st.sampled_from(config.EQUATIONS))
    kw = dict(
        symmetry=draw(st.sampled_from(["dihedral:8", "dihedral:12", "cyclic:5",
                                       "icosahedral"])),
        T=draw(st.floats(0.0, 100.0)),
        equation=eq,
        N=draw(st.integers(0, 6)),
        dt=draw(st.floats(1e-4, 1.0)),
        perturbation=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2 ** 31)),
        diag_every=draw(st.integers(1, 99)),
        scheme=draw(st.sampled_from(SCHEMES)),
        s=draw(st.floats(0.5, 9.0)),
        output_dir=draw(st.sampled_from(["out", "runs/a", "x_1"])),
    )
    kw["snapshot_every"] = kw["diag_every"] * draw(st.integers(0, 9))
    if eq == "sh":
        kw["lam"] = draw(st.floats(-2.0, 2.0))
        kw["ic"] = draw(st.sampled_from(["quasicrystal", "random"]))
        if kw["ic"] == "quasicrystal":
            kw["ic_amplitude"] = draw(st.floats(0.01, 1.0))
        else:
            kw["ic_amplitude"] = draw(st.floats(0.01, 5.0))
    else:
        kw["A"] = draw(st.floats(0.1, 5.0))
        kw["B"] = draw(st.floats(0.1, 9.0))
        kw["d1"] = draw(st.floats(0.05, 4.0))
        kw["d2"] = draw(st.floats(0.05, 4.0))
        kw["ic"] = "steady-plus-critical"
        kw["ic_amplitude"] = draw(st.floats(0.01, 5.0))
    if draw(st.booleans()):
        dim = draw(st.integers(2, 4))
        kw["k0"] = tuple(
            draw(st.floats(-3.0, 3.0)) for _ in range(dim)
        )
    return RunConfig(**kw).validate()


class TestRoundTripProperty:
    @given(run_configs())
    @settings(max_examples=60, deadline=None)
    def test_parse_inverts_to_text(self, cfg):
        assert parse_config(to_text(cfg)) == cfg
