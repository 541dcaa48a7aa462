"""The example scripts run end to end on tiny problems."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# script name -> arguments, given the output directory
ARGUMENTS = {
    "run_sh_quasicrystal.py": lambda out: ["--N", "1", "--T", "0.1", "--out", str(out)],
    "run_brusselator_onset.py": lambda out: ["--N", "1", "--T", "1"],
    "stepper_order_study.py": lambda out: ["--N", "1", "--T", "0.2", "--dts", "0.1", "0.05"],
}


def test_every_script_is_covered():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(ARGUMENTS)


@pytest.mark.parametrize("script", sorted(ARGUMENTS))
def test_script_exits_cleanly(script, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *ARGUMENTS[script](out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if script == "stepper_order_study.py":
        assert "brusselator etdrk4:" in proc.stdout
    if script == "run_sh_quasicrystal.py":
        assert sorted(p.name for p in out.iterdir()) == \
            ["diagnostics.csv", "final.pgm", "final.qcs"]
