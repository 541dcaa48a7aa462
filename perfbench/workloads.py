"""The benchmark workloads, as quasiflow run configurations.

Each workload is chosen so that one layer does most of its work there and
little in the other (see README.md):

- sh12-recorded: diagnostics records, snapshot and CSV I/O, the snapshot
  read, and in set-up the two active-set builds;
- bruss12-onset: the two-component stepper on cache-resident grids, where
  per-call Python overhead is a large share.

The seed changes only the initial condition: the snapshot a restart reads,
or the critical-mode amplitude.  Mode counts, grids, step counts and record
counts do not depend on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

@dataclass(frozen=True)
class Workload:
    name: str
    keys: dict  # run configuration, as ``key = value`` pairs
    steps: int  # time steps per pass; T = steps * dt
    restart: bool = False  # start from a snapshot made from the seed

    def config_text(self, seed: int, snapshot_path: str | None = None) -> str:
        keys = dict(self.keys, seed=seed, T=repr(self.steps * float(self.keys["dt"])))
        if self.restart:
            keys["ic"] = f"file:{snapshot_path}"
        if keys.get("equation") == "brusselator":
            keys["perturbation"] = repr(critical_amplitude(seed))
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


def critical_amplitude(seed: int) -> float:
    """Seeded amplitude of the critical-orbit perturbation, in [0.5e-6, 1.5e-6)."""
    return 1e-6 * (0.5 + random.Random(seed).random())


def _bruss_onset_B(A=2.0, d1=1.0, d2=4.0, margin=1.05) -> float:
    # closed form B_c = (1 + A*sqrt(d1/d2))^2, cross-checked by turing_analysis
    return margin * (1.0 + A * (d1 / d2) ** 0.5) ** 2


WORKLOADS = {
    w.name: w for w in (
        Workload("sh12-recorded",
                 {"symmetry": "dihedral:12", "equation": "sh", "lam": "0.2", "N": 3,
                  "dt": "0.01", "scheme": "etdrk2", "ic_amplitude": "0.5",
                  "perturbation": "1e-3", "diag_every": 1, "snapshot_every": 10},
                 steps=60, restart=True),
        Workload("bruss12-onset",
                 {"symmetry": "dihedral:12", "equation": "brusselator", "A": "2",
                  "B": repr(_bruss_onset_B()), "d1": "1", "d2": "4", "N": 2,
                  "dt": "0.01", "ic": "steady-plus-critical", "diag_every": 10},
                 steps=800),
    )
}

# Tiny variants for the smoke check and the benchmark's own tests.
SMOKE = {
    name: Workload(w.name, dict(w.keys, N=1), steps=min(w.steps, 12), restart=w.restart)
    for name, w in WORKLOADS.items()
}

# The restart snapshot: the seeded pattern, stepped this far with ETDRK2.
RESTART_PREP_STEPS = 20
