"""Line-oriented run configuration: ``key = value`` pairs, # comments.

The parameter space is flat, so the format is too.  Every field of the
resolved configuration is written back out by ``to_text``, which makes the
echo in an output directory reparseable and the run reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .etd import SCHEMES

EQUATIONS = ("sh", "brusselator")
IC_KINDS = ("quasicrystal", "random", "steady-plus-critical")


class UnknownKey(ValueError):
    """Config line names a key that does not exist."""


class BadValue(ValueError):
    """Config value failed to parse or violates a documented range."""


@dataclass
class RunConfig:
    symmetry: str
    T: float
    equation: str = "sh"
    lam: float | None = None
    A: float | None = None
    B: float | None = None
    d1: float | None = None
    d2: float | None = None
    k0: tuple | None = None
    N: int = 3
    dt: float = 0.01
    scheme: str = "etdrk2"
    # kept readable for older configs and snapshots; 2 is the only value
    dealias: int = 2
    ic: str = "quasicrystal"
    ic_amplitude: float = 0.5
    perturbation: float = 0.0
    seed: int = 0
    diag_every: int = 10
    snapshot_every: int = 0
    s: float = 3.0
    output_dir: str = "out"
    ic_file: str | None = field(default=None, repr=False)

    def validate(self):
        if self.equation not in EQUATIONS:
            raise BadValue(f"equation must be one of {EQUATIONS}")
        if self.scheme not in SCHEMES:
            raise BadValue(f"scheme must be one of {SCHEMES}")
        if self.ic != "file" and self.ic not in IC_KINDS:
            raise BadValue(f"ic must be one of {IC_KINDS} or file:<path>")
        if self.equation == "sh":
            if self.lam is None:
                raise BadValue("sh runs need lam")
        else:
            missing = [n for n in ("A", "B", "d1", "d2") if getattr(self, n) is None]
            if missing:
                raise BadValue(f"brusselator runs need {', '.join(missing)}")
            if min(self.A, self.B, self.d1, self.d2) <= 0:
                raise BadValue("brusselator parameters must be positive")
        if not (self.T >= 0):
            raise BadValue("T must be nonnegative")
        if not (self.dt > 0):
            raise BadValue("dt must be positive")
        if self.N < 0:
            raise BadValue("N must be nonnegative")
        if self.dealias != 2:
            # products are always computed on the smallest alias-free grid
            raise BadValue(f"dealias = {self.dealias} is not supported; the only value is 2")
        if not (0 < self.ic_amplitude <= 1) and self.equation == "sh" \
                and self.ic == "quasicrystal":
            raise BadValue("ic_amplitude must lie in (0, 1] for the pattern seed")
        if self.ic_amplitude <= 0:
            raise BadValue("ic_amplitude must be positive")
        if self.perturbation < 0:
            raise BadValue("perturbation must be nonnegative")
        if self.seed < 0:
            raise BadValue("seed must be nonnegative")
        if self.diag_every < 1:
            raise BadValue("diag_every must be at least 1")
        if self.snapshot_every < 0:
            raise BadValue("snapshot_every must be nonnegative")
        if self.snapshot_every % self.diag_every:
            raise BadValue("snapshot_every must be a multiple of diag_every "
                           "(snapshots are taken at records)")
        if self.s <= 0:
            raise BadValue("s must be positive")
        return self


_INT_KEYS = {"N", "seed", "diag_every", "snapshot_every", "dealias"}
_FLOAT_KEYS = {"T", "lam", "A", "B", "d1", "d2", "dt",
               "ic_amplitude", "perturbation", "s"}
_STR_KEYS = {"symmetry", "equation", "scheme", "output_dir"}
_KNOWN = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | {"k0", "ic"}


def _finite(raw: str) -> float:
    # nan, +-inf and overflowing literals such as 1e400 are refused
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError
    return value


def _parse_scalar(key: str, raw: str, lineno: int):
    try:
        if key in _INT_KEYS:
            as_float = _finite(raw)
            if as_float != int(as_float):
                raise ValueError
            return int(as_float)
        if key in _FLOAT_KEYS:
            return _finite(raw)
    except ValueError:
        kind = "integer" if key in _INT_KEYS else "number"
        raise BadValue(f"line {lineno}: cannot parse {key} = {raw!r}; "
                       f"expected a finite {kind}") from None
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises UnknownKey or BadValue with line numbers."""
    seen = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise BadValue(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KNOWN:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")
        if key == "k0":
            try:
                parts = raw.replace(",", " ").split()
                seen["k0"] = tuple(_finite(p) for p in parts)
                if not seen["k0"]:
                    raise ValueError
            except ValueError:
                raise BadValue(f"line {lineno}: cannot parse k0 = {raw!r}; "
                               "expected finite numbers") from None
        elif key == "ic":
            if raw.startswith("file:"):
                seen["ic"] = "file"
                seen["ic_file"] = raw[len("file:"):].strip()
                if not seen["ic_file"]:
                    raise BadValue(f"line {lineno}: empty path in ic = {raw!r}")
            else:
                seen["ic"] = raw
        else:
            seen[key] = _parse_scalar(key, raw, lineno)
    if "symmetry" not in seen:
        raise BadValue("missing required key: symmetry")
    if "T" not in seen:
        raise BadValue("missing required key: T")
    if seen.get("ic") == "steady-plus-critical":
        # the critical-orbit amplitude when none is given; resolved here, so
        # that the echo names the amplitude that ran
        seen.setdefault("perturbation", 1e-6)
    try:
        cfg = RunConfig(**seen)
    except TypeError as exc:
        raise BadValue(str(exc)) from None
    return cfg.validate()


def to_text(cfg: RunConfig) -> str:
    """Serialize every resolved field; parse_config(to_text(c)) == c."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.name == "ic_file":
            continue
        if f.name == "ic" and value == "file":
            lines.append(f"ic = file:{cfg.ic_file}")
            continue
        if f.name == "k0":
            lines.append("k0 = " + " ".join(f"{v:.17g}" for v in value))
            continue
        if isinstance(value, float):
            lines.append(f"{f.name} = {value:.17g}")
        else:
            lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
