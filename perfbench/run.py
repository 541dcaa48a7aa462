"""Benchmark of the quasiflow pseudospectral stepper, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run repeats cold passes of the workload (one process each, see
one_pass.py) for S seconds: it starts another pass while that pass is
expected to end within S, and makes at least MIN_PASSES.
Each pass sets up, integrates a fixed number of steps and writes its
outputs, then runs the correctness gate.  The end-to-end metrics are the
medians over the passes that succeeded.

With --trace 1 the run alternates untraced and traced passes and reports the
per-layer metrics (medians over the traced passes) plus the tracing
overhead, the relative loss of steps per second under tracing.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Host drift and provenance are printed above it and kept,
with every pass, in perfbench/.work/results/.

--smoke validates BENCHMARK.json and runs a tiny variant of every workload,
untraced and traced, in seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import numpy as np

from workloads import SMOKE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "quasiflow"
SPEC = ROOT / "BENCHMARK.json"
WORK = HERE / ".work"

MIN_PASSES = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s
# One BLAS thread per process (nproc is 2 on the reference host); the
# transforms are numpy's single-threaded pocketfft either way.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class HarnessError(RuntimeError):
    """A pass could not be run at all (as opposed to a failed run)."""


def child(args, deadline: float) -> dict:
    env = dict(os.environ, **{v: str(BLAS_THREADS) for v in THREAD_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "one_pass.py"), *map(str, args)],
            capture_output=True, text=True, env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"pass {args} ran past the run's time budget") from None
    if proc.returncode != 0:
        raise HarnessError(f"pass {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- host drift and provenance -------------------------------------------------

def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies over all CPUs, read from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        vals = [int(x) for x in fh.readline().split()[1:9]]
    return vals[7], sum(vals)


def calibrate_ms() -> float:
    """Median time of a fixed pure-numpy FFT, to make host speed visible."""
    a = np.random.default_rng(0).standard_normal((24, 24, 24, 24))
    times = []
    for _ in range(9):
        t = time.perf_counter()
        np.fft.fftn(a)
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="ascii").strip()
    except OSError:
        return ""


def provenance() -> dict:
    cpu = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        suffix = {"Data": "d", "Instruction": "i"}.get(_read(index / "type"), "")
        caches[f"L{_read(index / 'level')}{suffix}"] = _read(index / "size")
    rev = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        rev = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {
        "git_rev": rev, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "cpu": cpu, "caches": caches,
    }


# -- BENCHMARK.json ------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict) -> list[str]:
    """Problems with BENCHMARK.json; empty when it is well formed."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        return [f"top-level keys are {sorted(spec)}, expected {sorted(keys)}"]
    sections = {"workloads": ({"name", "why"}, 2, 8),
                "end_to_end": ({"name", "unit", "better", "bound"}, 1, 16),
                "per_layer": ({"name", "unit", "better"}, 1, 128)}
    names = []
    for section, (fields, lo, hi) in sections.items():
        entries = spec[section]
        if not lo <= len(entries) <= hi:
            problems.append(f"{section} has {len(entries)} entries, allowed {lo} to {hi}")
        for e in entries:
            if set(e) != fields:
                problems.append(f"{section} entry {e} has keys {sorted(e)}")
                continue
            names.append(e["name"])
            if not NAME.fullmatch(e["name"]):
                problems.append(f"bad name {e['name']!r}")
            if "unit" in e and not UNIT.fullmatch(e["unit"]):
                problems.append(f"bad unit {e['unit']!r} for {e['name']}")
            if "better" in e and e["better"] not in ("lower", "higher"):
                problems.append(f"better must be lower or higher for {e['name']}")
            if "bound" in e and not 0 < e["bound"] <= 0.25:
                problems.append(f"bound of {e['name']} must lie in (0, 0.25]")
            if "why" in e and (len(e["why"]) > 200 or "\n" in e["why"]):
                problems.append(f"why of {e['name']} is not one line of at most 200")
    if len(set(names)) != len(names):
        problems.append("a name is used more than once")
    setup = [e for e in spec["end_to_end"] if e.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append(f"workloads must be {sorted(WORKLOADS)}")
    return problems


# -- one run -------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = WORK / f"{name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(workdir, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    host = {"calib_before_ms": calibrate_ms()}
    steal0, total0 = cpu_jiffies()
    if WORKLOADS[name].restart:
        child([name, seed, 0, workdir / "prep", "--prepare"], deadline)

    passes = []
    start = time.monotonic()
    modes = (False, True) if traced else (False,)
    rounds = 0
    while rounds < (1 if traced else MIN_PASSES) or \
            (time.monotonic() - start) * (rounds + 1) / rounds <= seconds:
        rounds += 1
        for mode in modes:
            passdir = workdir / f"pass{len(passes)}"
            passes.append(child([name, seed, int(mode), passdir], deadline))
            if mode and (passdir / "spans.json").exists():
                shutil.copy(passdir / "spans.json", results / f"{workdir.name}-spans.json")
            shutil.rmtree(passdir, ignore_errors=True)
    shutil.rmtree(workdir, ignore_errors=True)

    steal1, total1 = cpu_jiffies()
    host.update(calib_after_ms=calibrate_ms(), steal_jiffies=steal1 - steal0,
                steal_frac=(steal1 - steal0) / max(total1 - total0, 1))
    ok = [p for p in passes if p["ok"]]
    timed = [p for p in ok if not p["traced"]]
    traced_ok = [p for p in ok if p["traced"]]

    def median(values, pick=statistics.median):
        values = list(values)
        return pick(values) if values else 0.0

    if traced:
        entries = spec["per_layer"]
        # median_low keeps each figure one a pass measured, and counts whole
        metrics = {e["name"]: median((p["layers"][e["name"]][0] for p in traced_ok
                                      if e["name"] in p["layers"]), statistics.median_low)
                   for e in entries}
        if timed and traced_ok:
            metrics["trace.overhead"] = 1.0 - (median(p["steps_per_s"] for p in traced_ok)
                                               / median(p["steps_per_s"] for p in timed))
    else:
        entries = spec["end_to_end"]
        metrics = {e["name"]: median(p[e["name"]] for p in timed) for e in entries}
    units = {e["name"]: e["unit"] for e in entries}
    failed = len(passes) - len(ok)
    report = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {"workload": name, "seed": seed, "seconds": seconds, "traced": traced,
              "host": host, "provenance": provenance(), "passes": passes, **report}
    (results / f"{workdir.name}.json").write_text(json.dumps(detail, indent=1))

    print(f"workload {name} seed {seed} trace {int(traced)}: {len(passes)} passes, "
          f"{failed} failed (fail_frac {failed / len(passes):.3g})")
    for p in passes:
        if not p["ok"]:
            print(f"  failed pass: {p.get('error') or p.get('failed_checks')}")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    if traced_ok:
        print("  spans of the last traced pass (calls, total ms, self ms):")
        for span, (calls, total, own) in traced_ok[-1]["span_table"].items():
            print(f"    {span:<40} {calls:>6} {total:>11.3f} {own:>11.3f}")
    print(f"  host: calibration {host['calib_before_ms']:.3f} ms before, "
          f"{host['calib_after_ms']:.3f} ms after; steal {host['steal_jiffies']} jiffies "
          f"({100 * host['steal_frac']:.2f}% of CPU time)")
    print(f"  provenance: {json.dumps(detail['provenance'])}")
    return report


def smoke(spec: dict) -> int:
    """Validate BENCHMARK.json and run a tiny variant of every workload."""
    problems = check_spec(spec)
    deadline = time.monotonic() + RUN_BUDGET_S
    wanted = {e["name"] for e in spec["per_layer"]} - {"trace.overhead"}
    for name, workload in SMOKE.items():
        workdir = WORK / f"smoke-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        if workload.restart:
            child([name, 0, 0, workdir / "prep", "--smoke", "--prepare"], deadline)
        for traced in (0, 1):
            p = child([name, 0, traced, workdir / f"pass{traced}", "--smoke"], deadline)
            if not p["ok"]:
                problems.append(f"{name} trace {traced}: {p.get('error') or p['failed_checks']}")
            elif traced and set(p["layers"]) != wanted:
                problems.append(f"{name}: traced metrics differ from per_layer: "
                                f"{sorted(set(p['layers']) ^ wanted)}")
            elif traced and p["wrappers_left"]:
                problems.append(f"{name}: wrappers left after the traced pass")
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"smoke {name}: done")
    for p in problems:
        print(f"smoke problem: {p}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 0 if not problems else 1


def main(argv=None) -> int:
    if not (SRC / "__init__.py").is_file():
        print(f"error: no quasiflow sources at {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: no {SPEC.name} at {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
