"""mecheck benchmark: time checks of generated projects as a user runs them.

    python3 bench/run.py --workload java-wide --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout of the repository; mecheck is run from
its sources in src/, nothing is installed.  One run:

1. generates the workload's project from the seed (bench/gen.py) into
   .bench_work/ and removes it at the end;
2. compiles mecheck's sources once, untimed, as an installed copy is;
3. for --seconds, runs checks one after another from a single client that
   waits for each check before starting the next (a closed loop with one
   client).  Every check is a fresh `mecheck --project P --format json
   --no-fail` process, so nothing cached in one process can make the next
   one look faster than it would be for a user.  After each check come
   SETUP_PER_ROUND fresh processes that import mecheck.cli and load the
   built-in rule pack (setup_s), and then one run of bench/calibrate.py;
4. checks each run's reports against the generator's manifest
   (bench/verdict.py).  A run fails if it exits non-zero, prints no valid
   report JSON, or its reports differ from the manifest.

The speed of a CPU of a shared virtual machine drifts by 1.5-2x over
seconds to minutes, CPU time included, so raw wall times of the same code
differ from run to run by more than a regression worth catching.
check_s and setup_s are therefore scaled to a reference speed: each
process's wall time is multiplied by CALIB_REF_S / (the mean wall time of
the two calibration runs around it).  bench/calibrate.py is fixed work
that imports nothing of mecheck, so only the CPU's speed moves it.  The
CPUs drift independently, so the run and all its children are pinned to
one CPU.  The raw times are printed in the summary and, with --trace 1,
as host.check_wall_s and host.calib_s.

With --trace 0 the last line of stdout carries the end-to-end metrics.
With --trace 1 untraced and traced checks alternate (bench/tracing.py);
the last line carries the per-layer metrics of the traced checks (medians
over them) and the tracing overhead against the untraced checks.  Other
lines of stdout are a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import tracing  # noqa: E402
import verdict  # noqa: E402

SETUP_PER_ROUND = 3
# Wall time of bench/calibrate.py that check_s and setup_s are scaled to:
# its median over 117 runs on the pinned CPU of the 2-core host the
# benchmark was defined on.
CALIB_REF_S = 0.76
CHECK_TIMEOUT_S = 120
SETUP_CODE = (
    "import mecheck.cli\n"
    "from mecheck import rulepack\n"
    "rulepack.load_rulepack(rulepack.default_rules_dir())\n"
)
CHECK_CODE = "from mecheck.cli import run; run()"

END_TO_END_UNITS = {
    "check_s": "s",
    "files_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "reports_located": "ratio",
}


def per_layer_names() -> list[str]:
    """Every per-layer metric, in report order (trace.overhead last)."""
    probe = tracing.layer_metrics([], {}, 1.0)
    return [*probe, "host.check_wall_s", "host.calib_s", "trace.overhead"]


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    return "count"


@dataclass
class Check:
    wall_s: float
    rss_mb: float
    problems: list[str]
    reports: list[dict] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    host_s: float = CALIB_REF_S  # calibration wall time around the check

    @property
    def scaled_s(self) -> float:
        return self.wall_s * CALIB_REF_S / self.host_s


def child_env() -> dict[str, str]:
    """mecheck from src/, with a bytecode cache as an installed copy has."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], stdout_path: Path, stderr_path: Path) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHECK_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_check(project: Path, manifest: dict, work: Path, traced: bool) -> Check:
    check_args = ["--project", str(project), "--format", "json", "--no-fail"]
    spans_path = work / "spans.json"
    if traced:
        argv = [sys.executable, str(BENCH / "tracing.py"), "--spans", str(spans_path), *check_args]
    else:
        argv = [sys.executable, "-c", CHECK_CODE, *check_args]
    out_path, err_path = work / "stdout.json", work / "stderr.txt"
    wall, rss, code = run_child(argv, out_path, err_path)
    check = Check(wall, rss, [])
    if code != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
        check.problems.append(f"exit code {code}: " + " | ".join(tail))
        return check
    try:
        check.reports = json.loads(out_path.read_text())["reports"]
    except (ValueError, KeyError, TypeError) as exc:
        check.problems.append(f"no report JSON on stdout: {exc!r}")
        return check
    check.problems = verdict.mismatches(check.reports, manifest)
    if traced:
        trace = json.loads(spans_path.read_text())
        check.layers = tracing.layer_metrics(trace["spans"], trace["counters"], wall)
    return check


def run_ok(argv: list[str], work: Path, what: str) -> float:
    """Wall seconds of a child that must succeed."""
    wall, _, code = run_child(argv, work / "child.out", work / "child.err")
    if code != 0:
        raise RuntimeError(f"{what} failed: " + (work / "child.err").read_text(errors="replace"))
    return wall


def compile_sources(work: Path) -> None:
    """Leave the bytecode cache in src/ as an installed copy's would be,
    so that no timed process pays for compiling the sources."""
    run_ok([sys.executable, "-m", "compileall", "-q", str(SRC)], work, "compileall")


def measure_setup(work: Path, runs: int) -> list[float]:
    """Wall seconds of fresh processes that import the CLI and load the pack."""
    return [run_ok([sys.executable, "-c", SETUP_CODE], work, "setup") for _ in range(runs)]


def calibrate(work: Path) -> float:
    return run_ok([sys.executable, str(BENCH / "calibrate.py")], work, "calibration")


def pin_to_one_cpu() -> int:
    """Run this process, and so every child it starts, on one CPU.  The
    CPUs of a shared virtual machine change speed independently of each
    other, so a calibration run says how fast a check ran only if both ran
    on the same CPU.  The highest-numbered CPU usually serves the fewest
    interrupts."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(checks: list[Check], setup: list[float], manifest: dict) -> dict[str, float]:
    ok = [c for c in checks if not c.problems] or checks
    check_s = median([c.scaled_s for c in ok])
    files = manifest["java_files"] + manifest["xml_files"]
    return {
        "check_s": check_s,
        "files_per_s": files / check_s,
        "setup_s": median(setup),
        "peak_rss_mb": median([c.rss_mb for c in ok]),
        "pass_ratio": sum(1 for c in checks if not c.problems) / len(checks),
        "reports_located": median([verdict.located_share(c.reports) for c in ok]),
    }


def per_layer(traced: list[Check], untraced: list[Check], calibs: list[float]) -> dict[str, float]:
    ok = [c for c in traced if c.layers]
    out = {name: median([c.layers[name] for c in ok]) for name in per_layer_names()[:-3]}
    out["host.check_wall_s"] = median([c.wall_s for c in untraced])
    out["host.calib_s"] = median(calibs)
    # each traced check against the untraced check just before it
    out["trace.overhead"] = median([t.wall_s / u.wall_s for u, t in zip(untraced, traced)])
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Time mecheck checks of a generated project.")
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long to keep checking")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "mecheck" / "cli.py").is_file():
        print(f"run.py: no mecheck sources at {SRC}; run it inside a checkout", file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        files, manifest = gen.generate(args.workload, args.seed)
        project = work / "project"
        gen.write_tree(files, project)
        compile_sources(work)
        untraced: list[Check] = []
        traced: list[Check] = []
        setup_rounds: list[list[float]] = []
        # Start another round only if a round as long as the median one so
        # far still ends within --seconds, so a run never overshoots by a
        # whole check.  Calibration runs bracket every round.
        start = time.perf_counter()
        calibs = [calibrate(work)]
        rounds: list[float] = []
        while not rounds or time.perf_counter() - start + median(rounds) <= args.seconds:
            began = time.perf_counter()
            untraced.append(run_check(project, manifest, work, traced=False))
            if args.trace:
                traced.append(run_check(project, manifest, work, traced=True))
            else:
                setup_rounds.append(measure_setup(work, SETUP_PER_ROUND))
            calibs.append(calibrate(work))
            rounds.append(time.perf_counter() - began)
        if (work / "spans.json").exists():
            shutil.copyfile(work / "spans.json", WORK / f"spans-{args.workload}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    hosts = [(a + b) / 2 for a, b in zip(calibs, calibs[1:])]
    for i, host in enumerate(hosts):
        untraced[i].host_s = host
        if traced:
            traced[i].host_s = host
    setup = [s * CALIB_REF_S / host for host, times in zip(hosts, setup_rounds) for s in times]
    checks = untraced + traced
    failed = [c for c in checks if c.problems]
    for c in failed:
        print("failed run: " + "; ".join(c.problems[:5]), file=sys.stderr)
    if args.trace:
        metrics = per_layer(traced, untraced, calibs)
    else:
        metrics = end_to_end(checks, setup, manifest)

    print(f"python {platform.python_version()}, {os.cpu_count()} cpus, pinned to cpu {cpu}; "
          f"workload {args.workload}, "
          f"seed {args.seed}: {manifest['java_files']} Java + {manifest['xml_files']} XML files, "
          f"{len(checks)} checks ({len(untraced)} untraced, {len(traced)} traced), "
          f"{len(failed)} failed")
    print("untraced checks (s): " + " ".join(f"{c.wall_s:.3f}" for c in untraced))
    print("calibration runs (s): " + " ".join(f"{c:.3f}" for c in calibs))
    print("untraced checks scaled to the reference host (s): "
          + " ".join(f"{c.scaled_s:.3f}" for c in untraced))
    if traced:
        print("traced checks (s): " + " ".join(f"{c.wall_s:.3f}" for c in traced))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
