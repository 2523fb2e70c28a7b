"""Seeded benchmark of the `sfr match` and `sfr train-demo` commands.

    python3 perfbench/run.py --workload match-large-dict --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and drives `sfr.cli.main` in-process
on inputs generated from --seed under `.perfbench_work/`. Whole commands are
repeated for about --seconds; each command's outputs are checked outside its
timed span, and a command whose checks fail counts as failed. The last line of
standard output is one JSON object: with --trace 0 the end-to-end metrics of
untraced commands, with --trace 1 the per-layer metrics of traced commands
(see tracing.py) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"  # inputs and outputs; removed when a run ends
# Set-up is timed this many times per run, spread between its commands: one
# set-up takes well under a second, shorter than the host's slow and fast
# phases, so back-to-back repeats would all land in the same phase.
SETUP_SAMPLES = (5, 9)  # at least, at most
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_and_import_sfr() -> None:
    """Pin BLAS to one thread, then import `sfr` from this checkout's `src/`.

    Unpinned OpenBLAS spread a 50x100 match over both cores (4.9 CPU-s for
    2.05 s of wall time) and made wall time depend on what else the host ran.
    The variables must be set before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "sfr" / "__init__.py").is_file():
        raise SystemExit(f"error: no sfr package under {src}; run from a source checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import sfr

    if Path(sfr.__file__).resolve().parent != (src / "sfr").resolve():
        raise SystemExit(f"error: imported sfr from {sfr.__file__}, not from {src}")


@dataclass
class Command:
    """One timed command: its wall time, its problems and its per-layer metrics."""

    seconds: float
    problems: list[str]
    layers: dict | None = None


def call_cli(argv: list[str]) -> tuple[int | None, str, list[str]]:
    """`sfr.cli.main(argv)` with its output captured: (exit code, stdout, problems)."""
    from sfr.cli import main

    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        try:
            return main(argv), stdout.getvalue(), []
        except Exception:
            return None, stdout.getvalue(), [traceback.format_exc()]


def run_command(workload, work: Path, index: int, tracer=None, tamper=None) -> Command:
    """Run one CLI command, timed, then check its outputs (`tamper`, used by
    the self-test, edits them first)."""
    out = work / f"out{index}"
    argv = workload.argv(out)
    gc.collect()
    with tracer if tracer is not None else nullcontext():
        start = time.perf_counter()
        rc, stdout, problems = call_cli(argv)
        wall_s = time.perf_counter() - start
    if tamper is not None:
        tamper(out)
    command = Command(wall_s, problems or workload.check(out, rc, stdout, index))
    if tracer is not None:
        rankings = out / "rankings.csv"
        command.layers = tracer.metrics(wall_s, rankings.stat().st_size if rankings.is_file() else 0)
    shutil.rmtree(out, ignore_errors=True)
    return command


def warm_up(work: Path) -> None:
    """One tiny checked match, so that lazy imports and first calls are paid in set-up."""
    from workloads import TINY_WORKLOADS, make_workload

    tiny = make_workload(TINY_WORKLOADS["match-small-dict"], 0)
    tiny.prepare(work / "warmup")
    out = work / "warmup" / "out"
    rc, stdout, problems = call_cli(tiny.argv(out))
    problems = problems or tiny.check(out, rc, stdout, 0)
    if problems:
        raise RuntimeError(f"warm-up match failed: {problems}")


IMPORT_TIMER = """
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import sfr
print(time.perf_counter() - start)
"""


def set_up_once(workload, work: Path) -> float:
    """Time one set-up in full, in seconds: a fresh interpreter importing
    `sfr` (with numpy and scipy), the seeded inputs written under `work`, and
    the warm-up. Only the import is timed inside that interpreter, not its
    start-up."""
    code = IMPORT_TIMER.format(src=str(ROOT / "src"))
    import_s = float(subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True).stdout)
    start = time.perf_counter()
    workload.prepare(work)
    warm_up(work)
    return import_s + time.perf_counter() - start


def measure(name: str, seed: int, seconds: float, trace: bool, specs=None) -> dict:
    """One benchmark run; returns the result object that run.py prints."""
    pin_blas_and_import_sfr()
    from tracing import Tracer, absent_metrics
    from workloads import WORKLOADS, make_workload

    specs = specs or WORKLOADS
    if name not in specs:
        raise SystemExit(f"error: unknown workload {name!r}; choose from {', '.join(specs)}")
    workload = make_workload(specs[name], seed)
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    try:
        work = scratch / "inputs"
        setups = [set_up_once(workload, work)]

        def sample_setup():
            again = scratch / f"setup{len(setups)}"
            setups.append(set_up_once(make_workload(specs[name], seed), again))
            shutil.rmtree(again)

        # Whole rounds (one command, or an untraced and a traced one) until
        # another round would end after --seconds; at least one round.
        plain, traced, rounds = [], [], []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for tracer in ([None, Tracer()] if trace else [None]):
                command = run_command(workload, work, len(plain) + len(traced), tracer)
                (traced if tracer else plain).append(command)
                print(
                    f"[{name}] command {len(plain) + len(traced) - 1} ({'traced' if tracer else 'untraced'}): "
                    f"{command.seconds:.3f} s: {'FAILED ' + '; '.join(command.problems) if command.problems else 'ok'}",
                    file=sys.stderr,
                )
            if len(setups) < SETUP_SAMPLES[1]:
                sample_setup()
            rounds.append(time.perf_counter() - round_start)
            if time.perf_counter() - start + statistics.median(rounds) > seconds:
                break
        while len(setups) < SETUP_SAMPLES[0]:
            sample_setup()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run's directory is still there

    def median_seconds(commands):
        passed = [c.seconds for c in commands if not c.problems]
        return statistics.median(passed or [c.seconds for c in commands])

    if trace:
        layers = [c.layers for c in traced]
        metrics = {
            key: {"value": statistics.median(layer[key][0] for layer in layers), "unit": unit}
            for key, (_, unit) in layers[0].items()
        }
        metrics["trace.command_s"] = {"value": median_seconds(traced), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": median_seconds(traced) - median_seconds(plain), "unit": "s"}
        missing = absent_metrics(metrics)
        if missing:
            print(f"[{name}] absent per-layer metrics: {', '.join(missing)}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "command_s": {"value": median_seconds(plain), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    failed = sum(bool(c.problems) for c in plain + traced)
    return {"correct": failed == 0, "attempted": len(plain) + len(traced), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
