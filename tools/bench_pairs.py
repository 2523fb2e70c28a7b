"""Paired benchmark runs of two checkouts, for a before/after claim.

    python3 tools/bench_pairs.py BASE HEAD --workload W --pairs N --seconds S --first-seed K

Runs `perfbench/run.py --workload W --seed K+p-1 --seconds S --trace 0` once
in each checkout for pair p = 1..N, alternating which side goes first: the
base on odd pairs, the head on even ones, so that a slow or fast phase of the
host falls on both sides. Each run is a fresh process in its own checkout,
and this script imports nothing from either tree; it reads the end-to-end
metrics and the direction in which each is better from HEAD's
`BENCHMARK.json`.

Per metric it prints each side's median and quartiles over the pairs, in
how many pairs the head was better, and its verdict (see `verdict`); per
side, how many commands were attempted and how many failed. A run that exits
non-zero or prints no JSON result is counted as a failed run and leaves its
pair out of the metrics.
The last line of standard output is the summary as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The JSON result of one `perfbench/run.py` run in checkout, or None if
    the run failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run failed in {checkout} (exit {proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"run in {checkout} printed no JSON result", file=sys.stderr)
        return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the
    sorted values; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(metric: dict, complete: int) -> str:
    """The reading of one metric's summary over `complete` pairs, by the rule
    for claiming a gain and for reporting other metrics in a small sandbox;
    `bound` is the metric's bound from BENCHMARK.json:

    - "gain": the head won at least nine tenths of the pairs, and its median
      is better than the base's by more than the base's quartile spread;
    - "worse": the head's median is worse than the base's by more than
      `bound`, a share of the base median;
    - "unresolved": the base's own quartile spread is wider than `bound`
      times its median, and the head did not read better in every pair;
    - "unchanged": none of these.
    """
    base, head, bound = metric["base"], metric["head"], metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1
    gain = sign * (base["median"] - head["median"])
    spread = base["q3"] - base["q1"]
    if 10 * metric["head_wins"] >= 9 * complete and gain > spread:
        return "gain"
    if -gain > bound * abs(base["median"]):
        return "worse"
    if spread > bound * abs(base["median"]) and metric["head_wins"] < complete:
        return "unresolved"
    return "unchanged"


def summarize(pairs: list[tuple[dict | None, dict | None]], metrics: list[dict]) -> dict:
    """The summary of paired runs: pairs holds one (base, head) pair of
    `perfbench/run.py` results per pair (None for a failed run), metrics the
    end-to-end entries of BENCHMARK.json (name, better and bound).

    Only pairs where both runs gave a result count towards the metrics; the
    head wins a pair when its value is strictly better."""
    complete = [(b, h) for b, h in pairs if b is not None and h is not None]
    summary: dict = {"pairs": len(pairs), "complete_pairs": len(complete), "metrics": {}, "runs": {}}
    for metric in metrics if complete else []:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        values = {side: [r[i]["metrics"][name]["value"] for r in complete] for i, side in enumerate(("base", "head"))}
        summary["metrics"][name] = entry = {
            "unit": complete[0][0]["metrics"][name]["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            **{side: dict(zip(("q1", "median", "q3"), quartiles(v))) for side, v in values.items()},
            "head_wins": sum(sign * (h - b) < 0 for b, h in zip(values["base"], values["head"])),
        }
        entry["verdict"] = verdict(entry, len(complete))
    for i, side in enumerate(("base", "head")):
        results = [pair[i] for pair in pairs]
        summary["runs"][side] = {
            "failed_runs": sum(r is None for r in results),
            "attempted": sum(r["attempted"] for r in results if r is not None),
            "failed": sum(r["failed"] for r in results if r is not None),
        }
    return summary


def format_summary(summary: dict) -> str:
    lines = [f"{summary['complete_pairs']} of {summary['pairs']} pairs complete"]
    for name, m in summary["metrics"].items():
        lines.append(f"{name} ({m['unit']}, {m['better']} is better): head better in {m['head_wins']} of "
                     f"{summary['complete_pairs']} pairs")
        for side in ("base", "head"):
            q = m[side]
            lines.append(f"  {side}: median {q['median']:.4g}, quartiles {q['q1']:.4g}-{q['q3']:.4g}")
        lines.append(f"  verdict: {m['verdict']} (bound {m['bound']:.4g} of the base median)")
    for side, r in summary["runs"].items():
        lines.append(f"{side}: {r['failed']} of {r['attempted']} commands failed, {r['failed_runs']} runs failed")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((args.head / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for p in range(1, args.pairs + 1):
        seed = args.first_seed + p - 1
        order = ("base", "head") if p % 2 else ("head", "base")
        result = {side: run_once(getattr(args, side), args.workload, seed, args.seconds) for side in order}
        pairs.append((result["base"], result["head"]))
        print(f"pair {p} (seed {seed}, {order[0]} first): " + ", ".join(
            f"{side} {r['metrics']['command_s']['value']:.3f} s" if r else f"{side} failed"
            for side, r in zip(("base", "head"), pairs[-1])), file=sys.stderr)
    summary = summarize(pairs, metrics)
    print(format_summary(summary))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
