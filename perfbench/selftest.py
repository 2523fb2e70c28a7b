"""Self-test of the benchmark, at tiny sizes and in well under a minute:

    python3 perfbench/selftest.py

1. Every workload runs untraced and traced through the same code as a real
   run, passes its checks, reports exactly the metrics BENCHMARK.json names,
   and its per-layer counts repeat exactly on a second seed.
2. The checks are not vacuous: a rankings.csv listing one entry twice, an
   r perturbed by 1e-6 (s kept consistent and ordered, so that only the
   independent recomputation can see it), and non-zero exit codes must each
   make the command fail.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def _rewrite_rankings(out: Path, edit) -> None:
    path = out / "rankings.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    rows = edit([row.split(",") for row in rows])
    path.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n", encoding="utf-8")


def duplicate_entry(out: Path) -> None:
    """The second-ranked entry of the first probe replaced by its first-ranked one."""
    def edit(rows):
        rows[1][2] = rows[0][2]
        return rows
    _rewrite_rankings(out, edit)


def perturb_r(out: Path) -> None:
    from workloads import ALPHA

    def edit(rows):
        for row in rows:
            row[4] = repr(float(row[4]) + 1e-6)
            row[5] = repr(ALPHA * float(row[3]) + (1 - ALPHA) * float(row[4]))
        return rows
    _rewrite_rankings(out, edit)


def main() -> int:
    run.pin_blas_and_import_sfr()
    from workloads import TINY_WORKLOADS, TrainSpec, make_workload

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in declared[key]}
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name in TINY_WORKLOADS:
        result = run.measure(name, 3, 0, False, specs=TINY_WORKLOADS)
        expect(result["correct"] and result["attempted"] == 1, f"{name}: untraced command passes its checks")
        expect(
            sorted(result["metrics"]) == sorted(m["name"] for m in declared["end_to_end"]),
            f"{name}: reports every end-to-end metric",
        )
        counts = []
        for seed in (3, 4):
            result = run.measure(name, seed, 0, True, specs=TINY_WORKLOADS)
            expect(result["correct"] and result["attempted"] == 2, f"{name}: traced round passes, seed {seed}")
            metrics = result["metrics"]
            counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio")})
        expect(
            sorted(metrics) == sorted(m["name"] for m in declared["per_layer"])
            and all(units[k] == v["unit"] for k, v in metrics.items()),
            f"{name}: reports every per-layer metric with its declared unit",
        )
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        expect(not differ, f"{name}: per-layer counts repeat across seeds {differ or ''}")

    run.WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR))
    try:
        match = make_workload(TINY_WORKLOADS["match-small-dict"], 5)
        match.prepare(scratch / "match")
        cases = [
            ("clean rankings", None, None),
            ("a repeated clean command", None, None),
            ("one entry listed twice", duplicate_entry, "exactly once"),
            ("r perturbed by 1e-6", perturb_r, "reference"),
        ]
        for index, (what, tamper, reason) in enumerate(cases):
            problems = run.run_command(match, scratch / "match", index, tamper=tamper).problems
            caught = bool(problems) and reason is not None and reason in problems[0]
            expect(caught if reason else not problems, f"match check on {what}: {problems or 'passed'}")

        broken = next((scratch / "match" / "gallery").iterdir())
        broken.write_bytes(broken.read_bytes()[:-4])
        problems = run.run_command(match, scratch / "match", 9).problems
        expect(problems == ["exit code 2"], f"match on a truncated gallery file fails: {problems}")

        untrained = make_workload(TrainSpec(epochs=0), 0)
        problems = run.run_command(untrained, scratch, 0).problems
        expect(problems == ["exit code 4"], f"train-demo that does not converge fails: {problems}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            run.WORK_DIR.rmdir()
        except OSError:
            pass  # another run's directory is still there

    print("selftest " + ("FAILED: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
