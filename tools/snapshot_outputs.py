"""Write every output that a byte-identity check compares into one directory.

    python3 tools/snapshot_outputs.py OUT

Runs from the root of a source checkout and drives `sfr.cli.main` in-process,
importing `sfr` from this checkout's `src/` and the match workloads' input
generator from `perfbench/workloads.py`. Run it in two checkouts (for
example a change and its parent) and compare with `diff -r OUT_A OUT_B`: no
output means every command wrote the same bytes, printed the same text and
exited with the same code.

Each command gets a directory holding its output files, `stdout.txt`,
`stderr.txt` and `exit_code`:

- `train-demo/seed7`: `train-demo --seed 7` (`loss.csv`, `encoder.sfrf`);
- `train-demo/seed7-8-epochs-raw`: the same for 8 epochs with
  `--no-normalize`, which exits 4;
- `train-demo/seed7-2-epochs-beta-1e-30`: 2 epochs at `--beta 1e-30`, below
  the rounding of the Gram matrices, so a dictionary's Cholesky factorization
  fails: exit 3 with the condition estimate on stderr;
- `train-demo/seed7-workers-1` and
  `train-demo/seed7-2-epochs-beta-1e-30-workers-1`: the same two runs at
  `--workers 1`, where this process computes the monitor loss that the
  default's forked worker computes (on a host with more than one CPU). The
  tool exits 1 if either differs in any byte from its default-worker twin;
- `verify`: the oracle suite's JSON report;
- `verify-verbose`: `verify --verbose`, which adds the per-case error table
  on stderr;
- `verify-inject-fault`: `verify --inject-fault`, whose perturbed ridge
  solves fail that check: the JSON report with `passed: false`, exit 5;
- `<workload>-seed<k>/`, for both match workloads at seeds 1 and 2: the
  inputs that `perfbench/workloads.py` writes, and with and without
  `--no-normalize` the `match` outputs (`rankings.csv`, `summary.json`),
  `eval` of those rankings (`cmc.csv`, `summary.json`) and `pool` of the
  first three gallery maps;
- `match-small-dict-seed1/raw-beta-1e-30/match`: `match --beta 1e-30
  --no-normalize` on those inputs, which fails factorization as the demo
  above does (exit 3);
- `match-small-dict-seed1/workers-1/match` and `.../workers-8/match`: the
  normalized `match` at `--workers 1` (in-process) and `--workers 8` (four
  chunks, three of them in forked workers). The tool exits 1 if the two
  differ in any byte, so one run judges the fork path too;
- `dual-fallback/`: a small seeded set whose raw dictionaries leave the dual
  form of the reconstruction score for the primal one, and `match` on it
  with and without `--no-normalize`. Its six gallery maps are 32-channel
  5 x 5 grids drawn from Gamma(2, 0.5) x 100, so H*W = 25 < d = 32 < M = 54:
  each dictionary Y has rank 25 < d, and at beta = 1e-3 the raw K = Y Y^T +
  beta I is too ill-conditioned for the dual form, so all six raw
  dictionaries are scored in the primal form and none of the normalized
  ones is. Its three probes are noisy 3 x 4 crops of one gallery map per
  subject.
  The benchmark's match workloads never take that branch: their dictionaries
  are either primal by shape (d > M) or of full row rank (H*W >= d).
- `mixed-blocks/`: 70 gallery maps, so that `match` builds and scores its
  gallery in two full 32-entry blocks and a partial one, with three map
  shapes interleaved in manifest order: 32-channel 5 x 5 (M = 54), 8 x 6
  (M = 122) and 3 x 3 (M = 14) grids drawn from Gamma(2, 0.5) x 100, and
  `match` on them with and without `--no-normalize`. Every block mixes
  shapes, and raw, all but one of the 5 x 5 dictionaries leave the dual form
  for the primal one, in every block, not only the first. Its seven probes
  are noisy 2 x 3 crops of the first gallery map of each subject.
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MATCH_WORKLOADS = ("match-large-dict", "match-small-dict")
SEEDS = (1, 2)
POOLED_MAPS = 3
FALLBACK_SUBJECTS, FALLBACK_PER_SUBJECT, FALLBACK_SEED = 3, 2, 13
# 70 entries make two full 32-entry gallery blocks and a partial one.
MIXED_GALLERY, MIXED_SUBJECTS, MIXED_SEED = 70, 7, 17
MIXED_SHAPES = ((5, 5), (8, 6), (3, 3))  # M = 54, 122, 14 against d = 32


def run(out: Path, argv: list[str]) -> None:
    """Run one command and record its exit code and printed text in `out`."""
    from sfr.cli import main

    out.mkdir(parents=True, exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        rc = main(argv)
    (out / "exit_code").write_text(f"{rc}\n", encoding="utf-8")
    (out / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    (out / "stderr.txt").write_text(stderr.getvalue(), encoding="utf-8")


def snapshot_match(root: Path, name: str, seed: int) -> None:
    from workloads import WORKLOADS, make_workload

    workload = make_workload(WORKLOADS[name], seed)
    inputs = root / "inputs"
    workload.prepare(inputs)
    for variant, flags in (("normalized", []), ("raw", ["--no-normalize"])):
        base = root / variant
        run(base / "match", workload.argv(base / "match") + flags)
        run(base / "eval", [
            "eval", "--rankings", str(base / "match" / "rankings.csv"), "--truth", str(inputs / "probes.jsonl"),
            "--gallery", str(inputs / "gallery.jsonl"), "--out", str(base / "eval"), *flags,
        ])
        for entry in workload.gallery[:POOLED_MAPS]:
            pooled = base / "pool" / entry.entry_id
            run(pooled, ["pool", "--input", str(inputs / entry.path), "--out", str(pooled / "pooled.sfrf"), *flags])


def snapshot_set(root: Path, gallery: list, probes: list) -> None:
    """Write a gallery and a probe set, each a list of (entry id, subject id,
    C x H x W values), under `root/inputs`, and run `match` on them with and
    without `--no-normalize`."""
    import numpy as np

    from sfr.features import SpatialFeatureMap, save_feature_map
    from sfr.retrieval import ManifestEntry, write_manifest

    inputs = root / "inputs"
    inputs.mkdir(parents=True)
    for kind, maps in (("gallery", gallery), ("probes", probes)):
        entries = [ManifestEntry(entry_id, subject, f"{entry_id}.sfrf") for entry_id, subject, _ in maps]
        for entry, (_, _, values) in zip(entries, maps):
            save_feature_map(SpatialFeatureMap(values.astype(np.float32)), inputs / entry.path)
        write_manifest(inputs / f"{kind}.jsonl", entries)
    for variant, flags in (("normalized", []), ("raw", ["--no-normalize"])):
        out = root / variant / "match"
        run(out, [
            "match", "--gallery", str(inputs / "gallery.jsonl"), "--probes", str(inputs / "probes.jsonl"),
            "--out", str(out), "--alpha", "0.7", "--beta", "0.001", *flags,
        ])


def snapshot_dual_fallback(root: Path) -> None:
    import numpy as np

    rng = np.random.default_rng(FALLBACK_SEED)
    gallery, probes = [], []
    for subject in range(FALLBACK_SUBJECTS):
        maps = rng.gamma(2.0, 0.5, size=(FALLBACK_PER_SUBJECT, 32, 5, 5)) * 100.0
        gallery += [(f"g{subject}_{i}", f"s{subject}", values) for i, values in enumerate(maps)]
        crop = maps[0][:, 1:4, :4] + rng.normal(0.0, 5.0, size=(32, 3, 4))
        probes.append((f"p{subject}", f"s{subject}", np.abs(crop)))
    snapshot_set(root, gallery, probes)


def snapshot_mixed_blocks(root: Path) -> None:
    import numpy as np

    rng = np.random.default_rng(MIXED_SEED)
    gallery, probes = [], []
    for i in range(MIXED_GALLERY):
        subject = i % MIXED_SUBJECTS
        values = rng.gamma(2.0, 0.5, size=(32, *MIXED_SHAPES[i % len(MIXED_SHAPES)])) * 100.0
        gallery.append((f"g{i}", f"s{subject}", values))
        if i < MIXED_SUBJECTS:
            crop = values[:, :2, :3] + rng.normal(0.0, 5.0, size=(32, 2, 3))
            probes.append((f"p{subject}", f"s{subject}", np.abs(crop)))
    snapshot_set(root, gallery, probes)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/snapshot_outputs.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists():
        print(f"error: {out} exists; give a new directory", file=sys.stderr)
        return 2
    # One BLAS thread, as in the benchmark, set before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

    demo = out / "train-demo"
    twins = []  # (default-worker run, --workers 1 run), which must match in every byte
    for name, flags in (("seed7", []), ("seed7-2-epochs-beta-1e-30", ["--epochs", "2", "--beta", "1e-30"])):
        twins.append((demo / name, demo / f"{name}-workers-1"))
        for path, workers in zip(twins[-1], ([], ["--workers", "1"])):
            run(path, ["train-demo", "--out", str(path), "--seed", "7", *flags, *workers])
    raw = demo / "seed7-8-epochs-raw"
    run(raw, ["train-demo", "--out", str(raw), "--seed", "7", "--epochs", "8", "--no-normalize"])
    run(out / "verify", ["verify"])
    run(out / "verify-verbose", ["verify", "--verbose"])
    run(out / "verify-inject-fault", ["verify", "--inject-fault"])
    for name in MATCH_WORKLOADS:
        for seed in SEEDS:
            snapshot_match(out / f"{name}-seed{seed}", name, seed)
    inputs = out / "match-small-dict-seed1" / "inputs"
    singular = out / "match-small-dict-seed1" / "raw-beta-1e-30" / "match"
    run(singular, [
        "match", "--gallery", str(inputs / "gallery.jsonl"), "--probes", str(inputs / "probes.jsonl"),
        "--out", str(singular), "--beta", "1e-30", "--no-normalize",
    ])
    match_workers = [out / "match-small-dict-seed1" / f"workers-{count}" / "match" for count in ("1", "8")]
    for path, count in zip(match_workers, ("1", "8")):
        run(path, [
            "match", "--gallery", str(inputs / "gallery.jsonl"), "--probes", str(inputs / "probes.jsonl"),
            "--out", str(path), "--workers", count,
        ])
    twins.append(tuple(match_workers))
    snapshot_dual_fallback(out / "dual-fallback")
    snapshot_mixed_blocks(out / "mixed-blocks")
    status = 0
    for a, b in twins:
        contents = [
            {path.relative_to(root).as_posix(): path.read_bytes() for path in root.rglob("*") if path.is_file()}
            for root in (a, b)
        ]
        differing = sorted(
            name for name in contents[0].keys() | contents[1].keys() if contents[0].get(name) != contents[1].get(name)
        )
        if differing:
            names = ", ".join(differing)
            print(f"error: {a.relative_to(out)} and {b.relative_to(out)} differ in {names}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
