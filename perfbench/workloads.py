"""Workloads: the seeded inputs, the `sfr` command and the output checks of each.

Each workload object writes its inputs once (`prepare`), gives the argv of one
command (`argv`), and checks one command's outputs (`check`), returning the
problems found; an empty list means the command passed. Checks compare against
`reference` (independent numpy code) or against properties the method must
have, never against stored output.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
from sfr.features import SpatialFeatureMap, save_feature_map
from sfr.retrieval import ManifestEntry, write_manifest

ALPHA = 0.7
BETA = 0.001
ORACLE_TOL = 1e-8  # the tolerance of the repository's ridge oracle checks
RANK_KS = (1, 3, 5, 10)
SAMPLED_PAIRS = 8  # probe x entry pairs recomputed by `reference` per command

# train-demo trains only at its documented seed: other seeds miss rank-1 0.95.
DEMO_SEED = 7
DEMO_LAYER = (64, 1, 7, 1)  # out_c, in_c, k, downsample of the demo encoder
DEMO_ANCHORS = 40  # min(P = 32, 10 identities) x K = 4 anchors per step
MIN_RANK1 = 0.95


@dataclass(frozen=True)
class MatchSpec:
    subjects: int
    gallery_per_subject: int
    probes_per_subject: int
    channels: int
    base_hw: tuple[int, int]  # each subject's map; views are crops of it
    gallery_hw: tuple[int, int]
    probe_hw: tuple[int, int]


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 120
    lr: float | None = None  # None keeps train-demo's default


WORKLOADS = {
    # 210 entries x 35 probes; d = 32 < M = 122: the per-pair ridge solve dominates.
    "match-large-dict": MatchSpec(35, 6, 1, 32, (10, 8), (8, 6), (6, 5)),
    # 300 entries x 100 probes; d = 64 > M = 14: per-pair overhead, loading and CSV dominate.
    "match-small-dict": MatchSpec(100, 3, 1, 64, (4, 4), (3, 3), (2, 3)),
    # criterion 7's run: 120 epochs at seed 7.
    "train-demo-seed7": TrainSpec(),
}

# The same workloads at sizes that take a second or two, for the self-test.
# A 15-epoch demo reaches rank-1 0.95 only with the larger learning rate.
TINY_WORKLOADS = {
    "match-large-dict": MatchSpec(3, 2, 2, 32, (10, 8), (8, 6), (6, 5)),
    "match-small-dict": MatchSpec(4, 2, 2, 64, (4, 4), (3, 3), (2, 3)),
    "train-demo-seed7": TrainSpec(epochs=15, lr=1e-3),
}


def make_workload(spec, seed: int):
    return MatchWorkload(spec, seed) if isinstance(spec, MatchSpec) else TrainWorkload(spec)


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class _Repeatable:
    """Commands of one run must produce byte-identical outputs."""

    first_digest: str | None = None

    def _same_as_first(self, *paths: Path) -> list[str]:
        digest = _digest(*paths)
        if self.first_digest is None:
            self.first_digest = digest
        if digest != self.first_digest:
            return [f"{', '.join(p.name for p in paths)} differ from the run's first command"]
        return []


class MatchWorkload(_Repeatable):
    """`sfr match` of seeded partial views: each subject has one base map, and
    every gallery entry and probe is a noisy crop of it."""

    def __init__(self, spec: MatchSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.root: Path | None = None

    def prepare(self, root: Path) -> None:
        spec = self.spec
        rng = np.random.default_rng(self.seed)
        bases = rng.gamma(2.0, 0.5, size=(spec.subjects, spec.channels, *spec.base_hw))
        self.gallery = self._write_set(root, "gallery", spec.gallery_per_subject, spec.gallery_hw, bases, rng)
        self.probes = self._write_set(root, "probes", spec.probes_per_subject, spec.probe_hw, bases, rng)
        self.root = root

    @staticmethod
    def _write_set(root: Path, kind: str, per_subject: int, hw, bases, rng) -> list[ManifestEntry]:
        (root / kind).mkdir(parents=True)
        h, w = hw
        entries = []
        for subject, base in enumerate(bases):
            for i in range(per_subject):
                top = int(rng.integers(0, base.shape[1] - h + 1))
                left = int(rng.integers(0, base.shape[2] - w + 1))
                view = base[:, top:top + h, left:left + w] * rng.uniform(0.8, 1.2)
                view = np.abs(view + rng.normal(0.0, 0.5, size=view.shape)).astype(np.float32)
                entry_id = f"{kind[0]}{subject:03d}_{i}"
                save_feature_map(SpatialFeatureMap(view), root / kind / f"{entry_id}.sfrf")
                entries.append(ManifestEntry(entry_id, f"s{subject:03d}", f"{kind}/{entry_id}.sfrf"))
        write_manifest(root / f"{kind}.jsonl", entries)
        return entries

    def argv(self, out: Path) -> list[str]:
        return [
            "match", "--gallery", str(self.root / "gallery.jsonl"), "--probes", str(self.root / "probes.jsonl"),
            "--out", str(out), "--alpha", repr(ALPHA), "--beta", repr(BETA),
        ]

    def check(self, out: Path, rc: int, stdout: str, index: int) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        gallery_ids = [e.entry_id for e in self.gallery]
        rng = np.random.default_rng((self.seed, index))
        sampled = {
            (self.probes[p].entry_id, gallery_ids[e])
            for p, e in zip(rng.integers(0, len(self.probes), SAMPLED_PAIRS),
                            rng.integers(0, len(gallery_ids), SAMPLED_PAIRS))
        }
        try:
            problems, reported, aps, first_hits = self._check_rankings(out / "rankings.csv", sampled)
            if problems:
                return problems
            problems = self._check_summary(out / "summary.json", aps, first_hits)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]
        problems += self._check_oracle(reported)
        return problems + self._same_as_first(out / "rankings.csv")

    def _check_rankings(self, path: Path, sampled):
        """Streams rankings.csv one probe at a time, so the checker's memory
        stays small next to the program's."""
        subject_of = {e.entry_id: e.subject_id for e in self.gallery}
        truth = {p.entry_id: p.subject_id for p in self.probes}
        expected_ids = sorted(subject_of)
        n = len(expected_ids)
        problems, reported, aps, first_hits, seen = [], {}, [], [], []
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != ["probeId", "rank", "entryId", "d", "r", "s"]:
                return ["rankings.csv: bad header"], {}, [], []
            for probe_id, rows in itertools.groupby(reader, key=lambda row: row[0]):
                rows = list(rows)
                seen.append(probe_id)
                if probe_id not in truth:
                    problems.append(f"unknown probe {probe_id!r}")
                    break
                ids = [row[2] for row in rows]
                if [int(row[1]) for row in rows] != list(range(1, len(rows) + 1)) or sorted(ids) != expected_ids:
                    problems.append(f"probe {probe_id}: does not rank every gallery entry exactly once as 1..{n}")
                    break
                d, r, s = (np.array([float(row[col]) for row in rows]) for col in (3, 4, 5))
                if not (np.isfinite(d).all() and np.isfinite(r).all() and np.isfinite(s).all()):
                    problems.append(f"probe {probe_id}: non-finite score")
                elif np.any(np.diff(s) < 0):
                    problems.append(f"probe {probe_id}: s is not non-decreasing")
                elif np.any(np.abs(s - (ALPHA * d + (1 - ALPHA) * r)) > 1e-12 * np.maximum(1.0, np.abs(s))):
                    problems.append(f"probe {probe_id}: s != alpha d + (1 - alpha) r")
                elif np.any(r < 0) or np.any(r > 1 + 1e-12):
                    problems.append(f"probe {probe_id}: r outside [0, 1]")
                if problems:
                    break
                matches = [pos for pos, e in enumerate(ids, start=1) if subject_of[e] == truth[probe_id]]
                aps.append(reference.average_precision(matches))
                first_hits.append(matches[0])
                for pos, entry_id in enumerate(ids):
                    if (probe_id, entry_id) in sampled:
                        reported[probe_id, entry_id] = (float(d[pos]), float(r[pos]))
        if not problems and sorted(seen) != sorted(truth):
            problems.append("rankings.csv does not hold exactly one block per probe")
        return problems, reported, aps, first_hits

    def _check_summary(self, path: Path, aps, first_hits) -> list[str]:
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
        n = len(self.gallery)
        expected = {"mAP": float(np.mean(aps))}
        for k in RANK_KS:
            expected[f"rank{k}"] = float(np.mean([hit <= min(k, n) for hit in first_hits]))
        return [
            f"summary.json {key} {summary[key]!r} != recomputed {value!r}"
            for key, value in expected.items()
            if abs(summary[key] - value) > 1e-12
        ]

    def _check_oracle(self, reported) -> list[str]:
        paths = {e.entry_id: self.root / e.path for e in self.gallery + self.probes}
        problems = []
        for (probe_id, entry_id), (d, r) in sorted(reported.items()):
            d_ref, r_ref = reference.pair_distances(paths[probe_id], paths[entry_id], BETA)
            if abs(d - d_ref) > ORACLE_TOL * max(1.0, abs(d_ref)) or abs(r - r_ref) > ORACLE_TOL:
                problems.append(f"{probe_id} x {entry_id}: (d, r) = ({d!r}, {r!r}), reference ({d_ref!r}, {r_ref!r})")
        return problems


class TrainWorkload(_Repeatable):
    """`sfr train-demo` at seed 7. The benchmark's seed is not used: the demo
    makes its own data from --seed, and only seed 7 converges."""

    def __init__(self, spec: TrainSpec):
        self.spec = spec

    def prepare(self, root: Path) -> None:
        pass  # train-demo generates its own data

    def argv(self, out: Path) -> list[str]:
        argv = ["train-demo", "--out", str(out), "--seed", str(DEMO_SEED), "--epochs", str(self.spec.epochs)]
        return argv + (["--lr", repr(self.spec.lr)] if self.spec.lr is not None else [])

    def check(self, out: Path, rc: int, stdout: str, index: int) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            found = re.search(r"held-out rank-1 (\S+)", stdout)
            if not found or not float(found.group(1)) >= MIN_RANK1:
                return [f"printed rank-1 below {MIN_RANK1}: {stdout.strip()!r}"]
            problems = self._check_loss(out / "loss.csv") + self._check_encoder(out / "encoder.sfrf")
        except (OSError, ValueError, IndexError, struct.error) as exc:
            return [f"unreadable output: {exc!r}"]
        return problems + self._same_as_first(out / "loss.csv", out / "encoder.sfrf")

    def _check_loss(self, path: Path) -> list[str]:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["epoch", "loss", "batch_loss", "active_triplets", "learning_rate"]:
            return ["loss.csv: bad header"]
        rows = rows[1:]
        if len(rows) != self.spec.epochs or [int(r[0]) for r in rows] != list(range(len(rows))):
            return [f"loss.csv: {len(rows)} rows for {self.spec.epochs} epochs"]
        values = np.array([[float(x) for x in (r[1], r[2], r[4])] for r in rows]).reshape(-1, 3)
        if not np.isfinite(values).all():
            return ["loss.csv: non-finite value"]
        if not all(0 <= int(r[3]) <= DEMO_ANCHORS for r in rows):
            return [f"loss.csv: active_triplets outside [0, {DEMO_ANCHORS}]"]
        losses = values[:, 0]
        windows = [losses[t:t + 10].mean() for t in range(20, len(losses) - 9)]
        if len(windows) > 1 and np.diff(windows).max() > 1e-9:
            return ["loss.csv: a 10-epoch window mean after epoch 20 increased"]
        return []

    @staticmethod
    def _check_encoder(path: Path) -> list[str]:
        buf = path.read_bytes()
        magic, version, count = struct.unpack_from("<4sII", buf)
        layer = struct.unpack_from("<IIII", buf, 12)
        out_c, in_c, k, _ = DEMO_LAYER
        payload = 4 * (out_c * in_c * k * k + out_c)
        if (magic, version, count, layer) != (b"SFRF", 1, 1, DEMO_LAYER) or len(buf) != 28 + payload:
            return [f"encoder.sfrf: header {(magic, version, count, layer)}, {len(buf)} bytes"]
        if not np.isfinite(np.frombuffer(buf, dtype="<f4", offset=28)).all():
            return ["encoder.sfrf: non-finite parameter"]
        return []
