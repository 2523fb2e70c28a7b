"""Gallery construction, fused global/reconstruction matching, and CMC/mAP.

Each probe is scored against every gallery entry with
s = alpha * d + (1 - alpha) * r, where d is the global Euclidean distance and
r the reconstruction distance of the probe's spatial features against the
entry's dictionary; rankings sort s ascending with ties kept in gallery order.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError, MismatchError
from .features import FeatureMatrix, GlobalFeature, group_by_shape
from .metric import global_distances
from .reconstruction import residual_distances, residual_operators

Pooled = tuple[GlobalFeature, FeatureMatrix]  # one pooled map: (global, spatial)

# A gallery is built and scored in blocks of this many consecutive entries,
# and the commands load and pool each manifest in blocks of the same size, so
# that a long manifest is never stacked whole.
GALLERY_BLOCK = 32


@dataclass(frozen=True)
class ScoredEntry:
    entry_id: str
    global_dist: float
    sfr_dist: float
    fused: float


@dataclass(frozen=True, eq=False)
class RetrievalRanking:
    """One probe's ranking as columns in rank order (ascending fused score):
    the entry ids and, per entry, the global distance d, the reconstruction
    distance r and the fused score s."""

    probe_id: str
    entry_ids: tuple[str, ...]
    global_dist: np.ndarray
    sfr_dist: np.ndarray
    fused: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entry_ids", tuple(self.entry_ids))
        n = len(self.entry_ids)
        for name in ("global_dist", "sfr_dist", "fused"):
            column = np.array(getattr(self, name), dtype=np.float64)
            if column.shape != (n,):
                raise ValueError(f"{name} has shape {column.shape}, want ({n},) for {n} entries")
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def scored(self) -> tuple[ScoredEntry, ...]:
        """The ranking as one ScoredEntry per row (derived, read-only). Only
        the benchmark tracer's pair count (perfbench/tracing.py, _tally_pairs)
        reads it; the program and its tests read the columns."""
        return tuple(
            map(ScoredEntry, self.entry_ids, self.global_dist.tolist(), self.sfr_dist.tolist(), self.fused.tolist())
        )


@dataclass(frozen=True)
class EvalReport:
    cmc: np.ndarray  # hit rate at ranks 1..R
    map: float
    per_probe_ap: tuple[float, ...]

    def rank_k(self, k: int) -> float:
        return float(self.cmc[min(k, len(self.cmc)) - 1])


class GalleryIndex:
    """Immutable gallery, built and scored in blocks of GALLERY_BLOCK
    consecutive entries. It keeps the entry ids and the stacked global
    features, and per block only the scoring operators of its dictionaries
    (reconstruction.residual_operators): no pooled dictionary and no factor
    outlives the block that built it."""

    def __init__(self, entries: Iterable[tuple[str, Pooled]], alpha: float, beta: float):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        pairs = iter(entries)
        ids: dict[str, None] = {}
        globals_ = []
        self._blocks: list[tuple[int, list]] = []  # (entry count, operator groups) per block
        while block := list(itertools.islice(pairs, GALLERY_BLOCK)):
            if not ids:
                dim = block[0][1][0].dim
            for entry_id, (global_feature, spatial) in block:
                if global_feature.dim != dim or spatial.dim != dim:
                    raise MismatchError(f"entry {entry_id}: feature dim differs from gallery dim {dim}")
                if entry_id in ids:
                    raise MismatchError(f"duplicate gallery entry id {entry_id!r}")
                ids[entry_id] = None
                globals_.append(global_feature.values)
            groups, _ = residual_operators([spatial for _, (_, spatial) in block], beta)
            self._blocks.append((len(block), groups))
            # Release this block's dictionaries before the next one is pooled.
            del block, spatial
        if not ids:
            raise ValueError("gallery must be nonempty")
        self.entry_ids = tuple(ids)
        self.alpha = float(alpha)
        self.dim = dim
        self._globals = np.stack(globals_)


def build_gallery(entries: Iterable[tuple[str, Pooled]], alpha: float, beta: float) -> GalleryIndex:
    """A gallery over (entry id, (global, spatial)) pairs, in their order.
    Pairs are consumed one block at a time, so a generator's pooled maps
    need not all exist at once."""
    return GalleryIndex(entries, alpha, beta)


def match_probes(probes: Sequence[tuple[str, Pooled]], gallery: GalleryIndex) -> list[RetrievalRanking]:
    """Score each (probe id, (global, spatial)) pair against every gallery
    entry and rank ascending, in the order given. The probes of each spatial
    shape are scored against each gallery block in one call, and each pair
    has the bits it gets scored alone, so a ranking does not depend on the
    other probes in the list."""
    for _, (probe_global, probe_spatial) in probes:
        if probe_global.dim != gallery.dim or probe_spatial.dim != gallery.dim:
            raise MismatchError(
                f"probe dims ({probe_global.dim}, {probe_spatial.dim}) != gallery dim {gallery.dim}"
            )
    r = np.empty((len(probes), len(gallery.entry_ids)))
    for positions in group_by_shape([spatial.columns for _, (_, spatial) in probes]).values():
        stack = [probes[i][1][1] for i in positions]
        r[positions] = np.concatenate(
            [residual_distances(groups, size, stack) for size, groups in gallery._blocks], axis=1
        )
    rankings = []
    for (probe_id, (probe_global, _)), r_row in zip(probes, r):
        d = global_distances(probe_global.values, gallery._globals)
        fused = gallery.alpha * d + (1.0 - gallery.alpha) * r_row
        order = np.argsort(fused, kind="stable")
        ids = tuple(map(gallery.entry_ids.__getitem__, order.tolist()))
        rankings.append(RetrievalRanking(probe_id, ids, d[order], r_row[order], fused[order]))
    return rankings


def match_probe(probe: Pooled, gallery: GalleryIndex, probe_id: str = "") -> RetrievalRanking:
    """Score one probe against every gallery entry and rank ascending: the
    ranking match_probes gives it."""
    return match_probes([(probe_id, probe)], gallery)[0]


Fold = tuple[str, int | None, float | None]  # (probe id, first-hit rank, average precision)


def fold(probe_id: str, entry_ids: Sequence[str], truth: dict[str, str], subject_of: dict[str, str]) -> Fold:
    """What evaluate needs of a probe's entry ids in rank order: the rank of
    its first true match and its average precision, both None when no gallery
    entry has its subject. An unknown probe, or a ranking that does not list
    every gallery entry exactly once, raises MismatchError."""
    if probe_id not in truth:
        raise MismatchError(f"unknown probe id {probe_id!r}")
    # Every gallery entry exactly once: a ranking that lists one entry twice
    # in place of another would otherwise score as a complete one.
    listed = set(entry_ids)
    if len(entry_ids) != len(subject_of) or listed != subject_of.keys():
        raise MismatchError(
            f"probe {probe_id}: ranking lists {len(entry_ids)} entries, {len(listed)} distinct, "
            f"for {len(subject_of)} gallery entries (unknown: {sorted(listed - subject_of.keys())}, "
            f"missing: {sorted(subject_of.keys() - listed)})"
        )
    subject = truth[probe_id]
    match_positions = [pos for pos, entry_id in enumerate(entry_ids, start=1) if subject_of[entry_id] == subject]
    if not match_positions:
        return probe_id, None, None
    return probe_id, match_positions[0], float(np.mean([(k + 1) / pos for k, pos in enumerate(match_positions)]))


def evaluate(folds: Iterable[Fold], truth: dict[str, str], subject_of: dict[str, str]) -> EvalReport:
    """CMC curve and mean average precision over subject-level matches, from
    the probes' folds, taken one at a time, and the subject maps of the probes
    (truth) and the gallery entries (subject_of). Every probe in truth must
    have a fold, so that a cut rankings file cannot pass for a whole one."""
    hits = np.zeros(len(subject_of))
    aps = []
    ranked = set()
    for probe_id, first, ap in folds:
        if first is None:
            raise MismatchError(f"probe {probe_id}: no gallery entry for subject {truth[probe_id]}")
        hits[first - 1] += 1
        aps.append(ap)
        ranked.add(probe_id)
    if not aps:
        raise ValueError("no rankings to evaluate")
    unranked = [probe_id for probe_id in truth if probe_id not in ranked]
    if unranked:
        raise MismatchError(f"{len(unranked)} truth probes have no ranking (first: {unranked[0]!r})")
    cmc = np.cumsum(hits) / len(aps)
    return EvalReport(cmc, float(np.mean(aps)), tuple(aps))


@dataclass(frozen=True)
class ManifestEntry:
    entry_id: str
    subject_id: str
    path: str


def _manifest_text(obj: dict, key: str) -> str:
    # load_manifest parses numbers as their JSON text, so 1.0 and 1.00 stay
    # two subjects; anything else that is not a string (null, a bool, an
    # array, an object) is rejected rather than read as "None" or "True".
    value = obj[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} is {json.dumps(value)}, want a string or a number")
    return value


def load_manifest(path) -> list[ManifestEntry]:
    """JSON-lines manifest: one {"entryId", "subjectId", "path"} object per
    line, each value a string or a number. An entry id may not contain a
    comma, a double quote, CR or LF, which the rankings CSV (written
    unquoted) could not hold."""
    entries = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line, parse_int=str, parse_float=str)
                    entry = ManifestEntry(*(_manifest_text(obj, key) for key in ("entryId", "subjectId", "path")))
                except (ValueError, KeyError, TypeError) as exc:
                    raise FormatError(f"{path}:{lineno}: bad manifest line: {exc}") from exc
                if any(c in entry.entry_id for c in ',"\r\n'):
                    raise FormatError(f"{path}:{lineno}: entry id {entry.entry_id!r} holds a comma, quote, CR or LF")
                entries.append(entry)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8: {exc}") from exc
    if not entries:
        raise FormatError(f"{path}: empty manifest")
    ids = [e.entry_id for e in entries]
    if len(set(ids)) != len(ids):
        raise FormatError(f"{path}: duplicate entry ids")
    return entries


def write_manifest(path, entries) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(json.dumps({"entryId": e.entry_id, "subjectId": e.subject_id, "path": e.path}) + "\n")


def write_cmc_csv(path, cmc: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("rank,cmc\n")
        for k, v in enumerate(cmc, start=1):
            fh.write(f"{k},{v:.17g}\n")


def write_summary_json(path, report: EvalReport) -> None:
    summary = {
        "mAP": report.map,
        "rank1": report.rank_k(1),
        "rank3": report.rank_k(3),
        "rank5": report.rank_k(5),
        "rank10": report.rank_k(10),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
