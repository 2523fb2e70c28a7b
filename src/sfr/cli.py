"""Command-line entry point.

Commands:
  pool        pool one SFRF feature map into spatial columns plus a global vector
  match       rank probe manifests against a gallery manifest, write rankings + summary
  eval        score an existing rankings CSV against truth, write CMC + summary
  train-demo  seeded synthetic end-to-end training run with held-out evaluation
  verify      run the oracle suite and emit its JSON report

Exit codes: 0 success, 2 input error, 3 data mismatch, 4 convergence failure,
5 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import pickle
import select
import shutil
import signal
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .encoder import EncoderParams, encode, init_params, save_params
from .errors import FactorizationError, FormatError, MismatchError
from .features import PyramidSpec, load_feature_map, pool_feature_maps, save_pooled, usable_kernels
from .metric import build_batch, sample_batch, sfr_triplet_loss, training_step
from .oracle import run_verification
from .retrieval import (
    GALLERY_BLOCK,
    GalleryIndex,
    Pooled,
    RetrievalRanking,
    build_gallery,
    evaluate,
    load_manifest,
    match_probes,
    write_cmc_csv,
    write_summary_json,
)
from .toydata import make_identity_pools

DEMO_IDENTITIES = 10
DEMO_LAYERS = ((64, 1, 7, True),)
DEMO_DATA = dict(base_shape=(16, 12), cells=(4, 3), noise=0.01, jitter=0.3, min_crop=(14, 11))
# The CPUs this process may run on: the default of --workers.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# `sfr match` forks its probe workers, so that they inherit the built gallery
# copy-on-write instead of building or unpickling it again, and `sfr
# train-demo` its monitor worker, which inherits the monitor batch's images
# (OpenBLAS shuts its thread pool down at a fork and restarts it on demand).
# Fork is used on Linux only; elsewhere every chunk is ranked, and every
# monitor loss computed, in-process.
CAN_FORK = sys.platform.startswith("linux") and hasattr(os, "fork")


@dataclass
class RunConfig:
    alpha: float = 0.7
    beta: float = 0.001
    margin: float = 0.3
    kernels: tuple[int, ...] = (1, 2, 3, 4)
    normalize: bool = True
    p: int = 32
    k: int = 4
    epochs: int = 120
    lr: float = 1e-4
    lr_schedule: str = "constant"  # "constant" or "step:<factor>:<interval>"
    seed: int = 7
    workers: int = CPUS

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "margin", "lr"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.margin < 0:
            raise ValueError(f"margin must be nonnegative, got {self.margin}")
        self.kernels = tuple(int(k) for k in self.kernels)
        PyramidSpec(self.kernels)  # range/order validation
        if self.p < 2 or self.k < 2:
            raise ValueError(f"need p >= 2 and k >= 2, got p={self.p}, k={self.k}")
        if self.epochs < 0 or self.lr < 0 or self.workers < 1:
            raise ValueError("epochs and lr must be nonnegative, workers >= 1")
        self.learning_rate(0)  # schedule format validation

    def learning_rate(self, epoch: int) -> float:
        if self.lr_schedule == "constant":
            return self.lr
        parts = self.lr_schedule.split(":")
        if len(parts) == 3 and parts[0] == "step":
            try:
                factor, interval = float(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ValueError(f"bad lr schedule {self.lr_schedule!r}") from exc
            if not 0 < factor <= 1 or interval < 1:
                raise ValueError(f"bad lr schedule {self.lr_schedule!r}")
            return self.lr * factor ** (epoch // interval)
        raise ValueError(f"bad lr schedule {self.lr_schedule!r} (want 'constant' or 'step:<factor>:<interval>')")

    def pyramid(self) -> PyramidSpec:
        return PyramidSpec(self.kernels)


def _has_field_type(value, default) -> bool:
    """Whether a JSON value has the type of the field whose default is
    `default`. An int is a float; a bool is not a number."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_has_field_type(v, default[0]) for v in value)
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _build_config(args) -> RunConfig:
    data = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise FormatError(f"{args.config}: config must be a JSON object, got {type(loaded).__name__}")
        defaults = {f.name: f.default for f in fields(RunConfig)}
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise FormatError(f"{args.config}: unknown config keys {sorted(unknown)}")
        for name, value in loaded.items():
            if not _has_field_type(value, defaults[name]):
                raise FormatError(f"{args.config}: {name} has the wrong type: {value!r}")
        data.update(loaded)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            data[f.name] = value
    return RunConfig(**data)


def _parse_kernels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad kernel list {text!r}") from exc


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; explicit flags override it")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--margin", type=float)
    parser.add_argument("--kernels", type=_parse_kernels, help="comma-separated window sizes, e.g. 1,2,3,4")
    parser.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=None)
    parser.add_argument("--p", type=int, help="identities per batch")
    parser.add_argument("--k", type=int, help="images per identity per batch")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--lr", type=float)
    parser.add_argument("--lr-schedule", dest="lr_schedule")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workers", type=int)


def _load_map(path: Path, spec: PyramidSpec, dim: int | None):
    """One SFRF map, checked for what would fail its block later: a channel
    count other than `dim` (MismatchError) and a grid that no kernel fits
    (ValueError). A manifest's first faulty map is then the one reported,
    wherever the block and chunk boundaries fall."""
    fmap = load_feature_map(path)
    channels, height, width = fmap.values.shape
    if dim is not None and channels != dim:
        raise MismatchError(f"{path}: feature dim {channels} != gallery dim {dim}")
    if not usable_kernels(spec, height, width):
        raise ValueError(f"{path}: every kernel in {spec.kernel_sizes} exceeds min(H, W) = {min(height, width)}")
    return fmap


def _load_pooled(manifest, manifest_path, cfg: RunConfig, dim: int | None = None) -> Iterator[tuple[str, Pooled]]:
    """A manifest's (entry id, (global, spatial)) pairs, in manifest order:
    each map's global average and its pyramid-pooled columns, normalized when
    cfg says so. Maps are loaded and pooled in blocks of GALLERY_BLOCK
    consecutive entries, and no block is held here once its last pair has
    been taken. A relative map path is relative to the manifest; an absolute
    one replaces the base. Given `dim`, every map must have that many
    channels."""
    base = Path(manifest_path).resolve().parent
    spec = cfg.pyramid()
    for start in range(0, len(manifest), GALLERY_BLOCK):
        block = manifest[start:start + GALLERY_BLOCK]
        # No local holds the maps or the pooled list: a local would keep this
        # block alive while the next one is loaded.
        yield from zip(
            (m.entry_id for m in block),
            pool_feature_maps([_load_map(base / m.path, spec, dim) for m in block], spec, cfg.normalize),
        )


def _rank(gallery: GalleryIndex, probes: Iterable[tuple[str, Pooled]]) -> list[RetrievalRanking]:
    """Each probe of (probe id, (global, spatial)) pairs ranked against the
    gallery, in their order, scored GALLERY_BLOCK probes at a time."""
    probes = iter(probes)
    rankings = []
    while block := list(itertools.islice(probes, GALLERY_BLOCK)):
        rankings += match_probes(block, gallery)
    return rankings


def probe_chunks(count: int, workers: int) -> list[range]:
    """The contiguous chunks that `sfr match` splits `count` probes into, in
    order: min(workers, ceil(count / GALLERY_BLOCK)) of them, so that no
    worker gets less than a block's worth unless there is only one chunk,
    with sizes that differ by at most one."""
    chunks = min(workers, -(-count // GALLERY_BLOCK))
    size, extra = divmod(count, chunks)
    bounds = [k * size + min(k, extra) for k in range(chunks + 1)]
    return [range(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _fork_worker(work) -> tuple[int, BinaryIO]:
    """Run work() in a forked child, a probe worker of `sfr match` or the
    monitor worker of `sfr train-demo`; returns its pid and the read end of a
    pipe that carries the pickled result, or the exception work() raised.
    The child leaves through os._exit, so none of the parent's cleanup,
    buffered output or callers run in it; a child that cannot send its
    result sends nothing, which _collect reports."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                result = work()
            except BaseException as exc:  # handed to the parent, which re-raises it
                result = exc
            payload = pickle.dumps(result)
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _collect(role: str, pid: int, pipe: BinaryIO, reaped: set[int]):
    """The result that a forked `role` worker sent through `pipe`, read to
    its end; the worker is reaped, and its pid added to `reaped`."""
    payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    reaped.add(pid)
    if not payload:
        raise ChildProcessError(f"{role} worker {pid} exited with status {status} and no result")
    return pickle.loads(payload)


def _rank_probes(gallery: GalleryIndex, manifest, manifest_path, cfg: RunConfig, out: Path) -> list[RetrievalRanking]:
    """Every probe of the manifest ranked against the gallery, in manifest
    order, and their rows written to out/rankings.csv.

    The probes are split into probe_chunks(n, cfg.workers). The parent
    forks one worker per chunk after the first, which inherits the built
    gallery, ranks its chunk, writes its rows to its own part file and sends
    its rankings back; the parent ranks the first chunk itself and then
    concatenates the parts in probe order. A pair's distances do not depend
    on the chunk it is scored in, so the bytes do not depend on the worker
    count. The first chunk, in probe order, that failed has its exception
    re-raised, and no rankings.csv or part file is written or left. Every
    worker is reaped before this returns or raises."""
    chunks = probe_chunks(len(manifest), cfg.workers if CAN_FORK else 1)
    parts = [out / f"rankings.csv.part{k}" for k in range(len(chunks))]

    def rank(chunk: range) -> list[RetrievalRanking]:
        return _rank(gallery, _load_pooled(manifest[chunk.start:chunk.stop], manifest_path, cfg, gallery.dim))

    def rank_to_part(chunk: range, part: Path) -> list[RetrievalRanking]:
        rankings = rank(chunk)
        with open(part, "w", encoding="utf-8", newline="") as fh:
            _write_rankings_rows(fh, rankings)
        return rankings

    workers: list[tuple[int, BinaryIO]] = []  # (pid, its result pipe), in chunk order
    reaped: set[int] = set()
    try:
        for chunk, part in zip(chunks[1:], parts[1:]):
            workers.append(_fork_worker(lambda chunk=chunk, part=part: rank_to_part(chunk, part)))
        # The first part holds the header and this process's rows, written
        # while the workers still run; the others are appended to it.
        rankings = rank(chunks[0])
        _write_rankings_csv(parts[0], rankings)
        with open(parts[0], "a", encoding="utf-8", newline="") as fh:
            for (pid, pipe), part in zip(workers, parts[1:]):
                result = _collect("probe", pid, pipe, reaped)
                if isinstance(result, BaseException):
                    raise result
                rankings += result
                with open(part, "r", encoding="utf-8", newline="") as rows:
                    shutil.copyfileobj(rows, fh)
        os.replace(parts[0], out / "rankings.csv")
        return rankings
    finally:
        for pid, pipe in workers:
            pipe.close()
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for part in parts:
            part.unlink(missing_ok=True)


def cmd_pool(args, cfg: RunConfig) -> int:
    ((global_feature, spatial),) = pool_feature_maps([load_feature_map(args.input)], cfg.pyramid(), cfg.normalize)
    save_pooled(args.out, spatial, global_feature)
    print(f"{spatial.count} columns")
    return 0


_RANKINGS_HEADER = ["probeId", "rank", "entryId", "d", "r", "s"]
_RANKINGS_ROW = "%s,%d,%s,%.17g,%.17g,%.17g\n"


def _write_rankings_rows(fh, rankings) -> None:
    """One CSV row per (probe, rank): the floats as `.17g`, which round-trips
    every float64. Each probe's rows are formatted from its columns and
    written in one call."""
    for ranking in rankings:
        n = len(ranking.entry_ids)
        rows = zip(
            itertools.repeat(ranking.probe_id, n),
            range(1, n + 1),
            ranking.entry_ids,
            ranking.global_dist.tolist(),
            ranking.sfr_dist.tolist(),
            ranking.fused.tolist(),
        )
        fh.write((_RANKINGS_ROW * n) % tuple(itertools.chain.from_iterable(rows)))


def _write_rankings_csv(path, rankings) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_RANKINGS_HEADER) + "\n")
        _write_rankings_rows(fh, rankings)


def _read_rankings_csv(path) -> list[RetrievalRanking]:
    """Rankings from a CSV that `_write_rankings_csv` wrote: six fields per
    row, each probe's rows contiguous with ranks 1..N and finite scores; s
    may not decrease with rank (exit 3). Bytes that are not such a CSV raise
    FormatError."""
    grouped: dict[str, tuple[list[str], list[float], list[float], list[float]]] = {}
    last_probe = None
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header != _RANKINGS_HEADER:
                raise FormatError(f"{path}: unexpected header {header}")
            for row in filter(None, rows):  # a blank line holds no row
                try:
                    probe_id, rank, entry_id, d_text, r_text, s_text = row
                    rank, scores = int(rank), (float(d_text), float(r_text), float(s_text))
                except ValueError as exc:
                    raise FormatError(f"{path}: bad row {row}: {exc}") from exc
                if probe_id != last_probe and probe_id in grouped:
                    raise FormatError(f"{path}: rows for probe {probe_id} are not contiguous")
                last_probe = probe_id
                ids, d, r, s = grouped.setdefault(probe_id, ([], [], [], []))
                if rank != len(ids) + 1:
                    raise FormatError(f"{path}: ranks for probe {probe_id} not contiguous")
                if not all(map(math.isfinite, scores)):
                    raise FormatError(f"{path}: non-finite score in row {row}")
                if s and scores[2] < s[-1]:
                    raise MismatchError(f"{path}: probe {probe_id}: s decreases at rank {rank}")
                ids.append(entry_id)
                d.append(scores[0])
                r.append(scores[1])
                s.append(scores[2])
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not grouped:
        raise FormatError(f"{path}: no ranking rows")
    return [RetrievalRanking(pid, *columns) for pid, columns in grouped.items()]


def cmd_match(args, cfg: RunConfig) -> int:
    gallery_manifest = load_manifest(args.gallery)
    probe_manifest = load_manifest(args.probes)
    truth = {m.entry_id: m.subject_id for m in probe_manifest}
    subject_of = {m.entry_id: m.subject_id for m in gallery_manifest}
    gallery = build_gallery(_load_pooled(gallery_manifest, args.gallery, cfg), cfg.alpha, cfg.beta)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rankings = _rank_probes(gallery, probe_manifest, args.probes, cfg, out)
    write_summary_json(out / "summary.json", evaluate(rankings, truth, subject_of))
    return 0


def cmd_eval(args, cfg: RunConfig) -> int:
    rankings = _read_rankings_csv(args.rankings)
    truth = {m.entry_id: m.subject_id for m in load_manifest(args.truth)}
    subject_of = {m.entry_id: m.subject_id for m in load_manifest(args.gallery)}
    report = evaluate(rankings, truth, subject_of)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_cmc_csv(out / "cmc.csv", report.cmc)
    write_summary_json(out / "summary.json", report)
    print(f"mAP {report.map:.6f}, rank-1 {report.rank_k(1):.6f}")
    return 0


def _toy_rank1(params, gallery_pool, probe_pool, cfg: RunConfig) -> float:
    def pooled(pool, prefix):
        # {view id: subject id} and (view id, (global, spatial)) pairs of one pool's views
        views = [(label, i, img) for label, imgs in sorted(pool.items()) for i, img in enumerate(imgs)]
        subjects = {f"{prefix}{label}_{i}": str(label) for label, i, _ in views}
        fmaps = [encode(img, params) for _, _, img in views]
        return subjects, zip(subjects, pool_feature_maps(fmaps, cfg.pyramid(), cfg.normalize))

    subject_of, entries = pooled(gallery_pool, "g")
    truth, probes = pooled(probe_pool, "p")
    rankings = _rank(build_gallery(entries, cfg.alpha, cfg.beta), probes)
    return evaluate(rankings, truth, subject_of).rank_k(1)


def _monitor_losses(inbox: BinaryIO, monitor_loss) -> list[float]:
    """The monitor worker's loop: monitor_loss of each EncoderParams pickled
    into `inbox`, in order, until the inbox ends, which is the parent's stop
    sentinel (the parent closes it, or dies). The first exception is raised
    at once, so that the worker sends it and exits while the parent still
    steps; the parent sees it before its next send."""
    losses = []
    while True:
        try:
            params = pickle.load(inbox)
        except EOFError:
            return losses
        losses.append(monitor_loss(params))


def _train_with_monitor_worker(train, monitor_loss):
    """train(send) run here while a forked worker computes monitor_loss of
    each EncoderParams that train sends, in order; returns train's result and
    the list of monitor losses.

    The worker's exception, if it has one, is raised first: train sends an
    epoch's parameters before it steps, so the worker fails at an epoch no
    later than train's own failure, as the inline monitor would. The worker
    sends its exception as soon as it has it, and send checks for it without
    blocking before each epoch, so train stops stepping once it has arrived.
    Otherwise train's exception is raised, once the worker has been
    collected. The worker is reaped before this returns or raises."""
    inbox_fd, send_fd = os.pipe()

    def work() -> list[float]:
        os.close(send_fd)  # the child holds no write end, so it sees EOF if the parent dies
        with os.fdopen(inbox_fd, "rb") as inbox:
            return _monitor_losses(inbox, monitor_loss)

    try:
        pid, results = _fork_worker(work)
    except BaseException:
        os.close(send_fd)
        raise
    finally:
        os.close(inbox_fd)
    # Unbuffered, so that closing it never writes: a buffered writer flushes
    # at close, which could block on, or fail against, a worker being killed.
    send_pipe = os.fdopen(send_fd, "wb", buffering=0)

    def send(params: EncoderParams) -> None:
        # The worker writes its result only when it stops, which before the
        # inbox is closed means that it failed: stop stepping. A worker that
        # stops after this check closes the inbox, and the write below fails.
        if select.select([results], [], [], 0)[0]:
            raise BrokenPipeError("the monitor worker has stopped")
        payload = memoryview(pickle.dumps(params))
        while payload:  # a raw write may take only part of it
            payload = payload[send_pipe.write(payload):]

    reaped: set[int] = set()
    try:
        error = None
        try:
            trained = train(send)
        except Exception as exc:
            error = exc
        send_pipe.close()
        losses = _collect("monitor", pid, results, reaped)
        if isinstance(losses, BaseException):
            raise losses
        if error is not None:
            raise error
        return trained, losses
    finally:
        send_pipe.close()
        results.close()
        if pid not in reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_train_demo(args, cfg: RunConfig) -> int:
    """Seeded end-to-end run: train the toy encoder on synthetic identities,
    log the per-epoch loss of a fixed reference batch, and evaluate held-out
    rank-1. The reference batch makes the logged curve deterministic and
    exactly flat when the learning rate is zero.

    The reference (monitor) loss of an epoch depends only on the parameters
    the epoch starts from and never feeds back into training, so on Linux at
    --workers 2 or more a forked worker computes it while this process
    steps; the bits are the same at any worker count."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_per_id = max(cfg.k, 10)
    held_out = 3  # 1 gallery + 2 probe views per identity
    pools = make_identity_pools(DEMO_IDENTITIES, train_per_id + held_out, cfg.seed, **DEMO_DATA)
    train_pool = {label: imgs[:train_per_id] for label, imgs in pools.items()}
    gallery_pool = {label: imgs[train_per_id:train_per_id + 1] for label, imgs in pools.items()}
    probe_pool = {label: imgs[train_per_id + 1:] for label, imgs in pools.items()}
    monitor_picks = [
        (label, img) for label, imgs in sorted(train_pool.items()) for img in imgs[:2]
    ]
    pyramid = cfg.pyramid()
    p_eff = min(cfg.p, DEMO_IDENTITIES)

    def monitor_loss(params: EncoderParams) -> float:
        monitor = build_batch(monitor_picks, params, pyramid=pyramid, normalize=cfg.normalize)
        return sfr_triplet_loss(monitor, cfg.beta, cfg.margin).total_loss

    def train(monitor) -> tuple[EncoderParams, list[tuple[float, int, float]]]:
        """The trained parameters and each epoch's (batch loss, active
        triplets, learning rate); monitor(params) is called with the
        parameters each epoch starts from, before it steps."""
        params = init_params(DEMO_LAYERS, cfg.seed)
        steps = []
        for epoch in range(cfg.epochs):
            monitor(params)
            lr = cfg.learning_rate(epoch)
            # fresh identity/view draw per epoch, deterministic in (seed, epoch)
            rng = np.random.default_rng((cfg.seed, epoch))
            picks = sample_batch(train_pool, p_eff, cfg.k, rng)
            batch = build_batch(picks, params, pyramid=pyramid, normalize=cfg.normalize)
            params, report = training_step(batch, cfg.beta, cfg.margin, lr)
            steps.append((report.total_loss, report.active_triplets, lr))
        return params, steps

    if CAN_FORK and cfg.workers > 1 and cfg.epochs > 0:
        (params, steps), losses = _train_with_monitor_worker(train, monitor_loss)
    else:
        losses = []
        params, steps = train(lambda params: losses.append(monitor_loss(params)))
    rows = [(epoch, loss, *step) for epoch, (loss, step) in enumerate(zip(losses, steps, strict=True))]

    with open(out / "loss.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("epoch,loss,batch_loss,active_triplets,learning_rate\n")
        for epoch, loss, batch_loss, active, lr in rows:
            fh.write(f"{epoch},{loss:.17g},{batch_loss:.17g},{active},{lr:.17g}\n")
    save_params(params, out / "encoder.sfrf")

    rank1 = _toy_rank1(params, gallery_pool, probe_pool, cfg)
    print(f"trained {cfg.epochs} steps; held-out rank-1 {rank1:.4f}")
    if rank1 >= 0.95:
        return 0
    trace = ", ".join(f"{loss:.4f}" for _, loss, _, _, _ in rows[-10:]) or "no steps run"
    print(
        f"convergence criterion unmet: rank-1 {rank1:.4f} < 0.95 "
        f"(last reference losses: {trace})",
        file=sys.stderr,
    )
    return 4


def cmd_verify(args, cfg: RunConfig) -> int:
    reports, cases = run_verification(seed=cfg.seed, inject_fault=args.inject_fault)
    print(json.dumps([r.to_dict() for r in reports], indent=2))
    if args.verbose:
        print(f"{'check':<32}{'case':>6}{'absErr':>14}{'relErr':>14}", file=sys.stderr)
        for c in cases:
            print(
                f"{c.check_name:<32}{c.case:>6}{c.abs_error:>14.3e}{c.rel_error:>14.3e}",
                file=sys.stderr,
            )
    return 0 if all(r.passed for r in reports) else 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfr",
        description="Partial-pattern matching by spatial feature reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pool = sub.add_parser("pool", help="pool an SFRF feature map into spatial columns + global vector")
    p_pool.add_argument("--input", required=True, help="input SFRF feature map")
    p_pool.add_argument("--out", required=True, help="output pooled container")
    _add_config_flags(p_pool)
    p_pool.set_defaults(func=cmd_pool)

    p_match = sub.add_parser("match", help="rank probes against a gallery")
    p_match.add_argument("--gallery", required=True, help="gallery manifest (JSON lines)")
    p_match.add_argument("--probes", required=True, help="probe manifest (JSON lines)")
    p_match.add_argument("--out", required=True, help="output directory (rankings.csv, summary.json)")
    _add_config_flags(p_match)
    p_match.set_defaults(func=cmd_match)

    p_eval = sub.add_parser("eval", help="evaluate a rankings CSV against truth")
    p_eval.add_argument("--rankings", required=True, help="rankings.csv from 'match'")
    p_eval.add_argument("--truth", required=True, help="probe manifest with true subject ids")
    p_eval.add_argument("--gallery", required=True, help="gallery manifest (entry -> subject mapping)")
    p_eval.add_argument("--out", required=True, help="output directory (cmc.csv, summary.json)")
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_train = sub.add_parser("train-demo", help="seeded synthetic end-to-end training run")
    p_train.add_argument("--out", required=True, help="output directory (loss.csv, encoder.sfrf)")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train_demo)

    p_verify = sub.add_parser("verify", help="run the oracle suite")
    p_verify.add_argument("--verbose", action="store_true", help="per-case error table on stderr")
    p_verify.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    _add_config_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _build_config(args)
        return args.func(args, cfg)
    except (MismatchError, FactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FormatError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())
