"""Batch construction, batch-hard mining, the reconstruction-embedded triplet
loss, and the alternating training step.

Mining and the reported loss use the combined distance: global Euclidean plus
the reconstruction distance (the mean residual column norm), with the anchor
always reconstructed from the other sample's dictionary. build_batch encodes
each group of same-shape images in one stacked forward pass and keeps it, with
each sample's column scales, so a step encodes no sample again.

The step alternates in two phases. Phase one freezes the encoder: one
ReconstructionScorer mines the batch, and for each triplet whose hinge term is
above zero the same scorer solves the anchor's coefficients against the
positive's and the negative's dictionaries (StepPlan). Phase two holds those
coefficients and the column scales fixed, backpropagates the
squared-Frobenius-residual gradients (sfr_gradients, the function the oracle
checks) and the global Euclidean gradients through the pooling adjoint into
the encoder, one stacked backward pass per shape group, and applies one SGD
update.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .encoder import (
    EncoderParams,
    ForwardPass,
    LayerGradients,
    ToyImage,
    encode_backward,
    encode_forward,
    encode_raw,
    sgd_update,
)
from .errors import MismatchError
from .features import (
    DEFAULT_PYRAMID,
    FeatureMatrix,
    GlobalFeature,
    PyramidSpec,
    group_by_shape,
    pool_columns,
    pool_columns_adjoint,
    pool_stack,
)
from .reconstruction import ReconstructionScorer, sfr_gradients


@dataclass(frozen=True)
class BatchSample:
    """One batch element: identity label, pooled features, and (for training)
    the image the features were encoded from and the per-column scales the
    raw pyramid columns were divided by to give `spatial` (all ones when
    normalization is off)."""

    label: Hashable
    global_feature: GlobalFeature
    spatial: FeatureMatrix
    image: ToyImage | None = None
    column_scales: np.ndarray | None = None


@dataclass(frozen=True)
class TripletBatch:
    """P identities x K images, read from the labels: every identity appears
    equally often. A batch encoded from images carries the encoder parameters
    and pyramid it was encoded with and, per image shape, the positions of
    its samples and their stacked forward pass."""

    samples: tuple[BatchSample, ...]
    params: EncoderParams | None = None
    pyramid: PyramidSpec | None = None
    groups: tuple[tuple[tuple[int, ...], ForwardPass], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))
        counts = Counter(s.label for s in self.samples)
        sizes = set(counts.values())
        if len(counts) < 2 or len(sizes) != 1 or min(sizes) < 2:
            raise ValueError(f"need P >= 2 identities with the same K >= 2 images each, got {dict(counts)}")


@dataclass(frozen=True)
class MinedTriplet:
    anchor_idx: int
    positive_idx: int
    negative_idx: int
    positive_distance: float  # max combined distance over the anchor's positives
    negative_distance: float  # min combined distance over the anchor's negatives


@dataclass(frozen=True)
class LossReport:
    total_loss: float
    active_triplets: int
    per_triplet_terms: tuple[float, ...]


def global_distances(anchors: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Euclidean distance from a global vector, or from each of an (m, d)
    stack of them, to each row of an (n, d) stack: an (n,) or (m, n) array.

    Every global distance in matching and mining is this one expression, and
    each norm reduces one contiguous length-d row whatever the stack, so a
    pair's distance has the same bits on every path that computes it."""
    return np.linalg.norm(others - anchors[..., None, :], axis=-1)


def _mine(batch: TripletBatch, beta: float) -> tuple[list[MinedTriplet], ReconstructionScorer]:
    samples = batch.samples
    # d[i, j] = combined distance of anchor i against dictionary j. It has
    # the bits of scoring the pair alone, as sfr.oracle.exhaustive_mine does:
    # the global term is one expression, and the scorer's distance for a pair
    # does not depend on the other dictionaries scored with it.
    dim = samples[0].global_feature.dim
    if any(s.global_feature.dim != dim for s in samples):
        raise MismatchError(f"global feature dims differ within the batch (first is {dim})")
    globals_ = np.stack([s.global_feature.values for s in samples])
    spatial = [s.spatial for s in samples]
    scorer = ReconstructionScorer(spatial, beta)
    # The anchors of each column count are scored in one call, which leaves
    # each anchor's own dictionary unscored: the diagonal is never read.
    d = np.empty((len(samples), len(samples)))
    for positions in group_by_shape([x.columns for x in spatial]).values():
        d[positions] = scorer.stacked_distances([spatial[i] for i in positions], skip=enumerate(positions))
    d += global_distances(globals_, globals_)
    # Each identity appears K times, so every row of the label-equality
    # matrix has K - 1 positives (anchor excluded) and n - K negatives, which
    # nonzero lists in index order. argmax and argmin over d gathered there
    # return the first extreme: ties break to the lowest index, and a row
    # whose negatives are all inf still picks a negative, which filling the
    # other entries with inf would not.
    labels: dict[Hashable, int] = {}
    ids = np.array([labels.setdefault(s.label, len(labels)) for s in samples])
    n = len(samples)
    same = ids[:, None] == ids[None, :]
    pos = np.nonzero(same & ~np.eye(n, dtype=bool))[1].reshape(n, -1)
    neg = np.nonzero(~same)[1].reshape(n, -1)
    rows = np.arange(n)
    j_p = pos[rows, d[rows[:, None], pos].argmax(axis=1)]
    j_n = neg[rows, d[rows[:, None], neg].argmin(axis=1)]
    mined = [
        MinedTriplet(a, int(p), int(q), float(d[a, p]), float(d[a, q])) for a, (p, q) in enumerate(zip(j_p, j_n))
    ]
    return mined, scorer


def batch_hard_mine(batch: TripletBatch, beta: float) -> list[MinedTriplet]:
    """Per anchor: hardest positive (argmax combined distance over the same
    identity, anchor excluded) and hardest negative (argmin over different
    identities). Ties break to the lowest sample index."""
    return _mine(batch, beta)[0]


def _check_margin(margin: float) -> None:
    # A nan margin would pass a plain `margin < 0` test and clamp every hinge.
    if not (np.isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be finite and nonnegative, got {margin}")


def _loss_terms(mined: Iterable[MinedTriplet], margin: float) -> LossReport:
    terms = tuple(max(0.0, margin + t.positive_distance - t.negative_distance) for t in mined)
    return LossReport(float(sum(terms)), sum(1 for t in terms if t > 0.0), terms)


def sfr_triplet_loss(batch: TripletBatch, beta: float, margin: float) -> LossReport:
    """Sum over anchors of hinge(margin + hardest-positive - hardest-negative)."""
    _check_margin(margin)
    return _loss_terms(batch_hard_mine(batch, beta), margin)


def sample_batch(
    pool: Mapping[Hashable, Sequence[ToyImage]],
    p: int,
    k: int,
    rng: np.random.Generator,
) -> list[tuple[Hashable, ToyImage]]:
    """Draw P identities and K images each; identities with fewer than K
    images are sampled with replacement."""
    labels = sorted(pool.keys(), key=str)
    if p > len(labels):
        raise ValueError(f"cannot sample {p} identities from {len(labels)}")
    picked = rng.choice(len(labels), size=p, replace=False)
    out = []
    for li in picked:
        label = labels[int(li)]
        images = pool[label]
        replace = len(images) < k
        for ii in rng.choice(len(images), size=k, replace=replace):
            out.append((label, images[int(ii)]))
    return out


def build_batch(
    labeled_images: Sequence[tuple[Hashable, ToyImage]],
    params: EncoderParams,
    *,
    pyramid: PyramidSpec = DEFAULT_PYRAMID,
    normalize: bool = True,
) -> TripletBatch:
    """Encode a P x K image selection into a TripletBatch, one stack per
    image shape."""
    samples: list[BatchSample | None] = [None] * len(labeled_images)
    groups = []
    for positions in group_by_shape([img.values for _, img in labeled_images]).values():
        # One forward and one pool_stack per shape, each of which gives
        # every sample the bits it gets alone.
        forward = encode_forward([labeled_images[i][1] for i in positions], params)
        pooled, scales = pool_stack(forward.output, pyramid, normalize)
        for i, (gap, spatial), scale in zip(positions, pooled, scales):
            label, img = labeled_images[i]
            samples[i] = BatchSample(label, gap, spatial, img, scale)
        groups.append((tuple(positions), forward))
    return TripletBatch(tuple(samples), params, pyramid, tuple(groups))


@dataclass(frozen=True)
class StepPlan:
    """Phase one of the alternating step: each triplet whose hinge term is
    above zero with its positive and negative coefficient matrices, frozen
    with the batch's column scales through the update, and the loss report
    over all mined triplets."""

    active: tuple[tuple[MinedTriplet, np.ndarray, np.ndarray], ...]
    report: LossReport


def _pool_backward(
    grid_shape: tuple[int, ...], dg: np.ndarray, dx: np.ndarray, pyramid: PyramidSpec
) -> np.ndarray:
    # Adjoint of (global mean, pyramid columns) back onto the grid, or onto
    # a stack of same-shape grids.
    h, w = grid_shape[-2:]
    return (dg / float(h * w))[..., None, None] + pool_columns_adjoint(dx, grid_shape, pyramid)


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0.0 else np.zeros_like(v)


def step_gradients(
    batch: TripletBatch, beta: float, margin: float
) -> tuple[list[LayerGradients], StepPlan]:
    """Phase one plus the full analytic parameter gradient of the frozen-plan
    objective (see frozen_step_objective), from the batch's stored forward
    passes: no sample is encoded again."""
    samples = batch.samples
    if batch.params is None or not batch.groups:
        raise ValueError("training requires a batch that build_batch encoded from images")
    _check_margin(margin)
    mined, scorer = _mine(batch, beta)
    report = _loss_terms(mined, margin)
    # Only the triplets whose hinge term is above zero are solved for, with
    # the factors that mining made.
    active = []
    for t, term in zip(mined, report.per_triplet_terms):
        if term > 0.0:
            x = samples[t.anchor_idx].spatial
            active.append((t, scorer.solve(t.positive_idx, x), scorer.solve(t.negative_idx, x)))
    plan = StepPlan(tuple(active), report)

    globals_ = [s.global_feature.values for s in samples]
    # The solve's coordinates: the raw pyramid columns divided by the frozen
    # scales, which is the stored spatial matrix bit for bit.
    spatial = [s.spatial for s in samples]
    dg = [np.zeros_like(g) for g in globals_]
    dx = [np.zeros_like(x.columns) for x in spatial]
    for t, wp, wn in plan.active:
        a, p, n = t.anchor_idx, t.positive_idx, t.negative_idx
        u = _unit(globals_[a] - globals_[p])
        v = _unit(globals_[a] - globals_[n])
        dg[a] += u - v
        dg[p] -= u
        dg[n] += v
        ga_p, go_p = sfr_gradients(spatial[a], spatial[p], wp)
        ga_n, go_n = sfr_gradients(spatial[a], spatial[n], wn)
        dx[a] += ga_p - ga_n
        dx[p] += go_p
        dx[n] -= go_n
    # Chain through the frozen scaling back onto the raw pyramid columns.
    dx = [g / s.column_scales for g, s in zip(dx, samples)]

    # The pooling adjoint, the downsampling adjoint and the ReLU masks run
    # once per image-shape group. The per-sample gradients are then summed
    # in sample order: a per-group sum would round differently.
    params = batch.params
    source = {}  # sample index -> (its group's layer gradients, its row in them)
    for positions, forward in batch.groups:
        grid_grad = _pool_backward(
            forward.output.shape,
            np.stack([dg[i] for i in positions]),
            np.stack([dx[i] for i in positions]),
            batch.pyramid,
        )
        layer_grads = encode_backward(forward, params, grid_grad)
        source.update((i, (layer_grads, j)) for j, i in enumerate(positions))
    kernel_acc = [np.zeros_like(l.kernel) for l in params.layers]
    bias_acc = [np.zeros_like(l.bias) for l in params.layers]
    for i in range(len(samples)):
        layer_grads, j = source[i]
        for ka, ba, lg in zip(kernel_acc, bias_acc, layer_grads):
            ka += lg.kernel[j]
            ba += lg.bias[j]
    grads = [LayerGradients(k, b) for k, b in zip(kernel_acc, bias_acc)]
    return grads, plan


def frozen_step_objective(
    batch: TripletBatch, params: EncoderParams, plan: StepPlan, margin: float
) -> float:
    """The phase-two objective as a function of encoder parameters: over the
    plan's active anchors, margin + global Euclidean gap + squared-Frobenius
    reconstruction gap, with the plan's coefficients and the batch's column
    scales frozen. step_gradients returns the exact gradient of this scalar.
    It encodes every sample's image afresh with params, never reading the
    batch's stored forward passes, so that it stays an independent reference."""
    grids = [encode_raw(s.image, params) for s in batch.samples]
    globals_ = [g.mean(axis=(-2, -1)) for g in grids]
    units = [pool_columns(g, batch.pyramid) / s.column_scales for g, s in zip(grids, batch.samples)]
    total = 0.0
    for t, wp, wn in plan.active:
        a, p, n = t.anchor_idx, t.positive_idx, t.negative_idx
        r_pos = units[a] - units[p] @ wp
        r_neg = units[a] - units[n] @ wn
        total += margin
        total += float(np.linalg.norm(globals_[a] - globals_[p])) + float(np.sum(r_pos * r_pos))
        total -= float(np.linalg.norm(globals_[a] - globals_[n])) + float(np.sum(r_neg * r_neg))
    return total


def training_step(
    batch: TripletBatch, beta: float, margin: float, learning_rate: float
) -> tuple[EncoderParams, LossReport]:
    """One alternating-optimization step on the parameters the batch was
    encoded with; returns updated parameters and the batch's loss report.
    Parameters are returned unchanged when the learning rate is zero or every
    hinge is clamped."""
    grads, plan = step_gradients(batch, beta, margin)
    params = batch.params
    for g in grads:
        if not (np.isfinite(g.kernel).all() and np.isfinite(g.bias).all()):
            raise ArithmeticError(
                f"non-finite gradient (loss {plan.report.total_loss}, "
                f"active {plan.report.active_triplets}); aborting update"
            )
    if learning_rate == 0.0 or plan.report.active_triplets == 0:
        return params, plan.report
    return sgd_update(params, grads, learning_rate), plan.report
