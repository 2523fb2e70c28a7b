"""Independent brute-force routes used to validate the fast paths.

The ridge oracle solves the normal equations by hand-written Gaussian
elimination with partial pivoting and shares no solver code with the
Cholesky path; the gradient oracle is plain central differences. The mining
oracle replays the per-anchor selection with explicit scan loops; it scores
each pair alone with mining's own expression (global_distances plus a
one-dictionary ReconstructionScorer) on purpose, because its job is to check
the selection logic, while the solver behind those scores is cross-checked
separately by ridge_oracle. The pooling check judges pool_feature_maps, the
route that the commands pool through, against a loop over windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FactorizationError
from .features import DEFAULT_PYRAMID, FeatureMatrix, GlobalFeature, SpatialFeatureMap, pool_feature_maps
from .metric import BatchSample, MinedTriplet, TripletBatch, batch_hard_mine, global_distances
from .reconstruction import ReconstructionScorer, sfr_gradients, solve_coefficients


@dataclass(frozen=True)
class OracleReport:
    check_name: str
    max_abs_error: float
    max_rel_error: float
    passed: bool
    cases_run: int

    def to_dict(self) -> dict:
        return {
            "checkName": self.check_name,
            "maxAbsError": self.max_abs_error,
            "maxRelError": self.max_rel_error,
            "passed": self.passed,
            "casesRun": self.cases_run,
        }


def ridge_oracle(x: FeatureMatrix, y: FeatureMatrix, beta: float) -> np.ndarray:
    """Solve (Y^T Y + beta I) W = Y^T X by Gaussian elimination with partial
    pivoting. Intended for small instances (d, M, N <= 16)."""
    m = y.count
    a = y.columns.T @ y.columns + beta * np.eye(m)
    b = y.columns.T @ x.columns
    aug = np.concatenate([a, b], axis=1)
    for col in range(m):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot, col]) < 1e-12:
            raise FactorizationError(f"singular system at column {col} (beta={beta})")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        for row in range(col + 1, m):
            aug[row, col:] -= (aug[row, col] / aug[col, col]) * aug[col, col:]
    w = np.zeros((m, x.count))
    for row in range(m - 1, -1, -1):
        w[row] = (aug[row, m:] - aug[row, row + 1:m] @ w[row + 1:]) / aug[row, row]
    return w


def finite_difference(f: Callable[[np.ndarray], float], at: np.ndarray, eps: float) -> np.ndarray:
    """Entrywise central differences (f(x + eps e) - f(x - eps e)) / (2 eps)."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    at = np.asarray(at, dtype=np.float64)
    grad = np.zeros_like(at)
    it = np.nditer(at, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bumped = at.copy()
        bumped[idx] = at[idx] + eps
        f_plus = f(bumped)
        bumped[idx] = at[idx] - eps
        f_minus = f(bumped)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"objective non-finite near index {idx}")
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def exhaustive_mine(batch: TripletBatch, beta: float) -> list[MinedTriplet]:
    """Plain O((PK)^2) scan with an explicit lowest-index tie rule."""
    samples = batch.samples
    if len(samples) > 24:
        raise ValueError(f"exhaustive mining capped at 24 samples, got {len(samples)}")
    mined = []
    for a, anchor in enumerate(samples):
        # Each scan starts at the anchor's first candidate, so an anchor whose
        # candidates are all at distance inf still gets one.
        best_pos = best_neg = None
        for j, other in enumerate(samples):
            if j == a:
                continue
            r = ReconstructionScorer([other.spatial], beta).distances(anchor.spatial)[0]
            d = float(global_distances(anchor.global_feature.values, other.global_feature.values[None, :])[0] + r)
            if other.label == anchor.label:
                if best_pos is None or d > best_pos_d:
                    best_pos, best_pos_d = j, d
            else:
                if best_neg is None or d < best_neg_d:
                    best_neg, best_neg_d = j, d
        mined.append(MinedTriplet(a, best_pos, best_neg, best_pos_d, best_neg_d))
    return mined


def relative_error(approx: np.ndarray, exact: np.ndarray, floor: float = 1e-6) -> float:
    """Max entrywise |a - b| / max(|a|, |b|, floor); inf where the shapes
    differ, rather than comparing whatever the two would broadcast to."""
    a = np.asarray(approx, dtype=np.float64)
    b = np.asarray(exact, dtype=np.float64)
    if a.shape != b.shape:
        return math.inf
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def random_feature_matrix(rng: np.random.Generator, dim: int, count: int) -> FeatureMatrix:
    return FeatureMatrix(rng.standard_normal((dim, count)))


def random_batch(rng: np.random.Generator, p: int, k: int, dim: int, max_count: int = 6) -> TripletBatch:
    """Random-feature batch for mining checks; identities get offset global
    features so distances are informative but never tied."""
    samples = []
    for identity in range(p):
        center = rng.standard_normal(dim) * 2.0
        for _ in range(k):
            g = GlobalFeature(center + rng.standard_normal(dim) * 0.5)
            count = int(rng.integers(2, max_count + 1))
            samples.append(BatchSample(f"id{identity}", g, random_feature_matrix(rng, dim, count)))
    return TripletBatch(tuple(samples))


def _loop_pool_oracle(values: np.ndarray, kernels) -> np.ndarray:
    """Nested-loop sliding-window means, independent of the vectorized path."""
    c, h, w = values.shape
    cols = []
    for k in kernels:
        if k > min(h, w):
            continue
        for i in range(h - k + 1):
            for j in range(w - k + 1):
                window = values[:, i:i + k, j:j + k]
                cols.append([float(np.sum(window[ch]) / (k * k)) for ch in range(c)])
    return np.array(cols).T


@dataclass(frozen=True)
class CaseRecord:
    check_name: str
    case: int
    abs_error: float
    rel_error: float


# (abs error, rel error, passed) of one case; a fast result whose shape
# differs from its reference fails with infinite errors.
Case = tuple[float, float, bool]
_WRONG_SHAPE: Case = (math.inf, math.inf, False)


def _ridge_case(rng: np.random.Generator, i: int, inject_fault: bool) -> Case:
    d, m, n = rng.integers(1, 17, size=3)
    x = random_feature_matrix(rng, int(d), int(n))
    y = random_feature_matrix(rng, int(d), int(m))
    beta = (1e-3, 1e-1, 1.0)[i % 3]
    fast = solve_coefficients(x, y, beta)
    if inject_fault:
        fast = fast + 1e-6
    slow = ridge_oracle(x, y, beta)
    if fast.shape != slow.shape:
        return _WRONG_SHAPE
    normal_eq = y.columns.T @ (x.columns - y.columns @ fast) - beta * fast
    err = max(float(np.abs(fast - slow).max()), float(np.abs(normal_eq).max()))
    return err, relative_error(fast, slow), err <= 1e-8


def _fro2(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """||X - Y W||_F^2, whose gradients at fixed W sfr_gradients returns."""
    r = x - y @ w
    return float(np.sum(r * r))


def _gradient_case(rng: np.random.Generator) -> Case:
    d, n, m = (int(rng.integers(lo, hi)) for lo, hi in ((2, 7), (1, 6), (1, 6)))
    xa = random_feature_matrix(rng, d, n)
    xo = random_feature_matrix(rng, d, m)
    w = solve_coefficients(xa, xo, 0.01)
    grad_a, grad_o = sfr_gradients(xa, xo, w)
    rel = max(
        relative_error(grad_a, finite_difference(lambda a: _fro2(a, xo.columns, w), xa.columns, 1e-5)),
        relative_error(grad_o, finite_difference(lambda o: _fro2(xa.columns, o, w), xo.columns, 1e-5)),
    )
    return rel, rel, rel <= 1e-4


def _mining_case(rng: np.random.Generator) -> Case:
    batch = random_batch(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)), 4)
    fast = batch_hard_mine(batch, 0.001)
    slow = exhaustive_mine(batch, 0.001)
    if len(fast) != len(slow):
        return _WRONG_SHAPE
    err = 0.0
    for f, s in zip(fast, slow):
        err = max(err, abs(f.positive_distance - s.positive_distance), abs(f.negative_distance - s.negative_distance))
    return err, err, fast == slow


def _pooling_case(rng: np.random.Generator) -> Case:
    c, h, w = (int(rng.integers(lo, hi)) for lo, hi in ((1, 4), (1, 9), (1, 9)))
    fmap = SpatialFeatureMap(rng.standard_normal((c, h, w)).astype(np.float32))
    rel = relative_error(
        pool_feature_maps([fmap], DEFAULT_PYRAMID, normalize=False)[0][1].columns,
        _loop_pool_oracle(fmap.values.astype(np.float64), DEFAULT_PYRAMID.kernel_sizes),
    )
    return rel, rel, rel <= 1e-6


def run_verification(
    seed: int = 7,
    *,
    ridge_cases: int = 50,
    gradient_cases: int = 25,
    mining_batches: int = 20,
    pooling_maps: int = 25,
    inject_fault: bool = False,
) -> tuple[list[OracleReport], list[CaseRecord]]:
    """Full oracle suite: ridge cross-check, normal-equation identity, frozen
    coefficient gradients vs central differences, mining equivalence, and
    pooling geometry. The cases draw from one seeded generator in this order,
    and a check passes when every one of its cases does. inject_fault
    perturbs the fast solver's output to prove the harness detects
    regressions."""
    rng = np.random.default_rng(seed)
    checks = (
        ("ridge-vs-elimination", ridge_cases, lambda i: _ridge_case(rng, i, inject_fault)),
        ("frozen-coefficient-gradients", gradient_cases, lambda i: _gradient_case(rng)),
        ("mining-vs-exhaustive", mining_batches, lambda i: _mining_case(rng)),
        ("pooling-geometry", pooling_maps, lambda i: _pooling_case(rng)),
    )
    reports, cases = [], []
    for name, count, run_case in checks:
        max_abs, max_rel, passed = 0.0, 0.0, True
        for i in range(count):
            abs_err, rel_err, ok = run_case(i)
            cases.append(CaseRecord(name, i, abs_err, rel_err))
            max_abs, max_rel = max(max_abs, abs_err), max(max_rel, rel_err)
            passed = passed and ok
        reports.append(OracleReport(name, max_abs, max_rel, passed, count))
    return reports, cases
