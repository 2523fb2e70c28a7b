"""Independent brute-force routes used to validate the fast paths.

The ridge oracle solves the normal equations by hand-written Gaussian
elimination with partial pivoting and shares no solver code with the
Cholesky path; the gradient oracle is plain central differences. The mining
oracle replays the per-anchor selection with explicit scan loops; it scores
pairs through combined_distance on purpose, because its job is to check the
selection logic, while the solver behind those scores is cross-checked
separately by ridge_oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FactorizationError
from .features import DEFAULT_PYRAMID, FeatureMatrix, GlobalFeature, SpatialFeatureMap, pyramid_pool
from .metric import BatchSample, MinedTriplet, TripletBatch, batch_hard_mine, combined_distance
from .reconstruction import sfr_gradients, solve_coefficients


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


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
            d = combined_distance(anchor, other, beta)
            if other.label == anchor.label:
                if best_pos is None or d > best_pos_d:
                    best_pos, best_pos_d = j, d
            else:
                if best_neg is None or d < best_neg_d:
                    best_neg, best_neg_d = j, d
        mined.append(MinedTriplet(a, best_pos, best_neg, best_pos_d, best_neg_d))
    return mined


def relative_error(approx: np.ndarray, exact: np.ndarray, floor: float = 1e-6) -> float:
    """Max entrywise |a - b| / max(|a|, |b|, floor)."""
    a = np.asarray(approx, dtype=np.float64)
    b = np.asarray(exact, dtype=np.float64)
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


def _window_count(h: int, w: int, kernels) -> int:
    total = 0
    for k in kernels:
        if k <= min(h, w):
            total += (h - k + 1) * (w - k + 1)
    return total


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
    pooling geometry. inject_fault perturbs the fast solver's output to prove
    the harness detects regressions."""
    rng = np.random.default_rng(seed)
    reports: list[OracleReport] = []
    cases: list[CaseRecord] = []

    betas = (1e-3, 1e-1, 1.0)
    max_err = 0.0
    max_rel = 0.0
    for i in range(ridge_cases):
        d, m, n = rng.integers(1, 17, size=3)
        x = random_feature_matrix(rng, int(d), int(n))
        y = random_feature_matrix(rng, int(d), int(m))
        beta = betas[i % len(betas)]
        fast = solve_coefficients(x, y, beta).matrix
        if inject_fault:
            fast = fast + 1e-6
        slow = ridge_oracle(x, y, beta)
        normal_eq = y.columns.T @ (x.columns - y.columns @ fast) - beta * fast
        err = max(float(np.abs(fast - slow).max()), float(np.abs(normal_eq).max()))
        rel = relative_error(fast, slow)
        cases.append(CaseRecord("ridge-vs-elimination", i, err, rel))
        max_err = max(max_err, err)
        max_rel = max(max_rel, rel)
    reports.append(OracleReport("ridge-vs-elimination", max_err, max_rel, max_err <= 1e-8, ridge_cases))

    max_rel = 0.0
    for i in range(gradient_cases):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        xa = random_feature_matrix(rng, d, n)
        xo = random_feature_matrix(rng, d, m)
        coeff = solve_coefficients(xa, xo, 0.01)
        grad_a, grad_o = sfr_gradients(xa, xo, coeff)

        def fro2_a(cols):
            r = cols - xo.columns @ coeff.matrix
            return float(np.sum(r * r))

        def fro2_o(cols):
            r = xa.columns - cols @ coeff.matrix
            return float(np.sum(r * r))

        rel = max(
            relative_error(grad_a, finite_difference(fro2_a, xa.columns, 1e-5)),
            relative_error(grad_o, finite_difference(fro2_o, xo.columns, 1e-5)),
        )
        cases.append(CaseRecord("frozen-coefficient-gradients", i, rel, rel))
        max_rel = max(max_rel, rel)
    reports.append(
        OracleReport("frozen-coefficient-gradients", max_rel, max_rel, max_rel <= 1e-4, gradient_cases)
    )

    max_err = 0.0
    mismatches = 0
    for i in range(mining_batches):
        batch = random_batch(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)), 4)
        fast = batch_hard_mine(batch, 0.001)
        slow = exhaustive_mine(batch, 0.001)
        batch_err = 0.0
        for f, s in zip(fast, slow):
            if (f.positive_idx, f.negative_idx) != (s.positive_idx, s.negative_idx):
                mismatches += 1
            batch_err = max(
                batch_err,
                abs(f.positive_distance - s.positive_distance),
                abs(f.negative_distance - s.negative_distance),
            )
        cases.append(CaseRecord("mining-vs-exhaustive", i, batch_err, batch_err))
        max_err = max(max_err, batch_err)
    reports.append(
        OracleReport(
            "mining-vs-exhaustive", max_err, max_err, mismatches == 0 and max_err == 0.0, mining_batches
        )
    )

    max_rel = 0.0
    count_ok = True
    for i in range(pooling_maps):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        fmap = SpatialFeatureMap(rng.standard_normal((c, h, w)).astype(np.float32))
        pooled = pyramid_pool(fmap, DEFAULT_PYRAMID)
        expected = _loop_pool_oracle(fmap.values.astype(np.float64), DEFAULT_PYRAMID.kernel_sizes)
        if pooled.count != _window_count(h, w, DEFAULT_PYRAMID.kernel_sizes):
            count_ok = False
        rel = relative_error(pooled.columns, expected)
        cases.append(CaseRecord("pooling-geometry", i, rel, rel))
        max_rel = max(max_rel, rel)
    reports.append(
        OracleReport("pooling-geometry", max_rel, max_rel, count_ok and max_rel <= 1e-6, pooling_maps)
    )

    return reports, cases
