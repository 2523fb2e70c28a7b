"""Ridge reconstruction of one spatial feature set from another.

The coefficients W minimize ||X - Y W||_F^2 + beta ||W||_F^2 and come in
closed form from the normal equations (Y^T Y + beta I) W = Y^T X, factored
with a Cholesky decomposition of the regularized Gram matrix. The
reconstruction distance is the mean l2 norm of the residual
columns of X - Y W; ReconstructionScorer computes it for one probe against
many dictionaries at once. During training the gradients of the squared
Frobenius residual are used instead, with W held fixed by the alternating
scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from .errors import FactorizationError, MismatchError
from .features import FeatureMatrix, group_by_shape


@dataclass(frozen=True)
class ReconstructionCoefficients:
    """M x N coefficient matrix expressing X's columns in a dictionary's columns."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"coefficients must be a matrix, got shape {np.shape(self.matrix)}")
        if not np.isfinite(m).all():
            raise ValueError("coefficients contain non-finite values")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class ReconstructionResult:
    """Coefficients plus the residual X - Y W and the mean residual column norm."""

    coefficients: ReconstructionCoefficients
    residual: np.ndarray
    distance: float


def _cholesky(gram: np.ndarray, beta: float, min_pivot_ratio: float) -> np.ndarray | None:
    """Lower Cholesky factor of a regularized Gram matrix, from LAPACK potrf
    with the arguments scipy's cho_factor passes (its upper triangle keeps
    the Gram entries), or None when the matrix is not positive definite or
    its smallest pivot is at most min_pivot_ratio times its largest
    ((max/min)^2 bounds the condition number below). A non-finite Gram
    matrix, as a non-finite beta makes, raises ValueError."""
    if not np.isfinite(gram).all():
        raise ValueError(f"gram matrix contains non-finite values (beta={beta})")
    factor, info = lapack.dpotrf(gram, lower=1, clean=0)
    diag = np.abs(np.diag(factor))
    if info > 0 or diag.min() <= diag.max() * min_pivot_ratio:
        return None
    return factor


class DictionaryFactor:
    """Cholesky factor of (Y^T Y + beta I), reusable across many probes
    reconstructed against the same dictionary Y."""

    __slots__ = ("dictionary", "_factor")

    def __init__(self, dictionary: FeatureMatrix, beta: float):
        if beta < 0:
            raise ValueError(f"beta must be nonnegative, got {beta}")
        y = dictionary.columns
        gram = y.T @ y + beta * np.eye(dictionary.count)
        # potrf can sneak past an exactly singular matrix with a rounded
        # ~1e-8 pivot; beta = 0 is only allowed on nonsingular grams. At
        # beta > 0 a rank-deficient Y leaves tiny pivots in directions that
        # Y W does not reach, so the distance stays exact and no bound applies.
        factor = _cholesky(gram, beta, 1e-7 if beta == 0.0 else 0.0)
        if factor is None:
            raise FactorizationError(
                f"gram matrix not positive definite or numerically singular "
                f"(beta={beta}, cond~{float(np.linalg.cond(gram)):.3e}); use a larger beta"
            )
        self._factor = factor
        self.dictionary = dictionary

    def solve(self, x: FeatureMatrix) -> ReconstructionCoefficients:
        if x.dim != self.dictionary.dim:
            raise MismatchError(f"feature dim {x.dim} != dictionary dim {self.dictionary.dim}")
        w, _ = lapack.dpotrs(self._factor, self.dictionary.columns.T @ x.columns, lower=1)
        return ReconstructionCoefficients(w)

    def whitened_dictionary(self) -> np.ndarray:
        """B = Y L^{-T} (d x M) for Y^T Y + beta I = L L^T, so that the
        reconstruction Y W = Y (L L^T)^{-1} Y^T X is B B^T X."""
        b_t, _ = lapack.dtrtrs(self._factor, self.dictionary.columns.T, lower=1)
        return b_t.T


def _dual_residual_operator(dictionary: FeatureMatrix, beta: float) -> np.ndarray | None:
    """A = beta (Y Y^T + beta I)^{-1} (d x d) for beta > 0: the residual of X
    against Y is A X. A is symmetrized once, so X^T A is the residual's
    transpose up to the rounding of the product.

    A's rounding error is about eps * cond(K) relative to X, and cond(K)
    reaches ||Y||^2 / beta when Y's rank is below d: at beta = 1e-15 a
    rank-31 32 x 122 unit-column Y gave r = 0.2378 for a true 0.1274. So
    None is returned, for the primal form to score Y, unless K's pivots
    differ by a factor below 1e4 (a condition number below 1e8)."""
    y = dictionary.columns
    identity = np.eye(dictionary.dim)
    factor = _cholesky(y @ y.T + beta * identity, beta, 1e-4)
    if factor is None:
        return None
    k_inv, _ = lapack.dpotrs(factor, identity, lower=1)
    a = beta * k_inv
    return 0.5 * (a + a.T)


class ReconstructionScorer:
    """Reconstruction distances of one probe against a fixed list of
    dictionaries, returned as one vector in list order.

    Dictionaries are grouped by column count M, and each group stacks one
    operator per dictionary and is scored with batched matrix products:
    - dual (beta > 0, d < M, and K's pivots within a factor of 1e4): the
      residual is A X with A = beta K^{-1}, K = Y Y^T + beta I, because
      I - Y (Y^T Y + beta I)^{-1} Y^T = beta (Y Y^T + beta I)^{-1}; no
      X - Y W cancellation, and the d x d operator is smaller than Y;
    - otherwise (primal): the residual is X - Y W with Y W = B B^T X, B
      the DictionaryFactor's whitened dictionary, which rejects a singular
      Gram matrix at beta = 0.
    A K too ill-conditioned for the dual form, where its rounding could
    return a plausible but wrong distance, sends its dictionary to the
    primal form, which stays exact there.
    A dictionary's slice goes through the same products whatever else is
    stacked with it, so a pair's distance does not depend, bit for bit, on
    the other dictionaries in the scorer. solve() reuses the factor that
    scoring made for a primal dictionary and factors a dual one on its
    first solve, so no dictionary is factored twice. The scorer keeps a
    reference to each dictionary.
    """

    def __init__(self, dictionaries: Sequence[FeatureMatrix], beta: float):
        dictionaries = tuple(dictionaries)
        if not dictionaries:
            raise ValueError("scorer needs at least one dictionary")
        dim = dictionaries[0].dim
        for i, y in enumerate(dictionaries):
            if y.dim != dim:
                raise MismatchError(f"dictionary {i}: feature dim {y.dim} != {dim}")
        self.dim = dim
        self.size = len(dictionaries)
        self._beta = float(beta)
        self._dictionaries = dictionaries
        self._factors: dict[int, DictionaryFactor] = {}
        # (positions, dual, stacked operators); the residual is formed
        # transposed, one row per probe column, so that each column norm
        # reduces a contiguous row.
        self._groups = []
        for (_, count), positions in group_by_shape([y.columns for y in dictionaries]).items():
            # Operators are written into preallocated stacks, as a list of
            # them and its stacked copy would double the peak memory.
            dual_ops = np.empty((len(positions), dim, dim)) if beta > 0 and dim < count else None
            dual_ids, primal_ids = [], []
            for i in positions:
                a = None if dual_ops is None else _dual_residual_operator(dictionaries[i], beta)
                if a is None:
                    self._factors[i] = DictionaryFactor(dictionaries[i], beta)
                    primal_ids.append(i)
                else:
                    dual_ops[len(dual_ids)] = a
                    dual_ids.append(i)
            if dual_ids:
                self._groups.append((np.array(dual_ids), True, dual_ops[: len(dual_ids)]))
            if primal_ids:
                operators = np.empty((len(primal_ids), dim, count))
                for k, i in enumerate(primal_ids):
                    operators[k] = self._factors[i].whitened_dictionary()
                self._groups.append((np.array(primal_ids), False, operators))

    def solve(self, j: int, x: FeatureMatrix) -> ReconstructionCoefficients:
        """Ridge coefficients of x against dictionary j, the bits of
        solve_coefficients(x, dictionary j, beta)."""
        if j not in self._factors:
            self._factors[j] = DictionaryFactor(self._dictionaries[j], self._beta)
        return self._factors[j].solve(x)

    def distances(self, x: FeatureMatrix) -> np.ndarray:
        """Mean residual column norm of x against each dictionary."""
        if x.dim != self.dim:
            raise MismatchError(f"feature dim {x.dim} != dictionary dim {self.dim}")
        xt = x.columns.T
        out = np.empty(self.size)
        for positions, dual, operators in self._groups:
            # One residual-sized buffer, updated in place: a second one of
            # that size per call made scoring several times slower.
            if dual:
                residual_t = xt @ operators
            else:
                residual_t = (xt @ operators) @ operators.transpose(0, 2, 1)
                np.subtract(xt, residual_t, out=residual_t)
            np.square(residual_t, out=residual_t)
            out[positions] = np.sqrt(residual_t.sum(axis=2)).mean(axis=1)
        if not np.isfinite(out).all():
            raise ValueError("reconstruction distances contain non-finite values")
        return out


def solve_coefficients(x: FeatureMatrix, y: FeatureMatrix, beta: float) -> ReconstructionCoefficients:
    """Closed-form ridge solve of (Y^T Y + beta I) W = Y^T X.

    beta = 0 is accepted only when the Gram matrix is numerically positive
    definite; a failed factorization raises with a condition diagnostic.
    """
    return DictionaryFactor(y, beta).solve(x)


def sfr_distance(x: FeatureMatrix, y: FeatureMatrix, beta: float) -> ReconstructionResult:
    """Reconstruction distance: mean l2 norm of the columns of X - Y W, one
    pair at a time; the per-pair reference for ReconstructionScorer."""
    coeff = solve_coefficients(x, y, beta)
    residual = x.columns - y.columns @ coeff.matrix
    return ReconstructionResult(coeff, residual, float(np.linalg.norm(residual, axis=0).mean()))


def sfr_gradients(
    x_anchor: FeatureMatrix, x_other: FeatureMatrix, coefficients: ReconstructionCoefficients
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of ||Xa - Xo W||_F^2 with W held fixed.

    Returns (d/dXa, d/dXo) = (2 R, -2 R W^T) where R = Xa - Xo W.
    """
    w = coefficients.matrix
    if x_anchor.dim != x_other.dim:
        raise MismatchError(f"feature dims differ: {x_anchor.dim} vs {x_other.dim}")
    if w.shape != (x_other.count, x_anchor.count):
        raise MismatchError(
            f"coefficient shape {w.shape} inconsistent with counts ({x_other.count}, {x_anchor.count})"
        )
    residual = x_anchor.columns - x_other.columns @ w
    return 2.0 * residual, -2.0 * residual @ w.T

