"""Ridge reconstruction of one spatial feature set from another.

The coefficients W minimize ||X - Y W||_F^2 + beta ||W||_F^2, beta > 0, and
come in closed form from the normal equations (Y^T Y + beta I) W = Y^T X. The
regularized Gram matrices of same-shape dictionaries are factored as one
stack: one Cholesky call, then the inverse factors L^{-1} by forward
substitution over the whole stack, so that each solve and each scoring
operator is a few matrix products. A dictionary's slice goes through the
same calls whether its stack holds one dictionary or many. The
reconstruction distance is the mean l2 norm of the residual columns of
X - Y W; residual_operators builds the stacked scoring operators of many
dictionaries and residual_distances scores a stack of same-shape probes
against all of them, for ReconstructionScorer (mining) and for a gallery
block (matching).
During training the gradients of the squared Frobenius residual are used
instead, with W held fixed by the alternating scheme.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import FactorizationError, MismatchError
from .features import FeatureMatrix, group_by_shape


def _cholesky(grams: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack of regularized Gram matrices, from
    one np.linalg.cholesky call, and a mask of the positive definite slices.
    A slice that is not positive definite fails the whole call; the stack is
    then factored one slice at a time to find it (a slice gets the same bits
    either way), and its factor is left as the identity. A non-finite Gram
    matrix, as a non-finite beta makes, raises ValueError."""
    if not np.isfinite(grams).all():
        raise ValueError(f"gram matrix contains non-finite values (beta={beta})")
    passed = np.ones(len(grams), dtype=bool)
    try:
        factors = np.linalg.cholesky(grams)
    except np.linalg.LinAlgError:
        factors = np.empty_like(grams)
        for k, gram in enumerate(grams):
            try:
                factors[k] = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                factors[k] = np.eye(len(gram))
                passed[k] = False
    return factors, passed


def _inverse_lower(factors: np.ndarray) -> np.ndarray:
    """L^{-1} of each lower-triangular slice, by forward substitution over
    the whole stack: below the diagonal, row i is (L[i, :i] / -L_ii)
    L^{-1}[:i, :i], one stacked product per row."""
    pivots = np.diagonal(factors, axis1=1, axis2=2)
    scaled = factors / -pivots[:, :, None]
    inverse = np.zeros_like(factors)
    diagonal = np.arange(factors.shape[1])
    inverse[:, diagonal, diagonal] = 1.0 / pivots
    for i in range(1, factors.shape[1]):
        np.matmul(scaled[:, i : i + 1, :i], inverse[:, :i, :i], out=inverse[:, i : i + 1, :i])
    return inverse


def _regularized_grams(dictionaries: Sequence[FeatureMatrix], beta: float, dual: bool) -> np.ndarray:
    """Y^T Y + beta I of each same-shape dictionary, or Y Y^T + beta I when
    dual, as one stack. beta <= 0 raises ValueError; a nan or infinite beta
    makes the stack non-finite, which _cholesky rejects."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    size = dictionaries[0].dim if dual else dictionaries[0].count
    grams = np.empty((len(dictionaries), size, size))
    for gram, y in zip(grams, dictionaries):
        c = y.columns.T if dual else y.columns
        np.matmul(c.T, c, out=gram)
    grams += beta * np.eye(size)
    return grams


def _primal_inverse_factors(dictionaries: Sequence[FeatureMatrix], beta: float) -> np.ndarray:
    """L^{-1} of Y^T Y + beta I = L L^T for each same-shape dictionary, as
    one stack; FactorizationError for the first one that is not positive
    definite. A rank-deficient Y leaves tiny pivots in directions that Y W
    does not reach, so the distance stays exact and no pivot bound applies."""
    grams = _regularized_grams(dictionaries, beta, dual=False)
    factors, passed = _cholesky(grams, beta)
    if not passed.all():
        gram = grams[np.argmin(passed)]
        raise FactorizationError(
            f"gram matrix not positive definite or numerically singular "
            f"(beta={beta}, cond~{float(np.linalg.cond(gram)):.3e}); use a larger beta"
        )
    return _inverse_lower(factors)


class DictionaryFactor:
    """Inverse Cholesky factor L^{-1} of Y^T Y + beta I = L L^T, reusable
    across many probes reconstructed against the same dictionary Y.
    inverse_factor is the dictionary's slice of a scorer's stacked factors;
    without it the dictionary is factored as a stack of one, through the
    same calls and so to the same bits."""

    __slots__ = ("dictionary", "_inverse")

    def __init__(self, dictionary: FeatureMatrix, beta: float, inverse_factor: np.ndarray | None = None):
        if inverse_factor is None:
            inverse_factor = _primal_inverse_factors([dictionary], beta)[0]
        self._inverse = inverse_factor
        self.dictionary = dictionary

    def solve(self, x: FeatureMatrix) -> np.ndarray:
        """W = L^{-T} L^{-1} Y^T X, the M x N coefficients of x's columns in
        the dictionary's columns."""
        if x.dim != self.dictionary.dim:
            raise MismatchError(f"feature dim {x.dim} != dictionary dim {self.dictionary.dim}")
        inverse = self._inverse
        return inverse.T @ (inverse @ (self.dictionary.columns.T @ x.columns))


def _dual_residual_operators(dictionaries: Sequence[FeatureMatrix], beta: float) -> tuple[np.ndarray, np.ndarray]:
    """A = beta (Y Y^T + beta I)^{-1} (d x d), for each
    same-shape dictionary whose K = Y Y^T + beta I passes the pivot rule
    below, stacked, and the mask of those dictionaries: the residual of X
    against Y is A X. A is symmetrized, so X^T A is the residual's transpose
    up to the rounding of the product.

    A's rounding error is about eps * cond(K) relative to X, and cond(K)
    reaches ||Y||^2 / beta when Y's rank is below d: at beta = 1e-15 a
    rank-31 32 x 122 unit-column Y gave r = 0.2378 for a true 0.1274. So a
    dictionary is left out, for the primal form to score it, unless K's
    pivots differ by a factor below 1e4 ((max/min)^2 bounds cond(K) from
    below, so a condition number below 1e8)."""
    factors, passed = _cholesky(_regularized_grams(dictionaries, beta, dual=True), beta)
    pivots = np.diagonal(factors, axis1=1, axis2=2)
    passed &= pivots.min(axis=1) > pivots.max(axis=1) * 1e-4
    inverse = _inverse_lower(factors[passed])
    a = beta * (inverse.transpose(0, 2, 1) @ inverse)
    return 0.5 * (a + a.transpose(0, 2, 1)), passed


# A primal pair is scored from ||x_n||^2 - ||E^T x_n||^2 unless a column's
# squared residual falls below GRAM_FORM_FLOOR ||x_n||^2; see
# residual_distances for the bound this gives.
GRAM_FORM_FLOOR = 1e-3


def _primal_residual_operators(
    dictionaries: Sequence[FeatureMatrix], inverse: np.ndarray, beta: float
) -> np.ndarray:
    """The scoring operators of same-shape primal dictionaries, from their
    stacked L^{-1}: per dictionary the d x M matrix E = B R over the M x M
    matrix (R^T R)^{-1}, as one (dictionaries, d + M, M) stack.

    B = Y L^{-T} and R is the lower Cholesky factor of I + beta L^{-1} L^{-T},
    which is 2I - B^T B. So E E^T = 2P - P^2 for the projection P = B B^T
    onto the span of Y's columns, and ||x - P x||^2 = ||x||^2 - ||E^T x||^2:
    one d x M product per probe. The eigenvalues of I + beta L^{-1} L^{-T}
    lie in (1, 2], so R is well conditioned whatever cond(G) is, and
    E (R^T R)^{-1} E^T = B B^T gives the direct form x - P x from the same
    stack."""
    dim, count = dictionaries[0].dim, inverse.shape[1]
    shifted = inverse @ inverse.transpose(0, 2, 1)
    shifted *= beta
    shifted += np.eye(count)
    factors, _ = _cholesky(shifted, beta)
    r_inverse = _inverse_lower(factors)
    # E = (Y L^{-T}) R, written into a preallocated stack, as a list of them
    # and its stacked copy would double the peak memory. Forming B first
    # halved r's largest error against augmented least squares, next to
    # Y (L^{-T} R), on the snapshot's raw and normalized primal pairs.
    operators = np.empty((len(dictionaries), dim + count, count))
    for k, y in enumerate(dictionaries):
        np.matmul(y.columns @ inverse[k].T, factors[k], out=operators[k, :dim])
    operators[:, dim:] = r_inverse @ r_inverse.transpose(0, 2, 1)
    return operators


def residual_operators(
    dictionaries: Sequence[FeatureMatrix], beta: float
) -> tuple[list[tuple[np.ndarray, bool, np.ndarray]], dict[int, np.ndarray]]:
    """The scoring operators of same-dim dictionaries, grouped by column count
    M, and the L^{-1} of each primal dictionary by its position in the list.

    Each group is (positions, dual, stacked operators), in one of two forms:
    - dual (d < M, and K's pivots within a factor of 1e4): the
      residual is A X with A = beta K^{-1}, K = Y Y^T + beta I, because
      I - Y (Y^T Y + beta I)^{-1} Y^T = beta (Y Y^T + beta I)^{-1}; no
      X - Y W cancellation, and the d x d operator is smaller than Y;
    - otherwise (primal): E over (R^T R)^{-1}, a (d + M) x M operator
      (_primal_residual_operators), from G = Y^T Y + beta I = L L^T; a G
      that Cholesky cannot factor raises FactorizationError.
    Each group's K or G matrices are factored as one stack. A K too
    ill-conditioned for the dual form, where its rounding could return a
    plausible but wrong distance, sends its dictionary to the primal form,
    which stays exact there. A dictionary's slice goes through the same
    factorization and products whatever else is stacked with it, so its
    operator, and a pair's distance, do not depend, bit for bit, on the
    other dictionaries in the list. Scoring (residual_distances) reads only
    the groups, which hold no reference to the dictionaries.
    """
    dim = dictionaries[0].dim
    groups: list[tuple[np.ndarray, bool, np.ndarray]] = []
    inverses: dict[int, np.ndarray] = {}
    for (_, count), positions in group_by_shape([y.columns for y in dictionaries]).items():
        if dim < count:
            operators, dual = _dual_residual_operators([dictionaries[i] for i in positions], beta)
            if dual.any():
                groups.append((np.array(positions)[dual], True, operators))
            positions = [i for i, d in zip(positions, dual) if not d]
        if positions:
            inverse = _primal_inverse_factors([dictionaries[i] for i in positions], beta)
            inverses.update(zip(positions, inverse))
            operators = _primal_residual_operators([dictionaries[i] for i in positions], inverse, beta)
            groups.append((np.array(positions), False, operators))
    return groups, inverses


def residual_distances(
    groups: list[tuple[np.ndarray, bool, np.ndarray]],
    size: int,
    probes: Sequence[FeatureMatrix],
    skip: Iterable[tuple[int, int]] = (),
) -> np.ndarray:
    """Mean residual column norm of each of a stack of same-shape probes
    against each of the `size` dictionaries whose operator groups
    residual_operators returned: a (probes, size) array, in list order.
    The (probe, dictionary) pairs in `skip` are left unscored and read 0,
    and every other pair has the bits of the same call without them.

    A primal pair is one slice of a broadcast product over probes and
    dictionaries, so it has the bits it gets scored alone. Its squared
    column residual r_n^2 = ||x_n||^2 - ||E^T x_n||^2 carries an absolute
    rounding error of about g ||x_n||^2, where g is the relative rounding of
    the two squared norms (a small multiple of eps), so r_n is off by about
    g ||x_n||^2 / (2 r_n^2) relative. While r_n^2 >= tau ||x_n||^2, with
    tau = GRAM_FORM_FLOOR, that is at most g / (2 tau) = 500 g: no column
    loses more than log10(500) = 2.7 digits to the cancellation. A pair with
    any column below the floor, as a probe made of the dictionary's own
    columns has, is scored again whole in the direct form
    x - E (R^T R)^{-1} E^T x, whose relative error is about g ||x_n|| / r_n,
    below the Gram form's there. A group's flagged (probe, dictionary) pairs
    are rescored in stacked products over slices of at most as many pairs
    as the group has dictionaries, so however many pairs are flagged, the
    rescore holds per dictionary of the group at most two residual-sized
    buffers (the product and the copy of the pair's probe) and a copy of
    one operator. A skipped primal pair is never rescored, and its Gram-form
    r_n^2, which can be negative, is zeroed before the square root. The dual
    form is applied one probe at a time: stacked, it was slower.
    """
    out = np.empty((len(probes), size))
    pairs = tuple(skip)
    skipped = None  # the pairs to leave unscored as a (probes, size) mask, if any
    if pairs:
        skipped = np.zeros((len(probes), size), dtype=bool)
        skipped[tuple(np.transpose(pairs))] = True
    # Each residual is formed transposed, one row per probe column. np.stack
    # keeps each probe's slice column-major, so `squares` and the rescore's
    # norms reduce a strided axis; a C-ordered copy of xt would be read
    # contiguously, but it gave the broadcast product different bits.
    xt = np.stack([x.columns.T for x in probes])
    squares = None  # the probes' squared column norms, once a primal group needs them
    for positions, dual, operators in groups:
        group_skipped = None if skipped is None else skipped[:, positions]
        if dual:
            for i, x in enumerate(probes):
                # One residual-sized buffer, updated in place: a second one
                # of that size per call made scoring several times slower.
                residual_t = x.columns.T @ operators
                np.square(residual_t, out=residual_t)
                out[i, positions] = np.sqrt(residual_t.sum(axis=2)).mean(axis=1)
            if group_skipped is not None:
                skipped_probes, skipped_dicts = np.nonzero(group_skipped)
                out[skipped_probes, positions[skipped_dicts]] = 0.0
            continue
        dim = xt.shape[2]
        e, gram_inverse = operators[:, :dim], operators[:, dim:]
        if squares is None:
            squares = np.square(xt).sum(axis=2)[:, None, :]
        projected = xt[:, None] @ e[None]
        with np.errstate(invalid="ignore"):  # inf - inf: raised below as non-finite
            r2 = squares - np.square(projected).sum(axis=3)
        flagged = (r2 < GRAM_FORM_FLOOR * squares).any(axis=2)
        if group_skipped is not None:
            r2[group_skipped] = 0.0
            flagged &= ~group_skipped
        flagged_probes, flagged_dicts = np.nonzero(flagged)
        for start in range(0, len(flagged_probes), len(positions)):
            # Two residual-sized buffers per pair: the product, which takes
            # the difference and its square in place, and the probe's copy.
            i = flagged_probes[start:start + len(positions)]
            k = flagged_dicts[start:start + len(positions)]
            residual_t = (projected[i, k] @ gram_inverse[k]) @ e[k].transpose(0, 2, 1)
            np.subtract(xt[i], residual_t, out=residual_t)
            r2[i, k] = np.square(residual_t, out=residual_t).sum(axis=2)
        out[:, positions] = np.sqrt(r2).mean(axis=2)
    if not np.isfinite(out).all():
        raise ValueError("reconstruction distances contain non-finite values")
    return out


class ReconstructionScorer:
    """Reconstruction distances of one probe against a fixed list of
    dictionaries, returned as one vector in list order, and the ridge
    coefficients against any of them.

    Scoring goes through residual_operators and residual_distances, which
    matching uses too, so a pair's distance has the same bits here as in a
    gallery block. solve() reuses the factor that scoring made for a primal
    dictionary and factors a dual one on its first solve, so no dictionary
    is factored twice. For solve the scorer keeps a reference to each
    dictionary and each primal factor.
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
        self._groups, inverses = residual_operators(dictionaries, beta)
        self._factors = {i: DictionaryFactor(dictionaries[i], beta, inverse) for i, inverse in inverses.items()}

    def solve(self, j: int, x: FeatureMatrix) -> np.ndarray:
        """Ridge coefficients of x against dictionary j, the bits of
        solve_coefficients(x, dictionary j, beta)."""
        if j not in self._factors:
            self._factors[j] = DictionaryFactor(self._dictionaries[j], self._beta)
        return self._factors[j].solve(x)

    def distances(self, x: FeatureMatrix) -> np.ndarray:
        """Mean residual column norm of x against each dictionary."""
        return self.stacked_distances([x])[0]

    def stacked_distances(
        self, xs: Sequence[FeatureMatrix], skip: Iterable[tuple[int, int]] = ()
    ) -> np.ndarray:
        """distances() of each of a stack of same-shape probes, as one
        (probes, dictionaries) array; row i has the bits of distances(xs[i]),
        except that the (probe, dictionary) pairs in `skip` are left unscored
        and read 0."""
        for x in xs:
            if x.dim != self.dim:
                raise MismatchError(f"feature dim {x.dim} != dictionary dim {self.dim}")
        return residual_distances(self._groups, self.size, xs, skip)


def solve_coefficients(x: FeatureMatrix, y: FeatureMatrix, beta: float) -> np.ndarray:
    """Closed-form ridge solve of (Y^T Y + beta I) W = Y^T X, returning the
    M x N float64 array W. beta must be positive; a Gram matrix that
    Cholesky cannot factor raises FactorizationError with a condition
    estimate."""
    return DictionaryFactor(y, beta).solve(x)


def sfr_distance(x: FeatureMatrix, y: FeatureMatrix, beta: float) -> float:
    """Reconstruction distance: mean l2 norm of the columns of X - Y W, one
    pair at a time; the per-pair reference for ReconstructionScorer."""
    residual = x.columns - y.columns @ solve_coefficients(x, y, beta)
    return float(np.linalg.norm(residual, axis=0).mean())


def sfr_gradients(x_anchor: FeatureMatrix, x_other: FeatureMatrix, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of ||Xa - Xo W||_F^2 with the M x N coefficients W
    held fixed.

    Returns (d/dXa, d/dXo) = (2 R, -2 R W^T) where R = Xa - Xo W.
    """
    if x_anchor.dim != x_other.dim:
        raise MismatchError(f"feature dims differ: {x_anchor.dim} vs {x_other.dim}")
    if w.shape != (x_other.count, x_anchor.count):
        raise MismatchError(
            f"coefficient shape {w.shape} inconsistent with counts ({x_other.count}, {x_anchor.count})"
        )
    residual = x_anchor.columns - x_other.columns @ w
    return 2.0 * residual, -2.0 * residual @ w.T

