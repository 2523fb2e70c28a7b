"""Closed-form ridge solve, reconstruction distance, and frozen-coefficient gradients."""

import tracemalloc

import numpy as np
import pytest

from sfr.errors import FactorizationError, MismatchError
from sfr.features import (
    FeatureMatrix,
    GlobalFeature,
    PyramidSpec,
    SpatialFeatureMap,
    l2_normalize_columns,
    load_feature_map,
    pool_feature_maps,
    save_feature_map,
)
from sfr.metric import batch_hard_mine
from sfr.oracle import finite_difference, random_batch, relative_error, ridge_oracle
from sfr.reconstruction import (
    DictionaryFactor,
    ReconstructionScorer,
    sfr_distance,
    sfr_gradients,
    solve_coefficients,
)
from sfr.cli import main
from sfr.retrieval import ManifestEntry, build_gallery, write_manifest


def fm(a):
    return FeatureMatrix(np.asarray(a, dtype=np.float64))


def random_instance(rng, d=None, m=None, n=None):
    d = d or int(rng.integers(1, 17))
    m = m or int(rng.integers(1, 17))
    n = n or int(rng.integers(1, 17))
    return fm(rng.standard_normal((d, n))), fm(rng.standard_normal((d, m)))


class TestSolveCoefficients:
    def test_orthonormal_single_column(self):
        x = fm([[1.0], [0.0]])
        y = fm([[1.0], [0.0]])
        w = solve_coefficients(x, y, 1.0)
        np.testing.assert_allclose(w, [[0.5]], atol=1e-15)

    def test_scalar_case(self):
        w = solve_coefficients(fm([[2.0]]), fm([[1.0]]), 0.001)
        np.testing.assert_allclose(w, [[1.998002]], atol=1e-6)

    def test_normal_equation_identity(self):
        rng = np.random.default_rng(42)
        for beta in (1e-3, 1e-1, 1.0):
            for _ in range(20):
                x, y = random_instance(rng)
                w = solve_coefficients(x, y, beta)
                lhs = y.columns.T @ (x.columns - y.columns @ w)
                np.testing.assert_allclose(lhs, beta * w, atol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(MismatchError):
            solve_coefficients(fm([[1.0], [2.0]]), fm([[1.0]]), 0.1)

    @pytest.mark.parametrize("beta", [0.0, -0.0, -1e-3])
    @pytest.mark.parametrize("entry_point", [
        lambda y, beta: solve_coefficients(y, y, beta),
        lambda y, beta: sfr_distance(y, y, beta),
        lambda y, beta: DictionaryFactor(y, beta),
        lambda y, beta: ReconstructionScorer([y], beta),
        lambda y, beta: build_gallery([("e", (GlobalFeature(np.ones(2)), y))], 0.5, beta),
        lambda y, beta: batch_hard_mine(random_batch(np.random.default_rng(0), 2, 2, 2), beta),
    ], ids=["solve_coefficients", "sfr_distance", "DictionaryFactor", "ReconstructionScorer", "build_gallery",
            "batch_hard_mine"])
    def test_negative_beta(self, entry_point, beta):
        # beta > 0 is the ridge solver's one precondition (CLI exit 2).
        with pytest.raises(ValueError, match="beta must be positive"):
            entry_point(fm([[1.0, 0.0], [0.0, 1.0]]), beta)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x, y = random_instance(rng)
        a = solve_coefficients(x, y, 0.01)
        b = solve_coefficients(x, y, 0.01)
        np.testing.assert_array_equal(a, b)


class TestSfrDistance:
    def test_orthonormal_closed_form(self):
        # W = I/(1+beta): every residual column has norm beta/(1+beta).
        x = fm(np.eye(4)[:, :2])
        np.testing.assert_allclose(sfr_distance(x, x, 1.0), 0.5, atol=1e-12)

    def test_scalar_case(self):
        np.testing.assert_allclose(sfr_distance(fm([[2.0]]), fm([[1.0]]), 0.001), 0.001998, atol=1e-6)

    def test_distance_matches_residual_recomputation(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x, y = random_instance(rng)
            r = sfr_distance(x, y, 0.01)
            residual = x.columns - y.columns @ solve_coefficients(x, y, 0.01)
            recomputed = float(np.linalg.norm(residual, axis=0).mean())
            assert abs(r - recomputed) <= 1e-10
            assert r >= 0.0

    def test_asymmetric(self):
        rng = np.random.default_rng(5)
        x = fm(rng.standard_normal((6, 3)))
        y = fm(rng.standard_normal((6, 8)))
        assert sfr_distance(x, y, 0.01) != sfr_distance(y, x, 0.01)

    def test_residual_monotone_in_beta(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            x, y = random_instance(rng)
            betas = sorted(rng.uniform(1e-4, 10.0, size=3))
            norms = [
                np.linalg.norm(x.columns - y.columns @ solve_coefficients(x, y, b))
                for b in betas
            ]
            assert norms[0] <= norms[1] + 1e-10
            assert norms[1] <= norms[2] + 1e-10


class TestGradients:
    def test_zero_residual_gives_zero_gradients(self):
        rng = np.random.default_rng(7)
        xo = fm(rng.standard_normal((4, 3)))
        w = rng.standard_normal((3, 2))
        xa = fm(xo.columns @ w)
        grad_a, grad_o = sfr_gradients(xa, xo, w)
        np.testing.assert_allclose(grad_a, 0.0, atol=1e-14)
        np.testing.assert_allclose(grad_o, 0.0, atol=1e-14)

    def test_scalar_case(self):
        w = np.array([[1.998002]])
        grad_a, grad_o = sfr_gradients(fm([[2.0]]), fm([[1.0]]), w)
        np.testing.assert_allclose(grad_a, [[0.003996]], atol=1e-6)
        np.testing.assert_allclose(grad_o, [[-0.007984]], atol=1e-6)

    def test_matches_finite_differences_4x3_4x5(self):
        rng = np.random.default_rng(42)
        xa = fm(rng.standard_normal((4, 3)))
        xo = fm(rng.standard_normal((4, 5)))
        coeff = solve_coefficients(xa, xo, 0.01)
        grad_a, grad_o = sfr_gradients(xa, xo, coeff)

        def f_a(cols):
            r = cols - xo.columns @ coeff
            return float(np.sum(r * r))

        def f_o(cols):
            r = xa.columns - cols @ coeff
            return float(np.sum(r * r))

        assert relative_error(grad_a, finite_difference(f_a, xa.columns, 1e-5)) < 1e-4
        assert relative_error(grad_o, finite_difference(f_o, xo.columns, 1e-5)) < 1e-4

    # M x N coefficients for an anchor of N = 3 columns and a dictionary of
    # M = 4: a wrong M, a 1-D array and the transposed matrix are rejected.
    @pytest.mark.parametrize("shape", [(5, 3), (12,), (3, 4)], ids=["wrong-M", "1-D", "transposed"])
    def test_shape_mismatch(self, shape):
        rng = np.random.default_rng(8)
        w = rng.standard_normal(shape)
        with pytest.raises(MismatchError):
            sfr_gradients(fm(rng.standard_normal((4, 3))), fm(rng.standard_normal((4, 4))), w)


def ridge_objective(x, y, w, beta):
    """||X - Y W||_F^2 + beta ||W||_F^2, the objective the solve minimizes."""
    r = x.columns - y.columns @ w
    return float(np.sum(r * r) + beta * np.sum(w * w))


class TestObjective:
    def test_zero_coefficients(self):
        # an all-zero dictionary explains nothing: W = 0 and the residual is X
        rng = np.random.default_rng(9)
        x, y = fm(rng.standard_normal((5, 3))), fm(np.zeros((5, 4)))
        w = solve_coefficients(x, y, 0.5)
        np.testing.assert_array_equal(w, np.zeros((4, 3)))
        assert sfr_distance(x, y, 0.5) == float(np.linalg.norm(x.columns, axis=0).mean())
        got = ridge_objective(x, y, w, 0.5)
        np.testing.assert_allclose(got, np.sum(x.columns**2), rtol=1e-12)

    def test_scalar_value(self):
        x, y = fm([[2.0]]), fm([[1.0]])
        w = solve_coefficients(x, y, 0.001)
        np.testing.assert_allclose(ridge_objective(x, y, w, 0.001), 0.0039960, atol=1e-7)

    def test_solved_coefficients_are_optimal(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            x, y = random_instance(rng, d=6, m=5, n=4)
            w = solve_coefficients(x, y, 0.05)
            base = ridge_objective(x, y, w, 0.05)
            for _ in range(100):
                delta = rng.standard_normal(w.shape)
                delta *= rng.uniform(0, 1e-2) / max(np.linalg.norm(delta), 1e-12)
                assert base <= ridge_objective(x, y, w + delta, 0.05) + 1e-12


def unit_columns(rng, d, n, zero=()):
    """Nonnegative columns normalized as the pipeline does; the columns listed
    in zero stay zero, as normalization leaves an all-zero column."""
    cols = np.abs(rng.standard_normal((d, n)))
    cols[:, list(zero)] = 0.0
    return l2_normalize_columns(fm(cols))


# (feature dim d, dictionary column counts M, probe columns N, zero columns)
SCORER_CASES = [
    pytest.param(8, (20,), 5, (), id="d<M"),
    pytest.param(12, (12,), 7, (), id="d=M"),
    pytest.param(30, (6,), 4, (), id="d>M"),
    pytest.param(10, (3, 25, 10, 25, 3, 40, 9), 6, (), id="mixed-M"),
    pytest.param(9, (4, 16, 4), 5, (1,), id="zero-columns"),
]


def scorer_case(d, counts, n, zero, seed=0):
    rng = np.random.default_rng(seed)
    ys = [unit_columns(rng, d, m, zero=zero if m > max(zero, default=-1) else ()) for m in counts]
    return unit_columns(rng, d, n, zero=zero), ys


class TestReconstructionScorer:
    @pytest.mark.parametrize("beta", [1e-3, 0.1, 1.0])
    @pytest.mark.parametrize("d, counts, n, zero", SCORER_CASES)
    def test_matches_per_pair_reconstruct(self, d, counts, n, zero, beta):
        x, ys = scorer_case(d, counts, n, zero)
        got = ReconstructionScorer(ys, beta).distances(x)
        assert got.shape == (len(ys),)
        for y, r in zip(ys, got):
            assert abs(r - sfr_distance(x, y, beta)) <= 1e-12
            w = ridge_oracle(x, y, beta)
            assert abs(r - np.linalg.norm(x.columns - y.columns @ w, axis=0).mean()) <= 1e-8

    @pytest.mark.parametrize("d, counts, n, zero", SCORER_CASES)
    def test_pair_alone_is_bit_identical_to_pair_among_others(self, d, counts, n, zero):
        x, ys = scorer_case(d, counts, n, zero)
        together = ReconstructionScorer(ys, 1e-3).distances(x)
        for y, r in zip(ys, together):
            assert ReconstructionScorer([y], 1e-3).distances(x)[0] == r

    def test_pair_independence_over_random_shapes(self):
        rng = np.random.default_rng(11)
        mismatches = 0
        for _ in range(40):
            d = int(rng.integers(1, 70))
            ys = [unit_columns(rng, d, int(m)) for m in rng.integers(1, 30, size=int(rng.integers(2, 8)))]
            x = unit_columns(rng, d, int(rng.integers(1, 30)))
            together = ReconstructionScorer(ys, 1e-3).distances(x)
            mismatches += sum(ReconstructionScorer([y], 1e-3).distances(x)[0] != r for y, r in zip(ys, together))
        assert mismatches == 0

    @pytest.mark.parametrize("d, m, beta, dual", [
        (4, 9, 1e-3, True),
        (9, 9, 1e-3, False),
        (9, 4, 1e-3, False),
    ])
    def test_dual_form_only_for_positive_beta_and_d_below_m(self, d, m, beta, dual):
        rng = np.random.default_rng(12)
        y = fm(rng.standard_normal((d, m)) + 3 * np.eye(d, m))
        (_, group_dual, operators), = ReconstructionScorer([y], beta)._groups
        assert group_dual is dual
        # primal: E over (R^T R)^{-1}, (d + M) x M
        assert operators.shape == ((1, d, d) if dual else (1, d + m, m))

    @pytest.mark.parametrize("d, m", [(4, 9), (9, 4)], ids=["dual-d<M", "primal-d>M"])
    def test_solve_has_the_bits_of_solve_coefficients(self, d, m):
        rng = np.random.default_rng(15)
        ys = [fm(rng.standard_normal((d, m))) for _ in range(3)]
        x = fm(rng.standard_normal((d, 5)))
        scorer = ReconstructionScorer(ys, 1e-3)
        # j = 2 twice: a dual dictionary is factored on its first solve and
        # that factor is reused.
        for j in (2, 0, 2):
            np.testing.assert_array_equal(scorer.solve(j, x), solve_coefficients(x, ys[j], 1e-3))

    @pytest.mark.parametrize("d, m", [(4, 9), (9, 4)])
    def test_non_finite_distance_raises_value_error(self, d, m):
        rng = np.random.default_rng(13)
        scorer = ReconstructionScorer([fm(rng.standard_normal((d, m)))], 1e-3)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            scorer.distances(fm(np.full((d, 2), 1e200)))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(14)
        with pytest.raises(MismatchError):
            ReconstructionScorer([fm(rng.standard_normal((3, 2))), fm(rng.standard_normal((4, 2)))], 0.1)
        scorer = ReconstructionScorer([fm(rng.standard_normal((3, 2)))], 0.1)
        with pytest.raises(MismatchError):
            scorer.distances(fm(rng.standard_normal((4, 2))))


class TestSkippedPairs:
    """The (probe, dictionary) pairs a scoring call is told to skip read
    exactly 0, and every other pair keeps the bits of the same call without
    the skip."""

    SKIP = [(0, 0), (1, 2), (2, 1), (2, 2)]

    def check(self, scorer, probes, skip):
        full = scorer.stacked_distances(probes)
        got = scorer.stacked_distances(probes, skip=skip)
        skipped = np.zeros(got.shape, dtype=bool)
        skipped[tuple(np.transpose(skip))] = True
        assert (got[skipped] == 0.0).all()
        np.testing.assert_array_equal(got[~skipped], full[~skipped])
        return full

    @pytest.mark.parametrize(
        "d, counts, forms",
        [(8, (20, 20, 20), {True}), (30, (6, 6, 6), {False}), (10, (25, 3, 25, 9), {True, False})],
        ids=["dual", "primal", "dual-and-primal"],
    )
    def test_skipped_pairs_read_zero_and_the_rest_keep_their_bits(self, d, counts, forms):
        rng = np.random.default_rng(17)
        ys = [unit_columns(rng, d, m) for m in counts]
        probes = [unit_columns(rng, d, 5) for _ in range(3)]
        scorer = ReconstructionScorer(ys, 1e-3)
        assert {dual for _, dual, _ in scorer._groups} == forms
        full = self.check(scorer, probes, self.SKIP)
        assert (full[tuple(np.transpose(self.SKIP))] > 0.0).all()

    def test_a_probe_made_of_its_own_dictionary(self):
        # Probe i is dictionary i's own columns, as a mining anchor is. At a
        # small beta its Gram-form r^2 against that dictionary is negative in
        # some column, so the pair is flagged for the direct form when
        # scored, and when skipped it must be zeroed before the square root.
        rng = np.random.default_rng(23)
        ys = [unit_columns(rng, 64, 20) for _ in range(3)]
        scorer = ReconstructionScorer(ys, 1e-12)
        ((_, dual, operators),) = scorer._groups
        assert not dual
        for y, e in zip(ys, operators[:, :64]):
            x = y.columns.T
            assert (np.square(x).sum(axis=1) - np.square(x @ e).sum(axis=1) < 0.0).any()
        self.check(scorer, ys, [(i, i) for i in range(len(ys))])


class TestCholeskyFactors:
    # A scorer factors each shape group as one stack (np.linalg.cholesky, then
    # the inverse factors by forward substitution). Every slice must have the
    # bits of its dictionary factored alone, and must agree with scipy's
    # cho_solve and solve_triangular and with augmented least squares. Those
    # routes round differently, so they are held to the forward-error bound
    # of a backward-stable solve, c * eps * cond, with c = 64: over this grid
    # the ratio peaked at 7.6 (W), 1.7 (E), 1.8 ((R^T R)^{-1}) and 0.7 (A).
    # The primal E = Y L^{-T} R is bound by cond(L) = sqrt(cond(G)), as R's
    # condition is at most sqrt(2). r is within 1e-10 of augmented least
    # squares (a gap of 9.7e-13 at most here), below the 1e-8 of the ridge
    # oracle checks.
    def test_stacked_slices_have_the_bits_of_one_alone_and_agree_with_scipy(self):
        from scipy.linalg import cho_factor, cho_solve, cholesky, inv, solve_triangular

        def assert_close(got, ref, cond):
            assert np.abs(got - ref).max() <= 64 * np.finfo(float).eps * cond * np.abs(ref).max(), cond

        rng = np.random.default_rng(17)
        beta = 1e-3
        forms = set()
        for d in range(1, 70):
            for m in range(1, 30):
                ys = [fm(rng.standard_normal((d, m))) for _ in range(2)]
                x = fm(rng.standard_normal((d, 3)))
                scorer = ReconstructionScorer(ys, beta)
                together = scorer.distances(x)
                slices = {
                    j: (dual, ops[k]) for positions, dual, ops in scorer._groups for k, j in enumerate(positions)
                }
                for j, y in enumerate(ys):
                    dual, operator = slices[j]
                    forms.add(dual)
                    alone = ReconstructionScorer([y], beta)
                    ((_, dual_alone, operators_alone),) = alone._groups
                    assert dual_alone is dual
                    np.testing.assert_array_equal(operator, operators_alone[0])
                    assert alone.distances(x)[0] == together[j]
                    w = scorer.solve(j, x)
                    np.testing.assert_array_equal(w, alone.solve(0, x))
                    np.testing.assert_array_equal(scorer._factors[j]._inverse, alone._factors[0]._inverse)

                    yc = y.columns
                    gram = yc.T @ yc + beta * np.eye(m)
                    cond = np.linalg.cond(gram)
                    ref = cho_factor(gram, lower=True)
                    assert_close(w, cho_solve(ref, yc.T @ x.columns), cond)
                    if dual:
                        k = yc @ yc.T + beta * np.eye(d)
                        a = beta * cho_solve(cho_factor(k, lower=True), np.eye(d))
                        assert_close(operator, 0.5 * (a + a.T), np.linalg.cond(k))
                    else:
                        l_inverse = solve_triangular(ref[0], np.eye(m), lower=True)
                        r = cholesky(np.eye(m) + beta * l_inverse @ l_inverse.T, lower=True)
                        b = solve_triangular(ref[0], yc.T, lower=True).T
                        assert_close(operator[:d], b @ r, np.sqrt(cond))
                        assert_close(operator[d:], inv(r.T @ r), cond)
                    assert abs(together[j] - augmented_distance(x.columns, yc, beta)) <= 1e-10
        assert forms == {False, True}

    def test_not_positive_definite_raises_with_condition(self):
        # rank-1 Y: at beta = 1e-30, below the rounding of 1 + beta, potrf
        # meets a zero pivot, FactorizationError (CLI exit 3)
        y = fm([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(FactorizationError, match=r"not positive definite.*beta=1e-30, cond~"):
            solve_coefficients(fm([[1.0], [0.0]]), y, 1e-30)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    @pytest.mark.parametrize("d, m", [(4, 9), (9, 4)])
    def test_non_finite_beta_raises_value_error(self, beta, d, m):
        # both the dual (d < M) and the primal route reject it (CLI exit 2)
        rng = np.random.default_rng(18)
        y = fm(rng.standard_normal((d, m)))
        with np.errstate(invalid="ignore"):  # inf * 0 off the Gram diagonal
            with pytest.raises(ValueError, match="non-finite"):
                ReconstructionScorer([y], beta)
            with pytest.raises(ValueError, match="non-finite"):
                solve_coefficients(fm(rng.standard_normal((d, 2))), y, beta)


def low_rank_unit(rng, d, rank, m):
    # Y = A B with A d x rank and B rank x m, then each column scaled to unit
    # length: a dictionary of the given rank.
    y = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, m))
    return y / np.linalg.norm(y, axis=0)


def augmented_residuals(x, y, beta):
    # Least squares on [Y; sqrt(beta) I] W ~ [X; 0]: the ridge minimizer
    # without forming the Gram matrix, so its accuracy does not hinge on the
    # Gram's conditioning. Returns the residual norm of each column of X.
    m = y.shape[1]
    w = np.linalg.lstsq(
        np.vstack([y, np.sqrt(beta) * np.eye(m)]), np.vstack([x, np.zeros((m, x.shape[1]))]), rcond=None
    )[0]
    return np.linalg.norm(x - y @ w, axis=0)


def augmented_distance(x, y, beta):
    return float(augmented_residuals(x, y, beta).mean())


class TestPivotGuard:
    # A dual operator whose K is near singular sends its dictionary to the
    # primal form, which scores it as the augmented least-squares route does
    # or raises FactorizationError. Only a Gram matrix whose beta is below
    # its rounding may be rejected.
    @pytest.mark.parametrize("d, m", [(32, 122), (64, 14), (8, 30), (16, 16)])
    def test_raises_or_agrees_with_augmented_least_squares(self, d, m):
        full = min(d, m)
        for rank in (full, full - 1, full // 2, 2):
            for seed in range(3):
                for beta in (1e-15, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-6, 1e-3):
                    rng = np.random.default_rng(seed)
                    y = low_rank_unit(rng, d, rank, m)
                    x = rng.standard_normal((d, 20))
                    x /= np.linalg.norm(x, axis=0)
                    try:
                        r = ReconstructionScorer([fm(y)], beta).distances(fm(x))[0]
                    except FactorizationError:
                        assert rank < m and beta < 1e-13, (rank, seed, beta)
                        continue
                    assert abs(r - augmented_distance(x, y, beta)) <= 1e-6, (rank, seed, beta)

    def test_near_singular_dual_gram_is_scored_in_the_primal_form(self):
        # K's pivots here span 5e6, 4e5 and 1.2e4 at beta = 1e-15, 1e-13 and
        # 1e-10, where the dual form returned 0.2378, 0.1278 and 0.12738259
        # for a true 0.12738293.
        rng = np.random.default_rng(0)
        y = low_rank_unit(rng, 32, 31, 122)
        x = rng.standard_normal((32, 20))
        x /= np.linalg.norm(x, axis=0)
        with pytest.raises(FactorizationError, match=r"singular.*beta=.*cond~"):
            ReconstructionScorer([fm(y)], 1e-15)
        for beta in (1e-13, 1e-10):
            r = ReconstructionScorer([fm(y)], beta).distances(fm(x))[0]
            assert r == pytest.approx(augmented_distance(x, y, beta), rel=1e-12, abs=0)

    @pytest.mark.parametrize("gallery_hw", [(3, 3), (6, 6)], ids=["primal-M14", "dual-shape-M86"])
    def test_raw_scale_maps_at_the_default_beta_are_scored_exactly(self, gallery_hw):
        # Unnormalized maps near 100 with the default pyramid: every pooled
        # dictionary is rank-deficient (each window averages k = 1 columns),
        # so cond(G) is about ||Y||^2 / beta ~ 1e10. The 64 x 6 x 6 map takes
        # the dual shape (d = 64 < M = 86, rank 36), where the dual form was
        # off by 6e-8 relative.
        rng = np.random.default_rng(5)

        def raw_columns(hw):
            fmap = SpatialFeatureMap(rng.gamma(2.0, 0.5, (64, *hw)) * 100)
            return pool_feature_maps([fmap], normalize=False)[0][1]

        gallery, probe = raw_columns(gallery_hw), raw_columns((2, 3))
        r = ReconstructionScorer([gallery], 1e-3).distances(probe)[0]
        assert r == pytest.approx(augmented_distance(probe.columns, gallery.columns, 1e-3), rel=1e-12, abs=0)

    def test_dual_and_primal_forms_in_one_group_keep_each_pairs_bits(self):
        # Two dictionaries of the same shape, one well conditioned for the
        # dual form and one sent to the primal form: each pair's distance
        # has the bits it has alone.
        rng = np.random.default_rng(0)
        ys = [fm(unit) for unit in (low_rank_unit(rng, 32, 32, 122), low_rank_unit(rng, 32, 31, 122))]
        x = fm(rng.standard_normal((32, 20)))
        scorer = ReconstructionScorer(ys, 1e-12)
        assert sorted(dual for _, dual, _ in scorer._groups) == [False, True]
        together = scorer.distances(x)
        for y, r in zip(ys, together):
            assert ReconstructionScorer([y], 1e-12).distances(x)[0] == r


# The accuracy that residual_distances promises: a column is scored in the
# one-product form only while its squared residual is at least TAU times its
# squared norm, so it loses at most log10(1 / (2 TAU)) = 2.7 digits. The
# judge holds the code to this figure rather than reading the code's own.
TAU = 1e-3


def judge_tolerance(x, y, beta, dual):
    """The largest gap between a distance and augmented_distance(x, y, beta)
    that rounding explains, from the pair's conditioning. The dual operator
    A = beta K^{-1} rounds by about eps cond(K) relative. The primal
    E = Y L^{-T} R rounds by about eps sqrt(cond(G)) (TestCholeskyFactors),
    which moves r_n^2 by that times ||x_n||^2; the one-product form, used
    while r_n^2 >= TAU ||x_n||^2, turns that into at most
    ||x_n|| / (2 sqrt(TAU)) times it in r_n, and the direct form into less. Each bound carries the factor 64 of TestCholeskyFactors, and
    r, a mean over columns, is off by at most the mean column bound."""
    eps = np.finfo(np.float64).eps
    scale = 64 * eps * float(np.linalg.norm(x, axis=0).mean())
    if dual:
        return scale * np.linalg.cond(y @ y.T + beta * np.eye(y.shape[0]))
    cond = np.linalg.cond(y.T @ y + beta * np.eye(y.shape[1]))
    return scale * np.sqrt(cond) / (2 * np.sqrt(TAU))


def route(x, y, beta, dual):
    """How a pair is scored: "dual", "one-product" or "direct" (a column's
    exact squared residual below TAU times its squared norm)."""
    if dual:
        return "dual"
    below = augmented_residuals(x, y, beta) ** 2 < TAU * np.sum(x * x, axis=0)
    return "direct" if below.any() else "one-product"


def duplicated_channel(values):
    # The last channel repeats the first, so Y's rank is below d.
    values = values.copy()
    values[-1] = values[0]
    return values


class TestAugmentedLeastSquaresJudge:
    """The reconstruction distance against augmented least squares, on
    every route a pair can take: the dual form, the primal one-product form,
    its direct-form rescore, and the dual shape sent to the primal form."""

    @staticmethod
    def one_product(rng):
        return unit_columns(rng, 64, 8), [unit_columns(rng, 64, 14) for _ in range(3)], 1e-3

    @staticmethod
    def direct_rescore(rng):
        # The probe is six of the dictionary's own columns: at beta = 1e-7
        # their squared residual is near 3e-14 of their squared norm, where
        # the one-product form would keep two digits of r. The other
        # dictionary scores the probe in the one-product form.
        y = unit_columns(rng, 64, 14)
        return fm(y.columns[:, 3:9]), [y, unit_columns(rng, 64, 14)], 1e-7

    @staticmethod
    def dual_fallback(rng):
        # d = 32 < M = 122, but Y has rank 31: K is too ill-conditioned for
        # the dual form at beta = 1e-10. Some probe column is nearly in Y's
        # span, so the pair is scored in the direct form.
        x = rng.standard_normal((32, 20))
        return fm(x / np.linalg.norm(x, axis=0)), [fm(low_rank_unit(rng, 32, 31, 122))], 1e-10

    @pytest.mark.parametrize("case, routes", [
        ("one_product", {"one-product"}),
        ("direct_rescore", {"direct", "one-product"}),
        ("dual_fallback", {"direct"}),
    ])
    def test_scorer_agrees_on_each_route(self, case, routes):
        x, ys, beta = getattr(self, case)(np.random.default_rng(21))
        scorer = ReconstructionScorer(ys, beta)
        dual = {j: flag for positions, flag, _ in scorer._groups for j in positions}
        got = scorer.distances(x)
        assert {route(x.columns, y.columns, beta, dual[j]) for j, y in enumerate(ys)} == routes
        if case == "dual_fallback":
            assert x.dim < ys[0].count and not dual[0]
        for j, y in enumerate(ys):
            gap = abs(got[j] - augmented_distance(x.columns, y.columns, beta))
            assert gap <= judge_tolerance(x.columns, y.columns, beta, dual[j]), (j, gap)

    def test_match_over_two_gallery_blocks_agrees_on_each_route(self, tmp_path):
        # 40 gallery maps of 32 channels, pooled with --kernels 1 (one column
        # per pixel), in rotation: 3 x 3 (M = 9 < d: primal), 6 x 6 (M = 36
        # > d, full row rank: dual) and 6 x 6 with a duplicated channel
        # (rank 31 < d: sent to the primal form). The probes are 2 x 3 crops
        # of the first three maps, near-exact or noisy. A near-exact crop has
        # every other channel scaled by 1 + 2^-20, so against its own 3 x 3
        # map its squared residual is about 1e-13 of its squared norm:
        # scored in the direct form.
        rng = np.random.default_rng(22)
        beta, shapes = 1e-9, ((3, 3), (6, 6), (6, 6))
        gallery, probes = [], []
        for i in range(40):
            values = rng.standard_normal((32, *shapes[i % 3]))
            if i % 3 == 2:
                values = duplicated_channel(values)
            gallery.append((f"g{i}", values))
            if i < 3:
                near = values[:, :2, :3].astype(np.float32)
                near[::2] *= np.float32(1 + 2**-20)
                probes.append((f"near{i}", near))
                probes.append((f"noisy{i}", values[:, :2, :3] + rng.normal(0.0, 0.3, size=(32, 2, 3))))
        manifests = {}
        for kind, maps in (("gallery", gallery), ("probes", probes)):
            entries = [ManifestEntry(entry_id, entry_id, f"{entry_id}.sfrf") for entry_id, _ in maps]
            for entry, (_, values) in zip(entries, maps):
                save_feature_map(SpatialFeatureMap(values.astype(np.float32)), tmp_path / entry.path)
            manifests[kind] = tmp_path / f"{kind}.jsonl"
            write_manifest(manifests[kind], entries)
        # Every probe's subject is a gallery entry id, so evaluation is defined.
        write_manifest(manifests["probes"], [
            ManifestEntry(probe_id, f"g{int(probe_id[-1])}", f"{probe_id}.sfrf") for probe_id, _ in probes
        ])
        out = tmp_path / "out"
        argv = ["match", "--gallery", str(manifests["gallery"]), "--probes", str(manifests["probes"]),
                "--out", str(out), "--beta", repr(beta), "--kernels", "1", "--workers", "2"]
        assert main(argv) == 0

        def pooled(maps):
            fmaps = [load_feature_map(tmp_path / f"{entry_id}.sfrf") for entry_id, _ in maps]
            return {entry_id: spatial.columns for (entry_id, _), (_, spatial) in
                    zip(maps, pool_feature_maps(fmaps, PyramidSpec((1,))))}

        ys, xs = pooled(gallery), pooled(probes)
        dual = {
            entry_id: ReconstructionScorer([fm(y)], beta)._groups[0][1] for entry_id, y in ys.items()
        }
        routes = set()
        rows = (out / "rankings.csv").read_text().splitlines()[1:]
        assert len(rows) == len(xs) * len(ys)
        for row in rows:
            probe_id, _, entry_id, _, r, _ = row.split(",")
            x, y = xs[probe_id], ys[entry_id]
            routes.add((route(x, y, beta, dual[entry_id]), x.shape[0] < y.shape[1]))
            gap = abs(float(r) - augmented_distance(x, y, beta))
            assert gap <= judge_tolerance(x, y, beta, dual[entry_id]), (probe_id, entry_id, gap)
        # dual; one-product and direct below M; the dual shape scored primal
        assert {("dual", True), ("one-product", False), ("direct", False), ("one-product", True)} <= routes


class TestRescoreSlices:
    """A group's flagged pairs are rescored in the direct form in stacked
    slices of at most as many pairs as the group has dictionaries."""

    D, M, N, DICTS, BETA = 256, 3, 6, 6, 1e-7

    def case(self):
        # Probe p is one column of dictionary p, one of dictionary p + 1
        # (mod 6) and four others: at beta = 1e-7 a dictionary's own column
        # has a squared residual far below GRAM_FORM_FLOOR of its squared
        # norm, so every probe is flagged against two dictionaries, 12 pairs
        # in one primal group of 6 (d > M).
        rng = np.random.default_rng(31)
        ys = [unit_columns(rng, self.D, self.M) for _ in range(self.DICTS)]
        probes = []
        for p in range(self.DICTS):
            own = [ys[(p + s) % self.DICTS].columns[:, [(p + s) % self.M]] for s in range(2)]
            probes.append(fm(np.hstack(own + [unit_columns(rng, self.D, self.N - 2).columns])))
        return ys, probes

    def test_each_pair_has_the_bits_it_has_alone(self):
        ys, probes = self.case()
        scorer = ReconstructionScorer(ys, self.BETA)
        ((_, dual, _),) = scorer._groups
        routes = [[route(x.columns, y.columns, self.BETA, dual) for y in ys] for x in probes]
        flagged = sum(row.count("direct") for row in routes)
        assert flagged == 2 * len(probes) > len(ys)  # the slice loop runs twice
        got = scorer.stacked_distances(probes)
        for i, x in enumerate(probes):
            for j, y in enumerate(ys):
                assert got[i, j] == ReconstructionScorer([y], self.BETA).distances(x)[0], (i, j, routes[i][j])

    def test_rescore_memory_is_bounded_by_the_group_not_the_pairs(self):
        # In units of one residual (N x d float64): the call holds its
        # transposed copy of the probes (one per probe) and the product of
        # every probe with every operator (M / d each). A slice of the
        # rescore holds two per pair (the product and the copy of its
        # probe) and the copy of its operators (M / N each): the budget
        # allows three per dictionary of the group, and numpy's ufunc buffer,
        # which subtracting the differently laid out probe copy takes.
        # Stacking all 12 flagged pairs at once needs 2.5 per pair, 30 in all.
        ys, probes = self.case()
        scorer = ReconstructionScorer(ys, self.BETA)
        residual = self.N * self.D * 8
        budget = (len(probes) * (1 + len(ys) * self.M / self.D) + 3 * len(ys)) * residual + np.getbufsize() * 8
        tracemalloc.start()
        try:
            scorer.stacked_distances(probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, (peak, budget)
