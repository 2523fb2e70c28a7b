"""Closed-form ridge solve, reconstruction distance, and frozen-coefficient gradients."""

import numpy as np
import pytest

from sfr.errors import FactorizationError, MismatchError
from sfr.features import FeatureMatrix, SpatialFeatureMap, l2_normalize_columns, pool_feature_maps
from sfr.oracle import finite_difference, relative_error, ridge_oracle
from sfr.reconstruction import (
    ReconstructionCoefficients,
    ReconstructionScorer,
    sfr_distance,
    sfr_gradients,
    solve_coefficients,
)


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
        np.testing.assert_allclose(w.matrix, [[0.5]], atol=1e-15)

    def test_scalar_case(self):
        w = solve_coefficients(fm([[2.0]]), fm([[1.0]]), 0.001)
        np.testing.assert_allclose(w.matrix, [[1.998002]], atol=1e-6)

    def test_self_representation_beta_zero(self):
        rng = np.random.default_rng(42)
        x = fm(rng.standard_normal((5, 5)) + 3 * np.eye(5))
        w = solve_coefficients(x, x, 0.0)
        np.testing.assert_allclose(w.matrix, np.eye(5), atol=1e-8)

    def test_normal_equation_identity(self):
        rng = np.random.default_rng(42)
        for beta in (1e-3, 1e-1, 1.0):
            for _ in range(20):
                x, y = random_instance(rng)
                w = solve_coefficients(x, y, beta)
                lhs = y.columns.T @ (x.columns - y.columns @ w.matrix)
                np.testing.assert_allclose(lhs, beta * w.matrix, atol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(MismatchError):
            solve_coefficients(fm([[1.0], [2.0]]), fm([[1.0]]), 0.1)

    def test_negative_beta(self):
        with pytest.raises(ValueError):
            solve_coefficients(fm([[1.0]]), fm([[1.0]]), -0.1)

    def test_singular_gram_at_beta_zero(self):
        y = fm([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        with pytest.raises(FactorizationError, match="cond"):
            solve_coefficients(fm([[1.0], [0.0]]), y, 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x, y = random_instance(rng)
        a = solve_coefficients(x, y, 0.01).matrix
        b = solve_coefficients(x, y, 0.01).matrix
        np.testing.assert_array_equal(a, b)


class TestSfrDistance:
    def test_orthonormal_closed_form(self):
        # W = I/(1+beta): every residual column has norm beta/(1+beta).
        x = fm(np.eye(4)[:, :2])
        np.testing.assert_allclose(sfr_distance(x, x, 1.0), 0.5, atol=1e-12)

    def test_scalar_case(self):
        np.testing.assert_allclose(sfr_distance(fm([[2.0]]), fm([[1.0]]), 0.001), 0.001998, atol=1e-6)

    def test_span_membership_zero_distance(self):
        rng = np.random.default_rng(42)
        y = fm(rng.standard_normal((4, 4)) + 3 * np.eye(4))
        coeffs = rng.standard_normal((4, 3))
        x = fm(y.columns @ coeffs)
        assert sfr_distance(x, y, 0.0) < 1e-10

    def test_zero_iff_span_membership_tall_dictionary(self):
        # full-column-rank Y with fewer columns than rows: distance vanishes
        # exactly for X inside the column span
        rng = np.random.default_rng(43)
        basis, _ = np.linalg.qr(rng.standard_normal((5, 3)))
        y = fm(basis)
        inside = fm(basis @ rng.standard_normal((3, 2)))
        assert sfr_distance(inside, y, 0.0) < 1e-10
        complement = np.eye(5) - basis @ basis.T
        outside = fm(complement @ rng.standard_normal((5, 2)) + 1e-3 * basis[:, :2])
        assert sfr_distance(outside, y, 0.0) > 1e-3

    def test_distance_matches_residual_recomputation(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x, y = random_instance(rng)
            r = sfr_distance(x, y, 0.01)
            residual = x.columns - y.columns @ solve_coefficients(x, y, 0.01).matrix
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
                np.linalg.norm(x.columns - y.columns @ solve_coefficients(x, y, b).matrix)
                for b in betas
            ]
            assert norms[0] <= norms[1] + 1e-10
            assert norms[1] <= norms[2] + 1e-10


class TestGradients:
    def test_zero_residual_gives_zero_gradients(self):
        rng = np.random.default_rng(7)
        xo = fm(rng.standard_normal((4, 3)))
        w = ReconstructionCoefficients(rng.standard_normal((3, 2)))
        xa = fm(xo.columns @ w.matrix)
        grad_a, grad_o = sfr_gradients(xa, xo, w)
        np.testing.assert_allclose(grad_a, 0.0, atol=1e-14)
        np.testing.assert_allclose(grad_o, 0.0, atol=1e-14)

    def test_scalar_case(self):
        w = ReconstructionCoefficients(np.array([[1.998002]]))
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
            r = cols - xo.columns @ coeff.matrix
            return float(np.sum(r * r))

        def f_o(cols):
            r = xa.columns - cols @ coeff.matrix
            return float(np.sum(r * r))

        assert relative_error(grad_a, finite_difference(f_a, xa.columns, 1e-5)) < 1e-4
        assert relative_error(grad_o, finite_difference(f_o, xo.columns, 1e-5)) < 1e-4

    def test_shape_mismatch(self):
        rng = np.random.default_rng(8)
        w = ReconstructionCoefficients(rng.standard_normal((5, 3)))
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
        w = solve_coefficients(x, y, 0.5).matrix
        np.testing.assert_array_equal(w, np.zeros((4, 3)))
        assert sfr_distance(x, y, 0.5) == float(np.linalg.norm(x.columns, axis=0).mean())
        got = ridge_objective(x, y, w, 0.5)
        np.testing.assert_allclose(got, np.sum(x.columns**2), rtol=1e-12)

    def test_scalar_value(self):
        x, y = fm([[2.0]]), fm([[1.0]])
        w = solve_coefficients(x, y, 0.001).matrix
        np.testing.assert_allclose(ridge_objective(x, y, w, 0.001), 0.0039960, atol=1e-7)

    def test_solved_coefficients_are_optimal(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            x, y = random_instance(rng, d=6, m=5, n=4)
            w = solve_coefficients(x, y, 0.05).matrix
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
        (9, 9, 0.0, False),
        (9, 4, 1e-3, False),
    ])
    def test_dual_form_only_for_positive_beta_and_d_below_m(self, d, m, beta, dual):
        rng = np.random.default_rng(12)
        y = fm(rng.standard_normal((d, m)) + 3 * np.eye(d, m))
        (_, group_dual, operators), = ReconstructionScorer([y], beta)._groups
        assert group_dual is dual
        assert operators.shape == ((1, d, d) if dual else (1, d, m))

    @pytest.mark.parametrize("d, m", [(4, 9), (9, 4)], ids=["dual-d<M", "primal-d>M"])
    def test_solve_has_the_bits_of_solve_coefficients(self, d, m):
        rng = np.random.default_rng(15)
        ys = [fm(rng.standard_normal((d, m))) for _ in range(3)]
        x = fm(rng.standard_normal((d, 5)))
        scorer = ReconstructionScorer(ys, 1e-3)
        # j = 2 twice: a dual dictionary is factored on its first solve and
        # that factor is reused.
        for j in (2, 0, 2):
            np.testing.assert_array_equal(scorer.solve(j, x).matrix, solve_coefficients(x, ys[j], 1e-3).matrix)

    def test_wide_dictionary_at_beta_zero_stays_singular(self):
        # d < M makes Y^T Y singular; beta = 0 never takes the dual form
        rng = np.random.default_rng(12)
        with pytest.raises(FactorizationError):
            ReconstructionScorer([fm(rng.standard_normal((4, 9)))], 0.0)

    @pytest.mark.parametrize("d, m", [(4, 9), (9, 4)])
    def test_non_finite_distance_raises_value_error(self, d, m):
        rng = np.random.default_rng(13)
        scorer = ReconstructionScorer([fm(rng.standard_normal((d, m)))], 1e-3)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            scorer.distances(fm(np.full((d, 2), 1e200)))

    def test_singular_gram_at_beta_zero(self):
        with pytest.raises(FactorizationError):
            ReconstructionScorer([fm([[1.0, 1.0], [1.0, 1.0]])], 0.0)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(14)
        with pytest.raises(MismatchError):
            ReconstructionScorer([fm(rng.standard_normal((3, 2))), fm(rng.standard_normal((4, 2)))], 0.1)
        scorer = ReconstructionScorer([fm(rng.standard_normal((3, 2)))], 0.1)
        with pytest.raises(MismatchError):
            scorer.distances(fm(rng.standard_normal((4, 2))))


class TestDirectLapack:
    # DictionaryFactor, whitened_dictionary and the dual operator call LAPACK
    # potrf/potrs/trtrs directly; they must give the bits of scipy's
    # cho_factor, cho_solve and solve_triangular, which call the same routines.
    def test_same_bits_as_the_scipy_wrappers(self):
        from scipy.linalg import cho_factor, cho_solve, solve_triangular

        from sfr.reconstruction import DictionaryFactor, _dual_residual_operator

        rng = np.random.default_rng(17)
        beta = 1e-3
        for d in range(1, 70):
            for m in range(1, 30):
                y = fm(rng.standard_normal((d, m)))
                x = fm(rng.standard_normal((d, 3)))
                yc = y.columns
                factor = DictionaryFactor(y, beta)
                ref = cho_factor(yc.T @ yc + beta * np.eye(m), lower=True)
                np.testing.assert_array_equal(factor.solve(x).matrix, cho_solve(ref, yc.T @ x.columns))
                np.testing.assert_array_equal(
                    factor.whitened_dictionary(), solve_triangular(ref[0], yc.T, lower=True).T
                )
                identity = np.eye(d)
                a = beta * cho_solve(cho_factor(yc @ yc.T + beta * identity, lower=True), identity)
                np.testing.assert_array_equal(_dual_residual_operator(y, beta), 0.5 * (a + a.T))

    def test_not_positive_definite_raises_with_condition(self):
        # rank-1 Y: potrf meets a zero pivot, FactorizationError (CLI exit 3)
        y = fm([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(FactorizationError, match=r"not positive definite.*cond~"):
            solve_coefficients(fm([[1.0], [0.0]]), y, 0.0)

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


def augmented_distance(x, y, beta):
    # Least squares on [Y; sqrt(beta) I] W ~ [X; 0]: the ridge minimizer
    # without forming the Gram matrix, so its accuracy does not hinge on the
    # Gram's conditioning.
    m = y.shape[1]
    w = np.linalg.lstsq(
        np.vstack([y, np.sqrt(beta) * np.eye(m)]), np.vstack([x, np.zeros((m, x.shape[1]))]), rcond=None
    )[0]
    return float(np.linalg.norm(x - y @ w, axis=0).mean())


class TestPivotGuard:
    # A dual operator whose K is near singular sends its dictionary to the
    # primal form, which scores it as the augmented least-squares route does
    # or raises FactorizationError. Only a Gram matrix that is singular at
    # beta = 0, or one whose beta is below its rounding, may be rejected.
    @pytest.mark.parametrize("d, m", [(32, 122), (64, 14), (8, 30), (16, 16)])
    def test_raises_or_agrees_with_augmented_least_squares(self, d, m):
        full = min(d, m)
        for rank in (full, full - 1, full // 2, 2):
            for seed in range(3):
                for beta in (0.0, 1e-15, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-6, 1e-3):
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
        for beta in (0.0, 1e-15):
            with pytest.raises(FactorizationError, match=r"singular.*beta=.*cond~"):
                ReconstructionScorer([fm(y)], beta)
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
