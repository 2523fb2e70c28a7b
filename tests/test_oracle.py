"""The independent verification routes themselves."""

import json

import numpy as np
import pytest

import sfr.features
import sfr.oracle
from sfr.cli import main
from sfr.errors import FactorizationError
from sfr.features import FeatureMatrix, pool_feature_maps
from sfr.metric import batch_hard_mine
from sfr.oracle import (
    exhaustive_mine,
    finite_difference,
    random_batch,
    relative_error,
    ridge_oracle,
    run_verification,
)
from sfr.reconstruction import solve_coefficients


def fm(a):
    return FeatureMatrix(np.asarray(a, dtype=np.float64))


class TestRidgeOracle:
    def test_scalar_instance(self):
        w = ridge_oracle(fm([[2.0]]), fm([[1.0]]), 0.001)
        np.testing.assert_allclose(w, [[1.998002]], atol=1e-6)

    def test_agrees_with_fast_path(self):
        rng = np.random.default_rng(42)
        x = fm(rng.standard_normal((8, 10)))
        y = fm(rng.standard_normal((8, 6)))
        fast = solve_coefficients(x, y, 0.01).matrix
        np.testing.assert_allclose(ridge_oracle(x, y, 0.01), fast, atol=1e-8)

    def test_dominant_regularizer_limit(self):
        rng = np.random.default_rng(1)
        x = fm(rng.standard_normal((6, 5)))
        y = fm(rng.standard_normal((6, 4)))
        beta = 1e6
        w = ridge_oracle(x, y, beta)
        expected = (y.columns.T @ x.columns) / beta
        assert relative_error(w, expected) < 1e-4

    def test_singular_at_beta_zero(self):
        y = fm([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(FactorizationError, match="singular"):
            ridge_oracle(fm([[1.0], [0.0]]), y, 0.0)


class TestFiniteDifference:
    def test_quadratic_exact(self):
        rng = np.random.default_rng(2)
        at = rng.standard_normal((3, 4))
        grad = finite_difference(lambda m: float(np.sum(m * m)), at, 1e-5)
        np.testing.assert_allclose(grad, 2.0 * at, atol=1e-6)

    def test_constant_function(self):
        grad = finite_difference(lambda m: 5.0, np.ones((2, 2)), 1e-5)
        np.testing.assert_array_equal(grad, 0.0)

    def test_vector_input(self):
        at = np.array([1.0, -2.0, 0.5])
        grad = finite_difference(lambda v: float(v[0] * v[1] + v[2] ** 3), at, 1e-6)
        np.testing.assert_allclose(grad, [-2.0, 1.0, 0.75], atol=1e-6)

    def test_non_finite_objective(self):
        with pytest.raises(ValueError, match="non-finite"):
            finite_difference(lambda m: float("nan"), np.ones((1, 1)), 1e-5)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            finite_difference(lambda m: 0.0, np.ones((1, 1)), 0.0)


class TestExhaustiveMine:
    def test_identical_to_fast_path(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            batch = random_batch(rng, 3, 3, 5)
            fast = batch_hard_mine(batch, 0.001)
            slow = exhaustive_mine(batch, 0.001)
            assert fast == slow

    def test_k2_sibling_is_unique_positive(self):
        rng = np.random.default_rng(3)
        batch = random_batch(rng, 3, 2, 4)
        for t in exhaustive_mine(batch, 0.001):
            sibling = t.anchor_idx + 1 if t.anchor_idx % 2 == 0 else t.anchor_idx - 1
            assert t.positive_idx == sibling

    def test_size_bound(self):
        rng = np.random.default_rng(4)
        batch = random_batch(rng, 7, 4, 3)  # 28 samples
        with pytest.raises(ValueError, match="24"):
            exhaustive_mine(batch, 0.001)


class TestVerificationSuite:
    def test_default_run_passes(self):
        reports, cases = run_verification(seed=7, ridge_cases=10, gradient_cases=5, mining_batches=5, pooling_maps=5)
        assert all(r.passed for r in reports)
        assert {r.check_name for r in reports} == {
            "ridge-vs-elimination",
            "frozen-coefficient-gradients",
            "mining-vs-exhaustive",
            "pooling-geometry",
        }
        assert len(cases) == 25

    def test_injected_fault_detected(self):
        reports, _ = run_verification(seed=7, ridge_cases=5, gradient_cases=2, mining_batches=2, pooling_maps=2, inject_fault=True)
        by_name = {r.check_name: r for r in reports}
        assert not by_name["ridge-vs-elimination"].passed

    def test_report_json_fields(self):
        reports, _ = run_verification(seed=1, ridge_cases=2, gradient_cases=2, mining_batches=2, pooling_maps=2)
        obj = json.loads(json.dumps(reports[0].to_dict()))
        assert set(obj) == {"checkName", "maxAbsError", "maxRelError", "passed", "casesRun"}
        assert obj["casesRun"] == 2


def verify_reports(capsys) -> tuple[int, dict]:
    """Exit code and {check name: report} of `sfr verify`'s printed JSON."""
    rc = main(["verify"])
    return rc, {r["checkName"]: r for r in json.loads(capsys.readouterr().out)}


class TestVerifyFailsWrongFastResults:
    """A fast path that returns too few results fails its check: the report
    is still printed, and `sfr verify` exits 5."""

    def test_mining_that_drops_a_triplet(self, monkeypatch, capsys):
        monkeypatch.setattr(sfr.oracle, "batch_hard_mine", lambda batch, beta: batch_hard_mine(batch, beta)[:-1])
        rc, reports = verify_reports(capsys)
        assert rc == 5
        assert reports["mining-vs-exhaustive"]["passed"] is False
        assert reports["mining-vs-exhaustive"]["maxAbsError"] == float("inf")
        assert all(reports[name]["passed"] for name in reports if name != "mining-vs-exhaustive")

    def test_pooling_that_drops_a_column(self, monkeypatch, capsys):
        def drop_last_column(fmaps, spec, normalize):
            return [
                (gap, FeatureMatrix(m.columns[:, :-1]) if m.count > 1 else m)
                for gap, m in pool_feature_maps(fmaps, spec, normalize)
            ]

        monkeypatch.setattr(sfr.oracle, "pool_feature_maps", drop_last_column)
        rc, reports = verify_reports(capsys)
        assert rc == 5
        assert reports["pooling-geometry"]["passed"] is False
        assert reports["pooling-geometry"]["maxRelError"] == float("inf")
        assert all(reports[name]["passed"] for name in reports if name != "pooling-geometry")

    def test_stacked_pooling_that_scales_its_columns(self, monkeypatch, capsys):
        # verify judges pool_stack, the pooling that every command runs.
        pool_stack = sfr.features.pool_stack

        def scaled(stack, spec, normalize):
            pooled, scales = pool_stack(stack, spec, normalize)
            return [(gap, FeatureMatrix(m.columns * 1.001)) for gap, m in pooled], scales

        monkeypatch.setattr(sfr.features, "pool_stack", scaled)
        rc, reports = verify_reports(capsys)
        assert rc == 5
        assert reports["pooling-geometry"]["passed"] is False
        assert all(reports[name]["passed"] for name in reports if name != "pooling-geometry")


class TestRelativeError:
    def test_shapes_that_differ_are_infinitely_far(self):
        # (1, 3) against (2, 3) would broadcast and compare equal rows.
        assert relative_error(np.ones((1, 3)), np.ones((2, 3))) == float("inf")
        assert relative_error(np.ones(3), np.ones(3)) == 0.0
