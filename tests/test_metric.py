"""Mining, the embedded triplet loss, and the alternating training step."""

import numpy as np
import pytest

from sfr.encoder import ConvLayer, EncoderParams, ToyImage, encode_forward, init_params
from sfr.errors import MismatchError
from sfr.features import FeatureMatrix, GlobalFeature, PyramidSpec, pool_stack
from sfr.metric import (
    BatchSample,
    TripletBatch,
    batch_hard_mine,
    build_batch,
    frozen_step_objective,
    global_distances,
    sample_batch,
    sfr_triplet_loss,
    step_gradients,
    training_step,
)
from sfr.oracle import exhaustive_mine, finite_difference, random_batch, relative_error
from sfr.toydata import make_identity_pools

BETA = 0.001


def gf(values):
    return GlobalFeature(np.asarray(values, dtype=np.float64))


def fm(a):
    return FeatureMatrix(np.asarray(a, dtype=np.float64))


def line_batch():
    """P=2, K=2 with global features on a line and identical spatial parts."""
    spatial = fm(np.eye(3)[:, :2])
    samples = (
        BatchSample("a", gf([0.0, 0.0, 0.0]), spatial),
        BatchSample("a", gf([1.0, 0.0, 0.0]), spatial),
        BatchSample("b", gf([4.0, 0.0, 0.0]), spatial),
        BatchSample("b", gf([9.0, 0.0, 0.0]), spatial),
    )
    return TripletBatch(samples)


def twice_each(a, b):
    """P=2, K=2 with each of two samples twice: each anchor's positive is a
    copy of itself, and its negatives are two copies of the other sample."""
    return TripletBatch((a, a, b, b))


class TestEuclideanDistance:
    # The global term of matching and mining: metric.global_distances.
    def test_identical(self):
        a = np.array([1.0, 2.0])
        assert global_distances(a, a[None, :])[0] == 0.0

    def test_three_four_five(self):
        assert global_distances(np.zeros(2), np.array([[3.0, 4.0]]))[0] == 5.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        a, b = rng.standard_normal(9), rng.standard_normal(9)
        expected = sum((x - y) ** 2 for x, y in zip(a, b)) ** 0.5
        assert abs(global_distances(a, b[None, :])[0] - expected) < 1e-10

    def test_dim_mismatch(self):
        spatial = fm(np.eye(2))
        batch = twice_each(BatchSample("a", gf([1.0]), spatial), BatchSample("b", gf([1.0, 2.0]), spatial))
        with pytest.raises(MismatchError):
            batch_hard_mine(batch, BETA)


class TestCombinedDistance:
    # The mined distances: the global distance plus the anchor's
    # reconstruction distance from the other sample's dictionary.
    def test_identical_samples_beta_zero(self):
        rng = np.random.default_rng(0)
        spatial = fm(rng.standard_normal((3, 3)) + 3 * np.eye(3))
        s = BatchSample("a", gf([1.0, 2.0, 3.0]), spatial)
        other = BatchSample("b", gf([0.0, 0.0, 0.0]), spatial)
        assert batch_hard_mine(twice_each(s, other), 0.0)[0].positive_distance < 1e-10

    def test_identical_spatial_reduces_to_global_plus_self_residual(self):
        from sfr.reconstruction import sfr_distance

        rng = np.random.default_rng(1)
        spatial = fm(rng.standard_normal((4, 3)))
        a = BatchSample("a", gf([0.0, 0.0, 0.0, 0.0]), spatial)
        b = BatchSample("b", gf([3.0, 4.0, 0.0, 0.0]), spatial)
        expected = 5.0 + sfr_distance(spatial, spatial, BETA)
        mined = batch_hard_mine(twice_each(a, b), BETA)
        np.testing.assert_allclose(mined[0].negative_distance, expected, rtol=1e-12)

    def test_asymmetry(self):
        rng = np.random.default_rng(2)
        a = BatchSample("a", gf(rng.standard_normal(4)), fm(rng.standard_normal((4, 3))))
        b = BatchSample("b", gf(rng.standard_normal(4)), fm(rng.standard_normal((4, 6))))
        mined = batch_hard_mine(twice_each(a, b), BETA)
        assert mined[0].negative_distance != mined[2].negative_distance


class TestBatchHardMine:
    def test_matches_exhaustive_on_line_batch(self):
        batch = line_batch()
        fast = batch_hard_mine(batch, BETA)
        slow = exhaustive_mine(batch, BETA)
        assert [(t.positive_idx, t.negative_idx) for t in fast] == [
            (t.positive_idx, t.negative_idx) for t in slow
        ]
        assert [t.positive_distance for t in fast] == [t.positive_distance for t in slow]
        assert [t.negative_distance for t in fast] == [t.negative_distance for t in slow]

    def test_identical_points_tie_rule(self):
        rng = np.random.default_rng(3)
        spatial = fm(rng.standard_normal((3, 2)))
        g = gf([1.0, 0.0, 0.0])
        samples = tuple(
            BatchSample(label, g, spatial) for label in ("a", "a", "a", "b", "b", "b")
        )
        batch = TripletBatch(samples)
        mined = batch_hard_mine(batch, BETA)
        # all candidates tie, so the lowest index wins everywhere
        assert mined[0].positive_idx == 1 and mined[0].negative_idx == 3
        assert mined[1].positive_idx == 0 and mined[1].negative_idx == 3
        assert mined[3].positive_idx == 4 and mined[3].negative_idx == 0
        from sfr.reconstruction import sfr_distance

        self_res = sfr_distance(spatial, spatial, BETA)
        np.testing.assert_allclose(mined[0].positive_distance, self_res, rtol=1e-12)

    def test_overflowing_negatives_keep_their_identity(self):
        # Every negative of anchor 0 is at distance inf (the global norm
        # overflows): the lowest-index negative is still picked, never a
        # sample of the anchor's own identity.
        spatial = fm(np.eye(3)[:, :2])
        samples = (
            BatchSample("a", gf([0.0, 0.0, 0.0]), spatial),
            BatchSample("b", gf([1e200, 0.0, 0.0]), spatial),
            BatchSample("a", gf([1.0, 0.0, 0.0]), spatial),
            BatchSample("b", gf([-1e200, 0.0, 0.0]), spatial),
        )
        with np.errstate(over="ignore"):
            mined = batch_hard_mine(TripletBatch(samples), BETA)
        assert (mined[0].positive_idx, mined[0].negative_idx) == (2, 1)
        assert mined[0].negative_distance == np.inf
        with np.errstate(over="ignore"):
            assert exhaustive_mine(TripletBatch(samples), BETA) == mined
        for t in mined:
            assert samples[t.positive_idx].label == samples[t.anchor_idx].label != samples[t.negative_idx].label
            assert t.positive_idx != t.anchor_idx

    def test_random_batches_match_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            batch = random_batch(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)), 4)
            fast = batch_hard_mine(batch, BETA)
            slow = exhaustive_mine(batch, BETA)
            for f, s in zip(fast, slow):
                assert (f.anchor_idx, f.positive_idx, f.negative_idx) == (
                    s.anchor_idx,
                    s.positive_idx,
                    s.negative_idx,
                )
                assert f.positive_distance == s.positive_distance
                assert f.negative_distance == s.negative_distance

    def test_permutation_consistency(self):
        rng = np.random.default_rng(7)
        batch = random_batch(rng, 3, 3, 4)
        mined = batch_hard_mine(batch, BETA)
        perm = rng.permutation(len(batch.samples))
        permuted = TripletBatch(tuple(batch.samples[i] for i in perm))
        inverse = np.argsort(perm)
        mined_p = batch_hard_mine(permuted, BETA)
        for a, t in enumerate(mined):
            tp = mined_p[inverse[a]]
            assert (tp.positive_distance, tp.negative_distance) == (t.positive_distance, t.negative_distance)
            assert (t.positive_idx, t.negative_idx) == (
                int(perm[tp.positive_idx]),
                int(perm[tp.negative_idx]),
            )

    def test_batch_validation(self):
        rng = np.random.default_rng(8)
        spatial = fm(rng.standard_normal((2, 2)))
        s = BatchSample("a", gf([0.0, 0.0]), spatial)
        b = BatchSample("b", gf([1.0, 0.0]), spatial)
        with pytest.raises(ValueError):
            TripletBatch((s, s))  # P < 2
        with pytest.raises(ValueError):
            TripletBatch((s, b))  # K < 2
        with pytest.raises(ValueError):
            TripletBatch((s, s, s, b))  # identity counts uneven


class TestTripletLoss:
    def test_all_hinges_clamp(self):
        spatial = fm(np.eye(4)[:, :2])
        near = (
            BatchSample("a", gf([0.0, 0.0, 0.0, 0.0]), spatial),
            BatchSample("a", gf([0.1, 0.0, 0.0, 0.0]), spatial),
            BatchSample("b", gf([9.0, 0.0, 0.0, 0.0]), spatial),
            BatchSample("b", gf([9.1, 0.0, 0.0, 0.0]), spatial),
        )
        report = sfr_triplet_loss(TripletBatch(near), BETA, 0.3)
        assert report.total_loss == 0.0
        assert report.active_triplets == 0

    def test_hand_arithmetic_term(self):
        # one anchor with positive distance 1.0, negative 1.2, margin 0.3 -> 0.1
        assert max(0.0, 0.3 + 1.0 - 1.2) == pytest.approx(0.1)
        batch = line_batch()
        report = sfr_triplet_loss(batch, BETA, 0.3)
        mined = batch_hard_mine(batch, BETA)
        for term, t in zip(report.per_triplet_terms, mined):
            assert term == max(0.0, 0.3 + t.positive_distance - t.negative_distance)

    def test_zero_margin_boundary(self):
        rng = np.random.default_rng(9)
        spatial = fm(rng.standard_normal((3, 2)))
        g = gf([1.0, 2.0, 3.0])
        samples = tuple(BatchSample(l, g, spatial) for l in ("a", "a", "b", "b"))
        report = sfr_triplet_loss(TripletBatch(samples), BETA, 0.0)
        assert report.total_loss == 0.0

    def test_report_invariants(self):
        rng = np.random.default_rng(10)
        batch = random_batch(rng, 3, 2, 4)
        report = sfr_triplet_loss(batch, BETA, 0.3)
        assert report.total_loss == pytest.approx(sum(report.per_triplet_terms))
        assert all(t >= 0.0 for t in report.per_triplet_terms)
        assert report.active_triplets == sum(1 for t in report.per_triplet_terms if t > 0)

    def test_margin_monotonicity(self):
        rng = np.random.default_rng(11)
        batch = random_batch(rng, 3, 3, 4)
        losses = [sfr_triplet_loss(batch, BETA, m).total_loss for m in (0.0, 0.1, 0.3, 1.0)]
        assert all(a <= b for a, b in zip(losses, losses[1:]))

    def test_negative_margin_rejected(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError):
            sfr_triplet_loss(random_batch(rng, 2, 2, 3), BETA, -0.1)

    @pytest.mark.parametrize("margin", [float("nan"), float("inf")])
    def test_non_finite_margin_rejected(self, margin):
        # a nan margin passes `margin < 0` and used to clamp every hinge
        batch, _ = small_training_batch()
        with pytest.raises(ValueError, match="margin"):
            sfr_triplet_loss(batch, BETA, margin)


class TestSampling:
    def test_without_replacement_when_enough(self):
        pools = make_identity_pools(4, 6, seed=0)
        rng = np.random.default_rng(0)
        picks = sample_batch(pools, 3, 4, rng)
        assert len(picks) == 12
        by_label = {}
        for label, img in picks:
            by_label.setdefault(label, []).append(id(img))
        assert all(len(set(v)) == 4 for v in by_label.values())

    def test_with_replacement_when_short(self):
        pools = {0: make_identity_pools(1, 2, seed=1)[0], 1: make_identity_pools(1, 2, seed=2)[0]}
        rng = np.random.default_rng(3)
        picks = sample_batch(pools, 2, 4, rng)  # 2 images per identity, K=4
        assert len(picks) == 8

    def test_too_many_identities(self):
        pools = make_identity_pools(2, 4, seed=4)
        with pytest.raises(ValueError):
            sample_batch(pools, 3, 2, np.random.default_rng(0))


def encode_alone(image, params, pyramid=PyramidSpec(), normalize=True):
    """One image encoded and pooled as its own one-image stack: its forward
    pass, pooled features and column scales."""
    forward = encode_forward([image], params)
    [(gap, spatial)], scales = pool_stack(forward.output, pyramid, normalize)
    return forward, gap, spatial, scales[0]


def small_training_batch(seed=0, p=3, k=2, normalize=True):
    pools = make_identity_pools(p, k + 1, seed=seed)
    params = init_params(((4, 1, 3, True), (6, 4, 3, False)), seed)
    picks = [(label, img) for label, imgs in sorted(pools.items()) for img in imgs[:k]]
    return build_batch(picks, params, normalize=normalize), params


class TestTrainingStep:
    def test_zero_learning_rate_keeps_parameters(self):
        batch, params = small_training_batch()
        updated, report = training_step(batch, BETA, 0.3, 0.0)
        assert report.total_loss > 0
        for a, b in zip(updated.layers, params.layers):
            np.testing.assert_array_equal(a.kernel, b.kernel)
            np.testing.assert_array_equal(a.bias, b.bias)

    def test_clamped_batch_keeps_parameters(self):
        # duplicate images per identity: hardest positive = self residual,
        # negatives are farther, so with margin 0 every hinge clamps
        pools = make_identity_pools(2, 1, seed=2)
        params = init_params(((4, 1, 3, True),), 0)
        picks = [(label, imgs[0]) for label, imgs in sorted(pools.items()) for _ in range(2)]
        clamped = build_batch(picks, params)
        updated, report = training_step(clamped, BETA, 0.0, 0.5)
        assert report.active_triplets == 0
        assert report.total_loss == 0.0
        for a, b in zip(updated.layers, params.layers):
            np.testing.assert_array_equal(a.kernel, b.kernel)

    def test_post_update_loss_finite(self):
        batch, params = small_training_batch()
        updated, _ = training_step(batch, BETA, 0.3, 1e-3)
        picks = [(s.label, s.image) for s in batch.samples]
        after = sfr_triplet_loss(build_batch(picks, updated), BETA, 0.3)
        assert np.isfinite(after.total_loss)

    def test_requires_images(self):
        rng = np.random.default_rng(13)
        batch = random_batch(rng, 2, 2, 3)
        with pytest.raises(ValueError, match="images"):
            training_step(batch, BETA, 0.3, 0.1)

    @pytest.mark.parametrize("margin", [float("nan"), float("inf")])
    def test_non_finite_margin_rejected(self, margin):
        batch, _ = small_training_batch()
        with pytest.raises(ValueError, match="margin"):
            training_step(batch, BETA, margin, 0.1)

    def test_non_finite_gradient_aborts(self, monkeypatch):
        import sfr.metric as metric_mod
        from sfr.encoder import LayerGradients

        batch, params = small_training_batch()

        def poisoned(forward, p, upstream):
            # The real function's stacked shapes: one kernel and one bias
            # gradient per sample of the group.
            n = len(forward.output)
            return [
                LayerGradients(np.full((n, *l.kernel.shape), np.nan), np.zeros((n, *l.bias.shape)))
                for l in p.layers
            ]

        monkeypatch.setattr(metric_mod, "encode_backward", poisoned)
        with pytest.raises(ArithmeticError, match="non-finite"):
            training_step(batch, BETA, 0.3, 0.1)

    def test_stored_features_match_recomputation(self):
        batch, params = small_training_batch(seed=5)
        for s in batch.samples:
            _, gap, spatial, _ = encode_alone(s.image, params)
            np.testing.assert_array_equal(s.global_feature.values, gap.values)
            np.testing.assert_array_equal(s.spatial.columns, spatial.columns)

    def test_loss_decreases_on_separable_toy_set(self):
        pools = make_identity_pools(
            2, 8, seed=7, base_shape=(16, 12), cells=(4, 3), noise=0.01, jitter=0.3, min_crop=(14, 11)
        )
        params = init_params(((32, 1, 7, True),), 7)
        monitor_picks = [(l, img) for l, imgs in sorted(pools.items()) for img in imgs[:2]]
        monitor = []
        for epoch in range(50):
            mb = build_batch(monitor_picks, params)
            monitor.append(sfr_triplet_loss(mb, BETA, 0.3).total_loss)
            rng = np.random.default_rng((7, epoch))
            picks = sample_batch(pools, 2, 4, rng)
            batch = build_batch(picks, params)
            params, _ = training_step(batch, BETA, 0.3, 2e-4)
        windows = [np.mean(monitor[t:t + 10]) for t in range(0, 41, 10)]
        assert all(b < a for a, b in zip(windows, windows[1:]))


class TestOneForwardPerStep:
    def test_step_reuses_the_batch_forward(self, monkeypatch):
        import sfr.encoder as encoder_mod
        import sfr.reconstruction as reconstruction_mod

        conv_calls, factor_calls = [], []
        real_conv, real_factor = encoder_mod.conv2d_valid, reconstruction_mod.DictionaryFactor

        def counting_conv(*args):
            conv_calls.append(args)
            return real_conv(*args)

        def counting_factor(*args):
            factor_calls.append(args)
            return real_factor(*args)

        monkeypatch.setattr(encoder_mod, "conv2d_valid", counting_conv)
        monkeypatch.setattr(reconstruction_mod, "DictionaryFactor", counting_factor)
        batch, params = small_training_batch(seed=4)
        samples = len(batch.samples)
        assert len(conv_calls) == samples * len(params.layers)

        conv_calls.clear()
        _, report = training_step(batch, BETA, 0.3, 1e-3)
        assert report.active_triplets > 0
        assert conv_calls == []
        assert len(factor_calls) <= samples


class TestOneFactorizationPerSample:
    def test_step_solves_with_the_factors_mining_made(self, monkeypatch):
        from sfr.reconstruction import DictionaryFactor

        made, solved = [], []
        real_init, real_solve = DictionaryFactor.__init__, DictionaryFactor.solve

        def counting_init(self, *args):
            made.append(True)
            real_init(self, *args)

        def counting_solve(self, *args):
            solved.append(True)
            return real_solve(self, *args)

        # 32 channels above at most 26 pyramid columns: every dictionary is
        # factored in the primal form, so mining factors all of them.
        pools = make_identity_pools(
            4, 3, seed=9, base_shape=(16, 12), cells=(4, 3), noise=0.01, jitter=0.3, min_crop=(14, 11)
        )
        params = init_params(((32, 1, 7, True),), 9)
        picks = [(label, img) for label, imgs in sorted(pools.items()) for img in imgs[:2]]
        batch = build_batch(picks, params)
        assert all(s.spatial.dim > s.spatial.count for s in batch.samples)
        monkeypatch.setattr(DictionaryFactor, "__init__", counting_init)
        monkeypatch.setattr(DictionaryFactor, "solve", counting_solve)
        _, report = training_step(batch, BETA, 0.3, 1e-3)
        assert report.active_triplets > 0
        assert len(made) == len(batch.samples)
        # Only the triplets whose hinge term is above zero are solved for.
        assert len(solved) == 2 * report.active_triplets


class TestShapeGroupsKeepTheBits:
    # build_batch encodes, pools and normalizes each image shape as one
    # stack, and the step backpropagates each stack at once; both must give
    # every sample the bits of its own one-image stack.
    @pytest.mark.parametrize(
        "normalize, pyramid",
        [(True, PyramidSpec()), (False, PyramidSpec((1, 2, 8)))],
        ids=["normalized-default", "raw-skipped-kernel"],
    )
    def test_batch_and_gradients_match_the_one_sample_path(self, monkeypatch, normalize, pyramid):
        import sfr.metric as metric_mod
        from sfr.encoder import encode_backward

        pools = make_identity_pools(3, 4, seed=8, base_shape=(16, 12), cells=(4, 3), min_crop=(14, 11))
        params = init_params(((4, 1, 3, True), (6, 4, 3, False)), 8)
        picks = [(label, img) for label, imgs in sorted(pools.items()) for img in imgs]
        batch = build_batch(picks, params, pyramid=pyramid, normalize=normalize)
        assert len({s.image.values.shape for s in batch.samples}) >= 3
        assert any(len(positions) > 1 for positions, _ in batch.groups)
        alone = [encode_alone(s.image, params, pyramid, normalize) for s in batch.samples]
        for positions, forward in batch.groups:
            for j, i in enumerate(positions):
                a = alone[i][0]
                np.testing.assert_array_equal(forward.output[j], a.output[0])
                for x, y in zip(forward.inputs + forward.relu_masks, a.inputs + a.relu_masks):
                    np.testing.assert_array_equal(x[j], y[0])
        for s, (_, gap, spatial, scales) in zip(batch.samples, alone):
            np.testing.assert_array_equal(s.global_feature.values, gap.values)
            np.testing.assert_array_equal(s.spatial.columns, spatial.columns)
            np.testing.assert_array_equal(s.column_scales, scales)
            assert s.spatial.degenerate_columns == spatial.degenerate_columns

        real_pool_backward = metric_mod._pool_backward
        upstream = []

        def recording(grid_shape, dg, dx, pyr):
            upstream.append((dg, dx))
            return real_pool_backward(grid_shape, dg, dx, pyr)

        monkeypatch.setattr(metric_mod, "_pool_backward", recording)
        grads, plan = step_gradients(batch, BETA, 0.3)
        assert plan.report.active_triplets > 0
        per_sample = {}
        for (positions, _), (dg, dx) in zip(batch.groups, upstream, strict=True):
            for j, i in enumerate(positions):
                per_sample[i] = (dg[j], dx[j])
        kernels = [np.zeros_like(l.kernel) for l in params.layers]
        biases = [np.zeros_like(l.bias) for l in params.layers]
        for i, (a, *_) in enumerate(alone):
            dg, dx = per_sample[i]
            grid_grad = real_pool_backward(a.output.shape, dg[None], dx[None], pyramid)
            for k, b, lg in zip(kernels, biases, encode_backward(a, params, grid_grad)):
                k += lg.kernel[0]
                b += lg.bias[0]
        for g, k, b in zip(grads, kernels, biases):
            np.testing.assert_array_equal(g.kernel, k)
            np.testing.assert_array_equal(g.bias, b)


class TestOracleCheckedGradient:
    def test_step_takes_residual_gradients_from_sfr_gradients(self, monkeypatch):
        import sfr.metric as metric_mod
        from sfr.reconstruction import sfr_gradients

        calls = []

        def counting_gradients(*args):
            calls.append(args)
            return sfr_gradients(*args)

        monkeypatch.setattr(metric_mod, "sfr_gradients", counting_gradients, raising=False)
        batch, _ = small_training_batch(seed=4)
        _, report = training_step(batch, BETA, 0.3, 1e-3)
        assert report.active_triplets > 0
        assert len(calls) == 2 * report.active_triplets


class TestEndToEndGradient:
    def test_matches_finite_differences(self):
        batch, params = small_training_batch(seed=3)
        assert params.parameter_count() <= 5000
        grads, plan = step_gradients(batch, BETA, 0.3)
        assert plan.report.active_triplets > 0
        for li in range(len(params.layers)):
            def objective_k(kernel, li=li):
                layers = list(params.layers)
                layers[li] = ConvLayer(kernel, params.layers[li].bias, params.layers[li].downsample)
                return frozen_step_objective(batch, EncoderParams(tuple(layers)), plan, 0.3)

            fd = finite_difference(objective_k, params.layers[li].kernel, 1e-6)
            assert relative_error(grads[li].kernel, fd) < 1e-3

            def objective_b(bias, li=li):
                layers = list(params.layers)
                layers[li] = ConvLayer(params.layers[li].kernel, bias, params.layers[li].downsample)
                return frozen_step_objective(batch, EncoderParams(tuple(layers)), plan, 0.3)

            fd_b = finite_difference(objective_b, params.layers[li].bias, 1e-6)
            assert relative_error(grads[li].bias, fd_b) < 1e-3

    def test_unnormalized_path_also_matches(self):
        batch, params = small_training_batch(seed=11, normalize=False)
        grads, plan = step_gradients(batch, BETA, 0.3)

        def objective(kernel):
            layers = (ConvLayer(kernel, params.layers[0].bias, True), params.layers[1])
            return frozen_step_objective(batch, EncoderParams(layers), plan, 0.3)

        fd = finite_difference(objective, params.layers[0].kernel, 1e-6)
        assert relative_error(grads[0].kernel, fd) < 1e-3
