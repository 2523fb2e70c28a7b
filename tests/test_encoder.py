"""Toy convolutional encoder: forward shapes, exact backward, checkpoints."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import correlate

from sfr.encoder import (
    ConvLayer,
    EncoderParams,
    ForwardPass,
    ToyImage,
    conv2d_valid,
    encode,
    encode_backward,
    encode_forward,
    encode_raw,
    init_params,
    load_params,
    save_params,
    _correlate,
    _downsample,
    _downsample_backward,
)
from sfr.errors import FormatError, MismatchError
from sfr.oracle import finite_difference, relative_error


def random_image(rng, c, h, w):
    return ToyImage(rng.uniform(0.0, 1.0, size=(c, h, w)))


def expected_shape(h, w, layer_specs):
    # symbolic shape calculator: valid conv then optional floor-halving
    for _, _, k, down in layer_specs:
        h, w = h - k + 1, w - k + 1
        if down:
            h, w = h // 2, w // 2
    return h, w


class TestInit:
    def test_same_seed_bit_identical(self):
        spec = ((4, 1, 3, True), (8, 4, 3, False))
        a = init_params(spec, 11)
        b = init_params(spec, 11)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.kernel, lb.kernel)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_different_seeds_differ(self):
        spec = ((4, 1, 3, False),)
        assert not np.array_equal(init_params(spec, 1).layers[0].kernel, init_params(spec, 2).layers[0].kernel)

    def test_zero_layer_identity_adapter(self):
        params = init_params((), 0)
        rng = np.random.default_rng(0)
        img = ToyImage(rng.uniform(0, 1, (3, 4, 5)).astype(np.float32))
        out = encode(img, params)
        np.testing.assert_array_equal(out.values, img.values.astype(np.float32))

    def test_fan_in_scale_and_zero_bias(self):
        params = init_params(((64, 4, 3, False),), 5)
        kernel = params.layers[0].kernel
        assert abs(kernel.std() - 1.0 / np.sqrt(4 * 9)) < 0.02
        assert abs(kernel.mean()) < 0.01
        np.testing.assert_array_equal(params.layers[0].bias, 0.0)

    def test_broken_chain_rejected(self):
        with pytest.raises(ValueError, match="chain"):
            init_params(((4, 1, 3, False), (4, 8, 3, False)), 0)


class TestEncode:
    def test_unit_1x1_kernel_is_rectified_identity(self):
        layer = ConvLayer(np.ones((1, 1, 1, 1)), np.zeros(1), False)
        params = EncoderParams((layer,))
        img = ToyImage(np.array([[[0.2, 0.8], [0.0, 1.0]]]))
        out = encode_raw(img, params)
        np.testing.assert_array_equal(out, np.maximum(img.values, 0.0))

    def test_spec_shape_example(self):
        # 32x16 input, two k=3 layers with downsampling: 30x14 -> 15x7 -> 13x5 -> 6x2
        spec = ((4, 1, 3, True), (4, 4, 3, True))
        params = init_params(spec, 0)
        rng = np.random.default_rng(0)
        out = encode(random_image(rng, 1, 32, 16), params)
        assert (out.height, out.width) == (6, 2)

    def test_shape_law_random_stacks(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            depth = int(rng.integers(1, 4))
            specs = []
            in_c = 1
            for _ in range(depth):
                out_c = int(rng.integers(1, 5))
                specs.append((out_c, in_c, int(rng.integers(1, 4)), bool(rng.integers(0, 2))))
                in_c = out_c
            h, w = int(rng.integers(10, 30)), int(rng.integers(10, 30))
            eh, ew = expected_shape(h, w, specs)
            if eh < 1 or ew < 1:
                continue
            out = encode(random_image(rng, 1, h, w), init_params(specs, 1))
            assert (out.height, out.width) == (eh, ew)

    def test_too_small_input(self):
        params = init_params(((2, 1, 5, False),), 0)
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="smaller"):
            encode(random_image(rng, 1, 4, 4), params)

    def test_channel_mismatch(self):
        params = init_params(((2, 3, 3, False),), 0)
        rng = np.random.default_rng(2)
        with pytest.raises(MismatchError):
            encode(random_image(rng, 1, 8, 8), params)

    def test_conv_linear_before_rectification(self):
        rng = np.random.default_rng(3)
        kernel = rng.standard_normal((3, 2, 3, 3))
        x = rng.standard_normal((2, 6, 7))
        doubled = conv2d_valid(2.0 * x, kernel, np.zeros(3))
        np.testing.assert_allclose(doubled, 2.0 * conv2d_valid(x, kernel, np.zeros(3)), rtol=1e-12)


    @pytest.mark.parametrize("in_c", [1, 3])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv_matches_scipy_correlate(self, in_c, k):
        rng = np.random.default_rng(14)
        kernel = rng.standard_normal((4, in_c, k, k))
        bias = rng.standard_normal(4)
        x = rng.standard_normal((in_c, 9, 6))
        expected = np.stack(
            [sum(correlate(x[c], kernel[o, c], mode="valid") for c in range(in_c)) + bias[o] for o in range(4)]
        )
        np.testing.assert_allclose(conv2d_valid(x, kernel, bias), expected, rtol=1e-12, atol=1e-12)

class TestBackward:
    # Each test backpropagates a one-image stack: the upstream gradient and
    # the returned gradients carry a leading sample axis of length 1.
    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(4)
        params = init_params(((3, 1, 3, True),), 4)
        img = random_image(rng, 1, 10, 9)
        forward = encode_forward([img], params)
        grads = encode_backward(forward, params, np.zeros_like(forward.output))
        for g in grads:
            np.testing.assert_array_equal(g.kernel, 0.0)
            np.testing.assert_array_equal(g.bias, 0.0)

    @pytest.mark.parametrize(
        "spec",
        [((3, 1, 3, True), (5, 3, 3, False)), ((3, 2, 1, False), (4, 3, 5, True))],
        ids=["k3-k3", "k1-k5-two-channel-image"],
    )
    def test_matches_finite_differences(self, spec):
        rng = np.random.default_rng(42)
        params = init_params(spec, 42)
        assert params.parameter_count() <= 5000
        img = random_image(rng, spec[0][1], 12, 11)
        upstream = rng.standard_normal(encode_raw(img, params).shape)

        for li in range(len(params.layers)):
            grads = encode_backward(encode_forward([img], params), params, upstream[None])

            def f_kernel(kernel, li=li):
                layers = list(params.layers)
                layers[li] = ConvLayer(kernel, params.layers[li].bias, params.layers[li].downsample)
                return float(np.sum(upstream * encode_raw(img, EncoderParams(tuple(layers)))))

            fd = finite_difference(f_kernel, params.layers[li].kernel, 1e-6)
            assert relative_error(grads[li].kernel[0], fd) < 1e-4

            def f_bias(bias, li=li):
                layers = list(params.layers)
                layers[li] = ConvLayer(params.layers[li].kernel, bias, params.layers[li].downsample)
                return float(np.sum(upstream * encode_raw(img, EncoderParams(tuple(layers)))))

            fd_b = finite_difference(f_bias, params.layers[li].bias, 1e-6)
            assert relative_error(grads[li].bias[0], fd_b) < 1e-4

    def test_dead_unit_gets_zero_gradient(self):
        # output channel 1 has a very negative bias: rectification kills it
        rng = np.random.default_rng(5)
        kernel = rng.standard_normal((2, 1, 3, 3)) * 0.1
        bias = np.array([0.0, -100.0])
        params = EncoderParams((ConvLayer(kernel, bias, False),))
        img = random_image(rng, 1, 8, 8)
        forward = encode_forward([img], params)
        upstream = rng.standard_normal(forward.output.shape)
        grads = encode_backward(forward, params, upstream)
        np.testing.assert_array_equal(grads[0].kernel[0, 1], 0.0)
        assert grads[0].bias[0, 1] == 0.0
        assert np.abs(grads[0].kernel[0, 0]).max() > 0

    def test_upstream_shape_checked(self):
        rng = np.random.default_rng(6)
        params = init_params(((2, 1, 3, False),), 0)
        img = random_image(rng, 1, 8, 8)
        forward = encode_forward([img], params)
        assert forward.output.shape == (1, 2, 6, 6)
        # A wrong grid, and the right grid without its sample axis.
        for upstream_shape in [(1, 2, 3, 3), (2, 6, 6)]:
            with pytest.raises(MismatchError):
                encode_backward(forward, params, np.zeros(upstream_shape))

    def test_stack_rows_match_one_image_stacks(self):
        # Every row of a stacked forward and backward has the bits of the
        # same image's one-image stack.
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=40, deadline=None)
        @given(
            seed=st.integers(0, 2**32 - 1),
            count=st.integers(1, 4),
            layers=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3), st.booleans()), min_size=1, max_size=2),
            channels=st.integers(1, 2),
            height=st.integers(10, 14),
            width=st.integers(10, 14),
        )
        def check(seed, count, layers, channels, height, width):
            rng = np.random.default_rng(seed)
            conv, in_c = [], channels
            for out_c, k, down in layers:
                kernel = rng.standard_normal((out_c, in_c, k, k)) / k
                conv.append(ConvLayer(kernel, rng.standard_normal(out_c) * 0.1, down))
                in_c = out_c
            params = EncoderParams(tuple(conv))
            images = [random_image(rng, channels, height, width) for _ in range(count)]
            stack = encode_forward(images, params)
            upstream = rng.standard_normal(stack.output.shape)
            grads = encode_backward(stack, params, upstream)
            for j, img in enumerate(images):
                alone = encode_forward([img], params)
                np.testing.assert_array_equal(stack.output[j], alone.output[0])
                for x, y in zip(stack.inputs + stack.relu_masks, alone.inputs + alone.relu_masks):
                    np.testing.assert_array_equal(x[j], y[0])
                for g, a in zip(grads, encode_backward(alone, params, upstream[j:j + 1])):
                    np.testing.assert_array_equal(g.kernel[j], a.kernel[0])
                    np.testing.assert_array_equal(g.bias[j], a.bias[0])

        check()


def reference_correlate(x, kernel):
    # The windowed correlation as sliding_window_view and tensordot form it.
    k = kernel.shape[2]
    windows = sliding_window_view(x, (k, k), axis=(1, 2))
    return np.tensordot(kernel, windows, axes=([1, 2, 3], [0, 3, 4]))


def reference_kernel_gradient(g, x, k):
    # One sample's kernel gradient as sliding_window_view and tensordot form it.
    windows = sliding_window_view(x, (k, k), axis=(1, 2))
    return np.tensordot(g, windows, axes=([1, 2], [1, 2]))


def reference_backward(forward, params, upstream):
    """encode_backward with the reference correlation and kernel gradient."""
    g = upstream
    grads = [None] * len(params.layers)
    for i in reversed(range(len(params.layers))):
        layer, mask, k = params.layers[i], forward.relu_masks[i], params.layers[i].kernel_size
        if layer.downsample:
            g = _downsample_backward(g, mask.shape)
        g = g * mask
        kernels = np.stack([reference_kernel_gradient(gs, xs, k) for gs, xs in zip(g, forward.inputs[i])])
        grads[i] = (kernels, g.sum(axis=(2, 3)))
        if i > 0:
            flipped = layer.kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            g = np.stack([reference_correlate(np.pad(gs, ((0, 0), (k - 1, k - 1), (k - 1, k - 1))), flipped) for gs in g])
    return grads


def laid_out(values, layout):
    """values (C, H, W) as a contiguous array, a strided view into a larger
    array, or a transposed view: the same numbers with other strides."""
    if layout == "contiguous":
        return values.copy()
    if layout == "strided":
        c, h, w = values.shape
        big = np.zeros((c, 2 * h, 3 * w))
        big[:, 1::2, ::3] = values
        return big[:, 1::2, ::3]
    return np.ascontiguousarray(values.transpose(0, 2, 1)).transpose(0, 2, 1)


# (out_c, in_c, k, height, width): odd and even grids, and grids whose output
# is one row or one column wide, where a matmul (`@`) of the same operands
# rounds differently from np.dot on some inputs.
IM2COL_CASES = [
    (out_c, in_c, k, height, width)
    for out_c in (1, 5)
    for in_c in (1, 3)
    for k in (1, 2, 7)
    for height, width in ((7, 9), (8, 10), (9, 7), (8, 7), (1, 9))
    if k <= min(height, width)
]


class TestIm2colBits:
    """The strided im2col view and its one product per image give the bits
    of the sliding_window_view and tensordot formulas."""

    @pytest.mark.parametrize("layout", ["contiguous", "strided", "transposed"])
    @pytest.mark.parametrize("out_c, in_c, k, height, width", IM2COL_CASES)
    def test_correlation_and_kernel_gradient(self, out_c, in_c, k, height, width, layout):
        rng = np.random.default_rng([out_c, in_c, k, height, width])
        kernel = rng.standard_normal((out_c, in_c, k, k))
        x = laid_out(rng.standard_normal((in_c, height, width)), layout)
        if height > 1:  # a one-row grid is C-contiguous in either axis order
            assert x.flags.c_contiguous == (layout == "contiguous")
        np.testing.assert_array_equal(_correlate(x, kernel), reference_correlate(x, kernel))
        # A one-layer, one-image pass whose stored input is x itself, strides
        # included, and whose ReLU mask passes every unit.
        out_shape = (1, out_c, height - k + 1, width - k + 1)
        forward = ForwardPass(np.zeros(out_shape), (x[None],), (np.ones(out_shape, dtype=bool),))
        params = EncoderParams((ConvLayer(kernel, np.zeros(out_c)),))
        upstream = rng.standard_normal(out_shape)
        (grads,) = encode_backward(forward, params, upstream)
        np.testing.assert_array_equal(grads.kernel[0], reference_kernel_gradient(upstream[0], x, k))

    def test_two_layer_backward(self):
        # The second layer's input gradient runs the flipped, channel-swapped
        # kernel through _correlate, so the first layer's gradients hold its bits.
        rng = np.random.default_rng(27)
        params = init_params(((3, 2, 3, True), (4, 3, 2, False)), 27)
        images = [random_image(rng, 2, 13, 12) for _ in range(3)]
        forward = encode_forward(images, params)
        upstream = rng.standard_normal(forward.output.shape)
        got = encode_backward(forward, params, upstream)
        for layer, (kernels, biases) in zip(got, reference_backward(forward, params, upstream)):
            np.testing.assert_array_equal(layer.kernel, kernels)
            np.testing.assert_array_equal(layer.bias, biases)


def mean_downsample(x):
    """2x2 average as a 6-D mean over the block axes, the reference for
    _downsample's summation order."""
    *lead, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    return x[..., : 2 * h2, : 2 * w2].reshape(*lead, c, h2, 2, w2, 2).mean(axis=(-3, -1))


def repeat_downsample_backward(grad_out, pre_shape):
    """The downsampling adjoint as np.repeat spreads it, the reference for
    _downsample_backward."""
    out = np.zeros(pre_shape)
    h2, w2 = grad_out.shape[-2:]
    out[..., : 2 * h2, : 2 * w2] = np.repeat(np.repeat(grad_out, 2, axis=-2), 2, axis=-1) / 4.0
    return out


def laid_out_stack(values, layout):
    """laid_out for a (n, C, H, W) stack."""
    if layout == "contiguous":
        return values.copy()
    if layout == "strided":
        n, c, h, w = values.shape
        big = np.zeros((n, c, 2 * h, 3 * w))
        big[:, :, 1::2, ::3] = values
        return big[:, :, 1::2, ::3]
    return np.ascontiguousarray(values.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)


# (stack size, channels, height, width): odd and even grids, and grids one
# row or one column high or wide after downsampling.
STACK_GRIDS = [(3, 2, h, w) for h, w in ((8, 6), (9, 7), (2, 9), (3, 8), (9, 2), (8, 3), (2, 2))]


class TestStackedKernelsKeepTheBits:
    """The downsampling, the stacked convolution and the kernel gradient give
    every sample of a stack the bits of its own one-image stack."""

    @pytest.mark.parametrize("layout", ["contiguous", "strided", "transposed"])
    @pytest.mark.parametrize("n, c, height, width", STACK_GRIDS)
    def test_downsample_and_its_adjoint(self, n, c, height, width, layout):
        rng = np.random.default_rng([n, c, height, width])
        x = laid_out_stack(rng.standard_normal((n, c, height, width)), layout)
        down = _downsample(x)
        grad = rng.standard_normal(down.shape)
        back = _downsample_backward(grad, x.shape)
        np.testing.assert_array_equal(back, repeat_downsample_backward(grad, x.shape))
        for j in range(n):
            np.testing.assert_array_equal(down[j], _downsample(x[j : j + 1])[0])
            np.testing.assert_array_equal(back[j], _downsample_backward(grad[j : j + 1], x[j : j + 1].shape)[0])

    @pytest.mark.parametrize("layout", ["contiguous", "strided", "transposed"])
    @pytest.mark.parametrize(
        "n, c, height, width, k", [(*grid, k) for grid in STACK_GRIDS for k in (1, 2, 3) if k <= min(grid[2:])]
    )
    def test_convolution_and_kernel_gradient(self, n, c, height, width, k, layout):
        rng = np.random.default_rng([n, c, height, width, k])
        kernel, bias = rng.standard_normal((4, c, k, k)), rng.standard_normal(4)
        x = laid_out_stack(rng.standard_normal((n, c, height, width)), layout)
        out = conv2d_valid(x, kernel, bias)
        params = EncoderParams((ConvLayer(kernel, bias),))
        upstream = rng.standard_normal(out.shape)

        def kernel_gradient(inputs, grad):
            forward = ForwardPass(np.zeros(grad.shape), (inputs,), (np.ones(grad.shape, dtype=bool),))
            return encode_backward(forward, params, grad)[0].kernel

        stacked = kernel_gradient(x, upstream)
        for j in range(n):
            np.testing.assert_array_equal(out[j], conv2d_valid(x[j : j + 1], kernel, bias)[0])
            np.testing.assert_array_equal(out[j], conv2d_valid(x[j], kernel, bias))
            np.testing.assert_array_equal(stacked[j], kernel_gradient(x[j : j + 1], upstream[j : j + 1])[0])

    def test_downsample_has_the_bits_of_the_mean_on_every_demo_grid(self):
        # train-demo's crops, after its one valid convolution, in stacks of
        # up to a training batch: _downsample sums each block as
        # ((a + b) + (c + d)), which is what the 6-D mean does on every grid
        # that does not halve to one column.
        from sfr.cli import DEMO_DATA, DEMO_IDENTITIES, DEMO_LAYERS, RunConfig

        ((channels, _, k, down),) = DEMO_LAYERS
        assert down
        (min_h, min_w), (max_h, max_w) = DEMO_DATA["min_crop"], DEMO_DATA["base_shape"]
        cfg = RunConfig()
        rng = np.random.default_rng(47)
        for height in range(min_h - k + 1, max_h - k + 2):
            for width in range(min_w - k + 1, max_w - k + 2):
                assert width // 2 > 1
                for n in range(1, min(cfg.p, DEMO_IDENTITIES) * cfg.k + 1):
                    x = np.maximum(rng.standard_normal((n, channels, height, width)), 0.0)
                    np.testing.assert_array_equal(_downsample(x), mean_downsample(x))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(((4, 1, 3, True), (8, 4, 5, False)), 9)
        path = tmp_path / "enc.sfrf"
        save_params(params, path)
        loaded = load_params(path)
        assert len(loaded.layers) == 2
        for a, b in zip(loaded.layers, params.layers):
            assert a.downsample == b.downsample
            np.testing.assert_allclose(a.kernel, b.kernel, atol=1e-6)
            np.testing.assert_allclose(a.bias, b.bias, atol=1e-6)

    def test_file_level_round_trip_exact(self, tmp_path):
        params = init_params(((3, 1, 3, True),), 2)
        a, b = tmp_path / "a.sfrf", tmp_path / "b.sfrf"
        save_params(params, a)
        save_params(load_params(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_identity_adapter_checkpoint(self, tmp_path):
        path = tmp_path / "empty.sfrf"
        save_params(init_params((), 0), path)
        assert load_params(path).layers == ()

    def test_truncated_payload(self, tmp_path):
        params = init_params(((2, 1, 3, False),), 1)
        path = tmp_path / "enc.sfrf"
        save_params(params, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="payload"):
            load_params(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "enc.sfrf"
        path.write_bytes(b"YYYY" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_params(path)


class TestToyImage:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            ToyImage(np.array([[[1.5]]]))
        with pytest.raises(ValueError):
            ToyImage(np.array([[[-0.1]]]))
