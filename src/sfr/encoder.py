"""A small trainable conv/relu/average-downsample encoder for desk-scale runs.

Convolutions use valid padding, so arbitrary-size inputs produce
correspondingly-sized feature grids instead of being forced to a fixed shape.
The float64 forward is one pass over a stack of same-shape images
(encode_forward), which keeps its layer cache so that encode_backward needs no
second forward; both passes give every sample the bits of its own one-image
stack. encode_raw is the output of a one-image stack, and encode() wraps it
into a binary32 SpatialFeatureMap.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import FormatError, MismatchError
from .features import MAGIC, VERSION, SpatialFeatureMap, _freeze

# (out_channels, in_channels, kernel_size, downsample)
LayerSpec = tuple[int, int, int, bool]

_CKPT_HEADER = struct.Struct("<4sII")  # magic, version, layer count
_CKPT_LAYER = struct.Struct("<IIII")   # out_c, in_c, kernel_size, downsample flag


@dataclass(frozen=True)
class ConvLayer:
    kernel: np.ndarray  # (out_c, in_c, k, k)
    bias: np.ndarray    # (out_c,)
    downsample: bool = False

    def __post_init__(self) -> None:
        k = np.ascontiguousarray(self.kernel, dtype=np.float64)
        b = np.ascontiguousarray(self.bias, dtype=np.float64)
        if k.ndim != 4 or k.shape[2] != k.shape[3]:
            raise ValueError(f"kernel must be (out_c, in_c, k, k), got {np.shape(self.kernel)}")
        if b.shape != (k.shape[0],):
            raise ValueError(f"bias shape {b.shape} does not match out_c {k.shape[0]}")
        if not (np.isfinite(k).all() and np.isfinite(b).all()):
            raise ValueError("layer parameters contain non-finite values")
        object.__setattr__(self, "kernel", _freeze(k))
        object.__setattr__(self, "bias", _freeze(b))
        object.__setattr__(self, "downsample", bool(self.downsample))

    @property
    def out_channels(self) -> int:
        return self.kernel.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.kernel.shape[2]


@dataclass(frozen=True)
class EncoderParams:
    """Ordered conv layers; an empty stack is the identity adapter for
    precomputed feature maps."""

    layers: tuple[ConvLayer, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.in_channels != prev.out_channels:
                raise ValueError(
                    f"layer chain broken: out_c {prev.out_channels} feeds in_c {nxt.in_channels}"
                )

    def parameter_count(self) -> int:
        return sum(l.kernel.size + l.bias.size for l in self.layers)


@dataclass(frozen=True)
class ToyImage:
    """(C, H, W) pixel grid with values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 3 or min(v.shape) < 1:
            raise ValueError(f"expected non-empty (C, H, W) pixels, got shape {np.shape(self.values)}")
        if not np.isfinite(v).all() or v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("pixel values must be finite and within [0, 1]")
        object.__setattr__(self, "values", _freeze(v))


@dataclass(frozen=True)
class LayerGradients:
    kernel: np.ndarray
    bias: np.ndarray


def init_params(layer_specs: Sequence[LayerSpec], seed: int) -> EncoderParams:
    """Seeded initialization: kernel entries zero-mean with 1/sqrt(in_c * k^2)
    fan-in scale, biases zero. An empty spec yields the identity encoder."""
    rng = np.random.default_rng(seed)
    layers = []
    for out_c, in_c, k, down in layer_specs:
        if min(out_c, in_c, k) < 1:
            raise ValueError(f"invalid layer spec {(out_c, in_c, k, down)}")
        scale = 1.0 / math.sqrt(in_c * k * k)
        layers.append(ConvLayer(rng.standard_normal((out_c, in_c, k, k)) * scale, np.zeros(out_c), down))
    return EncoderParams(tuple(layers))


def _windows(x: np.ndarray, k: int) -> np.ndarray:
    # Every k x k window of a (..., C, H, W) stack as one read-only view, with
    # the strides of x: [..., c, di, dj, i, j] is x[..., c, i + di, j + dj]
    # (im2col).
    *lead, c, height, width = x.shape
    *lead_strides, sc, sh, sw = x.strides
    shape = (*lead, c, k, k, height - k + 1, width - k + 1)
    return as_strided(x, shape, (*lead_strides, sc, sh, sw, sh, sw), writeable=False)


def _correlate(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # out[..., o, i, j] = sum over c, di, dj of kernel[o, c, di, dj] * x[..., c, i + di, j + dj]:
    # each grid's windows as one (C k k, h w) matrix, contracted with the
    # kernel in one np.dot, the call tensordot made on these operands; a
    # matmul (@) rounds some one-wide outputs differently, and one product
    # over the whole stack would round differently too.
    out_c, _, k, _ = kernel.shape
    windows = _windows(x, k)
    lead, (h, w) = windows.shape[:-5], windows.shape[-2:]
    matrix = kernel.reshape(out_c, -1)
    out = np.empty((*lead, out_c, h * w))
    for index in np.ndindex(*lead):
        np.dot(matrix, windows[index].reshape(-1, h * w), out=out[index])
    return out.reshape(*lead, out_c, h, w)


def conv2d_valid(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid-padding convolution of a (..., C, H, W) stack of grids with an
    (O, C, k, k) kernel; every grid gets the bits it gets alone."""
    _, in_c, k, _ = kernel.shape
    if x.shape[-3] != in_c:
        raise MismatchError(f"input channels {x.shape[-3]} != kernel in_c {in_c}")
    if x.shape[-2] < k or x.shape[-1] < k:
        raise ValueError(f"input {x.shape[-2]}x{x.shape[-1]} smaller than kernel {k}x{k}")
    out = _correlate(x, kernel)
    out += bias[:, None, None]
    return out


def _quarters(x: np.ndarray, h2: int, w2: int) -> tuple[np.ndarray, ...]:
    # The top-left, top-right, bottom-left and bottom-right cells of each
    # 2x2 block of a (..., H, W) grid, as strided views.
    return tuple(x[..., di : 2 * h2 : 2, dj : 2 * w2 : 2] for di in (0, 1) for dj in (0, 1))


def _downsample(x: np.ndarray) -> np.ndarray:
    # 2x2 non-overlapping average of a (..., C, H, W) stack; a trailing odd
    # row/column is dropped. Each block sums as ((a + b) + (c + d)) / 4, its
    # two rows first: the bits of numpy's mean over the block axes, except on
    # a grid that halves to one column, where mean sums ((a + b) + c) + d.
    *_, h, w = x.shape
    h2, w2 = h // 2, w // 2
    if h2 < 1 or w2 < 1:
        raise ValueError(f"grid {h}x{w} too small for 2x2 downsampling")
    a, b, c, d = _quarters(x, h2, w2)
    out = a + b
    out += c + d
    out /= 4.0
    return out


def _downsample_backward(grad_out: np.ndarray, pre_shape: tuple[int, ...]) -> np.ndarray:
    out = np.zeros(pre_shape)
    quarter = grad_out / 4.0
    for cells in _quarters(out, *grad_out.shape[-2:]):
        cells[...] = quarter
    return out


@dataclass(frozen=True)
class ForwardPass:
    """One forward pass over a stack of same-shape images: the stacked output
    grids, and per layer the stacked conv inputs and ReLU masks
    (pre-activation > 0, shaped like the rectified grids) that encode_backward
    reads in place of a second forward. Every array has a leading sample
    axis."""

    output: np.ndarray
    inputs: tuple[np.ndarray, ...]
    relu_masks: tuple[np.ndarray, ...]


def encode_forward(images: Sequence[ToyImage], params: EncoderParams) -> ForwardPass:
    """Float64 forward pass of a stack of same-shape images that keeps its
    layer cache for encode_backward.

    Each layer's convolution, ReLU, mask and downsampling run once over the
    stack; the convolution makes one product per image (a stacked
    contraction would round differently), so every sample has the bits of
    its own one-image stack."""
    x = np.stack([img.values for img in images])
    inputs, masks = [], []
    for layer in params.layers:
        pre = conv2d_valid(x, layer.kernel, layer.bias)
        inputs.append(x)
        masks.append(pre > 0.0)
        post = np.maximum(pre, 0.0, out=pre)
        x = _downsample(post) if layer.downsample else post
    return ForwardPass(x, tuple(inputs), tuple(masks))


def encode_raw(img: ToyImage, params: EncoderParams) -> np.ndarray:
    """Float64 forward pass of one image; evaluation and gradient checks run
    on this."""
    return encode_forward([img], params).output[0]


def encode(img: ToyImage, params: EncoderParams) -> SpatialFeatureMap:
    """Forward pass wrapped as a feature map. With zero layers the image grid
    is reinterpreted as the feature map unchanged."""
    return SpatialFeatureMap(encode_raw(img, params))


def encode_backward(
    forward: ForwardPass, params: EncoderParams, upstream_grad: np.ndarray
) -> list[LayerGradients]:
    """Exact reverse-mode parameter gradients, per sample, for a stacked
    gradient w.r.t. the output grids of a forward pass made with params.
    Rectification uses subgradient 0 at exactly 0.

    Each layer's kernel and bias gradients come back with a leading sample
    axis: the downsampling adjoint, the ReLU mask and the input gradient run
    once over the stack, and the kernel gradient takes one product per
    sample from one windowed view of the stack."""
    if len(forward.relu_masks) != len(params.layers):
        raise MismatchError(
            f"forward pass has {len(forward.relu_masks)} layers, params have {len(params.layers)}"
        )
    g = np.asarray(upstream_grad, dtype=np.float64)
    if g.shape != forward.output.shape:
        raise MismatchError(f"upstream gradient shape {g.shape} != output shape {forward.output.shape}")
    grads: list[LayerGradients | None] = [None] * len(params.layers)
    for i in reversed(range(len(params.layers))):
        layer = params.layers[i]
        mask = forward.relu_masks[i]
        if layer.downsample:
            g = _downsample_backward(g, mask.shape)
        g = g * mask
        k, out_c = layer.kernel_size, layer.out_channels
        # Each sample's windows as one (h w, C k k) matrix: one product per sample.
        windows = _windows(forward.inputs[i], k).transpose(0, 4, 5, 1, 2, 3)
        kernel_grads = np.empty((len(g), out_c, layer.kernel[0].size))
        for j, gs in enumerate(g):
            np.dot(gs.reshape(out_c, -1), windows[j].reshape(gs[0].size, -1), out=kernel_grads[j])
        grads[i] = LayerGradients(kernel_grads.reshape(len(g), *layer.kernel.shape), g.sum(axis=(2, 3)))
        if i > 0:  # the image needs no gradient
            # Full correlation with the flipped, channel-swapped kernel: the
            # transpose of the forward's valid correlation.
            flipped = layer.kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            g = _correlate(np.pad(g, ((0, 0), (0, 0), (k - 1, k - 1), (k - 1, k - 1))), flipped)
    return grads  # type: ignore[return-value]


def sgd_update(params: EncoderParams, grads: Sequence[LayerGradients], learning_rate: float) -> EncoderParams:
    if len(grads) != len(params.layers):
        raise MismatchError(f"{len(grads)} gradients for {len(params.layers)} layers")
    layers = tuple(
        ConvLayer(l.kernel - learning_rate * g.kernel, l.bias - learning_rate * g.bias, l.downsample)
        for l, g in zip(params.layers, grads)
    )
    return EncoderParams(layers)


def save_params(params: EncoderParams, path) -> None:
    """Checkpoint: SFRF magic/version, layer manifest (u32 out_c, in_c, k,
    downsample flag per layer), then all kernels followed by all biases as
    binary32 little-endian."""
    parts = [_CKPT_HEADER.pack(MAGIC, VERSION, len(params.layers))]
    for l in params.layers:
        parts.append(_CKPT_LAYER.pack(l.out_channels, l.in_channels, l.kernel_size, int(l.downsample)))
    for l in params.layers:
        parts.append(l.kernel.astype("<f4").tobytes())
    for l in params.layers:
        parts.append(l.bias.astype("<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_params(path) -> EncoderParams:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < _CKPT_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, count = _CKPT_HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    offset = _CKPT_HEADER.size
    shapes = []
    for _ in range(count):
        if len(buf) - offset < _CKPT_LAYER.size:
            raise FormatError(f"{path}: truncated layer manifest")
        out_c, in_c, k, down = _CKPT_LAYER.unpack_from(buf, offset)
        if min(out_c, in_c, k) < 1:
            raise FormatError(f"{path}: invalid layer shape {(out_c, in_c, k)}")
        shapes.append((out_c, in_c, k, bool(down)))
        offset += _CKPT_LAYER.size
    expected = sum(4 * o * i * k * k for o, i, k, _ in shapes) + sum(4 * o for o, _, _, _ in shapes)
    if len(buf) - offset != expected:
        raise FormatError(f"{path}: payload holds {len(buf) - offset} bytes, manifest declares {expected}")
    if not np.isfinite(np.frombuffer(buf, dtype="<f4", offset=offset)).all():
        raise FormatError(f"{path}: non-finite value in payload")
    kernels = []
    for o, i, k, _ in shapes:
        n = 4 * o * i * k * k
        kernels.append(np.frombuffer(buf[offset:offset + n], dtype="<f4").reshape(o, i, k, k))
        offset += n
    layers = []
    for (o, i, k, down), kernel in zip(shapes, kernels):
        bias = np.frombuffer(buf[offset:offset + 4 * o], dtype="<f4")
        offset += 4 * o
        layers.append(ConvLayer(kernel.astype(np.float64), bias.astype(np.float64), down))
    try:
        return EncoderParams(tuple(layers))
    except ValueError as exc:  # a broken layer chain
        raise FormatError(f"{path}: {exc}") from exc
