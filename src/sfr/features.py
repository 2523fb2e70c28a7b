"""Spatial feature maps, pooled feature sets, and the SFRF binary container.

A feature map is a dense C x H x W activation grid. Pooling turns it into a
global d-vector (full-grid mean per channel) and a d x N matrix of multi-scale
spatial features (sliding average windows at several kernel sizes). All types
are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FormatError, MismatchError

MAGIC = b"SFRF"
VERSION = 1

_HEADER = struct.Struct("<4sIIII")  # magic, version, channels, height, width


def _freeze(a: np.ndarray) -> np.ndarray:
    # Value types own a private copy so freezing never locks a caller's array.
    if a.flags.writeable:
        a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SpatialFeatureMap:
    """C x H x W activation grid; values are held at binary32 precision."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float32)
        if v.ndim != 3 or min(v.shape) < 1:
            raise ValueError(f"expected non-empty (C, H, W) grid, got shape {np.shape(self.values)}")
        if not np.isfinite(v).all():
            raise ValueError("feature map contains non-finite values")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class FeatureMatrix:
    """d x N collection of spatial feature vectors, one feature per column."""

    columns: np.ndarray
    degenerate_columns: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        c = np.ascontiguousarray(self.columns, dtype=np.float64)
        if c.ndim != 2:
            raise ValueError(f"expected a (dim, count) matrix, got shape {np.shape(self.columns)}")
        if c.shape[0] < 1 or c.shape[1] < 1:
            raise ValueError("feature matrix needs dim > 0 and count >= 1")
        if not np.isfinite(c).all():
            raise ValueError("feature matrix contains non-finite values")
        object.__setattr__(self, "columns", _freeze(c))
        object.__setattr__(self, "degenerate_columns", tuple(int(i) for i in self.degenerate_columns))

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True)
class GlobalFeature:
    """d-vector of per-channel means from global average pooling."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] < 1:
            raise ValueError(f"expected a non-empty vector, got shape {np.shape(self.values)}")
        if not np.isfinite(v).all():
            raise ValueError("global feature contains non-finite values")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class PyramidSpec:
    """Square average-pooling windows, each slid over every position."""

    kernel_sizes: tuple[int, ...] = (1, 2, 3, 4)

    def __post_init__(self) -> None:
        ks = tuple(int(k) for k in self.kernel_sizes)
        if not ks or ks[0] < 1 or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError(f"kernel sizes must be strictly increasing and >= 1, got {ks}")
        object.__setattr__(self, "kernel_sizes", ks)


DEFAULT_PYRAMID = PyramidSpec()


def usable_kernels(spec: PyramidSpec, height: int, width: int) -> tuple[int, ...]:
    """Kernel sizes that fit the grid; larger ones are skipped, not an error."""
    return tuple(k for k in spec.kernel_sizes if k <= min(height, width))


def pool_columns(values: np.ndarray, spec: PyramidSpec) -> np.ndarray:
    """Sliding-average columns for each usable kernel, kernel-ascending then
    row-major window order. Operates on a raw (C, H, W) float array, or on a
    stack of them with leading axes, which gives each grid its own (C, N)
    columns with the same bits as pooling it alone."""
    *lead, c, h, w = values.shape
    fitting = usable_kernels(spec, h, w)
    if not fitting:
        raise ValueError(f"every kernel in {spec.kernel_sizes} exceeds min(H, W) = {min(h, w)}")
    blocks = []
    for k in fitting:
        acc = np.zeros((*lead, c, h - k + 1, w - k + 1))
        for di in range(k):
            for dj in range(k):
                acc += values[..., di:di + h - k + 1, dj:dj + w - k + 1]
        blocks.append((acc / float(k * k)).reshape(*lead, c, -1))
    return np.concatenate(blocks, axis=-1)


def pool_columns_adjoint(dx: np.ndarray, shape: tuple[int, ...], spec: PyramidSpec) -> np.ndarray:
    """The transpose of pool_columns: maps a (C, N) gradient on its columns
    back onto the (C, H, W) grid they were pooled from, or a stack of such
    gradients onto the stack of grids of the given shape."""
    h, w = shape[-2:]
    fitting = usable_kernels(spec, h, w)
    counts = [(h - k + 1) * (w - k + 1) for k in fitting]
    if sum(counts) != dx.shape[-1]:
        raise MismatchError(f"spatial gradient has {dx.shape[-1]} columns, pooling produced {sum(counts)}")
    out = np.zeros(shape)
    for k, block in zip(fitting, np.split(dx, np.cumsum(counts)[:-1], axis=-1)):
        acc = block.reshape(*shape[:-2], h - k + 1, w - k + 1) / float(k * k)
        for di in range(k):
            for dj in range(k):
                out[..., di:di + h - k + 1, dj:dj + w - k + 1] += acc
    return out


def unit_columns(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (axis -2 indexes the feature dim) scaled to unit l2 norm, the
    scales they were divided by, and the mask of zero columns, which keep
    scale 1 and stay zero. Leading axes stack matrices that are scaled
    independently, with the same bits as one at a time."""
    norms = np.linalg.norm(columns, axis=-2)
    zero = norms == 0.0
    scales = np.where(zero, 1.0, norms)
    return columns / scales[..., None, :], scales, zero


def l2_normalize_columns(m: FeatureMatrix) -> FeatureMatrix:
    """Scale every nonzero column to unit l2 norm; zero columns stay zero and
    are reported through the degenerate_columns flag."""
    units, _, zero = unit_columns(m.columns)
    return FeatureMatrix(units, tuple(int(i) for i in np.flatnonzero(zero)))


def group_by_shape(arrays: Sequence[np.ndarray]) -> dict[tuple[int, ...], list[int]]:
    """The positions of the given arrays, grouped by array shape in order of
    first appearance."""
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for i, values in enumerate(arrays):
        by_shape.setdefault(values.shape, []).append(i)
    return by_shape


def pool_stack(
    stack: np.ndarray, spec: PyramidSpec = DEFAULT_PYRAMID, normalize: bool = True
) -> tuple[list[tuple[GlobalFeature, FeatureMatrix]], np.ndarray]:
    """Each map's global average and pyramid columns, normalized when asked,
    from a (maps, C, H, W) stack, and the (maps, columns) scales its columns
    were divided by (ones when not normalizing). One global mean, one
    pool_columns and one unit_columns give every map the bits it gets pooled
    alone: the mean over its grid, pool_columns on its (C, H, W) array and
    unit_columns on its columns."""
    globals_ = stack.mean(axis=(-2, -1), dtype=np.float64)
    columns = pool_columns(stack.astype(np.float64, copy=False), spec)
    if normalize:
        columns, scales, zero = unit_columns(columns)
        degenerate = [tuple(np.flatnonzero(z).tolist()) for z in zero]
    else:
        scales = np.ones(columns.shape[::2])
        degenerate = [()] * len(stack)
    pooled = [(GlobalFeature(g), FeatureMatrix(c, d)) for g, c, d in zip(globals_, columns, degenerate)]
    return pooled, scales


# Maps of one shape are pooled in chunks of at most this many, so that a long
# manifest is never stacked whole.
_CHUNK_MAPS = 32


def pool_feature_maps(
    fmaps: Sequence[SpatialFeatureMap], spec: PyramidSpec = DEFAULT_PYRAMID, normalize: bool = True
) -> list[tuple[GlobalFeature, FeatureMatrix]]:
    """Each map's global average and pyramid columns, normalized when asked,
    in the order given. Maps of one shape go through pool_stack in chunks of
    at most _CHUNK_MAPS maps."""
    pooled: list = [None] * len(fmaps)
    for positions in group_by_shape([fmap.values for fmap in fmaps]).values():
        for start in range(0, len(positions), _CHUNK_MAPS):
            chunk = positions[start:start + _CHUNK_MAPS]
            features, _ = pool_stack(np.stack([fmaps[i].values for i in chunk]), spec, normalize)
            for i, feature in zip(chunk, features):
                pooled[i] = feature
    return pooled


def _pack_record(values: np.ndarray) -> bytes:
    c, h, w = values.shape
    return _HEADER.pack(MAGIC, VERSION, c, h, w) + np.ascontiguousarray(values, dtype="<f4").tobytes()


def _unpack_record(buf: bytes, offset: int, path: str) -> tuple[np.ndarray, int]:
    if len(buf) - offset < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, c, h, w = _HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if min(c, h, w) < 1:
        raise FormatError(f"{path}: non-positive dimensions {(c, h, w)}")
    start = offset + _HEADER.size
    end = start + 4 * c * h * w
    if len(buf) < end:
        raise FormatError(
            f"{path}: payload holds {(len(buf) - start) // 4} values, header declares {c * h * w}"
        )
    values = np.frombuffer(buf[start:end], dtype="<f4").reshape(c, h, w)
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: non-finite value in payload")
    return values, end


def save_feature_map(fmap: SpatialFeatureMap, path) -> None:
    """Write one SFRF record; byte output is deterministic for identical input."""
    with open(path, "wb") as fh:
        fh.write(_pack_record(fmap.values))


def load_feature_map(path) -> SpatialFeatureMap:
    """Read one SFRF record; round-trips bit-exactly with save_feature_map."""
    with open(path, "rb") as fh:
        buf = fh.read()
    values, end = _unpack_record(buf, 0, str(path))
    if end != len(buf):
        raise FormatError(f"{path}: {len(buf) - end} trailing bytes after payload")
    return SpatialFeatureMap(values)


def save_pooled(path, matrix: FeatureMatrix, gap: GlobalFeature) -> None:
    """Pooled-output container: two stacked SFRF records, the spatial columns
    as a (dim, 1, count) grid followed by the global vector as (dim, 1, 1)."""
    with open(path, "wb") as fh:
        fh.write(_pack_record(matrix.columns.astype(np.float32)[:, None, :]))
        fh.write(_pack_record(gap.values.astype(np.float32)[:, None, None]))


def load_pooled(path) -> tuple[FeatureMatrix, GlobalFeature]:
    with open(path, "rb") as fh:
        buf = fh.read()
    cols, offset = _unpack_record(buf, 0, str(path))
    if cols.shape[1] != 1:
        raise FormatError(f"{path}: spatial record shape {cols.shape} has height {cols.shape[1]}, want 1")
    vec, end = _unpack_record(buf, offset, str(path))
    if end != len(buf):
        raise FormatError(f"{path}: {len(buf) - end} trailing bytes after payload")
    if vec.shape != (cols.shape[0], 1, 1):
        raise FormatError(f"{path}: global record shape {vec.shape} does not match dim {cols.shape[0]}")
    return FeatureMatrix(cols[:, 0, :]), GlobalFeature(vec[:, 0, 0])
