"""Independent recomputation of what `sfr match` reports, used to check its outputs.

Nothing here calls into `sfr`: SFRF files are parsed from their bytes, pooling
uses numpy's sliding windows instead of shifted-slice sums, and the ridge
coefficients come from a least-squares solve of the stacked system
[Y; sqrt(beta) I] W = [X; 0] instead of a Cholesky factor of the Gram matrix.
"""

from __future__ import annotations

import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SFRF_HEADER = struct.Struct("<4sIIII")


def read_sfrf(path) -> np.ndarray:
    """One SFRF record as a float64 (C, H, W) array."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, version, c, h, w = SFRF_HEADER.unpack_from(buf)
    if magic != b"SFRF" or version != 1 or len(buf) != SFRF_HEADER.size + 4 * c * h * w:
        raise ValueError(f"{path}: not a single version-1 SFRF record")
    return np.frombuffer(buf, dtype="<f4", offset=SFRF_HEADER.size).reshape(c, h, w).astype(np.float64)


def pooled(values: np.ndarray, kernels=(1, 2, 3, 4)) -> tuple[np.ndarray, np.ndarray]:
    """(global mean vector, unit-normalised pyramid columns) of a (C, H, W) map.

    Column order differs from `sfr`'s; the reconstruction distance does not
    depend on it."""
    c, h, w = values.shape
    blocks = [
        sliding_window_view(values, (k, k), axis=(1, 2)).mean(axis=(-2, -1)).reshape(c, -1)
        for k in kernels
        if k <= min(h, w)
    ]
    cols = np.concatenate(blocks, axis=1)
    norms = np.linalg.norm(cols, axis=0)
    return values.mean(axis=(1, 2)), cols / np.where(norms == 0.0, 1.0, norms)


def ridge_residual_norms(x: np.ndarray, y: np.ndarray, beta: float) -> np.ndarray:
    """Column norms of X - Y W for the ridge coefficients W of X against Y."""
    m = y.shape[1]
    a = np.vstack([y, np.sqrt(beta) * np.eye(m)])
    b = np.vstack([x, np.zeros((m, x.shape[1]))])
    w = np.linalg.lstsq(a, b, rcond=None)[0]
    return np.linalg.norm(x - y @ w, axis=0)


def pair_distances(probe_path, entry_path, beta: float) -> tuple[float, float]:
    """(d, r) of one probe against one gallery entry."""
    p_global, x = pooled(read_sfrf(probe_path))
    g_global, y = pooled(read_sfrf(entry_path))
    norms = ridge_residual_norms(x, y, beta)
    return float(np.linalg.norm(p_global - g_global)), float(norms.mean())


def average_precision(match_positions: list[int]) -> float:
    """AP of one ranking, given the 1-based positions of its true matches."""
    return float(np.mean([(i + 1) / pos for i, pos in enumerate(sorted(match_positions))]))
