"""Every parser on damaged bytes: the SFRF map, the pooled container, the
checkpoint, the manifest and the rankings CSV, each truncated at any offset
or with one byte replaced, either give a valid object or raise FormatError
(or MismatchError, for a rankings CSV whose s decreases). Needs hypothesis;
skipped where it is not installed."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sfr.cli import _RANKINGS_HEADER, _read_rankings_csv, _write_rankings_rows  # noqa: E402
from sfr.encoder import init_params, load_params, save_params  # noqa: E402
from sfr.errors import FormatError, MismatchError  # noqa: E402
from sfr.features import (  # noqa: E402
    FeatureMatrix,
    GlobalFeature,
    SpatialFeatureMap,
    load_feature_map,
    load_pooled,
    save_feature_map,
    save_pooled,
)
from sfr.retrieval import ManifestEntry, RetrievalRanking, load_manifest, write_manifest  # noqa: E402


def _write_rankings(path, rankings) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_RANKINGS_HEADER) + "\n")
        _write_rankings_rows(fh, rankings)


def _bytes_of(save) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        save(path)
        return path.read_bytes()


_rng = np.random.default_rng(0)
_PARAMS = init_params(((4, 1, 3, True), (6, 4, 3, False)), 0)
_MANIFEST = [ManifestEntry(f"e{i}", f"s{i % 2}", f"m/e{i}.sfrf") for i in range(3)]
_RANKINGS = [
    RetrievalRanking(p, ("g0", "g1", "g2"), [0.5, 0.25, 1.0], [0.125, 0.75, 0.5], [0.25, 0.5, 0.75])
    for p in ("p0", "p1")
]

# name -> (undamaged bytes, parser, the errors it may raise)
FILES = {
    "map": (
        _bytes_of(lambda p: save_feature_map(SpatialFeatureMap(_rng.standard_normal((3, 4, 2))), p)),
        load_feature_map,
        FormatError,
    ),
    "pooled": (
        _bytes_of(lambda p: save_pooled(p, FeatureMatrix(_rng.standard_normal((5, 7))), GlobalFeature(np.ones(5)))),
        load_pooled,
        FormatError,
    ),
    "checkpoint": (_bytes_of(lambda p: save_params(_PARAMS, p)), load_params, FormatError),
    "manifest": (_bytes_of(lambda p: write_manifest(p, _MANIFEST)), load_manifest, FormatError),
    "rankings": (
        _bytes_of(lambda p: _write_rankings(p, _RANKINGS)),
        _read_rankings_csv,
        (FormatError, MismatchError),
    ),
}

# One damage: (offset, None) truncates the file at offset modulo its size,
# (offset, b) replaces the byte there with b.
DAMAGE = st.tuples(st.integers(0, 2**16), st.none() | st.integers(0, 255))


def _damage(original: bytes, how) -> bytes:
    offset, byte = how
    offset %= len(original)
    if byte is None:
        return original[:offset]
    return original[:offset] + bytes([byte]) + original[offset + 1:]


def _parses_or_rejects(name: str, how) -> None:
    original, parse, rejected = FILES[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(_damage(original, how))
        try:
            parse(path)
        except rejected:
            pass


# The checkpoint's first kernel value whose third byte has its top bit set:
# 0x7f in its fourth byte makes the exponent all ones, a nan or inf.
_KERNELS = 12 + 16 * len(_PARAMS.layers)
_NAN_BYTE = _KERNELS + 3 + 4 * next(
    i for i in range(200) if FILES["checkpoint"][0][_KERNELS + 4 * i + 2] >= 0x80
)


@pytest.mark.parametrize("name", sorted(FILES))
def test_undamaged_files_parse(tmp_path, name):
    # Otherwise every damaged file would be rejected and the property hold
    # for nothing.
    original, parse, _ = FILES[name]
    path = tmp_path / name
    path.write_bytes(original)
    parse(path)


def test_checkpoint_with_a_broken_layer_chain(tmp_path):
    # Sizes agree with the manifest, but 4 output channels feed 5 inputs.
    layers = ((4, 1, 3, 1), (6, 5, 3, 0))
    payload = 4 * sum(o * i * k * k + o for o, i, k, _ in layers)
    path = tmp_path / "ckpt"
    path.write_bytes(
        struct.pack("<4sII", b"SFRF", 1, len(layers)) + b"".join(struct.pack("<IIII", *l) for l in layers)
        + bytes(payload)
    )
    with pytest.raises(FormatError, match="layer chain broken"):
        load_params(path)


class TestDamagedBytes:
    @settings(max_examples=200, deadline=None)
    @given(DAMAGE)
    @example((0, None))
    def test_feature_map(self, how):
        _parses_or_rejects("map", how)

    @settings(max_examples=200, deadline=None)
    @given(DAMAGE)
    @example((0, None))
    def test_pooled_container(self, how):
        _parses_or_rejects("pooled", how)

    @settings(max_examples=200, deadline=None)
    @given(DAMAGE)
    @example((_NAN_BYTE, 0x7F))
    def test_checkpoint(self, how):
        _parses_or_rejects("checkpoint", how)

    @settings(max_examples=200, deadline=None)
    @given(DAMAGE)
    @example((5, 0xFF))  # not UTF-8
    def test_manifest(self, how):
        _parses_or_rejects("manifest", how)

    @settings(max_examples=200, deadline=None)
    @given(DAMAGE)
    @example((5, 0xFF))  # not UTF-8
    def test_rankings_csv(self, how):
        _parses_or_rejects("rankings", how)
