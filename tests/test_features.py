"""Feature map pooling, normalization, and the SFRF binary container."""

import numpy as np
import pytest

from sfr.errors import FormatError, MismatchError
from sfr.features import (
    DEFAULT_PYRAMID,
    FeatureMatrix,
    GlobalFeature,
    PyramidSpec,
    SpatialFeatureMap,
    l2_normalize_columns,
    load_feature_map,
    load_pooled,
    pool_columns,
    pool_columns_adjoint,
    pool_feature_maps,
    save_feature_map,
    save_pooled,
    unit_columns,
)


def random_map(rng, c, h, w):
    return SpatialFeatureMap(rng.standard_normal((c, h, w)).astype(np.float32))


def pooled(fmap, spec=DEFAULT_PYRAMID):
    """One map's global vector and raw pyramid columns, by the route that
    `sfr pool --no-normalize` takes."""
    return pool_feature_maps([fmap], spec, normalize=False)[0]


def loop_pool(values, kernels):
    """Window-enumeration oracle: plain nested loops, one column per window."""
    c, h, w = values.shape
    cols = []
    for k in kernels:
        if k > min(h, w):
            continue
        for i in range(h - k + 1):
            for j in range(w - k + 1):
                cols.append(values[:, i:i + k, j:j + k].reshape(c, -1).mean(axis=1))
    return np.array(cols).T


class TestSfrfRoundTrip:
    def test_single_zero_entry(self, tmp_path):
        path = tmp_path / "one.sfrf"
        save_feature_map(SpatialFeatureMap(np.zeros((1, 1, 1), dtype=np.float32)), path)
        loaded = load_feature_map(path)
        assert (loaded.channels, loaded.height, loaded.width) == (1, 1, 1)
        assert loaded.values[0, 0, 0] == 0.0

    def test_random_map_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        fmap = random_map(rng, 16, 8, 4)
        path = tmp_path / "m.sfrf"
        save_feature_map(fmap, path)
        assert np.array_equal(load_feature_map(path).values, fmap.values)

    def test_payload_length(self, tmp_path):
        rng = np.random.default_rng(0)
        fmap = random_map(rng, 3, 5, 2)
        path = tmp_path / "m.sfrf"
        save_feature_map(fmap, path)
        data = path.read_bytes()
        assert len(data) - 4 == 16 + 4 * 3 * 5 * 2  # after the magic: header + binary32 grid

    def test_save_deterministic(self, tmp_path):
        rng = np.random.default_rng(1)
        fmap = random_map(rng, 2, 3, 3)
        a, b = tmp_path / "a.sfrf", tmp_path / "b.sfrf"
        save_feature_map(fmap, a)
        save_feature_map(fmap, b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_feature_map(tmp_path / "nope.sfrf")

    def test_unwritable_destination(self, tmp_path):
        fmap = SpatialFeatureMap(np.zeros((1, 1, 1), dtype=np.float32))
        with pytest.raises(OSError):
            save_feature_map(fmap, tmp_path / "no" / "such" / "dir" / "m.sfrf")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sfrf"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_feature_map(path)

    def test_bad_version(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "v.sfrf"
        save_feature_map(random_map(rng, 1, 2, 2), path)
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            load_feature_map(path)

    def test_declared_512_but_500_floats(self, tmp_path):
        import struct

        path = tmp_path / "short.sfrf"
        header = struct.pack("<4sIIII", b"SFRF", 1, 8, 8, 8)  # declares 512 values
        path.write_bytes(header + b"\x00" * (4 * 500))
        with pytest.raises(FormatError, match="500"):
            load_feature_map(path)

    def test_trailing_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "t.sfrf"
        save_feature_map(random_map(rng, 1, 2, 2), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_feature_map(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "nan.sfrf"
        values = np.array([[[np.nan]]], dtype=np.float32)
        import struct

        path.write_bytes(struct.pack("<4sIIII", b"SFRF", 1, 1, 1, 1) + values.tobytes())
        with pytest.raises(FormatError, match="non-finite"):
            load_feature_map(path)


class TestGlobalAveragePool:
    def test_constant_field(self):
        fmap = SpatialFeatureMap(np.full((4, 3, 5), 3.5, dtype=np.float32))
        np.testing.assert_allclose(pooled(fmap)[0].values, 3.5)

    def test_two_by_two_mean(self):
        fmap = SpatialFeatureMap(np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32))
        np.testing.assert_allclose(pooled(fmap)[0].values, [2.5])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        fmap = random_map(rng, 2, 4, 6)
        expected = [
            sum(float(fmap.values[c, i, j]) for i in range(4) for j in range(6)) / 24.0
            for c in range(2)
        ]
        np.testing.assert_allclose(pooled(fmap)[0].values, expected, rtol=1e-10)

    def test_full_grid_mean_when_not_square(self):
        # GAP is the full-grid mean; equal to a single min(H, W)-kernel pyramid
        # column only on square grids.
        rng = np.random.default_rng(5)
        square = random_map(rng, 3, 4, 4)
        gap, matrix = pooled(square, PyramidSpec((4,)))
        np.testing.assert_allclose(gap.values, matrix.columns[:, 0], rtol=1e-12)

        rect = random_map(rng, 3, 4, 6)
        gap, matrix = pooled(rect, PyramidSpec((4,)))
        assert matrix.columns.shape[1] == 3
        assert not np.allclose(gap.values, matrix.columns[:, 0])


class TestPyramidPool:
    def test_8x4_default_kernels_gives_70(self):
        rng = np.random.default_rng(7)
        matrix = pooled(random_map(rng, 4, 8, 4))[1]
        assert matrix.count == 70  # 32 + 21 + 12 + 5
        assert matrix.dim == 4

    def test_4x4_gives_30(self):
        rng = np.random.default_rng(8)
        assert pooled(random_map(rng, 2, 4, 4))[1].count == 30  # 16 + 9 + 4 + 1

    def test_1x1_keeps_only_unit_kernel(self):
        rng = np.random.default_rng(9)
        assert pooled(random_map(rng, 5, 1, 1))[1].count == 1

    def test_count_law_random_shapes(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            c = int(rng.integers(1, 4))
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 9))
            fmap = random_map(rng, c, h, w)
            expected = sum(
                (h - k + 1) * (w - k + 1) for k in DEFAULT_PYRAMID.kernel_sizes if k <= min(h, w)
            )
            assert pooled(fmap)[1].count == expected

    def test_columns_match_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            fmap = random_map(rng, int(rng.integers(1, 4)), int(rng.integers(2, 8)), int(rng.integers(2, 8)))
            expected = loop_pool(fmap.values.astype(np.float64), DEFAULT_PYRAMID.kernel_sizes)
            np.testing.assert_allclose(pooled(fmap)[1].columns, expected, rtol=1e-6)

    def test_all_kernels_too_big(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="exceeds"):
            pooled(random_map(rng, 1, 2, 2), PyramidSpec((3, 4)))

    def test_kernel_spec_validation(self):
        with pytest.raises(ValueError):
            PyramidSpec((2, 2))
        with pytest.raises(ValueError):
            PyramidSpec((0, 1))


class TestPoolColumnsAdjoint:
    # Kernel sets include sizes above min(H, W), which pooling skips.
    @pytest.mark.parametrize(
        "shape, kernels", [((3, 7, 5), (1, 2, 4, 6)), ((2, 3, 8), (1, 3, 4)), ((1, 6, 6), (2, 5, 7, 8))]
    )
    def test_dot_product_identity(self, shape, kernels):
        # <pool_columns(v), dx> = <v, adjoint(dx)> for every v and dx.
        rng = np.random.default_rng(13)
        spec = PyramidSpec(kernels)
        v = rng.standard_normal(shape)
        cols = pool_columns(v, spec)
        dx = rng.standard_normal(cols.shape)
        lhs = float(np.sum(cols * dx))
        rhs = float(np.sum(v * pool_columns_adjoint(dx, shape, spec)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_column_count(self, extra):
        spec = PyramidSpec((1, 2))
        n = pool_columns(np.zeros((2, 5, 4)), spec).shape[1]
        with pytest.raises(MismatchError, match="columns"):
            pool_columns_adjoint(np.zeros((2, n + extra)), (2, 5, 4), spec)


class TestStackedPooling:
    # A leading sample axis pools, transposes and normalizes every grid of a
    # stack with the bits it gets alone.
    @pytest.mark.parametrize("spec", [DEFAULT_PYRAMID, PyramidSpec((1, 2, 9))])
    def test_stack_matches_each_grid_alone(self, spec):
        rng = np.random.default_rng(21)
        stack = rng.standard_normal((4, 3, 7, 5))
        stack[2, :, :3, :3] = 0.0  # zero columns for the normalization
        cols = pool_columns(stack, spec)
        dx = rng.standard_normal(cols.shape)
        grads = pool_columns_adjoint(dx, stack.shape, spec)
        units, scales, zero = unit_columns(cols)
        for j, grid in enumerate(stack):
            np.testing.assert_array_equal(cols[j], pool_columns(grid, spec))
            np.testing.assert_array_equal(grads[j], pool_columns_adjoint(dx[j], grid.shape, spec))
            alone = l2_normalize_columns(FeatureMatrix(cols[j]))
            np.testing.assert_array_equal(units[j], alone.columns)
            assert tuple(np.flatnonzero(zero[j])) == alone.degenerate_columns
            np.testing.assert_array_equal(scales[j], np.where(zero[j], 1.0, np.linalg.norm(cols[j], axis=0)))
        assert zero[2].any()


class TestPoolFeatureMaps:
    # Maps grouped by shape and pooled in chunks come back in the order
    # given, each with the bits of pooling and normalizing it alone.
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("spec", [DEFAULT_PYRAMID, PyramidSpec((1, 3))])
    def test_each_map_has_the_bits_of_pooling_it_alone(self, spec, normalize):
        rng = np.random.default_rng(31)
        shapes = [(5, 4, 3), (5, 6, 6), (5, 4, 3), (5, 2, 7), (5, 6, 6), (5, 1, 1)]
        maps = []
        for i in range(75):  # more maps of one shape than a chunk holds
            values = rng.gamma(2.0, 0.5, size=shapes[i % len(shapes)]).astype(np.float32)
            if i % 7 == 0:
                values[:, :2, :2] = 0.0  # zero columns
            maps.append(SpatialFeatureMap(values))
        for i in (3, 40, 75):  # a stack of three maps with H*W > 8192
            maps.insert(i, SpatialFeatureMap(rng.standard_normal((3, 100, 90)).astype(np.float32)))
        features = pool_feature_maps(maps, spec, normalize)
        assert len(features) == len(maps)
        degenerate = 0
        for fmap, (gap, matrix) in zip(maps, features):
            alone = FeatureMatrix(pool_columns(fmap.values.astype(np.float64), spec))
            if normalize:
                alone = l2_normalize_columns(alone)
            np.testing.assert_array_equal(gap.values, fmap.values.mean(axis=(1, 2), dtype=np.float64))
            np.testing.assert_array_equal(matrix.columns, alone.columns)
            assert matrix.degenerate_columns == alone.degenerate_columns
            degenerate += len(matrix.degenerate_columns)
        assert (degenerate > 0) == normalize


class TestNormalization:
    def test_three_four_five(self):
        m = FeatureMatrix(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(l2_normalize_columns(m).columns, [[0.6], [0.8]])

    def test_idempotent(self):
        rng = np.random.default_rng(42)
        m = FeatureMatrix(rng.standard_normal((5, 7)))
        once = l2_normalize_columns(m)
        twice = l2_normalize_columns(once)
        np.testing.assert_allclose(twice.columns, once.columns, atol=1e-12)

    def test_zero_column_flagged_degenerate(self):
        m = FeatureMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        normalized = l2_normalize_columns(m)
        assert normalized.degenerate_columns == (1,)
        np.testing.assert_allclose(normalized.columns[:, 1], 0.0)
        np.testing.assert_allclose(np.linalg.norm(normalized.columns[:, 0]), 1.0)


class TestTypeInvariants:
    def test_map_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SpatialFeatureMap(np.array([[[np.inf]]]))

    def test_matrix_rejects_empty(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((3, 0)))

    def test_global_rejects_nan(self):
        with pytest.raises(ValueError):
            GlobalFeature(np.array([1.0, np.nan]))

    def test_values_immutable(self):
        fmap = SpatialFeatureMap(np.ones((1, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            fmap.values[0, 0, 0] = 5.0


class TestPooledContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        matrix = FeatureMatrix(rng.standard_normal((6, 11)).astype(np.float32))
        gap = GlobalFeature(rng.standard_normal(6).astype(np.float32))
        path = tmp_path / "pooled.sfrf"
        save_pooled(path, matrix, gap)
        got_m, got_g = load_pooled(path)
        np.testing.assert_array_equal(got_m.columns, matrix.columns)
        np.testing.assert_array_equal(got_g.values, gap.values)

    def test_trailing_garbage(self, tmp_path):
        rng = np.random.default_rng(14)
        path = tmp_path / "pooled.sfrf"
        save_pooled(
            path,
            FeatureMatrix(rng.standard_normal((2, 3)).astype(np.float32)),
            GlobalFeature(rng.standard_normal(2).astype(np.float32)),
        )
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_pooled(path)

    def test_spatial_record_of_height_above_one(self, tmp_path):
        # The first row alone of a (3, 2, 4) record is a plausible 3 x 4 matrix.
        rng = np.random.default_rng(15)
        path = tmp_path / "pooled.sfrf"
        save_feature_map(SpatialFeatureMap(rng.standard_normal((3, 2, 4)).astype(np.float32)), path)
        tail = tmp_path / "global.sfrf"
        save_feature_map(SpatialFeatureMap(rng.standard_normal((3, 1, 1)).astype(np.float32)), tail)
        path.write_bytes(path.read_bytes() + tail.read_bytes())
        with pytest.raises(FormatError, match=r"\(3, 2, 4\)"):
            load_pooled(path)

    def test_global_record_of_another_dim(self, tmp_path):
        # A 3-dim spatial record followed by a 4-dim global one.
        rng = np.random.default_rng(16)
        path = tmp_path / "pooled.sfrf"
        save_pooled(
            path,
            FeatureMatrix(rng.standard_normal((3, 5)).astype(np.float32)),
            GlobalFeature(rng.standard_normal(4).astype(np.float32)),
        )
        with pytest.raises(FormatError, match=r"global record shape \(4, 1, 1\) does not match dim 3"):
            load_pooled(path)
