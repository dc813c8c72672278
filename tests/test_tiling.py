import json
import tracemalloc

import numpy as np
import pytest

from pixelret.errors import (
    ChecksumError,
    CoordError,
    EmptyDataset,
    FormatError,
    ParamError,
)
from pixelret.iip import IipConfig, make_iik
from pixelret import tiling
from pixelret.layout import LayoutPattern, rasterize
from pixelret.tiling import (
    SPLIT_NAMES,
    PixelDataset,
    TilingConfig,
    build_dataset,
    compress_window,
    extract_window,
    load_dataset,
    merge_datasets,
    save_dataset,
    split_dataset,
    window_field,
)


def rect(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def toy_tiling(**kw):
    base = dict(
        interaction_distance=8.0,
        px_per_nm=1.0,
        compression_factor=2,
        row_reducer="mean",
        col_reducer="mean",
    )
    base.update(kw)
    return TilingConfig(**base)


def blockwise_loops(v, f, row_reducer, col_reducer):
    """compress_window's arithmetic as scalar loops: in each f x f block,
    each column's f rows in order, then the f column values in order; a
    mean sums from 0.0 and divides by f."""
    def reduce(xs, name):
        if name == "max":
            return max(xs)
        acc = 0.0
        for x in xs:
            acc += x
        return acc / len(xs)

    n = v.shape[0] // f
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            cols = [
                reduce([float(v[i * f + k, j * f + c]) for k in range(f)], row_reducer)
                for c in range(f)
            ]
            out[i, j] = reduce(cols, col_reducer)
    return out.astype(np.float32)


class TestWindowGeometry:
    def test_default_window(self):
        t = TilingConfig()
        assert t.window_side == 1601
        assert t.output_side == 200

    def test_reference_profile(self):
        t = TilingConfig(interaction_distance=500.0, px_per_nm=2.0, compression_factor=8)
        assert t.window_side == 2001
        assert t.output_side == 250

    def test_toy_profile(self):
        t = TilingConfig(interaction_distance=100.0, px_per_nm=1.0, compression_factor=4)
        assert t.window_side == 201
        assert t.output_side == 50

    def test_bad_params(self):
        with pytest.raises(ParamError):
            TilingConfig(interaction_distance=0.0)
        with pytest.raises(ParamError):
            TilingConfig(compression_factor=0)
        for value in (2.5, 2.0, True):
            with pytest.raises(ParamError, match="compression_factor"):
                TilingConfig(compression_factor=value)
        with pytest.raises(ParamError):
            TilingConfig(row_reducer="median")
        for key in ("interaction_distance", "px_per_nm"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ParamError, match=key):
                    TilingConfig(**{key: value})


class TestExtractWindow:
    def test_interior(self, grid_factory, rng):
        arr = rng.random((32, 32)).astype(np.float32)
        g = grid_factory(arr)
        t = toy_tiling()
        w = extract_window(g, (16, 16), t)
        assert w.values.shape == (17, 17)
        assert np.array_equal(w.values, arr[8:25, 8:25])

    def test_corner_zero_padded(self, grid_factory):
        g = grid_factory(np.ones((20, 20), dtype=np.float32))
        t = toy_tiling()
        w = extract_window(g, (0, 0), t).values
        assert w[8, 8] == 1.0
        assert w[0, 0] == 0.0
        assert w[: 8, :].sum() == 0.0
        assert w[8:, 8:].sum() == 9 * 9

    def test_out_of_bounds_rejected(self, grid_factory):
        g = grid_factory(np.ones((10, 10), dtype=np.float32))
        with pytest.raises(CoordError):
            extract_window(g, (10, 3), toy_tiling())
        with pytest.raises(CoordError):
            extract_window(g, (-1, 3), toy_tiling())


class TestCompressWindow:
    def test_bright_column_mean_max(self):
        # 8x8 window, one fully lit column: row-mean keeps 1.0 per block row,
        # column-max then keeps 1.0
        t = TilingConfig(
            interaction_distance=4.0, px_per_nm=1.0, compression_factor=4,
            row_reducer="mean", col_reducer="max",
        )
        w = np.zeros((9, 9), dtype=np.float32)
        w[:, 2] = 1.0
        out = compress_window(w, t)
        assert out.shape == (2, 2)
        assert out[0, 0] == 1.0
        assert out[1, 0] == 1.0
        assert out[:, 1].max() == 0.0

    def test_bright_column_mean_mean(self):
        t = TilingConfig(
            interaction_distance=4.0, px_per_nm=1.0, compression_factor=4,
            row_reducer="mean", col_reducer="mean",
        )
        w = np.zeros((9, 9), dtype=np.float32)
        w[:, 2] = 1.0
        out = compress_window(w, t)
        assert out[0, 0] == pytest.approx(0.25)

    def test_constant_window_any_reducers(self):
        for rr in ("mean", "max"):
            for cr in ("mean", "max"):
                t = TilingConfig(
                    interaction_distance=4.0, px_per_nm=1.0, compression_factor=2,
                    row_reducer=rr, col_reducer=cr,
                )
                w = np.full((9, 9), 0.625, dtype=np.float32)
                out = compress_window(w, t)
                assert np.allclose(out, 0.625, atol=1e-6)

    def test_center_weighted_refused(self):
        with pytest.raises(ParamError, match="center_weighted"):
            TilingConfig(row_reducer="center_weighted")

    def test_far_edge_trimmed(self):
        t = TilingConfig(
            interaction_distance=4.0, px_per_nm=1.0, compression_factor=4,
            row_reducer="mean", col_reducer="mean",
        )
        w = np.zeros((9, 9), dtype=np.float32)
        w[:, 8] = 1.0  # trimmed column must not contribute
        out = compress_window(w, t)
        assert out.max() == 0.0

    def test_float32_output(self):
        t = toy_tiling()
        out = compress_window(np.ones((17, 17), dtype=np.float32), t)
        assert out.dtype == np.float32
        assert out.shape == (8, 8)


def planes_windows(g, flat, t):
    """The windows of the pixels with the given flat indices, read from a
    new Planes of g filled for them alone."""
    planes = tiling.Planes(g, t)
    planes.fill(flat)
    return np.asarray(planes.windows(flat))


class TestWindowField:
    """Planes fills the tiles that a selection's windows read, and each
    window read from it is bitwise compress_window(extract_window(...))."""

    def test_matches_oracle_on_every_pixel(self, grid_factory, rng, monkeypatch):
        # Windows (side 11 and 21) larger than the 21x19 raster, so every
        # pixel reaches past an edge; factors 3 and 8 also trim the far
        # edge.  A 1-byte band budget builds the field one row at a time.
        g = grid_factory(rng.random((19, 21)))
        coords = np.array([(x, y) for y in range(19) for x in range(21)])
        every = np.arange(19 * 21)
        perm = rng.permutation(len(coords))
        for f, dist in ((2, 5.0), (3, 5.0), (4, 10.0), (8, 10.0)):
            for rr in ("mean", "max"):
                for cr in ("mean", "max"):
                    t = TilingConfig(
                        interaction_distance=dist, px_per_nm=1.0,
                        compression_factor=f, row_reducer=rr, col_reducer=cr,
                    )
                    oracle = np.stack([
                        compress_window(extract_window(g, (int(x), int(y)), t), t)
                        for x, y in coords
                    ])
                    assert np.array_equal(planes_windows(g, every, t), oracle)
                    assert np.array_equal(planes_windows(g, every[40:47], t), oracle[40:47])
                    with monkeypatch.context() as mp:
                        mp.setattr(tiling, "_BAND_BYTES", 1)
                        assert np.array_equal(planes_windows(g, every[perm], t), oracle[perm])

    @pytest.mark.parametrize("f", [1, 2, 3, 4, 8, 9])
    @pytest.mark.parametrize("binary", [True, False])
    def test_shifted_reduction_matches_oracle(self, grid_factory, rng, f, binary):
        # Non-binary values of both signs far apart in magnitude, so the
        # mean's sums cancel and any other order of its additions shows
        # even after the cast to float32.  compress_window is checked
        # against scalar loops, and the scattered pixels' windows from
        # Planes against compress_window.
        values = rng.choice([1e16, -1e16, 1.0, 0.375, 3.0], (30, 41))
        g = grid_factory(np.zeros((30, 41)))
        g = g.with_values((values > 0.5).astype(np.float64) if binary else values)
        coords = np.array([(x, y) for y in range(0, 30, 3) for x in range(0, 41, 4)])
        for rr in ("mean", "max"):
            for cr in ("mean", "max"):
                t = TilingConfig(
                    interaction_distance=9.0, px_per_nm=1.0,
                    compression_factor=f, row_reducer=rr, col_reducer=cr,
                )
                windows = [extract_window(g, (int(x), int(y)), t).values for x, y in coords]
                oracle = np.stack([compress_window(w, t) for w in windows])
                for w, o in zip(windows[::9], oracle[::9]):
                    assert np.array_equal(o.view(np.uint32), blockwise_loops(w, f, rr, cr).view(np.uint32))
                got = planes_windows(g, coords[:, 1] * 41 + coords[:, 0], t)
                assert np.array_equal(got.view(np.uint32), oracle.view(np.uint32))

    def test_far_apart_boxes_read_by_block(self, grid_factory, rng, monkeypatch):
        # The union of two 4x3 boxes at opposite corners of a 37x53
        # raster, filled in 7-row bands, read 5 pixels a block.
        g = grid_factory(rng.random((37, 53)))
        t = TilingConfig(
            interaction_distance=6.0, px_per_nm=1.0, compression_factor=4,
            row_reducer="mean", col_reducer="max",
        )
        coords = np.array(
            [(x, y) for y in range(1, 4) for x in range(2, 6)]
            + [(x, y) for y in range(33, 36) for x in range(47, 51)]
        )
        monkeypatch.setattr(tiling, "_BAND_BYTES", 8 * 4 * (57 + 3) * 7)
        planes = tiling.Planes(g, t)
        flat = coords[:, 1] * 53 + coords[:, 0]
        planes.fill(flat)
        windows = planes.windows(flat)
        for start in range(0, len(coords), 5):
            block = coords[start : start + 5]
            oracle = [compress_window(extract_window(g, tuple(c), t), t) for c in block]
            assert np.array_equal(windows[start : start + 5], np.stack(oracle))

    def test_far_corners_fill_only_their_tiles(self, grid_factory, rng):
        # Samples in the top-left and bottom-right corners of a 150x130
        # raster: only the tiles their windows read are filled, the rest
        # of the planes stays unwritten, and every window is the oracle's.
        g = grid_factory(rng.random((130, 150)))
        t = toy_tiling(row_reducer="max")  # radius 8, factor 2, side 8
        coords = np.array([(0, 0), (3, 2), (5, 6), (149, 129), (146, 127), (140, 122)])
        flat = coords[:, 1] * 150 + coords[:, 0]
        planes = tiling.Planes(g, t)
        planes.fill(flat)
        assert 0 < planes.filled.sum() < planes.filled.size // 4
        oracle = np.stack([compress_window(extract_window(g, tuple(c), t), t) for c in coords])
        assert np.array_equal(np.asarray(planes.windows(flat)).view(np.uint32),
                              oracle.view(np.uint32))
        # No plane value outside the filled tiles was written.
        tiles = np.repeat(np.repeat(planes.filled, tiling._TILE, 0), tiling._TILE, 1)
        tiles = tiles[: planes.values.shape[2], : planes.values.shape[3]]
        assert not planes.values[:, :, ~tiles].any()

    def test_empty_selection(self, grid_factory):
        g = grid_factory(np.ones((10, 10)))
        empty = np.empty(0, dtype=np.int64)
        planes = tiling.Planes(g, toy_tiling())
        planes.fill(empty)
        assert not planes.filled.any()
        out = np.asarray(planes.windows(empty))
        assert out.shape == (0, 8, 8)
        assert out.dtype == np.float32

    def test_out_of_bounds_rejected(self, grid_factory):
        g = grid_factory(np.ones((10, 10)))
        planes = tiling.Planes(g, toy_tiling())
        for bad in ([33, -1], [33, 100], [99, 250]):
            for op in (planes.fill, planes.windows, planes.crop):
                with pytest.raises(CoordError, match="outside raster 10x10"):
                    op(np.array(bad))
        assert not planes.filled.any()


class TestPolyphasePlanes:
    """fill_field writes plane (a, b) = field[a::f, b::f], and window_field
    reads each window from planes as one contiguous block."""

    @staticmethod
    def whole_planes(g, t):
        """The planes of the compressed field of the whole zero-padded
        raster, field value (v, u) at raster pixel (u - r, v - r), as a
        deployment memo holds them: the window of pixel (x, y) is the one
        at field offset (x, y)."""
        f, side = t.compression_factor, t.output_side
        planes = np.full((f, f, (g.height - 1) // f + side, (g.width - 1) // f + side), np.nan,
                         dtype=np.float32)
        tiling.fill_field(g, t, planes, -t.window_radius, -t.window_radius)
        return planes

    @pytest.mark.parametrize("f", [1, 2, 3, 4])
    def test_windows_from_planes_match_oracle(self, grid_factory, rng, f):
        # A 17 x 23 raster, sides not multiples of 2, 3 or 4; windows of
        # side 13 reach past every edge and corner.  Values of both signs
        # far apart in magnitude, so any other order of the mean's sums
        # shows.
        g = grid_factory(np.zeros((17, 23)))
        g = g.with_values(rng.choice([1e16, -1e16, 1.0, 0.375, 3.0], (17, 23)))
        coords = np.array([(x, y) for y in range(17) for x in range(23)])
        for rr in ("mean", "max"):
            for cr in ("mean", "max"):
                t = TilingConfig(interaction_distance=6.0, px_per_nm=1.0,
                                 compression_factor=f, row_reducer=rr, col_reducer=cr)
                oracle = np.stack([
                    compress_window(extract_window(g, (int(x), int(y)), t), t) for x, y in coords
                ])
                planes = self.whole_planes(g, t)
                got = np.asarray(window_field(planes, coords, t))
                assert np.array_equal(got.view(np.uint32), oracle.view(np.uint32))
                # A crop of the planes' rows and columns, offsets shifted by
                # f times the rows and columns cut, reads the same windows.
                part = coords[(coords[:, 0] >= 9) & (coords[:, 1] >= 5)]
                crop = planes[:, :, 5 // f :, 9 // f :]
                got = np.asarray(window_field(crop, part - (9 // f * f, 5 // f * f), t))
                want = oracle[(coords[:, 0] >= 9) & (coords[:, 1] >= 5)]
                assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("f", [1, 2, 3, 4])
    def test_plane_is_the_shifted_block_reduction(self, grid_factory, rng, f):
        g = grid_factory(rng.random((13, 11)))
        t = TilingConfig(interaction_distance=4.0, px_per_nm=1.0, compression_factor=f,
                         row_reducer="mean", col_reducer="max")
        planes = np.empty((f, f, 7, 6), dtype=np.float32)
        x, y = -3, 2
        tiling.fill_field(g, t, planes, x, y)
        padded = np.zeros((13 + 40, 11 + 40))
        padded[20:33, 20:31] = g.values
        for a, b, i, j in np.ndindex(planes.shape):
            top, left = 20 + y + a + i * f, 20 + x + b + j * f
            block = padded[top : top + f, left : left + f]
            assert planes[a, b, i, j] == compress_window(block, t)[0, 0]

    def test_offsets_outside_planes_rejected(self):
        t = toy_tiling()  # side 8, factor 2
        planes = np.zeros((2, 2, 10, 12), np.float32)
        window_field(planes, np.array([(0, 0), (9, 5)]), t)
        for bad in ((-1, 0), (10, 0), (0, 6)):
            with pytest.raises(CoordError):
                window_field(planes, np.array([bad]), t)


def build_small(seed=0, cap=50):
    pattern = LayoutPattern([rect(8, 8, 24, 24)])
    tiling = toy_tiling()
    iik = make_iik("gaussian", 2.0, 6.0, 1.0)
    iip_cfg = IipConfig(num_classes=5, iik=iik, threshold=0.5)
    ref = rasterize(LayoutPattern([rect(6, 6, 26, 26)]), 1.0, (0, 0, 32, 32))
    return build_dataset(pattern, ref, tiling, iip_cfg, per_class_cap=cap, seed=seed), ref


class TestBuildDataset:
    def test_shapes_and_meta(self):
        ds, ref = build_small()
        assert ds.images.ndim == 3
        assert ds.images.shape[1:] == (8, 8)
        assert ds.images.dtype == np.float32
        assert ds.labels.dtype == np.uint16
        assert ds.coords.shape == (len(ds), 2)
        assert ds.meta["num_classes"] == 5
        assert ds.meta["row_reducer"] == "mean"
        assert ds.meta["ref_mask_checksum"] == ref.checksum()

    def test_label_matches_center_pixel_iip(self):
        from pixelret.iip import bin_class, compute_iip

        ds, ref = build_small()
        iik = make_iik("gaussian", 2.0, 6.0, 1.0)
        m = compute_iip(ref, iik)
        for i in range(0, len(ds), 7):
            x, y = ds.coords[i]
            assert int(ds.labels[i]) == bin_class(float(m.grid.values[y, x]), 5)

    def test_per_class_cap(self):
        ds, _ = build_small(cap=10)
        assert np.bincount(ds.labels, minlength=5).max() <= 10

    def test_cap_not_positive_integer_rejected(self):
        # A cap of -1 used to drop one sample per class without a word.
        for cap in (-1, 0, 2.5, True, "3"):
            with pytest.raises(ParamError, match="per_class_cap"):
                build_small(cap=cap)

    def test_deterministic(self):
        a, _ = build_small(seed=3)
        b, _ = build_small(seed=3)
        for name in ("images", "labels", "coords", "splits"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_seed_changes_selection(self):
        a, _ = build_small(seed=1, cap=10)
        b, _ = build_small(seed=2, cap=10)
        assert not np.array_equal(a.coords, b.coords)

    def test_resolution_mismatch(self, grid_factory):
        pattern = LayoutPattern([rect(8, 8, 24, 24)])
        ref = grid_factory(np.ones((32, 32)), px_per_nm=2.0)
        iik = make_iik("gaussian", 2.0, 6.0, 1.0)
        with pytest.raises(ParamError):
            build_dataset(pattern, ref, toy_tiling(), IipConfig(num_classes=5, iik=iik))

    def test_empty_everything_rejected(self, grid_factory):
        iik = make_iik("gaussian", 2.0, 6.0, 1.0)
        ref = grid_factory(np.zeros((32, 32)))
        with pytest.raises(EmptyDataset):
            build_dataset(
                LayoutPattern([]), ref, toy_tiling(), IipConfig(num_classes=5, iik=iik)
            )


class TestSplit:
    def test_fraction_sizes(self):
        ds, _ = build_small(cap=60)
        out = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
        n = len(out)
        tr = out.split_indices("train").size
        va = out.split_indices("val").size
        te = out.split_indices("test").size
        assert tr + va + te == n
        assert abs(tr - 0.8 * n) <= np.bincount(out.labels, minlength=5).size  # +-1 per class
        assert va > 0 and te > 0

    def test_stratified(self):
        ds, _ = build_small(cap=60)
        out = split_dataset(ds, (0.5, 0.25, 0.25), seed=0)
        hist = np.bincount(out.labels, minlength=5)
        for name in SPLIT_NAMES:
            idx = out.split_indices(name)
            sub = np.bincount(out.labels[idx], minlength=hist.size)
            # each class appears in each split roughly per its fraction
            for c in range(hist.size):
                if hist[c] >= 4:
                    assert sub[c] > 0

    def test_deterministic(self):
        ds, _ = build_small(cap=60)
        a = split_dataset(ds, (0.8, 0.1, 0.1), seed=5)
        b = split_dataset(ds, (0.8, 0.1, 0.1), seed=5)
        assert np.array_equal(a.splits, b.splits)
        c = split_dataset(ds, (0.8, 0.1, 0.1), seed=6)
        assert not np.array_equal(a.splits, c.splits)

    def test_bad_fractions(self):
        ds, _ = build_small()
        with pytest.raises(ParamError):
            split_dataset(ds, (0.8, 0.3, 0.1), seed=0)
        with pytest.raises(ParamError):
            split_dataset(ds, (float("nan"), 0.5, 0.5), seed=0)

    def test_fraction_count_other_than_three_rejected(self):
        ds, _ = build_small()
        for fractions in ((1.0,), (0.5, 0.5), (0.4, 0.3, 0.2, 0.1)):
            with pytest.raises(ParamError, match="3 split fractions"):
                split_dataset(ds, fractions, seed=0)

    def test_shares_arrays_with_own_meta(self):
        ds, _ = build_small()
        out = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
        for name in ("images", "labels", "coords"):
            assert getattr(out, name) is getattr(ds, name)
        assert not ds.splits.any() and out.splits.any()
        assert out.meta == ds.meta and out.meta is not ds.meta


class TestMerge:
    def test_merge_and_subset(self):
        a, _ = build_small(seed=1, cap=20)
        b, _ = build_small(seed=2, cap=20)
        m = merge_datasets([a, b])
        assert len(m) == len(a) + len(b)
        assert m.meta["sample_source_index"][: len(a)] == [0] * len(a)
        assert m.meta["sample_source_index"][len(a) :] == [1] * len(b)

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyDataset):
            merge_datasets([])


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        ds, _ = build_small(cap=30)
        ds = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        for name in ("images", "labels", "coords", "splits"):
            assert np.array_equal(getattr(ds, name), getattr(back, name))
        # loader records payload checksums on top of the saved meta
        for k, v in ds.meta.items():
            assert back.meta[k] == v

    def test_payload_corruption_rejected(self, tmp_path):
        ds, _ = build_small(cap=30)
        save_dataset(ds, tmp_path / "d")
        f = tmp_path / "d" / "images.f32"
        raw = bytearray(f.read_bytes())
        raw[100] ^= 0xFF
        f.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_dataset(tmp_path / "d")

    def test_truncation_rejected(self, tmp_path):
        # digest check runs before the size check, so truncation surfaces
        # as a checksum failure
        ds, _ = build_small(cap=30)
        save_dataset(ds, tmp_path / "d")
        f = tmp_path / "d" / "labels.u16"
        f.write_bytes(f.read_bytes()[:-4])
        with pytest.raises(ChecksumError):
            load_dataset(tmp_path / "d")

    def test_missing_file_rejected(self, tmp_path):
        ds, _ = build_small(cap=30)
        save_dataset(ds, tmp_path / "d")
        (tmp_path / "d" / "coords.i32").unlink()
        with pytest.raises(FormatError):
            load_dataset(tmp_path / "d")

    def test_meta_garbage_rejected(self, tmp_path):
        ds, _ = build_small(cap=30)
        save_dataset(ds, tmp_path / "d")
        for text in ("{not json", "[1, 2]"):
            (tmp_path / "d" / "meta").write_text(text)
            with pytest.raises(FormatError):
                load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("key, value", [
        ("image_side", "4"), ("image_side", 4.0), ("image_side", 0),
        ("num_samples", None), ("num_samples", -1), ("num_samples", True),
        ("num_classes", "5"), ("checksums", []), ("sample_source_index", 5),
        ("sample_source_index", [[0]]),  # one unhashable entry per sample
        ("sample_source_index", [2**63]),  # one entry beyond int64 per sample
    ])
    def test_malformed_meta_rejected(self, tmp_path, key, value):
        ds, _ = build_small(cap=30)
        save_dataset(ds, tmp_path / "d")
        meta = json.loads((tmp_path / "d" / "meta").read_text())
        meta[key] = value * meta["num_samples"] if isinstance(value, list) and value else value
        (tmp_path / "d" / "meta").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=key):
            load_dataset(tmp_path / "d")


class TestPixelDataset:
    def test_duplicate_coords_rejected(self):
        ds, _ = build_small(cap=10)
        images = np.concatenate([ds.images, ds.images[:1]])
        labels = np.concatenate([ds.labels, ds.labels[:1]])
        coords = np.concatenate([ds.coords, ds.coords[:1]])
        splits = np.concatenate([ds.splits, ds.splits[:1]])
        with pytest.raises(FormatError, match="duplicate"):
            PixelDataset(images, labels, coords, splits, dict(ds.meta))

    def test_sample_identity_is_source_and_coord(self):
        def dataset(sources):
            n = len(sources)
            coords = np.array([[1, 2], [1, 2], [2, 1], [1, 2]], np.int32)[:n]
            return PixelDataset(
                np.zeros((n, 4, 4), np.float32), np.zeros(n, np.uint16), coords,
                np.zeros(n, np.uint8), {"num_classes": 5, "sample_source_index": sources},
            )

        # Equal coords in other sources, and (x, y) beside (y, x), are kept.
        assert len(dataset([0, 1, 0, 2])) == 4
        for sources in ([0, 1, 0, 1], [3, 3, 0], [0, 1, 1, 0]):
            with pytest.raises(FormatError, match="duplicate"):
                dataset(sources)


class TestFieldBackedImages:
    """Datasets keep each source's compressed field and read windows on demand."""

    @staticmethod
    def parts():
        ref = rasterize(LayoutPattern([rect(6, 6, 26, 26)]), 1.0, (0, 0, 32, 32))
        iip_cfg = IipConfig(num_classes=5, iik=make_iik("gaussian", 2.0, 6.0, 1.0))
        patterns = [LayoutPattern([rect(8, 8, 24, 24)]), LayoutPattern([rect(4, 12, 30, 18)])]
        t = toy_tiling(row_reducer="max")
        parts = [
            build_dataset(p, ref, t, iip_cfg, per_class_cap=30, seed=k)
            for k, p in enumerate(patterns)
        ]
        rasters = [rasterize(p, 1.0, ref.bbox_nm()) for p in patterns]
        return parts, rasters, t

    @staticmethod
    def assert_windows(ds, rasters, t):
        sources = ds.meta.get("sample_source_index", [0] * len(ds))
        oracle = np.stack([
            compress_window(extract_window(rasters[s], (int(x), int(y)), t), t)
            for s, (x, y) in zip(sources, ds.coords)
        ])
        assert np.array_equal(np.asarray(ds.images), oracle)
        assert np.array_equal(ds.images[:], oracle)
        idx = np.random.default_rng(0).permutation(len(ds))[:17]
        assert np.array_equal(ds.images[idx], oracle[idx])
        assert np.array_equal(ds.images[5:9], oracle[5:9])
        assert np.array_equal(ds.images[-1], oracle[-1])
        assert np.array_equal(ds.images[3], oracle[3])
        every_third = np.arange(len(ds)) % 3 == 0
        assert np.array_equal(ds.images[every_third], oracle[every_third])

    def test_every_step_reads_the_oracle_windows(self, tmp_path):
        parts, rasters, t = self.parts()
        for k, p in enumerate(parts):
            self.assert_windows(p, rasters[k:], t)
            # A new Planes of the raster gives the same windows.
            flat = p.coords[:, 1].astype(np.int64) * rasters[k].width + p.coords[:, 0]
            want = planes_windows(rasters[k], flat, t)
            assert np.array_equal(np.asarray(p.images), want)
        merged = merge_datasets(parts)
        self.assert_windows(merged, rasters, t)
        ds = split_dataset(merged, (0.6, 0.2, 0.2), seed=0)
        self.assert_windows(ds, rasters, t)
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        self.assert_windows(back, rasters, t)
        # Saving the loaded dataset writes the same bytes.
        save_dataset(back, tmp_path / "e")
        for fname in ("meta", "images.f32", "labels.u16", "coords.i32", "splits.u8"):
            assert (tmp_path / "d" / fname).read_bytes() == (tmp_path / "e" / fname).read_bytes()

    def test_images_interface(self):
        (ds, _), _, t = self.parts()
        side = t.output_side
        assert (len(ds.images), ds.images.shape, ds.images.ndim) == (len(ds), (len(ds), side, side), 3)
        assert ds.images.dtype == np.float32
        assert isinstance(ds.images[0], np.ndarray) and ds.images[0].shape == (side, side)
        # take selects samples without reading them; they are read later.
        idx = np.array([5, 1, 3])
        sub = ds.images.take(idx)
        assert sub.sources is ds.images.sources and sub.shape == (3, side, side)
        assert np.array_equal(np.asarray(sub), ds.images[idx])
        assert np.asarray(ds.images, dtype=np.float64).dtype == np.float64
        # The dataset holds its raster's planes, not an (n, side, side)
        # stack.
        (values, view), = ds.images.sources
        f = t.compression_factor
        assert values.shape == (f, f, 31 // f + side, 31 // f + side)
        assert values.size < len(ds) * side * side
        assert np.shares_memory(view, values)

    def test_loaded_source_is_the_image_array(self, tmp_path):
        (ds, _), _, _ = self.parts()
        save_dataset(ds, tmp_path / "d")
        (values, view), = load_dataset(tmp_path / "d").images.sources
        assert values.shape == ds.images.shape and view.shape == (len(ds), 1, *ds.images.shape[1:])

    def test_out_of_range_source_rejected(self):
        (ds, _), _, _ = self.parts()
        for bad in (-0.5, 1.5, np.nan):
            images = np.asarray(ds.images)
            images[2, 1, 1] = bad
            with pytest.raises(FormatError, match=r"\[0, 1\]"):
                PixelDataset(images, ds.labels, ds.coords, ds.splits, dict(ds.meta))

    def test_no_step_allocates_the_image_stack(self):
        from pixelret.classifier import ArchDescriptor, ConvBlock, TrainConfig, init_model, train

        # 4,096 samples of 30x30 px: a 14.7 MB stack per part, which no step
        # may allocate; a quarter of it bounds each step's traced peak.
        t = TilingConfig(interaction_distance=30.0, px_per_nm=1.0, compression_factor=2)
        iip_cfg = IipConfig(num_classes=5, iik=make_iik("gaussian", 2.0, 6.0, 1.0))
        ref = rasterize(LayoutPattern([rect(16, 16, 48, 48)]), 1.0, (0, 0, 64, 64))
        target = LayoutPattern([rect(18, 18, 46, 46)])
        stack = 64 * 64 * t.output_side**2 * 4

        def traced(fn):
            tracemalloc.start()
            try:
                out = fn()
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        parts, peaks = [], {}
        for seed in (0, 1):
            ds, peaks[f"build {seed}"] = traced(
                lambda: build_dataset(target, ref, t, iip_cfg, per_class_cap=4096, seed=seed)
            )
            assert len(ds) == 64 * 64
            parts.append(ds)
        merged, peaks["merge"] = traced(lambda: merge_datasets(parts))
        ds, peaks["split"] = traced(lambda: split_dataset(merged, (0.8, 0.1, 0.1), seed=0))
        m = init_model(ArchDescriptor(t.output_side, 5, [ConvBlock(4), ConvBlock(8)]), seed=0)
        _, peaks["train"] = traced(lambda: train(m, ds, TrainConfig(epochs=1)))
        assert max(peaks.values()) < stack / 4, peaks
