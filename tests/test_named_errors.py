"""Misuse that the module tests leave out: each rule raises its named error."""

import json

import numpy as np
import pytest
from test_classifier import tiny_arch, tiny_dataset
from test_tiling import build_small, rect, toy_tiling

from pixelret.classifier import (
    TrainConfig,
    backward,
    init_model,
    load_model,
    save_model,
    train,
)
from pixelret.errors import (
    DimMismatch,
    EmptyDataset,
    FormatError,
    GeometryError,
    ParamError,
    ShapeError,
)
from pixelret.grid import RasterGrid, parse_graymap
from pixelret.iip import IipConfig, compute_iip, export_iip, import_iip, make_iik
from pixelret.layout import LayoutPattern, _trace_boundary, rasterize, vectorize, write_layout
from pixelret.litho import Kernel, convolve_direct
from pixelret.tiling import (
    PixelDataset,
    TilingConfig,
    WindowStack,
    build_dataset,
    compress_window,
    load_dataset,
    merge_datasets,
    save_dataset,
    split_dataset,
)


class TestClassifier:
    @pytest.mark.parametrize("images", [np.zeros((0, 8, 8)), np.zeros((8, 8))])
    def test_backward_needs_a_nonempty_stack(self, images):
        m = init_model(tiny_arch(), seed=0)
        with pytest.raises(ShapeError, match="nonempty"):
            backward(m, (images, np.zeros(len(images), np.int64)))

    def test_backward_image_side_must_fit(self):
        m = init_model(tiny_arch(), seed=0)
        with pytest.raises(ShapeError, match="incompatible"):
            backward(m, (np.zeros((2, 9, 9)), np.zeros(2, np.int64)))

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_train_needs_both_splits(self, split):
        ds = tiny_dataset()
        code = ("train", "val", "test").index(split)
        ds.splits[ds.splits == code] = 2
        with pytest.raises(EmptyDataset, match=f"{split} split is empty"):
            train(init_model(tiny_arch(), seed=0), ds, TrainConfig(epochs=1))

    def test_load_model_version_mismatch(self, tmp_path):
        p = tmp_path / "model.bin"
        save_model(init_model(tiny_arch(), seed=0), p)
        head, payload = p.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["version"] += 1
        p.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(FormatError, match="version"):
            load_model(p)


class TestTiling:
    def test_factor_above_window_side(self):
        with pytest.raises(ParamError, match="exceeds the window side"):
            TilingConfig(interaction_distance=1.0, px_per_nm=1.0, compression_factor=4)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 4), (2, 4, 4, 1)])
    def test_stack_of_array_shape(self, shape):
        with pytest.raises(FormatError, match=r"\(n, side, side\)"):
            WindowStack.of_array(np.zeros(shape, np.float32))

    def test_stack_of_a_stack_is_itself(self):
        stack = WindowStack.of_array(np.zeros((2, 4, 4), np.float32))
        assert WindowStack.of_array(stack) is stack

    def test_dataset_column_lengths(self):
        ds, _ = build_small(cap=10)
        with pytest.raises(FormatError, match="length mismatch"):
            PixelDataset(ds.images, ds.labels[1:], ds.coords, ds.splits, dict(ds.meta))

    def test_dataset_split_code_range(self):
        ds, _ = build_small(cap=10)
        splits = np.full_like(ds.splits, 3)
        with pytest.raises(FormatError, match="split code"):
            PixelDataset(ds.images, ds.labels, ds.coords, splits, dict(ds.meta))

    def test_unknown_split_name(self):
        ds, _ = build_small(cap=10)
        with pytest.raises(ParamError, match="unknown split"):
            ds.split_indices("holdout")

    @pytest.mark.parametrize("side, match", [((6, 5), "square"), ((1, 1), "smaller than factor")])
    def test_compress_window_shape(self, side, match):
        with pytest.raises(ParamError, match=match):
            compress_window(np.zeros(side), toy_tiling())

    def test_build_dataset_shape_mismatch(self):
        # Pixel centres at 1e17 nm lie 16 nm apart in float64, so the nm
        # bounds of a 12 px mask there do not give back its 12 px.
        tiling = TilingConfig(interaction_distance=10.0, px_per_nm=1.0, compression_factor=2)
        mask = RasterGrid(12, 12, (1e17, 1e17), 1.0, np.eye(12, dtype=np.uint8))
        iip = IipConfig(num_classes=5, iik=make_iik("gaussian", 2.0, 6.0, 1.0))
        with pytest.raises(DimMismatch, match="target raster"):
            build_dataset(LayoutPattern([rect(0, 0, 10, 10)]), mask, tiling, iip)

    def test_merge_needs_agreeing_parts(self):
        a, _ = build_small(cap=10)
        b, _ = build_small(cap=10)
        b.meta["num_classes"] = 7
        with pytest.raises(FormatError, match="disagree"):
            merge_datasets([a, b])

    @pytest.mark.parametrize("key, change, match", [
        ("format_version", 1, "format version"),
        ("num_samples", 1, "payload size"),
    ])
    def test_load_dataset_meta_mismatch(self, tmp_path, key, change, match):
        ds = split_dataset(build_small(cap=10)[0], (0.8, 0.1, 0.1), seed=0)
        save_dataset(ds, tmp_path / "d")
        meta = json.loads((tmp_path / "d" / "meta").read_text())
        meta[key] += change
        (tmp_path / "d" / "meta").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=match):
            load_dataset(tmp_path / "d")


class TestReaders:
    @pytest.mark.parametrize("raw, match", [
        (b"P5\n2 2\n65535\n" + bytes(8), "maxval"),
        (b"P5\n2\n255\n" + bytes(4), "malformed PGM header"),
        (b"P5\n2 2", "malformed PGM header"),
    ])
    def test_graymap_header(self, raw, match):
        with pytest.raises(FormatError, match=match):
            parse_graymap(raw, (0.0, 0.0), 1.0)

    @pytest.fixture
    def exported(self, tmp_path, grid_factory):
        mask = grid_factory(np.eye(8))
        path = tmp_path / "iip.pgm"
        export_iip(compute_iip(mask, make_iik("gaussian", 2.0, 6.0, 1.0)), path, 5)
        return path

    @pytest.mark.parametrize("edit, match", [
        (lambda s: s.update(version=s["version"] + 1), "sidecar version"),
        (lambda s: s.pop("iik_checksum"), "iik_checksum"),
    ])
    def test_iip_sidecar(self, exported, edit, match):
        side = exported.with_name(exported.name + ".json")
        sidecar = json.loads(side.read_text())
        edit(sidecar)
        side.write_text(json.dumps(sidecar))
        with pytest.raises(FormatError, match=match):
            import_iip(exported)


class TestLitho:
    @pytest.mark.parametrize("values, match", [
        (np.ones((3, 5)), "square"),
        (np.ones(3), "square"),
        (np.full((3, 3), np.nan), "non-finite"),
        (np.full((3, 3), np.inf), "non-finite"),
    ])
    def test_kernel_values(self, values, match):
        with pytest.raises(ParamError, match=match):
            Kernel(values, 1.0)

    @pytest.mark.parametrize("img, kernel", [
        (np.zeros(5), np.ones((3, 3))),
        (np.zeros((5, 5)), np.ones(3)),
    ])
    def test_convolve_direct_needs_2d(self, img, kernel):
        with pytest.raises(DimMismatch, match="2D"):
            convolve_direct(img, kernel)


class TestLayout:
    def test_overlapping_collinear_edges(self):
        # Edges 0 and 4 both lie on y = 0 and share x in [2, 5].
        poly = [(0, 0), (10, 0), (10, 5), (5, 5), (5, 0), (2, 0), (2, 8), (0, 8)]
        with pytest.raises(GeometryError, match="edges 0 and 4 overlap"):
            LayoutPattern([poly])

    def test_write_layout_needs_integer_vertices(self):
        p = LayoutPattern([rect(0, 0, 10.5, 10)])
        with pytest.raises(GeometryError, match="not integer nm"):
            write_layout(p)

    def test_vectorize_needs_binary_grid(self, grid_factory):
        with pytest.raises(GeometryError, match="binary"):
            vectorize(grid_factory(np.full((4, 4), 0.5)))

    @pytest.mark.parametrize("rows", [
        ["111", "101", "111"],  # a hole: a second boundary loop
        ["0111", "1011", "1111"],  # a hole that meets the outside at a corner
    ])
    def test_holed_component_falls_back_to_rectangles(self, rows):
        v = np.array([[int(c) for c in r] for r in rows], dtype=np.uint8)
        assert _trace_boundary(v == 1) is None
        g = RasterGrid(v.shape[1], v.shape[0], (0.5, 0.5), 1.0, v)
        p = vectorize(g)
        assert len(p.polygons) > 1
        assert all(len(poly) == 4 for poly in p.polygons)
        assert np.array_equal(rasterize(p, 1.0, g.bbox_nm()).values, v)
