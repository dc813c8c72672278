import numpy as np
import pytest

from pixelret.errors import DimMismatch, FormatError, RangeError
from pixelret.grid import (
    RasterGrid,
    read_graymap,
    write_graymap,
)


class TestRasterGrid:
    def test_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            RasterGrid(3, 2, (0, 0), 1.0, np.zeros((3, 3), dtype=np.float32))

    def test_bad_resolution(self):
        for px_per_nm in (0.0, float("nan"), float("inf")):
            with pytest.raises(RangeError):
                RasterGrid(2, 2, (0, 0), px_per_nm, np.zeros((2, 2), dtype=np.float32))

    @pytest.mark.parametrize("origin", [(float("nan"), 0.0), (0.0, float("inf"))])
    def test_non_finite_origin_rejected(self, origin):
        with pytest.raises(RangeError, match="origin"):
            RasterGrid(1, 1, origin, 1.0, np.zeros((1, 1), dtype=np.float32))

    def test_non_finite_rejected(self):
        v = np.zeros((2, 2), dtype=np.float32)
        v[0, 0] = np.nan
        with pytest.raises(RangeError):
            RasterGrid(2, 2, (0, 0), 1.0, v)

    def test_pixel_center(self, grid_factory):
        g = grid_factory(np.zeros((4, 4)), px_per_nm=2.0, origin=(0.25, 0.25))
        assert g.pixel_center(0, 0) == (0.25, 0.25)
        assert g.pixel_center(3, 1) == (1.75, 0.75)

    def test_bbox_nm(self, grid_factory):
        g = grid_factory(np.zeros((4, 6)), px_per_nm=2.0, origin=(0.25, 0.25))
        assert g.bbox_nm() == (0.0, 0.0, 3.0, 2.0)

    def test_is_binary(self, grid_factory):
        assert grid_factory([[0, 1], [1, 0]]).is_binary()
        assert not grid_factory([[0, 0.5], [1, 0]]).is_binary()

    def test_checksum_sensitivity(self, grid_factory):
        a = grid_factory([[0, 1], [1, 0]])
        b = grid_factory([[0, 1], [1, 1]])
        c = grid_factory([[0, 1], [1, 0]], origin=(1.5, 0.5))
        assert a.checksum() == grid_factory([[0, 1], [1, 0]]).checksum()
        assert a.checksum() != b.checksum()
        assert a.checksum() != c.checksum()


class TestGraymapIO:
    def test_binary_roundtrip(self, tmp_path, grid_factory, rng):
        g = grid_factory((rng.random((9, 7)) < 0.5).astype(np.float32), px_per_nm=2.0)
        path = tmp_path / "m.pgm"
        write_graymap(g, path)
        h = read_graymap(path, origin=g.origin, px_per_nm=g.px_per_nm)
        assert np.array_equal(g.values, h.values)
        assert (h.shape, h.origin, h.px_per_nm) == (g.shape, g.origin, g.px_per_nm)

    def test_quantization_rule(self, tmp_path, grid_factory):
        g = grid_factory([[0.0, 0.4, 1.0]])
        path = tmp_path / "q.pgm"
        write_graymap(g, path)
        h = read_graymap(path)
        # floor(255 v + 0.5) / 255
        expect = np.floor(255 * g.values + 0.5) / 255
        assert np.allclose(h.values, expect, atol=1e-7)

    def test_out_of_range_clipped(self, tmp_path, grid_factory):
        g = grid_factory([[1.5, -0.5]])
        path = tmp_path / "r.pgm"
        write_graymap(g, path)
        h = read_graymap(path)
        assert h.values.tolist() == [[1.0, 0.0]]

    def test_bad_magic_rejected(self, tmp_path, grid_factory):
        path = tmp_path / "m.pgm"
        write_graymap(grid_factory([[0, 1]]), path)
        raw = path.read_bytes()
        path.write_bytes(b"P2" + raw[2:])
        with pytest.raises(FormatError):
            read_graymap(path)

    def test_truncated_rejected(self, tmp_path, grid_factory):
        path = tmp_path / "m.pgm"
        write_graymap(grid_factory(np.ones((8, 8))), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(FormatError):
            read_graymap(path)

    def test_missing_file_rejected(self, tmp_path):
        path = tmp_path / "absent.pgm"
        with pytest.raises(FormatError, match="absent.pgm"):
            read_graymap(path)
