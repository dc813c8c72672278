from pathlib import Path

import numpy as np
import pytest

from pixelret.errors import (
    ChecksumError,
    FormatError,
    ParamError,
    RangeError,
    ResolutionMismatch,
)
from pixelret.grid import RasterGrid
from pixelret.iip import (
    IipConfig,
    bin_class,
    bin_classes,
    class_value,
    compute_iip,
    export_iip,
    import_iip,
    make_iik,
    threshold_iip,
)
from pixelret.litho import convolve_fft


def iik():
    return make_iik("gaussian", 3.0, 9.0, 1.0)


class TestComputeIip:
    def test_range_and_peak(self, rng, grid_factory):
        mask = grid_factory((rng.random((24, 24)) < 0.4).astype(np.float32))
        m = compute_iip(mask, iik())
        v = m.grid.values
        assert v.min() >= 0.0
        assert v.max() == 1.0

    def test_empty_mask_all_zero(self, grid_factory):
        m = compute_iip(grid_factory(np.zeros((10, 10))), iik())
        assert np.all(m.grid.values == 0.0)

    def test_full_mask_center_one(self, grid_factory):
        m = compute_iip(grid_factory(np.ones((24, 24))), iik())
        # Round-off breaks the tie among the plateau pixels that see the
        # whole kernel, so the centre may sit an ulp below the peak.
        assert m.grid.values[12, 12] == pytest.approx(1.0, abs=1e-12)
        assert m.grid.values.max() == 1.0

    def test_nonbinary_rejected(self, grid_factory):
        with pytest.raises(RangeError):
            compute_iip(grid_factory(np.full((8, 8), 0.3)), iik())

    def test_resolution_mismatch(self, grid_factory):
        mask = grid_factory(np.ones((8, 8)), px_per_nm=2.0)
        with pytest.raises(ResolutionMismatch):
            compute_iip(mask, iik())

    def test_provenance_checksums(self, grid_factory):
        mask = grid_factory(np.ones((8, 8)))
        k = iik()
        m = compute_iip(mask, k)
        assert m.source_mask_checksum == mask.checksum()
        assert m.iik_checksum == k.checksum()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8, bool])
    @pytest.mark.parametrize("fill", [0.0, 0.3, 1.0])
    def test_bitwise_equals_float64_copy_then_scale(self, rng, dtype, fill):
        # The expressions compute_iip evaluated before it passed the mask's
        # own dtype to the convolver and scaled in place.
        v = (rng.random((70, 45)) < fill).astype(dtype)
        mask, k = RasterGrid(45, 70, (0.5, 0.5), 1.0, v), make_iik("gaussian", 4.0, 12.0, 1.0)
        raw = convolve_fft(v.astype(np.float64), k.values)
        np.clip(raw, 0.0, None, out=raw)
        peak = float(raw.max())
        want = np.minimum(raw / peak if peak > 0.0 else raw, 1.0)
        assert compute_iip(mask, k).grid.values.tobytes() == want.tobytes()

    def test_unknown_iik_kind(self):
        with pytest.raises(ParamError):
            make_iik("boxcar", 3.0, 9.0, 1.0)


class TestBinning:
    def test_floor_rule(self):
        assert bin_class(0.0, 20) == 0
        assert bin_class(0.049, 20) == 0
        assert bin_class(0.05, 20) == 1
        assert bin_class(0.5, 20) == 10
        assert bin_class(0.999, 20) == 19
        assert bin_class(1.0, 20) == 19  # clamp, not overflow

    def test_out_of_range_rejected(self):
        with pytest.raises(RangeError):
            bin_class(-0.01, 20)
        with pytest.raises(RangeError):
            bin_class(1.01, 20)

    def test_vectorized_edges(self):
        vals = np.array([0.0, 0.049, 0.05, 0.5, 0.999, 1.0])
        assert bin_classes(vals, 20).tolist() == [0, 0, 1, 10, 19, 19]
        assert bin_classes(vals, 1).tolist() == [0] * 6
        assert bin_classes(np.empty(0), 20).size == 0
        for bad in (-0.01, 1.01, np.nan):
            with pytest.raises(RangeError):
                bin_classes(np.array([0.5, bad]), 20)
        with pytest.raises(ParamError):
            bin_classes(vals, 0)
        # Class ids are uint16: 65536 classes fit, more would wrap.
        assert bin_classes(vals, 65536)[-1] == 65535
        with pytest.raises(ParamError, match="uint16"):
            bin_classes(vals, 70000)
        for bad in (2.5, 20.0, True):
            with pytest.raises(ParamError, match="num_classes"):
                bin_classes(vals, bad)

    def test_vectorized_matches_scalar(self, rng):
        vals = rng.random(200)
        cs = bin_classes(vals, 100)
        assert cs.dtype == np.uint16
        for v, c in zip(vals, cs):
            assert bin_class(float(v), 100) == int(c)

    def test_class_value_midpoint(self):
        assert class_value(0, 20) == pytest.approx(0.025)
        assert class_value(19, 20) == pytest.approx(0.975)
        assert class_value(50, 100) == pytest.approx(0.505)

    def test_roundtrip_class_value(self):
        for C in (2, 20, 100):
            for c in range(C):
                assert bin_class(class_value(c, C), C) == c

    def test_bad_class_count(self):
        with pytest.raises(ParamError):
            bin_class(0.5, 0)
        with pytest.raises(ParamError):
            class_value(0, 0)
        # a single class is degenerate but well defined
        assert bin_class(0.7, 1) == 0


class TestThreshold:
    def test_strictly_above(self, grid_factory):
        from pixelret.iip import IipMap

        g = grid_factory([[0.4, 0.5, 0.6]])
        m = IipMap(grid=g, source_mask_checksum="", iik_checksum="")
        t = threshold_iip(m, 0.5)
        assert t.values.tolist() == [[0, 0, 1]]

    def test_threshold_domain(self, grid_factory):
        from pixelret.iip import IipMap

        m = IipMap(grid=grid_factory([[0.5]]), source_mask_checksum="", iik_checksum="")
        with pytest.raises(ParamError):
            threshold_iip(m, 0.0)


class TestConfig:
    def test_defaults(self):
        cfg = IipConfig(iik=iik())
        assert cfg.num_classes == 100
        assert cfg.threshold == 0.5

    def test_bad_values(self):
        with pytest.raises(ParamError):
            IipConfig(num_classes=1, iik=iik())
        with pytest.raises(ParamError):
            IipConfig(threshold=1.0, iik=iik())
        IipConfig(num_classes=65536, iik=iik())
        with pytest.raises(ParamError, match="uint16"):
            IipConfig(num_classes=65537, iik=iik())
        for bad in (2.5, 20.0, True):
            with pytest.raises(ParamError, match="num_classes"):
                IipConfig(num_classes=bad, iik=iik())

    def test_iik_required(self):
        with pytest.raises(TypeError):
            IipConfig()


class TestExportImport:
    def test_roundtrip(self, tmp_path, grid_factory, rng):
        mask = grid_factory((rng.random((16, 16)) < 0.5).astype(np.float32))
        m = compute_iip(mask, iik())
        path = tmp_path / "m.pgm"
        export_iip(m, path, 20)
        m2, c2 = import_iip(path)
        assert c2 == 20
        assert m2.source_mask_checksum == m.source_mask_checksum
        assert m2.iik_checksum == m.iik_checksum
        assert m2.grid.origin == m.grid.origin
        assert np.max(np.abs(m2.grid.values - m.grid.values)) <= 0.5 / 255 + 1e-12

    def test_sidecar_corruption(self, tmp_path, grid_factory):
        m = compute_iip(grid_factory(np.ones((8, 8))), iik())
        path = tmp_path / "m.pgm"
        export_iip(m, path, 20)
        side = tmp_path / "m.pgm.json"
        side.write_text(side.read_text().replace("iip-graymap", "ipp-graymap"))
        with pytest.raises(FormatError):
            import_iip(path)

    def test_payload_corruption(self, tmp_path, grid_factory):
        m = compute_iip(grid_factory(np.ones((8, 8))), iik())
        path = tmp_path / "m.pgm"
        export_iip(m, path, 20)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            import_iip(path)

    def test_graymap_read_once(self, tmp_path, grid_factory, monkeypatch):
        # The bytes that import_iip checks against the digest are the bytes
        # it parses.
        path = tmp_path / "m.pgm"
        export_iip(compute_iip(grid_factory(np.ones((8, 8))), iik()), path, 20)
        reads, read = [], Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda p: reads.append(p) or read(p))
        import_iip(path)
        assert reads.count(path) == 1

    def test_missing_graymap_rejected(self, tmp_path, grid_factory):
        m = compute_iip(grid_factory(np.ones((8, 8))), iik())
        path = tmp_path / "m.pgm"
        export_iip(m, path, 20)
        path.unlink()
        with pytest.raises(FormatError, match="m.pgm"):
            import_iip(path)
