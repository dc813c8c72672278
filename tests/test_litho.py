import tracemalloc

import numpy as np
import pytest
from conftest import unpruned_convolver
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from pixelret import litho
from pixelret.errors import (
    DimMismatch,
    ParamError,
    RangeError,
    ResolutionMismatch,
)
from pixelret.grid import RasterGrid
from pixelret.iip import compute_iip
from pixelret.litho import (
    Kernel,
    LithoConfig,
    aerial_image,
    convolve_direct,
    convolve_fft,
    fft_convolver,
    make_gaussian_kernel,
    print_image,
    simulate_print,
)


class TestKernel:
    def test_gaussian_normalized(self):
        k = make_gaussian_kernel(25.0, 75.0, 1.0)
        assert k.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert k.side == 151
        assert np.all(k.values >= 0)

    def test_gaussian_symmetry(self):
        k = make_gaussian_kernel(10.0, 30.0, 2.0)
        v = k.values
        assert np.allclose(v, v[::-1, :])
        assert np.allclose(v, v[:, ::-1])
        assert np.allclose(v, v.T)

    @pytest.mark.parametrize("kernel", [
        *(LithoConfig().kernel(ppn) for ppn in (0.5, 1.0, 1.5, 2.0, 3.0)),
        *(make_gaussian_kernel(*a) for a in ((2.0, 5.0, 1.0), (10.0, 30.0, 3.0), (7.3, 19.1, 1.7))),
    ])
    def test_bitwise_point_symmetric(self, kernel):
        # ILT runs its adjoint with the kernel itself, which needs exact symmetry.
        assert np.array_equal(kernel.values, kernel.values[::-1, ::-1])

    def test_disc_truncation(self):
        k = make_gaussian_kernel(10.0, 30.0, 1.0)
        c = k.side // 2
        assert k.values[0, 0] == 0.0
        assert k.values[c, 0] > 0.0

    def test_peak_at_center(self):
        k = make_gaussian_kernel(5.0, 20.0, 1.0)
        c = k.side // 2
        assert k.values[c, c] == k.values.max()

    def test_even_side_rejected(self):
        with pytest.raises(ParamError):
            Kernel(values=np.ones((4, 4)) / 16, px_per_nm=1.0)

    def test_negative_rejected(self):
        v = np.ones((3, 3)) / 9
        v[0, 0] = -0.1
        with pytest.raises(ParamError):
            Kernel(values=v, px_per_nm=1.0)

    def test_bad_params(self):
        with pytest.raises(ParamError):
            make_gaussian_kernel(0.0, 30.0, 1.0)
        with pytest.raises(ParamError):
            make_gaussian_kernel(10.0, -5.0, 1.0)
        with pytest.raises(ParamError):
            make_gaussian_kernel(10.0, 0.2, 1.0)


# Image and kernel shapes the pruned passes are checked on against the
# unpruned transform.
UNPRUNED_CASES = [
    ((300, 240), (151, 151)), ((300, 320), (151, 151)), ((64, 48), (151, 151)),
    ((1, 23), (5, 5)), ((1, 1), (1, 1)), ((17, 1), (5, 3)), ((2, 2), (3, 3)),
    ((121, 200), (121, 121)), ((125, 97), (31, 9)), ((45, 64), (7, 1)),
]


class TestConvolution:
    def test_delta_kernel_identity(self, rng):
        img = rng.random((9, 9))
        ker = np.zeros((3, 3))
        ker[1, 1] = 1.0
        assert np.allclose(convolve_direct(img, ker), img)

    def test_shift_by_offcenter_tap(self):
        # true convolution: a tap above center shifts content down (+y)
        img = np.zeros((5, 5))
        img[2, 2] = 1.0
        ker = np.zeros((3, 3))
        ker[2, 1] = 1.0  # tap at +1 row
        out = convolve_direct(img, ker)
        assert out[3, 2] == 1.0
        assert out.sum() == 1.0

    def test_hand_computed_case(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        ker = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        # convolution with tap at (-1, 0): output(y) = input(y - (-1)) = shift up
        out = convolve_direct(img, ker)
        assert out.tolist() == [[3.0, 4.0], [0.0, 0.0]]

    def test_direct_vs_fft_small(self, rng):
        # Sides of 1 px too, and kernels longer than the image.
        shapes = [((17, 23), (5, 5))] * 10 + [
            ((1, 23), (5, 5)), ((17, 1), (5, 3)), ((1, 1), (5, 5)), ((1, 1), (1, 1)),
            ((9, 9), (1, 1)), ((6, 7), (1, 5)),
        ]
        for img_shape, ker_shape in shapes:
            img = rng.random(img_shape)
            ker = rng.random(ker_shape)
            a = convolve_direct(img, ker)
            b = convolve_fft(img, ker)
            assert b.shape == img_shape
            assert np.max(np.abs(a - b)) < 1e-10

    @pytest.mark.parametrize("img_shape, ker_shape", [
        ((17, 23), (5, 5)), ((2, 2), (3, 3)), ((2, 40), (7, 3)), ((64, 48), (151, 151)),
        ((151, 151), (151, 151)), ((300, 240), (151, 151)), ((121, 200), (121, 121)),
    ])
    def test_fft_bitwise_equals_scipy(self, rng, img_shape, ker_shape):
        # The name predates the alias-free transform length, which agrees
        # with SciPy and direct summation to round-off, not bitwise.  Random,
        # asymmetric kernels: any wrap-around onto kept pixels would show.
        img = rng.random(img_shape)
        ker = rng.random(ker_shape)
        out = convolve_fft(img, ker)
        tol = 1e-12 * np.abs(ker).sum() * np.abs(img).max()
        assert np.max(np.abs(out - fftconvolve(img, ker, mode="same"))) <= tol
        assert np.max(np.abs(out - convolve_direct(img, ker))) <= tol
        assert out.flags.c_contiguous

    @pytest.mark.parametrize("img_shape, ker_shape", [
        ((17, 23), (5, 5)), ((64, 48), (151, 151)), ((120, 90), (31, 9)),
    ])
    def test_flipped_kernel_is_adjoint(self, rng, img_shape, ker_shape):
        # <conv_k(a), b> = <a, conv_flip(k)(b)>: ILT's gradient relies on it.
        a, b = rng.random(img_shape), rng.random(img_shape)
        ker = rng.random(ker_shape)
        lhs = np.vdot(fft_convolver(ker, img_shape)(a), b)
        rhs = np.vdot(a, fft_convolver(ker[::-1, ::-1], img_shape)(b))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_convolver_reuses_spectrum(self, rng):
        ker = rng.random((9, 9))
        conv = fft_convolver(ker, (20, 30))
        for _ in range(3):
            img = rng.random((20, 30))
            assert np.array_equal(conv(img), convolve_fft(img, ker))

    @pytest.mark.parametrize("img_shape, ker_shape", UNPRUNED_CASES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8, bool])
    def test_bitwise_equals_unpruned_transform(self, rng, img_shape, ker_shape, dtype):
        # Kernels longer than the image, 1-row and 1-column images, and
        # transform lengths that are already fast (h + kh//2 = 375, 96) or
        # are rounded up (395 -> 400, 139 -> 144), odd and even.
        img = rng.random(img_shape)
        img = (img > 0.5).astype(dtype) if dtype in (np.uint8, bool) else img.astype(dtype)
        ker = rng.random(ker_shape)
        conv = fft_convolver(ker, img_shape)
        want = unpruned_convolver(ker, img_shape)(img)
        for _ in range(2):  # the work buffer is reused across calls
            out = conv(img)
            assert out.dtype == np.float64 and out.flags.c_contiguous
            assert np.array_equal(out.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("img_shape, ker_shape", UNPRUNED_CASES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8, bool])
    def test_float32_bitwise_equals_unpruned_transform(self, rng, img_shape, ker_shape, dtype):
        img = rng.random(img_shape)
        img = (img > 0.5).astype(dtype) if dtype in (np.uint8, bool) else img.astype(dtype)
        ker = rng.random(ker_shape)
        conv = fft_convolver(ker, img_shape, np.float32)
        want = unpruned_convolver(ker, img_shape, np.float32)(img)
        for _ in range(2):
            out = conv(img)
            assert out.dtype == np.float32 and out.flags.c_contiguous
            assert np.array_equal(out.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("img_shape, ker_shape", [
        ((300, 240), (151, 151)), ((64, 48), (151, 151)), ((125, 97), (31, 9)),
    ])
    def test_float32_close_to_float64(self, rng, img_shape, ker_shape):
        img = rng.random(img_shape)
        ker = rng.random(ker_shape)
        want = fft_convolver(ker, img_shape)(img)
        got = fft_convolver(ker, img_shape, np.float32)(img)
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))

    @pytest.mark.parametrize("dtype", [np.float16, np.longdouble, np.complex64, np.int32, bool])
    def test_other_dtype_rejected(self, rng, dtype):
        with pytest.raises(ParamError, match="dtype"):
            fft_convolver(rng.random((3, 3)), (8, 8), dtype)

    @pytest.mark.parametrize("img_shape", [(300, 240), (300, 320), (600, 1083), (64, 48), (1, 23)])
    def test_traces_no_more_than_unpruned(self, rng, img_shape):
        # One call as simulate_print and compute_iip make it, convolver
        # included; recorrect's layout is rasterized at 600 x 1083 px.
        img = rng.random(img_shape)
        ker = make_gaussian_kernel(25.0, 75.0, 1.0).values

        def traced_peak(run):
            run()  # transform plans are cached on first use
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        pruned = traced_peak(lambda: convolve_fft(img, ker))
        unpruned = traced_peak(lambda: unpruned_convolver(ker, img_shape)(img))
        assert pruned <= unpruned

    @pytest.mark.parametrize("band_rows", [1, 5, 36, 37, 200])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bands_change_no_bit(self, rng, monkeypatch, band_rows, dtype):
        # A 37-row image in row bands of 1, 5, 36 and at least 37 rows;
        # BAND_BYTES half a grid row over a whole number of rows rounds down.
        shape, ker = (37, 50), rng.random((31, 9))
        cplx = np.result_type(dtype, np.complex64)
        row_bytes = (next_fast_len(50 + 4, True) // 2 + 1) * np.dtype(cplx).itemsize
        monkeypatch.setattr(litho, "BAND_BYTES", band_rows * row_bytes + row_bytes // 2)
        seen = []
        rfft = litho.rfft
        monkeypatch.setattr(litho, "rfft", lambda x, **kw: seen.append(len(x)) or rfft(x, **kw))
        conv = fft_convolver(ker, shape, dtype)
        want = unpruned_convolver(ker, shape, dtype)
        img = rng.random(shape)
        for x in (img, (img > 0.5).astype(np.uint8), img > 0.5):
            out = conv(x)
            assert out.dtype == dtype and out.tobytes() == want(x).tobytes()
        assert max(seen) == min(band_rows, 37) and sum(seen) == 3 * 37

    @pytest.mark.parametrize("call", ["convolve_fft", "aerial_image", "compute_iip"])
    def test_call_holds_spectrum_grid_output_and_bands(self, rng, call):
        # recorrect's layout is rasterized at 600 x ~1084 px, as a uint8 mask.
        h, w = shape = (600, 1084)
        mask = RasterGrid(w, h, (0.5, 0.5), 1.0, (rng.random(shape) < 0.3).astype(np.uint8))
        kernel = make_gaussian_kernel(25.0, 75.0, 1.0)
        run = {
            "convolve_fft": lambda: convolve_fft(mask.values, kernel.values),
            "aerial_image": lambda: aerial_image(mask, kernel),
            "compute_iip": lambda: compute_iip(mask, kernel),
        }[call]
        run()  # transform plans are cached on first use
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        y0 = x0 = kernel.side // 2
        spectrum = next_fast_len(h + y0, True) * (next_fast_len(w + x0, True) // 2 + 1) * 16
        # Slack: numpy's casting buffers and the call's Python objects.
        assert peak <= 2 * spectrum + h * w * 8 + 2 * litho.BAND_BYTES + (64 << 10)

    def test_convolver_shape_mismatch(self, rng):
        conv = fft_convolver(rng.random((3, 3)), (8, 8))
        with pytest.raises(DimMismatch):
            conv(rng.random((8, 9)))
        conv = fft_convolver(rng.random((3, 3)), (8, 8), np.float32)
        with pytest.raises(DimMismatch):
            conv(rng.random((8, 9)))
        with pytest.raises(DimMismatch):
            fft_convolver(rng.random((4, 3)), (8, 8))
        with pytest.raises(DimMismatch):
            convolve_fft(rng.random(8), rng.random((3, 3)))

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(DimMismatch):
            convolve_direct(rng.random((8, 8)), rng.random((4, 4)))

    def test_zero_padding_at_border(self):
        img = np.ones((4, 4))
        ker = np.full((3, 3), 1.0)
        out = convolve_direct(img, ker)
        assert out[0, 0] == 4.0  # corner sees only 2x2 of support
        assert out[1, 1] == 9.0


class TestAerialImage:
    def test_clip_and_range(self, grid_factory):
        g = grid_factory(np.ones((21, 21), dtype=np.float32))
        k = make_gaussian_kernel(3.0, 9.0, 1.0)
        a = aerial_image(g, k)
        assert a.values.min() >= 0.0
        assert a.values.max() <= 1.0
        assert a.values[10, 10] == pytest.approx(1.0, abs=1e-6)

    def test_resolution_mismatch(self, grid_factory):
        g = grid_factory(np.ones((9, 9)), px_per_nm=2.0)
        k = make_gaussian_kernel(3.0, 9.0, 1.0)
        with pytest.raises(ResolutionMismatch):
            aerial_image(g, k)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8, bool])
    def test_bitwise_equals_float64_copy_then_clip(self, rng, dtype):
        # The expression aerial_image evaluated before it passed the mask's
        # own dtype to the convolver and clipped in place.
        v = rng.random((120, 90))
        v = (v > 0.5).astype(dtype) if dtype in (np.uint8, bool) else v.astype(dtype)
        g, k = RasterGrid(90, 120, (0.5, 0.5), 1.0, v), make_gaussian_kernel(3.0, 9.0, 1.0)
        want = np.clip(convolve_fft(v.astype(np.float64), k.values), 0.0, 1.0)
        assert aerial_image(g, k).values.tobytes() == want.tobytes()

    def test_gray_mask_allowed(self, grid_factory):
        # center pixel sees full kernel support, so a 0.5 field images to 0.5
        g = grid_factory(np.full((21, 21), 0.5))
        k = make_gaussian_kernel(3.0, 9.0, 1.0)
        a = aerial_image(g, k)
        assert a.values[10, 10] == pytest.approx(0.5, abs=1e-6)

    def test_out_of_range_mask_rejected(self, grid_factory):
        g = grid_factory(np.full((9, 9), 1.5))
        k = make_gaussian_kernel(3.0, 9.0, 1.0)
        with pytest.raises(RangeError):
            aerial_image(g, k)

    def test_print_threshold(self, grid_factory):
        a = grid_factory([[0.2, 0.5, 0.8]])
        p = print_image(a, 0.5)
        assert p.values.tolist() == [[0.0, 1.0, 1.0]]
        assert p.is_binary()

    def test_line_prints_narrow(self, grid_factory):
        # blur pulls a 40nm line below nominal width at threshold 0.5
        arr = np.zeros((200, 240), dtype=np.float32)
        arr[:, 100:140] = 1.0
        g = grid_factory(arr)
        printed = simulate_print(g, LithoConfig())
        row = printed.values[100]
        assert 0 < row.sum() < 40


class TestConfig:
    @pytest.mark.parametrize("key", ["sigma_nm", "radius_nm", "px_per_nm"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_non_finite_or_nonpositive_rejected(self, key, value):
        # radius_nm=inf used to overflow in kernel(), NaN sigma_nm to fail
        # only there, as non-finite kernel weights, and a kernel at NaN
        # px/nm to be refused only when used, as a resolution mismatch.
        args = {"sigma_nm": 25.0, "radius_nm": 75.0, "px_per_nm": 1.0, key: value}
        with pytest.raises(ParamError):
            make_gaussian_kernel(**args)
        with pytest.raises(ParamError):
            if key == "px_per_nm":
                Kernel(values=np.ones((1, 1)), px_per_nm=value)
            else:
                LithoConfig(**{key: value})

    def test_radius_must_cover_sigma(self):
        with pytest.raises(ParamError):
            LithoConfig(sigma_nm=30.0, radius_nm=20.0)

    def test_threshold_range(self):
        with pytest.raises(ParamError):
            LithoConfig(resist_threshold=0.0)

    def test_kernel_helper(self):
        cfg = LithoConfig(sigma_nm=10.0, radius_nm=30.0)
        k = cfg.kernel(2.0)
        assert k.px_per_nm == 2.0
        assert k.side == 121
