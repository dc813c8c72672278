"""Toy lithography forward model.

A mask grid is blurred with a nonnegative unit-sum kernel to form an aerial
intensity image; a constant resist threshold turns intensity into the
printed shape.  The model convolves by FFT at the shortest transform
length free of wrap-around over the kept pixels, and a caller that
convolves many images of one shape with one kernel (ILT) transforms the
kernel once; direct summation is kept as the independent route that
checks it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft, rfftn

from .errors import (
    DimMismatch,
    ParamError,
    RangeError,
    ResolutionMismatch,
    check_real,
)
from .grid import RasterGrid, sha256_bytes


@dataclass
class Kernel:
    """Odd-sided square convolution kernel with nonnegative finite weights.

    px_per_nm ties the kernel sample spacing to grid resolution; convolving
    a grid with a kernel of different resolution is rejected.
    """

    values: np.ndarray = field(repr=False)
    px_per_nm: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ParamError(f"kernel must be square 2D, got shape {v.shape}")
        if v.shape[0] % 2 != 1:
            raise ParamError(f"kernel side must be odd, got {v.shape[0]}")
        if not np.all(np.isfinite(v)):
            raise ParamError("kernel has non-finite weights")
        if np.any(v < 0):
            raise ParamError("kernel weights must be nonnegative")
        check_real("px_per_nm", self.px_per_nm, above=0)
        self.values = v

    @property
    def side(self) -> int:
        return self.values.shape[0]

    def checksum(self) -> str:
        head = f"{self.side}:{self.px_per_nm!r}:".encode()
        return sha256_bytes(head + self.values.tobytes())


def make_gaussian_kernel(sigma_nm: float, radius_nm: float, px_per_nm: float) -> Kernel:
    """Isotropic Gaussian sampled at pixel centers, truncated to a disc of
    radius_nm, normalized to unit sum (so a fully open mask images to 1.0).
    The samples sit at +-k/px_per_nm, so the kernel is bitwise
    point-symmetric, which ILT's adjoint relies on.
    """
    for name, v in (("sigma_nm", sigma_nm), ("radius_nm", radius_nm), ("px_per_nm", px_per_nm)):
        check_real(name, v, above=0)
    r = int(round(radius_nm * px_per_nm))
    if r < 1:
        raise ParamError("kernel radius rounds to zero pixels")
    coords = np.arange(-r, r + 1, dtype=np.float64) / px_per_nm
    xx, yy = np.meshgrid(coords, coords)
    rr2 = xx * xx + yy * yy
    v = np.exp(-rr2 / (2.0 * sigma_nm * sigma_nm))
    v[rr2 > radius_nm * radius_nm] = 0.0
    return Kernel(v / v.sum(), px_per_nm)


# ---------------------------------------------------------------------------
# Convolution, two routes
# ---------------------------------------------------------------------------

def convolve_direct(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """True 2D convolution by explicit summation over kernel taps.

    Same-size output, zero padding outside the image.  Slow but transform
    free; serves as the independent oracle for convolve_fft.
    """
    img = np.asarray(img, dtype=np.float64)
    ker = np.asarray(kernel, dtype=np.float64)
    if img.ndim != 2 or ker.ndim != 2:
        raise DimMismatch("convolve_direct expects 2D arrays")
    kh, kw = ker.shape
    if kh % 2 != 1 or kw % 2 != 1:
        raise DimMismatch(f"kernel dims must be odd, got {ker.shape}")
    h, w = img.shape
    ch, cw = kh // 2, kw // 2
    padded = np.zeros((h + 2 * ch, w + 2 * cw), dtype=np.float64)
    padded[ch : ch + h, cw : cw + w] = img
    out = np.zeros((h, w), dtype=np.float64)
    for u in range(kh):
        for v in range(kw):
            wgt = ker[u, v]
            if wgt == 0.0:
                continue
            out += wgt * padded[2 * ch - u : 2 * ch - u + h, 2 * cw - v : 2 * cw - v + w]
    return out


def fft_convolver(
    kernel: np.ndarray, shape: tuple[int, int], dtype=np.float64
) -> Callable[[np.ndarray], np.ndarray]:
    """True 2D convolution via FFT for images of one shape, same-size
    output, zero padding; the kernel spectrum is computed here, once.

    The transform is H x W, the next fast real-FFT lengths of h + kh//2
    and w + kw//2.  A circular length N folds full-convolution term
    j >= N onto j - N <= h + kh - 2 - N, which lies before the kept rows
    [kh//2, kh//2 + h) exactly when N >= h + kh//2, for any kernel size
    (kernel taps cropped by a shorter N reach only past the kept window).
    The full length h + kh - 1 that SciPy's fftconvolve uses is not
    needed, so the result agrees with it to round-off, not bitwise.

    The passes are those of irfftn(rfftn(img, (H, W)) * spectrum, (H, W))
    with the work on rows that are zero or thrown away left out: the
    row-wise r2c runs over the h image rows only, the column c2c over
    them zero-padded to H, and the row-wise c2r over the h kept rows only.
    Both inverse passes are unscaled and the kept pixels are multiplied by
    1/(H*W) at the end, which is where and how irfftn applies its scale,
    so the result is bitwise irfftn's.  The column passes run in place in
    a work buffer the convolver keeps, the size of the spectrum, so a
    convolver is for one thread at a time; a call traces less memory than
    the unpruned transform does.

    dtype is the precision the passes run in, float64 or float32; any
    other raises ParamError.  For float32 the kernel spectrum is computed
    in float64 and cast once to complex64, the image is cast to float32,
    the work buffer is complex64, the scale is 1/(H*W) rounded to float32,
    and the result is float32: bitwise the unpruned pair run on
    img.astype(float32) with spectrum.astype(complex64), and within about
    1e-6 of the float64 result relative to its maximum.
    """
    if dtype not in (np.float64, np.float32):
        raise ParamError(f"fft_convolver dtype must be float64 or float32, got {dtype!r}")
    real = np.dtype(dtype)
    ker = np.asarray(kernel, dtype=np.float64)
    if len(shape) != 2 or ker.ndim != 2:
        raise DimMismatch("FFT convolution expects 2D arrays")
    if ker.shape[0] % 2 != 1 or ker.shape[1] % 2 != 1:
        raise DimMismatch(f"kernel dims must be odd, got {ker.shape}")
    h, w = shape
    kh, kw = ker.shape
    y0, x0 = kh // 2, kw // 2
    H, W = next_fast_len(h + y0, True), next_fast_len(w + x0, True)
    cplx = np.result_type(real, np.complex64)
    spectrum = rfftn(ker, (H, W)).astype(cplx, copy=False)
    # pocketfft's irfftn scale: 1/N in long double, rounded to dtype.
    scale = real.type(1 / np.longdouble(H * W))
    # The convolver's one work buffer: the column pass runs in place on
    # grid, and its first h rows, seen as dtype, hold the padded image.
    grid = np.empty((H, W // 2 + 1), dtype=cplx)
    rows = grid.view(real)[:h, :W]

    def convolve(img: np.ndarray) -> np.ndarray:
        img = np.asarray(img)
        if img.shape != (h, w):
            raise DimMismatch(f"image {img.shape} vs convolver shape {(h, w)}")
        rows[:, :w] = img
        rows[:, w:] = 0.0
        grid[:h] = rfft(rows, axis=1)
        grid[h:] = 0.0
        f = fft(grid, axis=0, overwrite_x=True)
        f *= spectrum
        f = ifft(f, axis=0, norm="forward", overwrite_x=True)
        f = irfft(f[y0 : y0 + h], W, axis=1, norm="forward")
        return f[:, x0 : x0 + w] * scale

    return convolve


def convolve_fft(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """True 2D convolution via FFT, same-size output, zero padding: the
    one-shot use of fft_convolver."""
    return fft_convolver(kernel, np.shape(img))(img)


# ---------------------------------------------------------------------------
# Forward model
# ---------------------------------------------------------------------------

@dataclass
class LithoConfig:
    """Parameters of the toy projection + resist model."""

    sigma_nm: float = 25.0
    radius_nm: float = 75.0
    resist_threshold: float = 0.5

    def __post_init__(self):
        for name in ("sigma_nm", "radius_nm"):
            check_real(name, getattr(self, name), above=0)
        check_real("resist_threshold", self.resist_threshold, above=0, below=1)
        if self.radius_nm < self.sigma_nm:
            raise ParamError("kernel radius below one sigma truncates too much")

    def kernel(self, px_per_nm: float) -> Kernel:
        return make_gaussian_kernel(self.sigma_nm, self.radius_nm, px_per_nm)


def aerial_image(mask: RasterGrid, kernel: Kernel) -> RasterGrid:
    """Blur a mask grid (values in [0, 1]) into an intensity grid.

    Output shares the mask geometry; intensities are clipped to [0, 1] to
    absorb FFT round-off at the 1e-13 level.
    """
    if kernel.px_per_nm != mask.px_per_nm:
        raise ResolutionMismatch(
            f"kernel at {kernel.px_per_nm} px/nm, mask at {mask.px_per_nm}"
        )
    v = mask.values
    if v.min() < 0.0 or v.max() > 1.0:
        raise RangeError("mask values must lie in [0, 1]")
    out = convolve_fft(v.astype(np.float64), kernel.values)
    return mask.with_values(np.clip(out, 0.0, 1.0))


def print_image(aerial: RasterGrid, resist_threshold: float) -> RasterGrid:
    """Constant-threshold resist: 1 where intensity >= threshold."""
    check_real("resist_threshold", resist_threshold, above=0, below=1)
    return aerial.with_values((aerial.values >= resist_threshold).astype(np.uint8))


def simulate_print(mask: RasterGrid, cfg: LithoConfig) -> RasterGrid:
    """Aerial image then resist threshold in one step."""
    return print_image(aerial_image(mask, cfg.kernel(mask.px_per_nm)), cfg.resist_threshold)
