# pixelret first, as a program that uses it would: imported before numpy,
# it keeps BLAS to one thread, so ILT forks its checker in the tests too.
import pixelret  # noqa: F401
import numpy as np
import pytest
from scipy.fft import irfftn, next_fast_len, rfftn

from pixelret.grid import RasterGrid


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(0))


def make_grid(values, px_per_nm=1.0, origin=(0.5, 0.5)):
    arr = np.asarray(values, dtype=np.float32)
    return RasterGrid(
        width=arr.shape[1],
        height=arr.shape[0],
        origin=origin,
        px_per_nm=px_per_nm,
        values=arr,
    )


@pytest.fixture
def grid_factory():
    return make_grid


def unpruned_convolver(kernel, shape, dtype=np.float64):
    """litho.fft_convolver as one rfftn/irfftn pair over the whole padded
    transform: the reference its pruned passes must equal bitwise.  For
    float32 the float64 kernel spectrum is cast to complex64 and the image
    to float32."""
    h, w = shape
    kh, kw = kernel.shape
    y0, x0 = kh // 2, kw // 2
    fshape = (next_fast_len(h + y0, True), next_fast_len(w + x0, True))
    spectrum = rfftn(np.asarray(kernel, dtype=np.float64), fshape)
    spectrum = spectrum.astype(np.result_type(dtype, np.complex64))

    def convolve(img):
        f = rfftn(np.asarray(img, dtype=dtype), fshape)
        f *= spectrum
        return irfftn(f, fshape)[y0 : y0 + h, x0 : x0 + w].copy()

    return convolve


# Acceptance criterion results, printed one line per criterion after the run.
CRITERIA_RESULTS: list[tuple[int, str, bool, str]] = []


def record_criterion(num: int, name: str, passed: bool, detail: str = "") -> None:
    CRITERIA_RESULTS.append((num, name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num, name, passed, detail in sorted(CRITERIA_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {num:2d} [{status}] {name}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
