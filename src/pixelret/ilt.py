"""Pixel-based inverse lithography.

Finds a binary reference mask whose simulated print best matches a binary
target.  The mask is relaxed through a steep sigmoid so the print error is
differentiable; gradient descent runs for a fixed step count and the best
admissible iterate is returned.

The returned mask is guaranteed no worse than the target-as-mask baseline:
the initial iterate binarizes back to the target itself, candidates are
restricted to iterates whose relaxed loss does not exceed the initial loss,
and selection maximizes printed-vs-target IoU over those candidates.

Cost: the kernel's spectrum is computed once per optimize_mask call, so a
step transforms only its two images, through fft_convolver's pruned
passes and its reused work buffer, and the step's elementwise work writes
into arrays it already owns, in the order of the plain expressions.
Every kernel here comes from
make_gaussian_kernel, which is bitwise point-symmetric, so the adjoint
(correlation) is the same convolution and one convolver serves the
image, the gradient and the fidelity check.
The IoU check images the *binarized* mask, not the step's relaxed mask,
so the step's aerial image cannot stand in for it without changing bits;
instead the check is skipped when the binarized mask equals the last one
checked, and the result's fidelity is the best iterate's checked IoU.
Masks, loss history and fidelity are bitwise those of the loop that
convolves afresh at every use, with one rfftn/irfftn pair over the whole
padded transform, and allocates every intermediate.

The sigmoid is numpy's 1 / (1 + exp(-x)), not scipy.special.expit, whose
scalar loop takes about four times as long (844 against 207 us on a
300 x 240 array, 2-CPU AVX-512 host).  Its bits follow the
exp that numpy dispatches for the host's CPU (a SIMD routine on AVX-512,
libm elsewhere), as the BLAS bits elsewhere follow the BLAS build; the
SIMD exp is within 4 ulp of libm's.  Against expit, loss histories moved
by at most 6.4e-16 relative, and masks and fidelities of the case-study
layouts were unchanged.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimMismatch, DivergenceError, ParamError, RangeError
from .grid import RasterGrid, iou
from .litho import LithoConfig, fft_convolver


@dataclass
class IltConfig:
    """Gradient-descent settings for the mask optimizer.

    The loss is a mean over pixels, so the useful learning-rate range grows
    with pixel count; the default suits grids around 10^5 px.
    """

    steps: int = 60
    learning_rate: float = 8.0e5
    sigmoid_steepness_resist: float = 25.0
    sigmoid_steepness_mask: float = 2.0
    binarize_threshold: float = 0.5

    def __post_init__(self):
        if type(self.steps) is not int or self.steps < 1:
            raise ParamError(f"steps must be an integer >= 1, got {self.steps!r}")
        # Written so that NaN fails each comparison.
        if not 0 < self.learning_rate < float("inf"):
            raise ParamError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for k in (self.sigmoid_steepness_resist, self.sigmoid_steepness_mask):
            if not 0 < k < float("inf"):
                raise ParamError(f"sigmoid steepness values must be finite and > 0, got {k}")
        if not 0.0 < self.binarize_threshold < 1.0:
            raise ParamError(
                f"binarize_threshold must be in (0, 1), got {self.binarize_threshold}"
            )


@dataclass
class IltResult:
    mask: RasterGrid = field(repr=False)
    loss_history: list[float]
    final_fidelity: float


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic 1 / (1 + exp(-x)), written into x and returned.
    exp(-x) overflows to inf below x = -709, which gives the correct 0,
    so that overflow is not reported."""
    np.negative(x, out=x)
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def _loss_and_grad(
    theta: np.ndarray,
    target: np.ndarray,
    convolve: Callable[[np.ndarray], np.ndarray],
    resist_threshold: float,
    k_mask: float,
    k_resist: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss, its gradient and the relaxed mask m = sigmoid_mask(theta);
    convolve convolves with a point-symmetric kernel and returns a new
    array.  Every elementwise step writes into an array this call owns,
    in the order of the plain expressions, so the bits are theirs."""
    m = _sigmoid(np.multiply(theta, k_mask))
    p = convolve(m)
    p -= resist_threshold
    p *= k_resist
    p = _sigmoid(p)
    r = p - target
    n = theta.size
    loss = float(np.dot(r.ravel(), r.ravel()) / n)
    # Chain rule: dL/dp, through the resist sigmoid, the convolution adjoint
    # (correlation = convolution with the flipped kernel, which is the kernel
    # itself), and the mask sigmoid: dldi = (2/n) * r * k_resist * p * (1 - p),
    # then grad = convolve(dldi) * k_mask * m * (1 - m).
    dldi = r
    dldi *= 2.0 / n
    dldi *= k_resist
    dldi *= p
    one_minus = np.subtract(1.0, p, out=p)
    dldi *= one_minus
    grad = convolve(dldi)
    grad *= k_mask
    grad *= m
    grad *= np.subtract(1.0, m, out=one_minus)
    return loss, grad, m


def ilt_loss(
    theta: RasterGrid,
    target: RasterGrid,
    litho: LithoConfig,
    cfg: IltConfig,
) -> tuple[float, RasterGrid]:
    """Relaxed print-error loss and its analytic gradient w.r.t. theta.

    loss = mean((sigmoid_resist(aerial(sigmoid_mask(theta))) - target)^2).
    """
    theta_at = (theta.shape, theta.origin, theta.px_per_nm)
    target_at = (target.shape, target.origin, target.px_per_nm)
    if theta_at != target_at:
        raise DimMismatch(f"theta (shape, origin, px/nm) {theta_at} vs target {target_at}")
    loss, grad, _ = _loss_and_grad(
        theta.values.astype(np.float64),
        target.values.astype(np.float64),
        fft_convolver(litho.kernel(theta.px_per_nm).values, theta.shape),
        litho.resist_threshold,
        cfg.sigmoid_steepness_mask,
        cfg.sigmoid_steepness_resist,
    )
    return loss, theta.with_values(grad)


def optimize_mask(target: RasterGrid, litho: LithoConfig, cfg: IltConfig) -> IltResult:
    """Gradient descent on the relaxed loss; returns the binarized mask of
    the best admissible iterate.

    Admissible means relaxed loss <= initial loss; among those the iterate
    with the highest printed-vs-target IoU wins (ties: lower loss, then
    earlier step).  loss_history has steps+1 entries, non-finite loss raises
    DivergenceError.
    """
    if not target.is_binary():
        raise RangeError("ILT target must be a binary grid")
    tv = target.values.astype(np.float64)
    convolve = fft_convolver(litho.kernel(target.px_per_nm).values, tv.shape)
    k_m = cfg.sigmoid_steepness_mask
    k_r = cfg.sigmoid_steepness_resist
    thr = litho.resist_threshold

    theta = k_m * (2.0 * tv - 1.0)
    history: list[float] = []
    best: tuple[float, float, int, np.ndarray] | None = None  # (-fid, loss, step, mask)
    checked: tuple[np.ndarray, float] | None = None  # last binarized mask, its fidelity
    loss0 = None
    for step in range(cfg.steps + 1):
        loss, grad, m = _loss_and_grad(theta, tv, convolve, thr, k_m, k_r)
        if not np.isfinite(loss):
            raise DivergenceError(f"loss became non-finite at step {step}")
        history.append(loss)
        if loss0 is None:
            loss0 = loss
        if loss <= loss0:
            mask = (m > cfg.binarize_threshold).astype(np.uint8)
            if checked is None or not np.array_equal(mask, checked[0]):
                printed = convolve(mask) >= thr
                checked = (mask, iou(target.with_values(printed), target))
            key = (-checked[1], loss, step)
            if best is None or key < best[:3]:
                best = (*key, mask)
        if step < cfg.steps:
            grad *= cfg.learning_rate
            theta -= grad
    assert best is not None
    return IltResult(
        mask=target.with_values(best[3]),
        loss_history=history,
        final_fidelity=-best[0],
    )


def save_loss_history(result: IltResult, path: str | Path) -> None:
    """Write loss_history as CSV with header step,loss."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "loss"])
        for i, v in enumerate(result.loss_history):
            w.writerow([i, f"{v:.12g}"])
