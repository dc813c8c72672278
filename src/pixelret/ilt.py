"""Pixel-based inverse lithography.

Finds a binary reference mask whose simulated print best matches a binary
target.  The mask is relaxed through a steep sigmoid so the print error is
differentiable; gradient descent runs for a fixed step count and the best
admissible iterate is returned.

The returned mask is guaranteed no worse than the target-as-mask baseline:
the initial iterate binarizes back to the target itself, candidates are
restricted to iterates whose relaxed loss does not exceed the initial loss,
and selection maximizes printed-vs-target IoU over those candidates.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import binary_dilation
from scipy.special import expit

from .errors import DimMismatch, DivergenceError, ParamError, RangeError
from .grid import RasterGrid
from .litho import Kernel, LithoConfig, aerial_image, convolve_fft, print_image


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
    init_mode: str = "target_copy"
    binarize_threshold: float = 0.5

    def __post_init__(self):
        if self.steps < 1:
            raise ParamError(f"steps must be >= 1, got {self.steps}")
        if self.learning_rate <= 0:
            raise ParamError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.sigmoid_steepness_resist <= 0 or self.sigmoid_steepness_mask <= 0:
            raise ParamError("sigmoid steepness values must be > 0")
        if self.init_mode not in ("target_copy", "dilated_target"):
            raise ParamError(f"unknown init_mode {self.init_mode!r}")
        if not 0.0 < self.binarize_threshold < 1.0:
            raise ParamError(
                f"binarize_threshold must be in (0, 1), got {self.binarize_threshold}"
            )


@dataclass
class IltResult:
    mask: RasterGrid = field(repr=False)
    loss_history: list[float]
    final_fidelity: float


def _iou(a: np.ndarray, b: np.ndarray) -> float:
    """Binary IoU; both-empty counts as a perfect match."""
    aa, bb = a != 0, b != 0
    union = int(np.logical_or(aa, bb).sum())
    if union == 0:
        return 1.0
    return float(np.logical_and(aa, bb).sum() / union)


def _loss_and_grad(
    theta: np.ndarray,
    target: np.ndarray,
    kernel: np.ndarray,
    resist_threshold: float,
    k_mask: float,
    k_resist: float,
) -> tuple[float, np.ndarray]:
    m = expit(k_mask * theta)
    i = convolve_fft(m, kernel)
    p = expit(k_resist * (i - resist_threshold))
    r = p - target
    n = theta.size
    loss = float(np.dot(r.ravel(), r.ravel()) / n)
    # Chain rule: dL/dp, through the resist sigmoid, the convolution adjoint
    # (correlation = convolution with the flipped kernel), and the mask sigmoid.
    dldi = (2.0 / n) * r * k_resist * p * (1.0 - p)
    dldm = convolve_fft(dldi, kernel[::-1, ::-1])
    grad = dldm * k_mask * m * (1.0 - m)
    return loss, grad


def ilt_loss(
    theta: RasterGrid,
    target: RasterGrid,
    litho: LithoConfig,
    cfg: IltConfig,
    kernel: Kernel | None = None,
) -> tuple[float, RasterGrid]:
    """Relaxed print-error loss and its analytic gradient w.r.t. theta.

    loss = mean((sigmoid_resist(aerial(sigmoid_mask(theta))) - target)^2).
    """
    if theta.shape != target.shape:
        raise DimMismatch(f"theta {theta.shape} vs target {target.shape}")
    k = kernel if kernel is not None else litho.kernel(theta.px_per_nm)
    loss, grad = _loss_and_grad(
        theta.values.astype(np.float64),
        target.values.astype(np.float64),
        k.values,
        litho.resist_threshold,
        cfg.sigmoid_steepness_mask,
        cfg.sigmoid_steepness_resist,
    )
    return loss, theta.with_values(grad)


def _initial_theta(target: np.ndarray, cfg: IltConfig) -> np.ndarray:
    signed = 2.0 * target - 1.0
    if cfg.init_mode == "dilated_target":
        grown = binary_dilation(target != 0, np.ones((3, 3), dtype=bool))
        signed = 2.0 * grown.astype(np.float64) - 1.0
    return cfg.sigmoid_steepness_mask * signed


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
    kernel = litho.kernel(target.px_per_nm)
    kv = kernel.values
    tv = target.values.astype(np.float64)
    k_m = cfg.sigmoid_steepness_mask
    k_r = cfg.sigmoid_steepness_resist

    def binarize(theta: np.ndarray) -> np.ndarray:
        return (expit(k_m * theta) > cfg.binarize_threshold).astype(np.uint8)

    def fidelity(mask_u8: np.ndarray) -> float:
        printed = print_image(
            aerial_image(target.with_values(mask_u8), kernel), litho.resist_threshold
        )
        return _iou(printed.values, target.values)

    theta = _initial_theta(tv, cfg)
    history: list[float] = []
    best: tuple[float, float, int, np.ndarray] | None = None  # (-fid, loss, step, theta)
    loss0 = None
    for step in range(cfg.steps + 1):
        loss, grad = _loss_and_grad(theta, tv, kv, litho.resist_threshold, k_m, k_r)
        if not np.isfinite(loss):
            raise DivergenceError(f"loss became non-finite at step {step}")
        history.append(loss)
        if loss0 is None:
            loss0 = loss
        if loss <= loss0:
            key = (-fidelity(binarize(theta)), loss, step)
            if best is None or key < best[:3]:
                best = (*key, theta.copy())
        if step < cfg.steps:
            theta = theta - cfg.learning_rate * grad
    assert best is not None
    mask_values = binarize(best[3])
    return IltResult(
        mask=target.with_values(mask_values),
        loss_history=history,
        final_fidelity=fidelity(mask_values),
    )


def save_loss_history(result: IltResult, path: str | Path) -> None:
    """Write loss_history as CSV with header step,loss."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "loss"])
        for i, v in enumerate(result.loss_history):
            w.writerow([i, f"{v:.12g}"])
