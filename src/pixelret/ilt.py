"""Pixel-based inverse lithography.

Finds a binary reference mask whose simulated print best matches a binary
target.  The mask is relaxed through a steep sigmoid so the print error is
differentiable; gradient descent runs for a fixed step count and the best
admissible iterate is returned.

The returned mask is guaranteed no worse than the target-as-mask baseline:
candidates are restricted to iterates whose relaxed loss does not exceed
the initial loss, selection maximizes printed-vs-target IoU over those
candidates, and the winner is then printed by simulate_print next to the
target itself, which is returned instead if it prints better.
final_fidelity is therefore simulate_print's IoU by construction.

Precision: the descent runs in float32 and everything a caller sees
outside it stays float64.  optimize_mask runs both convolutions of each
step through a float32 fft_convolver, and the step's elementwise work,
theta and the per-iterate fidelity checks in float32; the loss is summed
in float64, and the winner and the target are printed by simulate_print,
in float64.  On the 8 canonical patterns and the benchmark's 2 layouts
the masks and fidelities are bitwise the float64 descent's, loss
histories moved by at most 6.2e-6 relative, and optimize_mask took 0.58x
the time (2-CPU AVX-512 host).  ilt_loss, convolve_fft, aerial_image and
compute_iip stay float64: with float32 convolutions, ilt_loss's gradient
reads a worst relative error of 1.67 against central differences at
h = 1e-3 (criterion 3 allows 1e-3; float64 reads 1.6e-5), since at pixels
with small gradients a 1e-3 step moves the loss less than float32
round-off does.

Cost: the descent's kernel spectrum is computed once per optimize_mask
call, so a step transforms only its two images, through fft_convolver's
pruned passes and its reused work buffer, and the step's elementwise
work writes into arrays it already owns, in the order of the plain
expressions.  Every kernel here comes from make_gaussian_kernel, which
is bitwise point-symmetric, so the adjoint (correlation) is the same
convolution and one convolver serves the image, the gradient and the
fidelity check.
The IoU check images the *binarized* mask, not the step's relaxed mask,
so the step's aerial image cannot stand in for it without changing bits;
instead the check is skipped when the binarized mask equals the last one
checked.  Masks, loss history and fidelity are bitwise those of the
float32 loop that convolves afresh at every use, with one rfftn/irfftn
pair over the whole padded transform, and allocates every intermediate.
What runs where: the descent stays in the calling process, and the
selection half (_Selector: the IoU checks, the ranking, the prints of
the winner and of the target) runs beside it in one checker process per
call, forked so that it inherits the float32 convolver.  The caller sends
each admissible step's loss, step and packed binarized mask down a pipe
and keeps no masks; the checker prints the target while the descent
runs, and answers the end-of-descent sentinel with the winner or with
the exception it raised, which the caller re-raises.  The checker and
the calling thread run on separate CPUs during the call, since each
message would otherwise wake the checker on the caller's CPU,
where it preempts the descent; measured, the fork without this made the
benchmark's model build slower than the inline selection.  A process,
not a thread: a helper thread shares the interpreter lock with
the descent's many small numpy calls and adds a second malloc arena to
the caller, and measured, it made the benchmark's model build slower and
its peak RSS larger.  The selection runs inline where the caller may not
start a process (a daemonic one, such as a pool worker), has fewer than 2
CPUs in its affinity set, runs other threads (forking beside them is
unsafe), or where the platform cannot tell (no os.sched_getaffinity or
/proc/self/task).  The package keeps BLAS to one thread unless the caller
chose otherwise (see pixelret/__init__.py), so that a BLAS pool does not
count as such a thread; its pool would also spin on the loss's np.dot and
take the checker's CPU.  Either way the bits are the same.

The sigmoid is numpy's 1 / (1 + exp(-x)), not scipy.special.expit, whose
scalar loop takes about four times as long (844 against 207 us on a
300 x 240 float64 array, 2-CPU AVX-512 host).  Its bits follow the
exp that numpy dispatches for the host's CPU (a SIMD routine on AVX-512,
libm elsewhere), as the BLAS bits elsewhere follow the BLAS build; the
SIMD exp is within 4 ulp of libm's.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DimMismatch, DivergenceError, RangeError, check_int, check_real
from .grid import RasterGrid, iou, write_csv
from .litho import LithoConfig, fft_convolver, simulate_print


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
        check_int("steps", self.steps, least=1)
        for name in ("learning_rate", "sigmoid_steepness_resist", "sigmoid_steepness_mask"):
            check_real(name, getattr(self, name), above=0)
        check_real("binarize_threshold", self.binarize_threshold, above=0, below=1)


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
    in the order of the plain expressions, so the bits are theirs.  The
    arrays keep the inputs' dtype; the loss is summed in float64."""
    m = _sigmoid(np.multiply(theta, k_mask))
    p = convolve(m)
    p -= resist_threshold
    p *= k_resist
    p = _sigmoid(p)
    r = p - target
    n = theta.size
    rr = r.ravel().astype(np.float64, copy=False)
    loss = float(np.dot(rr, rr) / n)
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
    if theta.placement != target.placement:
        raise DimMismatch(
            f"theta placement {theta.placement} vs target {target.placement} "
            "(width, height, origin in nm, px/nm)"
        )
    loss, grad, _ = _loss_and_grad(
        theta.values.astype(np.float64),
        target.values.astype(np.float64),
        fft_convolver(litho.kernel(theta.px_per_nm).values, theta.shape),
        litho.resist_threshold,
        cfg.sigmoid_steepness_mask,
        cfg.sigmoid_steepness_resist,
    )
    return loss, theta.with_values(grad)


class _Selector:
    """The selection half of optimize_mask.  add takes each admissible
    iterate's loss, step and np.packbits of its binarized mask, and ranks
    it by its print through the float32 convolver; result returns the
    winning mask and its fidelity, or the target and its own (baseline)
    when the target prints better, both printed by simulate_print."""

    def __init__(self, target: RasterGrid, litho: LithoConfig, convolve):
        self.target, self.litho, self.convolve = target, litho, convolve
        self.as_is = target.values.astype(np.uint8)
        self.best: tuple[float, float, int, np.ndarray] | None = None  # (-fid, loss, step, bits)
        self.checked: tuple[np.ndarray, float] | None = None  # last bits checked, fidelity

    def unpack(self, bits: np.ndarray) -> np.ndarray:
        return np.unpackbits(bits, count=self.as_is.size).reshape(self.as_is.shape)

    @cached_property
    def baseline(self) -> float:
        return self.fidelity64(self.as_is)

    def fidelity64(self, mask: np.ndarray) -> float:
        return iou(simulate_print(self.target.with_values(mask), self.litho), self.target)

    def add(self, loss: float, step: int, bits: np.ndarray) -> None:
        if self.checked is None or not np.array_equal(bits, self.checked[0]):
            printed = self.convolve(self.unpack(bits)) >= self.litho.resist_threshold
            self.checked = (bits, iou(self.target.with_values(printed), self.target))
        key = (-self.checked[1], loss, step)
        if self.best is None or key < self.best[:3]:
            self.best = (*key, bits)

    def result(self) -> tuple[np.ndarray, float]:
        assert self.best is not None
        # The float32 checks rank the iterates; the returned mask is the
        # winner or the target, whichever simulate_print prints better.
        mask = self.unpack(self.best[3])
        fidelity = self.fidelity64(mask)
        if fidelity < self.baseline:
            return self.as_is, self.baseline
        return mask, fidelity


def _check(conn, caller_end, *selector_args) -> None:
    """The checker process: a _Selector fed from conn until the None
    sentinel, then its result, or the exception raised, sent back.  It
    reads up to the sentinel even after a failure, so that the caller's
    sends never block, and exits quietly if the caller closes first."""
    caller_end.close()  # else the caller's close would not reach recv as EOF
    items = iter(conn.recv, None)
    try:
        selector = _Selector(*selector_args)
        selector.baseline  # the target's print, while the descent runs
        for item in items:
            selector.add(*item)
        out = selector.result()
    except Exception as e:
        out = e
    try:
        for _ in items:
            pass
        conn.send(out)
    except EOFError:
        pass


class _Remote:
    """A _Selector's add and result, run in the checker process at the
    other end of conn."""

    def __init__(self, conn):
        self.conn = conn

    def add(self, *item) -> None:
        self.conn.send(item)

    def result(self) -> tuple[np.ndarray, float]:
        self.conn.send(None)
        try:
            out = self.conn.recv()
        except EOFError:
            raise RuntimeError("the ILT checker process exited without a result") from None
        if isinstance(out, Exception):
            raise out
        return out


def fork_safe() -> bool:
    """Whether this process may fork: it is not daemonic and runs no other
    thread, native ones such as a BLAS pool's included.  False where the
    platform cannot tell."""
    if multiprocessing.current_process().daemon:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _may_fork() -> bool:
    """Whether this process may fork a checker: fork_safe(), with at least
    2 CPUs."""
    return (fork_safe() and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


@contextmanager
def _selection(*selector_args):
    """A _Selector, in a forked checker process when _may_fork(), else
    inline.  The checker runs on the caller's highest-numbered CPU and the
    calling thread on its other CPUs until the selection ends: each
    message wakes the checker on the sender's CPU, where it would preempt
    the descent.  The checker is joined, and the calling thread's CPU set
    restored, on every way out."""
    if not _may_fork():
        yield _Selector(*selector_args)
        return
    ctx = multiprocessing.get_context("fork")
    conn, child_end = ctx.Pipe()
    proc = ctx.Process(target=_check, args=(child_end, conn, *selector_args), daemon=True)
    proc.start()
    child_end.close()
    cpus = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(proc.pid, {max(cpus)})
        os.sched_setaffinity(0, cpus - {max(cpus)})
        yield _Remote(conn)
    finally:
        os.sched_setaffinity(0, cpus)
        conn.close()
        proc.join()


def optimize_mask(target: RasterGrid, litho: LithoConfig, cfg: IltConfig) -> IltResult:
    """Gradient descent on the relaxed loss; returns the binarized mask of
    the best admissible iterate.

    Admissible means relaxed loss <= initial loss; among those the iterate
    with the highest printed-vs-target IoU wins (ties: lower loss, then
    earlier step); the target itself is returned if it prints better, and
    final_fidelity is simulate_print's IoU.  loss_history has steps+1
    entries, non-finite loss raises DivergenceError.

    Where this process may fork (see _may_fork), the call forks one
    checker process for the print checks and joins it before it returns
    or raises.  For the call, it also confines the calling thread to all
    but its highest-numbered CPU, which the checker gets, and then sets
    the thread's CPU set back to what it was at the start: a change
    made to it meanwhile, by a signal handler say, is undone.
    """
    if not target.is_binary():
        raise RangeError("ILT target must be a binary grid")
    tv = target.values.astype(np.float32)
    convolve = fft_convolver(litho.kernel(target.px_per_nm).values, tv.shape, np.float32)
    k_m = cfg.sigmoid_steepness_mask
    k_r = cfg.sigmoid_steepness_resist
    thr = litho.resist_threshold

    theta = k_m * (2.0 * tv - 1.0)
    history: list[float] = []
    with _selection(target, litho, convolve) as selector:
        for step in range(cfg.steps + 1):
            loss, grad, m = _loss_and_grad(theta, tv, convolve, thr, k_m, k_r)
            if not np.isfinite(loss):
                raise DivergenceError(f"loss became non-finite at step {step}")
            history.append(loss)
            if loss <= history[0]:
                selector.add(loss, step, np.packbits(m > cfg.binarize_threshold))
            if step < cfg.steps:
                grad *= cfg.learning_rate
                theta -= grad
        mask, fidelity = selector.result()
    return IltResult(
        mask=target.with_values(mask),
        loss_history=history,
        final_fidelity=fidelity,
    )


def save_loss_history(result: IltResult, path: str | Path) -> None:
    """Write loss_history as CSV with header step,loss."""
    rows = ((i, f"{v:.12g}") for i, v in enumerate(result.loss_history))
    write_csv(path, rows, ["step", "loss"])
