import csv

import numpy as np
import pytest
from conftest import make_grid, unpruned_convolver
from scipy.special import expit

from pixelret.errors import DimMismatch, ParamError, RangeError
from pixelret.ilt import IltConfig, ilt_loss, optimize_mask, save_loss_history
from pixelret.litho import (
    LithoConfig,
    aerial_image,
    convolve_fft,
    print_image,
)
from pixelret.pipeline import iou


def small_litho():
    return LithoConfig(sigma_nm=3.0, radius_nm=9.0)


def random_target(rng, side=16):
    from conftest import make_grid

    arr = np.zeros((side, side), dtype=np.float32)
    w = int(rng.integers(3, 7))
    h = int(rng.integers(3, 7))
    x = int(rng.integers(1, side - w - 1))
    y = int(rng.integers(1, side - h - 1))
    arr[y : y + h, x : x + w] = 1.0
    return make_grid(arr)


class TestConfig:
    def test_defaults_valid(self):
        cfg = IltConfig()
        assert cfg.steps > 0

    def test_bad_values(self):
        with pytest.raises(ParamError):
            IltConfig(steps=0)
        with pytest.raises(ParamError):
            IltConfig(learning_rate=0.0)
        with pytest.raises(ParamError):
            IltConfig(binarize_threshold=1.0)
        for value in (2.5, 2.0, True):
            with pytest.raises(ParamError, match="steps"):
                IltConfig(steps=value)

    @pytest.mark.parametrize(
        "key", ["learning_rate", "sigmoid_steepness_resist", "sigmoid_steepness_mask"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ParamError):
            IltConfig(**{key: value})


class TestLossAndGradient:
    def test_loss_zero_when_target_reproduced(self, rng, grid_factory):
        # theta strongly positive inside target: relaxed print ~ target
        target = random_target(rng)
        cfg = IltConfig(sigmoid_steepness_resist=200.0, sigmoid_steepness_mask=200.0)
        litho = LithoConfig(sigma_nm=0.5, radius_nm=1.0)
        theta = target.with_values((2 * target.values - 1).astype(np.float64))
        loss, _ = ilt_loss(theta, target, litho, cfg)
        assert loss < 0.02

    def test_gradient_matches_finite_differences(self, rng):
        litho = small_litho()
        cfg = IltConfig()
        h = 1e-3
        worst = 0.0
        for _ in range(5):
            target = random_target(rng)
            theta = target.with_values(rng.normal(0, 1, target.shape))
            _, grad = ilt_loss(theta, target, litho, cfg)
            for _ in range(6):
                iy = int(rng.integers(0, target.shape[0]))
                ix = int(rng.integers(0, target.shape[1]))
                vp = theta.values.copy()
                vp[iy, ix] += h
                vm = theta.values.copy()
                vm[iy, ix] -= h
                lp, _ = ilt_loss(theta.with_values(vp), target, litho, cfg)
                lm, _ = ilt_loss(theta.with_values(vm), target, litho, cfg)
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(grad.values[iy, ix]), 1e-12)
                worst = max(worst, abs(fd - grad.values[iy, ix]) / denom)
        assert worst < 1e-3

    def test_dim_mismatch(self, rng, grid_factory):
        target = random_target(rng)
        theta = grid_factory(np.zeros((4, 4)))
        with pytest.raises(DimMismatch):
            ilt_loss(theta, target, small_litho(), IltConfig())

    @pytest.mark.parametrize("origin, px_per_nm", [((3.5, 0.5), 1.0), ((0.5, 0.5), 2.0)])
    def test_target_geometry_mismatch(self, rng, grid_factory, origin, px_per_nm):
        target = random_target(rng)
        theta = grid_factory(np.zeros(target.shape), origin=origin, px_per_nm=px_per_nm)
        with pytest.raises(DimMismatch):
            ilt_loss(theta, target, small_litho(), IltConfig())


class TestOptimize:
    def test_nonbinary_target_rejected(self, grid_factory):
        t = grid_factory(np.full((8, 8), 0.5))
        with pytest.raises(RangeError):
            optimize_mask(t, small_litho(), IltConfig())

    def test_loss_never_worse_than_initial(self, rng):
        litho = small_litho()
        cfg = IltConfig(steps=15, learning_rate=2e4)
        for _ in range(3):
            target = random_target(rng)
            res = optimize_mask(target, litho, cfg)
            assert len(res.loss_history) == cfg.steps + 1
            assert min(res.loss_history) <= res.loss_history[0]
            assert res.mask.is_binary()

    def test_fidelity_not_degraded(self, rng):
        # the optimized mask prints at least as well as the target used as mask
        litho = small_litho()
        cfg = IltConfig(steps=25, learning_rate=2e4)
        target = random_target(rng, side=24)
        kernel = litho.kernel(1.0)
        baseline = iou(
            print_image(aerial_image(target, kernel), litho.resist_threshold), target
        )
        res = optimize_mask(target, litho, cfg)
        assert res.final_fidelity >= baseline

    def test_empty_target(self, grid_factory):
        t = grid_factory(np.zeros((12, 12)))
        res = optimize_mask(t, small_litho(), IltConfig(steps=3))
        assert res.mask.values.sum() == 0
        assert res.final_fidelity == 1.0

    def test_deterministic(self, rng):
        target = random_target(rng)
        cfg = IltConfig(steps=8, learning_rate=2e4)
        a = optimize_mask(target, small_litho(), cfg)
        b = optimize_mask(target, small_litho(), cfg)
        assert np.array_equal(a.mask.values, b.mask.values)
        assert a.loss_history == b.loss_history


def uncached_optimize(target, litho, cfg, convolve_fft=convolve_fft):
    """optimize_mask's loop as first written: every convolution transforms
    the kernel again, every elementwise step allocates its result, every
    admissible iterate is imaged, and the winner is imaged once more for
    its fidelity.  Also returns how often the binarized mask changed
    between admissible iterates, and their count."""
    kv = litho.kernel(target.px_per_nm).values
    tv = target.values.astype(np.float64)
    k_m, k_r, thr = cfg.sigmoid_steepness_mask, cfg.sigmoid_steepness_resist, litho.resist_threshold

    def loss_and_grad(theta):
        m = expit(k_m * theta)
        p = expit(k_r * (convolve_fft(m, kv) - thr))
        r = p - tv
        n = theta.size
        dldi = (2.0 / n) * r * k_r * p * (1.0 - p)
        grad = convolve_fft(dldi, kv[::-1, ::-1]) * k_m * m * (1.0 - m)
        return float(np.dot(r.ravel(), r.ravel()) / n), grad

    def binarize(theta):
        return (expit(k_m * theta) > cfg.binarize_threshold).astype(np.uint8)

    def fidelity(mask):
        aerial = np.clip(convolve_fft(mask.astype(np.float64), kv), 0.0, 1.0)
        printed, wanted = aerial >= thr, target.values != 0
        union = int(np.logical_or(printed, wanted).sum())
        if union == 0:
            return 1.0
        return float(np.logical_and(printed, wanted).sum() / union)

    theta = k_m * (2.0 * tv - 1.0)
    history, best, checked = [], None, []
    for step in range(cfg.steps + 1):
        loss, grad = loss_and_grad(theta)
        history.append(loss)
        if loss <= history[0]:
            checked.append(binarize(theta))
            key = (-fidelity(checked[-1]), loss, step)
            if best is None or key < best[:3]:
                best = (*key, theta.copy())
        if step < cfg.steps:
            theta = theta - cfg.learning_rate * grad
    mask = binarize(best[3])
    changed = sum(not np.array_equal(a, b) for a, b in zip(checked, checked[1:]))
    return mask, history, fidelity(mask), changed, len(checked)


class TestUncachedOracle:
    def test_bitwise_equal_to_uncached_loop(self, rng):
        litho = small_litho()
        cfg = IltConfig(steps=20, learning_rate=2e4)
        changes = repeats = 0
        for side in (20, 27):
            target = random_target(rng, side=side)
            mask, history, fid, changed, checked = uncached_optimize(target, litho, cfg)
            changes += changed
            repeats += checked - 1 - changed
            res = optimize_mask(target, litho, cfg)
            assert np.array_equal(res.mask.values, mask)
            assert res.mask.values.dtype == mask.dtype
            assert res.loss_history == history
            assert res.final_fidelity == fid
        # The binarized mask both changed and repeated between checks, so
        # the fidelity memo was both missed and hit.
        assert changes > 0 and repeats > 0

    def test_bitwise_equal_to_unpruned_transform_loop(self, rng):
        # The same loop with every convolution one rfftn/irfftn pair over
        # the whole padded transform.  The toy kernel (151 px) is longer
        # than the 40 x 56 target.  Steepnesses that are not powers of
        # two, so reordering any product would change bits.
        def unpruned(img, ker):
            return unpruned_convolver(ker, img.shape)(img)

        wide = make_grid(np.pad(random_target(rng, side=40).values, ((0, 0), (0, 16))))
        for litho, target in ((small_litho(), random_target(rng, side=27)), (LithoConfig(), wide)):
            cfg = IltConfig(
                steps=12, learning_rate=2e4,
                sigmoid_steepness_resist=23.0, sigmoid_steepness_mask=1.7,
            )
            mask, history, fid, _, _ = uncached_optimize(target, litho, cfg, unpruned)
            res = optimize_mask(target, litho, cfg)
            assert np.array_equal(res.mask.values, mask)
            assert res.loss_history == history
            assert res.final_fidelity == fid
            # A step's update is mostly below theta's last bit, so pin the
            # gradient itself: the plain expressions on the plain transform.
            theta = rng.normal(0.0, 3.0, target.shape)
            kv = litho.kernel(target.px_per_nm).values
            k_m, k_r, n = cfg.sigmoid_steepness_mask, cfg.sigmoid_steepness_resist, theta.size
            m = expit(k_m * theta)
            p = expit(k_r * (unpruned(m, kv) - litho.resist_threshold))
            r = p - target.values.astype(np.float64)
            want = unpruned((2.0 / n) * r * k_r * p * (1.0 - p), kv) * k_m * m * (1.0 - m)
            loss, grad = ilt_loss(target.with_values(theta), target, litho, cfg)
            assert loss == float(np.dot(r.ravel(), r.ravel()) / n)
            assert np.array_equal(grad.values.view(np.uint64), want.view(np.uint64))


class TestLossHistoryFile:
    def test_csv_format(self, rng, tmp_path):
        target = random_target(rng)
        res = optimize_mask(target, small_litho(), IltConfig(steps=4, learning_rate=2e4))
        path = tmp_path / "loss.csv"
        save_loss_history(res, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "loss"]
        assert len(rows) == len(res.loss_history) + 1
        assert float(rows[1][1]) == pytest.approx(res.loss_history[0], rel=1e-9)
