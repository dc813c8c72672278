import csv
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from conftest import make_grid, unpruned_convolver
from scipy.special import expit

from pixelret import ilt, pipeline
from pixelret.errors import DimMismatch, DivergenceError, ParamError, RangeError
from pixelret.ilt import IltConfig, ilt_loss, optimize_mask, save_loss_history
from pixelret.litho import (
    LithoConfig,
    aerial_image,
    fft_convolver,
    print_image,
    simulate_print,
)
from pixelret.grid import iou


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

    def test_fidelity_is_the_float64_print(self, rng):
        # The descent checks its iterates in float32; the result's fidelity
        # is the float64 print simulate_print gives, never below the
        # target's own.
        litho = small_litho()
        cfg = IltConfig(steps=20, learning_rate=2e4)
        for side in (16, 20, 27):
            target = random_target(rng, side=side)
            res = optimize_mask(target, litho, cfg)
            assert res.final_fidelity == iou(simulate_print(res.mask, litho), target)
            assert res.final_fidelity >= iou(simulate_print(target, litho), target)

    def test_target_returned_when_winner_prints_worse(self, monkeypatch):
        # Every iterate's relaxed mask complemented: the float32 checks
        # then rank masks that print far worse than the target in float64.
        real = ilt._loss_and_grad

        def complemented(*args):
            loss, grad, m = real(*args)
            return loss, grad, 1.0 - m

        monkeypatch.setattr(ilt, "_loss_and_grad", complemented)
        litho = small_litho()
        target = make_grid(np.pad(np.ones((12, 12), dtype=np.float32), 6))
        res = optimize_mask(target, litho, IltConfig(steps=6, learning_rate=2e4))
        assert res.mask.values.dtype == np.uint8
        assert np.array_equal(res.mask.values, target.values)
        assert res.final_fidelity == iou(simulate_print(target, litho), target)

    def test_float32_step_gradient_close_to_float64(self, rng):
        # Criterion 3 checks ilt_loss's float64 gradient; the descent runs
        # the float32 one.
        wide = make_grid(np.pad(random_target(rng, side=40).values, ((0, 0), (0, 16))))
        cfg = IltConfig()
        for litho, target in ((small_litho(), random_target(rng, side=27)), (LithoConfig(), wide)):
            theta = rng.normal(0.0, 3.0, target.shape)
            loss, want = ilt_loss(target.with_values(theta), target, litho, cfg)
            convolve = fft_convolver(
                litho.kernel(target.px_per_nm).values, target.shape, np.float32
            )
            loss32, got, m = ilt._loss_and_grad(
                theta.astype(np.float32), target.values.astype(np.float32), convolve,
                litho.resist_threshold, cfg.sigmoid_steepness_mask, cfg.sigmoid_steepness_resist,
            )
            assert got.dtype == np.float32 and m.dtype == np.float32
            assert loss32 == pytest.approx(loss, rel=1e-5)
            scale = np.max(np.abs(want.values))
            assert np.max(np.abs(got - want.values)) <= 1e-4 * scale

    def test_deterministic(self, rng):
        target = random_target(rng)
        cfg = IltConfig(steps=8, learning_rate=2e4)
        a = optimize_mask(target, small_litho(), cfg)
        b = optimize_mask(target, small_litho(), cfg)
        assert np.array_equal(a.mask.values, b.mask.values)
        assert a.loss_history == b.loss_history


def sigmoid(x):
    """The plain logistic expression, allocating its result."""
    return 1.0 / (1.0 + np.exp(-x))


class TestSigmoid:
    def test_close_to_expit(self):
        x = np.linspace(-40.0, 40.0, 200_001)
        got = ilt._sigmoid(x.copy())
        want = expit(x)
        # numpy's exp may be a SIMD routine a few ulp from libm's.
        assert np.all(np.abs(got - want) <= 8 * np.spacing(want))

    def test_saturates_without_warnings(self):
        x = np.array([-800.0, -710.0, 710.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ilt._sigmoid(x)
        assert got.tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_nan_and_in_place(self):
        x = np.array([np.nan, 0.0, 3.0])
        want = sigmoid(x)
        got = ilt._sigmoid(x)
        assert got is x
        assert np.isnan(got[0])
        assert np.array_equal(got[1:], want[1:])

    def test_float32_saturates_without_warnings(self):
        x = np.array([-100.0, -89.0, 89.0, 100.0], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ilt._sigmoid(x)
        assert got is x and got.dtype == np.float32
        assert got.tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_masks_same_as_with_expit(self, rng, monkeypatch):
        # numpy's exp and libm's differ in the last bits of a few elements;
        # that must not reach the masks or fidelities of the seeded targets.
        # The descent runs in float32, so loss histories are held to 45
        # float32 ulps, the float64 bound of 1e-14 counted in float32 ulps.
        litho = small_litho()
        cfg = IltConfig(steps=20, learning_rate=2e4)
        targets = [random_target(rng, side=side) for side in (16, 20, 27)]
        ours = [optimize_mask(t, litho, cfg) for t in targets]
        monkeypatch.setattr(ilt, "_sigmoid", lambda x: expit(x, out=x))
        for target, res in zip(targets, ours):
            ref = optimize_mask(target, litho, cfg)
            assert np.array_equal(res.mask.values, ref.mask.values)
            assert res.final_fidelity == ref.final_fidelity
            have, want = np.array(res.loss_history), np.array(ref.loss_history)
            assert np.all(np.abs(have - want) <= 45 * np.finfo(np.float32).eps * np.abs(want))

    def test_masks_same_as_with_expit_over_seeds(self, monkeypatch):
        # Beyond the fixture seed the descent's learning rate amplifies the
        # last-bit differences into loss histories; masks and fidelities
        # must still be equal on every target.
        litho = small_litho()
        cfg = IltConfig(steps=20, learning_rate=2e4)
        targets = []
        for seed in range(30):
            rng = np.random.Generator(np.random.PCG64(seed))
            targets += [random_target(rng, side=side) for side in (16, 20, 27)]
        ours = [optimize_mask(t, litho, cfg) for t in targets]
        monkeypatch.setattr(ilt, "_sigmoid", lambda x: expit(x, out=x))
        for target, res in zip(targets, ours):
            ref = optimize_mask(target, litho, cfg)
            assert np.array_equal(res.mask.values, ref.mask.values)
            assert res.final_fidelity == ref.final_fidelity


def pruned(img, ker, dtype=np.float64):
    return fft_convolver(ker, img.shape, dtype)(img)


def unpruned(img, ker, dtype=np.float64):
    return unpruned_convolver(ker, img.shape, dtype)(img)


def uncached_optimize(target, litho, cfg, convolve=pruned):
    """optimize_mask's loop as first written, in the float32 it descends
    in: every convolution transforms the kernel again, every elementwise
    step allocates its result, every admissible iterate is imaged, the
    loss is summed in float64, and the winner and the target are imaged
    once more in float64, the target returned if it prints better.  Also
    returns how often the binarized mask changed between admissible
    iterates, and their count."""
    kv = litho.kernel(target.px_per_nm).values
    tv = target.values.astype(np.float32)
    k_m, k_r, thr = cfg.sigmoid_steepness_mask, cfg.sigmoid_steepness_resist, litho.resist_threshold

    def loss_and_grad(theta):
        m = sigmoid(k_m * theta)
        p = sigmoid(k_r * (convolve(m, kv, np.float32) - thr))
        r = p - tv
        n = theta.size
        dldi = (2.0 / n) * r * k_r * p * (1.0 - p)
        grad = convolve(dldi, kv[::-1, ::-1], np.float32) * k_m * m * (1.0 - m)
        rr = r.ravel().astype(np.float64)
        return float(np.dot(rr, rr) / n), grad

    def binarize(theta):
        return (sigmoid(k_m * theta) > cfg.binarize_threshold).astype(np.uint8)

    def fidelity(mask, dtype):
        aerial = np.clip(convolve(mask.astype(dtype), kv, dtype), 0.0, 1.0)
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
            key = (-fidelity(checked[-1], np.float32), loss, step)
            if best is None or key < best[:3]:
                best = (*key, theta.copy())
        if step < cfg.steps:
            theta = theta - cfg.learning_rate * grad
    mask = binarize(best[3])
    as_is = (target.values != 0).astype(np.uint8)
    if fidelity(as_is, np.float64) > fidelity(mask, np.float64):
        mask = as_is
    changed = sum(not np.array_equal(a, b) for a, b in zip(checked, checked[1:]))
    return mask, history, fidelity(mask, np.float64), changed, len(checked)


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
            m = sigmoid(k_m * theta)
            p = sigmoid(k_r * (unpruned(m, kv) - litho.resist_threshold))
            r = p - target.values.astype(np.float64)
            want = unpruned((2.0 / n) * r * k_r * p * (1.0 - p), kv) * k_m * m * (1.0 - m)
            loss, grad = ilt_loss(target.with_values(theta), target, litho, cfg)
            assert loss == float(np.dot(r.ravel(), r.ravel()) / n)
            assert np.array_equal(grad.values.view(np.uint64), want.view(np.uint64))


def children():
    return {p.pid for p in multiprocessing.active_children()}


def assert_equals_oracle(rng):
    """optimize_mask against uncached_optimize on two seeded targets."""
    litho = small_litho()
    cfg = IltConfig(steps=20, learning_rate=2e4)
    for side in (20, 27):
        target = random_target(rng, side=side)
        mask, history, fid, _, _ = uncached_optimize(target, litho, cfg)
        res = optimize_mask(target, litho, cfg)
        assert np.array_equal(res.mask.values, mask)
        assert res.mask.values.dtype == mask.dtype
        assert res.loss_history == history
        assert res.final_fidelity == fid


def optimize_in_daemon(seed):
    """Runs in a pool worker, which may not start a process."""
    assert multiprocessing.current_process().daemon
    assert_equals_oracle(np.random.Generator(np.random.PCG64(seed)))
    return os.getpid()


TWO_CPUS = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs 2 CPUs to fork"
)


def prepare_fork():
    """Asserts that this process runs one thread, as a new program that
    imports pixelret first does, so that ILT may fork its checker."""
    assert ilt._may_fork(), "this process runs other threads, such as a BLAS pool's"


@pytest.fixture(params=["inline", pytest.param("forked", marks=TWO_CPUS)])
def checker_path(request, monkeypatch):
    """Runs the test with the selection inline and in a forked checker,
    then checks that the calling thread's CPUs were restored."""
    if request.param == "inline":
        monkeypatch.setattr(ilt.os, "sched_getaffinity", lambda pid: {0})
    else:
        prepare_fork()
    cpus = os.sched_getaffinity(0)
    yield request.param
    assert os.sched_getaffinity(0) == cpus


@pytest.fixture
def checker_pids(monkeypatch):
    """The pids _Selector.add runs in, as far as this process sees them:
    a forked checker's calls stay in the checker."""
    pids = []
    real = ilt._Selector.add

    def add(self, *item):
        pids.append(os.getpid())
        return real(self, *item)

    monkeypatch.setattr(ilt._Selector, "add", add)
    return pids


class TestChecker:
    """The selection runs in a forked checker process, or inline where the
    caller may not start one, has a single CPU or runs other threads; the
    bits are the same."""

    @TWO_CPUS
    def test_forked(self, rng, checker_pids):
        prepare_fork()
        before, cpus = children(), os.sched_getaffinity(0)
        assert_equals_oracle(rng)
        assert checker_pids == []
        assert children() == before
        assert os.sched_getaffinity(0) == cpus

    @TWO_CPUS
    def test_forks_in_a_fresh_interpreter(self):
        # The default configuration: a new process that imports pixelret
        # before numpy, with no BLAS thread count in its environment.
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(ilt.__file__)), os.path.dirname(__file__)]
        )
        code = (
            "import os, pixelret\n"
            "forks = []\n"
            "os.register_at_fork(after_in_parent=lambda: forks.append(1))\n"
            "import numpy as np, test_ilt\n"
            "assert pixelret.ilt._may_fork()\n"
            "test_ilt.assert_equals_oracle(np.random.Generator(np.random.PCG64(0)))\n"
            "assert len(forks) == 2, forks\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr

    def test_inline_on_one_cpu(self, rng, monkeypatch, checker_pids):
        monkeypatch.setattr(ilt.os, "sched_getaffinity", lambda pid: {0})
        assert_equals_oracle(rng)
        assert checker_pids and set(checker_pids) == {os.getpid()}

    @TWO_CPUS
    def test_inline_where_the_platform_cannot_tell(self, rng, monkeypatch, checker_pids):
        # No os.sched_getaffinity, as on macOS, or no /proc/self/task.
        prepare_fork()
        with monkeypatch.context() as m:
            m.delattr(ilt.os, "sched_getaffinity", raising=False)
            assert_equals_oracle(rng)
        assert checker_pids and set(checker_pids) == {os.getpid()}
        checked, real = len(checker_pids), os.listdir

        def listdir(path="."):
            if str(path).startswith("/proc"):
                raise FileNotFoundError(path)
            return real(path)

        with monkeypatch.context() as m:
            m.setattr(ilt.os, "listdir", listdir)
            assert_equals_oracle(rng)
        assert len(checker_pids) > checked and set(checker_pids) == {os.getpid()}

    def test_inline_beside_another_thread(self, rng, checker_pids):
        done = threading.Event()
        waiting = threading.Thread(target=done.wait, args=(60,))
        waiting.start()
        try:
            assert_equals_oracle(rng)
        finally:
            done.set()
            waiting.join(60)
        assert not waiting.is_alive()
        assert checker_pids and set(checker_pids) == {os.getpid()}

    def test_inline_in_daemonic_worker(self):
        with multiprocessing.get_context("fork").Pool(1) as pool:
            pid = pool.apply_async(optimize_in_daemon, (0,)).get(timeout=120)
        assert pid != os.getpid()

    def test_no_process_left_after_divergence(self, rng, monkeypatch, checker_path):
        real, calls = ilt._loss_and_grad, []

        def diverging(*args):
            loss, grad, m = real(*args)
            calls.append(step := len(calls))
            return (float("nan") if step == 3 else loss), grad, m

        monkeypatch.setattr(ilt, "_loss_and_grad", diverging)
        before = children()
        with pytest.raises(DivergenceError, match="step 3"):
            optimize_mask(random_target(rng), small_litho(), IltConfig(steps=8, learning_rate=2e4))
        assert children() == before

    def test_checker_exception_reaches_caller(self, rng, monkeypatch, checker_path):
        def failing(self, loss, step, bits):
            if step == 2:
                raise ZeroDivisionError("check failed at step 2")

        monkeypatch.setattr(ilt._Selector, "add", failing)
        before = children()
        # After the failure the caller still sends 18 masks of 32 KiB,
        # more than a socket buffer holds.
        with pytest.raises(ZeroDivisionError, match="step 2"):
            optimize_mask(random_target(rng, side=512), small_litho(), IltConfig(steps=20))
        assert children() == before

    @TWO_CPUS
    def test_checker_gone_without_result_named(self, rng, monkeypatch):
        def silent(conn, caller_end, *selector_args):
            # Reads every message up to the sentinel, then exits unanswered.
            caller_end.close()
            for _ in iter(conn.recv, None):
                pass

        monkeypatch.setattr(ilt, "_check", silent)
        prepare_fork()
        before = children()
        with pytest.raises(RuntimeError, match="exited without a result"):
            optimize_mask(random_target(rng), small_litho(), IltConfig(steps=8, learning_rate=2e4))
        assert children() == before

    @TWO_CPUS
    def test_with_worker_pool_alive(self, rng, checker_pids):
        # Inference workers start no thread here, so the checker still
        # forks, and the call leaves the workers running.
        pipeline._worker_pool(2)
        workers = [w.proc for w in pipeline._pool[1]]
        prepare_fork()
        before = children()
        assert {proc.pid for proc in workers} <= before
        assert_equals_oracle(rng)
        assert checker_pids == []
        assert children() == before
        assert all(proc.is_alive() for proc in workers)


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
