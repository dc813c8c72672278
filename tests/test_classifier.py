import json
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from pixelret import classifier
from pixelret.classifier import (
    BLOCK_BYTES,
    BLOCK_IMAGES,
    ArchDescriptor,
    ConvBlock,
    ModelParams,
    TrainConfig,
    _forward,
    _softmax64,
    backward,
    inference_block,
    init_model,
    load_model,
    predict,
    predict_batch,
    save_model,
    train,
)
from pixelret.cli import load_config
from pixelret.errors import (
    ArchError,
    ChecksumError,
    FormatError,
    ParamError,
    ShapeError,
)
from pixelret.iip import IipConfig, make_iik
from pixelret.layout import LayoutPattern, rasterize
from pixelret.tiling import (
    PixelDataset,
    Planes,
    TilingConfig,
    WindowStack,
    build_dataset,
    merge_datasets,
    split_dataset,
)


def rect(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def tiny_arch(input_side=8, num_classes=5):
    return ArchDescriptor(
        input_side=input_side,
        num_classes=num_classes,
        conv_blocks=[ConvBlock(4), ConvBlock(8)],
    )


def tiny_dataset(cap=40):
    tiling = TilingConfig(
        interaction_distance=8.0, px_per_nm=1.0, compression_factor=2,
        row_reducer="mean", col_reducer="mean",
    )
    pattern = LayoutPattern([rect(8, 8, 24, 24)])
    ref = rasterize(LayoutPattern([rect(6, 6, 26, 26)]), 1.0, (0, 0, 32, 32))
    iik = make_iik("gaussian", 2.0, 6.0, 1.0)
    ds = build_dataset(
        pattern, ref, tiling, IipConfig(num_classes=5, iik=iik),
        per_class_cap=cap, seed=0,
    )
    return split_dataset(ds, (0.6, 0.2, 0.2), seed=1)


# Per-sample training step, kept as the oracle for the shared forward's and
# backward's batch-wide GEMMs: every conv product and patch scatter runs
# sample by sample in an (n, c, h, w) layout.

def _im2col(x, k, s):
    n, c, h, w = x.shape
    oh = (h - k) // s + 1
    ow = (w - k) // s + 1
    cols = np.empty((n, c, k, k, oh, ow), dtype=x.dtype)
    for ky in range(k):
        for kx in range(k):
            cols[:, :, ky, kx] = x[:, :, ky : ky + s * oh : s, kx : kx + s * ow : s]
    return cols.reshape(n, c * k * k, oh * ow), oh, ow


def _col2im(dcols, xshape, k, s, oh, ow):
    n, c, h, w = xshape
    dx = np.zeros(xshape, dtype=dcols.dtype)
    dc = dcols.reshape(n, c, k, k, oh, ow)
    for ky in range(k):
        for kx in range(k):
            dx[:, :, ky : ky + s * oh : s, kx : kx + s * ow : s] += dc[:, :, ky, kx]
    return dx


def per_sample_forward(m, images):
    """Logits and, per conv layer, (input shape, im2col columns,
    pre-activation, oh, ow)."""
    x = images[:, None, :, :]
    cache = []
    for i, b in enumerate(m.arch.conv_blocks):
        w2 = m.weights[f"conv{i}_w"].reshape(b.filters, -1)
        cols, oh, ow = _im2col(x, b.kernel, b.stride)
        z = np.matmul(w2, cols) + m.weights[f"conv{i}_b"][None, :, None]
        cache.append((x.shape, cols, z, oh, ow))
        x = np.maximum(z, 0.0).reshape(x.shape[0], b.filters, oh, ow)
    gap = x.mean(axis=(2, 3))
    logits = np.matmul(gap[:, None, :], m.weights["dense_w"].T)[:, 0] + m.weights["dense_b"]
    return logits, cache, gap, x.shape


def record_forward(monkeypatch):
    """Route classifier._forward through a recorder; returns the list of
    (images, logits) of every call."""
    calls = []

    def recording(m, images, cache=None):
        logits = _forward(m, images, cache)
        calls.append((images, logits))
        return logits

    monkeypatch.setattr(classifier, "_forward", recording)
    return calls


def block_logits(m, images):
    """Logits of images run in one fixed block each: images[i] goes to
    slot i of a zero-padded inference block."""
    block = inference_block(m.arch)
    assert len(images) <= block
    x = np.zeros((block,) + images.shape[1:], dtype=np.float32)
    x[: len(images)] = images
    return _forward(m, x)[: len(images)]


def per_sample_backward(m, images, labels):
    logits, cache, gap, xshape = per_sample_forward(m, images)
    n = images.shape[0]
    probs = _softmax64(logits)
    loss = float(-np.mean(np.log(np.maximum(probs[np.arange(n), labels], 1e-300))))
    dlogits = probs
    dlogits[np.arange(n), labels] -= 1.0
    dlogits = (dlogits / n).astype(np.float32)
    grads = {"dense_w": dlogits.T @ gap, "dense_b": dlogits.sum(axis=0)}
    dgap = dlogits @ m.weights["dense_w"]
    _, f, oh, ow = xshape
    dx = np.broadcast_to(dgap[:, :, None, None] / (oh * ow), xshape).astype(np.float32)
    for i in range(len(m.arch.conv_blocks) - 1, -1, -1):
        b = m.arch.conv_blocks[i]
        in_shape, cols, z, oh, ow = cache[i]
        dz = dx.reshape(dx.shape[0], b.filters, oh * ow) * (z > 0.0).astype(np.float32)
        grads[f"conv{i}_b"] = dz.sum(axis=(0, 2))
        dw2 = np.matmul(dz, cols.transpose(0, 2, 1)).sum(axis=0)
        grads[f"conv{i}_w"] = dw2.reshape(m.weights[f"conv{i}_w"].shape)
        if i:
            w2 = m.weights[f"conv{i}_w"].reshape(b.filters, -1)
            dx = _col2im(np.matmul(w2.T, dz), in_shape, b.kernel, b.stride, oh, ow)
    return loss, grads


# The batch-last patch copy and scatter that classifier._im2col and
# _col2im replaced, kept as their bitwise oracles: one reshape of a strided
# window view, whose copy moves runs of n values, and nine strided adds
# into a zeroed input.

def window_view_im2col(x, k, s):
    v = sliding_window_view(x, (k, k), axis=(1, 2))[:, ::s, ::s]
    c, oh, ow, n = v.shape[:4]
    return v.transpose(0, 4, 5, 1, 2, 3).reshape(c * k * k, oh * ow * n), oh, ow


def nine_add_col2im(dcols, xshape, k, s, oh, ow):
    dx = np.zeros(xshape, dtype=dcols.dtype)
    dc = dcols.reshape(xshape[0], k, k, oh, ow, xshape[3])
    for ky in range(k):
        for kx in range(k):
            dx[:, ky : ky + s * oh : s, kx : kx + s * ow : s] += dc[:, ky, kx]
    return dx


class TestPatchCopies:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_match_oracles(self, rng, s, k):
        for side in (7, 8, 11, 12):
            for c in (1, 8):
                for n in (1, 32):
                    x = rng.standard_normal((c, side, side, n)).astype(np.float32)
                    cols, oh, ow = classifier._im2col(x, k, s)
                    want, *want_sides = window_view_im2col(x, k, s)
                    assert [oh, ow] == want_sides
                    assert cols.shape == want.shape and np.array_equal(cols, want)
                    # Signed zeros included, so that the sums' order shows.
                    d = rng.standard_normal(cols.shape).astype(np.float32)
                    d[:, ::5] = -0.0
                    dx = classifier._col2im(d, x.shape, k, s, oh, ow)
                    want = nine_add_col2im(d, x.shape, k, s, oh, ow)
                    assert dx.shape == want.shape
                    assert np.array_equal(dx.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("toy, n", [(True, 32), (False, 4)], ids=["toy", "default"])
    def test_training_and_inference_match_oracles(self, rng, monkeypatch, toy, n):
        arch = load_config(None, toy, {}).arch()
        m = init_model(arch, seed=5)
        images = rng.random((n, arch.input_side, arch.input_side)).astype(np.float32)
        labels = rng.integers(0, arch.num_classes, n)

        def run():
            loss, grads = backward(m, (images, labels))
            return loss, grads, _forward(m, images), predict_batch(m, images)

        got = run()
        monkeypatch.setattr(classifier, "_im2col", window_view_im2col)
        monkeypatch.setattr(classifier, "_col2im", nine_add_col2im)
        want = run()
        assert got[0] == want[0]
        assert sorted(got[1]) == sorted(want[1])
        for name, g in want[1].items():
            assert np.array_equal(got[1][name].view(np.uint32), g.view(np.uint32)), name
        assert np.array_equal(got[2].view(np.uint32), want[2].view(np.uint32))
        assert np.array_equal(got[3], want[3])


class TestArchValidation:
    def test_conv_block_params(self):
        with pytest.raises(ArchError):
            ConvBlock(0)
        with pytest.raises(ArchError):
            ConvBlock(8, kernel=4)
        with pytest.raises(ArchError):
            ConvBlock(8, stride=0)
        with pytest.raises(ArchError):
            ConvBlock(8, activation="tanh")
        # Counts must be integers; a float or a bool is refused by name.
        for key, value in (("filters", 2.5), ("filters", True), ("kernel", 3.0), ("stride", 2.0)):
            with pytest.raises(ArchError, match=key):
                ConvBlock(**{"filters": 4, key: value})

    def test_descriptor_params(self):
        with pytest.raises(ArchError):
            ArchDescriptor(8, 5, [])
        with pytest.raises(ArchError):
            ArchDescriptor(8, 1, [ConvBlock(4)])
        with pytest.raises(ArchError):
            ArchDescriptor(8, 5, [ConvBlock(4)], pool="max")
        # Counts must be integers; a float or a bool is refused by name.
        for key, value in (
            ("num_classes", 2.5), ("num_classes", 5.0), ("num_classes", True),
            ("input_side", 50.0), ("input_side", True), ("input_side", 0),
        ):
            with pytest.raises(ArchError, match=key):
                ArchDescriptor(**{"input_side": 8, "num_classes": 5, key: value,
                                  "conv_blocks": [ConvBlock(4)]})

    def test_spatial_collapse_rejected(self):
        # 8 -> 3 -> 1, a third 3x3 block has nothing left to convolve
        with pytest.raises(ArchError):
            ArchDescriptor(8, 5, [ConvBlock(4), ConvBlock(8), ConvBlock(16)])

    def test_feature_sides(self):
        a = ArchDescriptor(50, 20, [ConvBlock(8), ConvBlock(16), ConvBlock(32)])
        assert a.feature_sides == [50, 24, 11, 5]

    def test_dict_roundtrip(self):
        a = tiny_arch()
        b = ArchDescriptor.from_dict(a.to_dict())
        assert b.to_dict() == a.to_dict()


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ParamError):
            TrainConfig(epochs=0)
        with pytest.raises(ParamError):
            TrainConfig(batch_size=0)
        with pytest.raises(ParamError):
            TrainConfig(learning_rate=-0.1)
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ParamError, match="learning_rate"):
                TrainConfig(learning_rate=value)
        TrainConfig(learning_rate=0.0)  # freeze is legal
        for key, value in (("epochs", 1.5), ("epochs", True), ("batch_size", 2.5)):
            with pytest.raises(ParamError, match=key):
                TrainConfig(**{key: value})


class TestInitAndForward:
    def test_init_deterministic(self):
        a = init_model(tiny_arch(), seed=7)
        b = init_model(tiny_arch(), seed=7)
        assert a.checksum() == b.checksum()
        c = init_model(tiny_arch(), seed=8)
        assert a.checksum() != c.checksum()

    def test_weights_float32(self):
        m = init_model(tiny_arch(), seed=0)
        for v in m.weights.values():
            assert v.dtype == np.float32

    def test_forward_probability_simplex(self, rng):
        m = init_model(tiny_arch(), seed=0)
        x = rng.random((1, 8, 8)).astype(np.float32)
        logits = _forward(m, x)
        probs = _softmax64(logits)[0]
        assert probs.shape == (5,)
        assert logits.shape == (1, 5)
        assert probs.min() >= 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_logits_independent_of_batch(self, rng, monkeypatch):
        # Deployment maps must not depend on batch size or chunking:
        # predict_batch runs only full blocks, and an image's logits are
        # those it gets alone in a zero-padded block.
        m = init_model(ArchDescriptor(8, 5, [ConvBlock(16), ConvBlock(64)]), seed=0)
        block = inference_block(m.arch)
        xs = rng.random((2 * block + 5, 8, 8)).astype(np.float32)
        alone = np.concatenate([block_logits(m, x[None]) for x in xs])
        calls = record_forward(monkeypatch)
        predict_batch(m, xs)
        assert [len(images) for images, _ in calls] == [block] * 3
        batched = np.concatenate([logits for _, logits in calls])[: len(xs)]
        assert np.array_equal(batched, alone)

    def test_predict_in_range(self, rng):
        m = init_model(tiny_arch(), seed=0)
        for _ in range(5):
            x = rng.random((8, 8)).astype(np.float32)
            assert 0 <= predict(m, x) < 5

    def test_predict_batch_matches_single(self, rng):
        # The default CLI arch gets small blocks, so this batch spans
        # several of them.
        m = init_model(load_config(None, False, {}).arch(), seed=0)
        side = m.arch.input_side
        xs = rng.random((inference_block(m.arch) + 3, side, side)).astype(np.float32)
        batched = predict_batch(m, xs)
        singles = np.array([predict(m, x) for x in xs])
        assert np.array_equal(batched, singles)

    def test_inference_block_fills_budget(self, rng):
        arch = load_config(None, False, {}).arch()
        block = inference_block(arch)
        m = init_model(arch, seed=0)
        x = rng.random((block, arch.input_side, arch.input_side)).astype(np.float32)
        cache = []
        _forward(m, x, cache)
        # Per layer of the batch-last forward: im2col columns and activation.
        largest = max(cols.nbytes + a.nbytes for _, cols, a, _, _ in cache[:-1])
        assert largest <= BLOCK_BYTES
        assert largest // block * (block + 1) > BLOCK_BYTES
        assert inference_block(tiny_arch()) == BLOCK_IMAGES > inference_block(arch)

    def test_predict_shape_mismatch(self, rng):
        m = init_model(tiny_arch(), seed=0)
        with pytest.raises(ShapeError):
            predict(m, rng.random((9, 9)).astype(np.float32))


# The archs whose fixed-block invariance is checked: the two CLI profiles,
# a tiny arch with thousands of images per block, and stride-1 blocks with a
# 5x5 kernel.
INVARIANCE_ARCHS = {
    "toy": load_config(None, True, {}).arch(),
    "default": load_config(None, False, {}).arch(),
    "tiny": tiny_arch(),
    "stride1": ArchDescriptor(12, 6, [ConvBlock(4, stride=1), ConvBlock(8, kernel=5, stride=1)]),
}


class TestFixedBlockInvariance:
    """An image's logits in a block of inference_block images are bitwise
    the same whatever its slot, its block-mates, a zero-padded tail or
    predict_batch's batch size.  Deployed maps rely on this to be
    independent of chunks, workers and recorrect regions; it comes from
    the fixed GEMM call shapes, and is checked here, not assumed."""

    @pytest.fixture(params=sorted(INVARIANCE_ARCHS))
    def setup(self, request, rng):
        arch = INVARIANCE_ARCHS[request.param]
        m = init_model(arch, seed=2)
        block, side = inference_block(arch), arch.input_side
        pool = rng.random((max(2 * block + 3, 7), side, side)).astype(np.float32)
        pool[1::3] = pool[1::3] > 0.5  # binary images, like rasterized layouts
        probe = np.unique(np.r_[0, 1, 6, block - 1, block, block + 2,
                                rng.integers(0, len(pool), 6)])
        alone = {int(i): block_logits(m, pool[i : i + 1])[0] for i in probe}
        return m, block, pool, alone

    def test_slot_permutations(self, rng, setup):
        m, block, pool, alone = setup
        for _ in range(3):
            perm = rng.permutation(block)
            logits = _forward(m, pool[perm])
            for slot, i in enumerate(perm):
                if i in alone:
                    assert np.array_equal(logits[slot], alone[i])

    def test_block_mates(self, rng, setup):
        m, block, pool, alone = setup
        for i, want in alone.items():
            mates = rng.choice(len(pool), block, replace=False)
            slot = int(rng.integers(block))
            mates[slot] = i
            assert np.array_equal(_forward(m, pool[mates])[slot], want)

    def test_zero_padded_tail(self, setup):
        m, block, pool, alone = setup
        for k in sorted({1, max(1, block // 2), block}):
            logits = block_logits(m, pool[:k])
            for i, want in alone.items():
                if i < k:
                    assert np.array_equal(logits[i], want)

    def test_predict_batch_sizes(self, setup, monkeypatch):
        m, block, pool, alone = setup
        stack = WindowStack.of_array(pool)
        calls = record_forward(monkeypatch)
        for n in (1, 7, block, block + 3):
            calls.clear()
            classes = predict_batch(m, pool[:n])
            assert all(len(images) == block for images, _ in calls)
            logits = np.concatenate([lg for _, lg in calls])[:n]
            assert np.array_equal(classes, np.argmax(logits, axis=1))
            for i, want in alone.items():
                if i < n:
                    assert np.array_equal(logits[i], want)
            # A WindowStack runs the same blocks as the materialized array.
            calls.clear()
            assert np.array_equal(predict_batch(m, stack.take(np.arange(n))), classes)
            assert [len(images) for images, _ in calls] == [block] * -(-n // block)


def filled_windows(raster, flat, t):
    """Field-backed windows of the raster pixels with the given flat
    indices, from the raster's Planes filled for them."""
    planes = Planes(raster, t)
    planes.fill(flat)
    return planes.windows(flat)


def test_predict_batch_reads_one_block_at_a_time():
    # 8,190 field-backed windows of 16x16 px in 64 blocks: an 8.4 MB stack,
    # which predict_batch must never hold; a quarter of it bounds the peak.
    t = TilingConfig(interaction_distance=16.0, px_per_nm=1.0, compression_factor=2)
    raster = rasterize(LayoutPattern([rect(20, 20, 80, 70)]), 1.0, (0, 0, 100, 100))
    ys, xs = np.mgrid[5:95, 5:96]
    windows = filled_windows(raster, (ys * raster.width + xs).ravel(), t)
    m = init_model(tiny_arch(input_side=t.output_side), seed=0)
    stack = 4 * len(windows) * t.output_side**2
    assert inference_block(m.arch) * 60 < len(windows)
    tracemalloc.start()
    try:
        classes = predict_batch(m, windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack / 4, peak
    assert np.array_equal(classes, predict_batch(m, np.asarray(windows)))
    # The shape is checked before any window is read.
    with pytest.raises(ShapeError):
        predict_batch(init_model(tiny_arch(), seed=0), windows)


def rectangle_windows(side):
    """Field-backed 16 x 16 px windows of every pixel of a side x side px
    raster holding one rectangle: long uniform runs, so most windows have
    equal copies."""
    t = TilingConfig(interaction_distance=16.0, px_per_nm=1.0, compression_factor=2)
    raster = rasterize(LayoutPattern([rect(20, 20, side - 20, side - 30)]), 1.0, (0, 0, side, side))
    return filled_windows(raster, np.arange(side * side), t)


class TestDistinctImages:
    """predict_batch classifies each distinct image of a group once; its
    classes are still bitwise those of each image on its own."""

    def images(self, rng):
        """Copies of a few images, binary and not, with signed zeros."""
        base = rng.random((12, 8, 8)).astype(np.float32)
        base[::2] = base[::2] > 0.5
        base[3] = 0.0
        base[4] = -0.0
        return base[rng.integers(0, len(base), 300)]

    def test_copies_classified_once(self, rng, monkeypatch):
        m = init_model(tiny_arch(), seed=3)
        images = self.images(rng)
        want = np.array([predict(m, x) for x in images])
        calls = record_forward(monkeypatch)
        assert np.array_equal(predict_batch(m, images), want)
        assert [len(x) for x, _ in calls] == [inference_block(m.arch)]

    def test_every_fingerprint_colliding(self, rng, monkeypatch):
        # A zero probe gives every image the same fingerprint, so only the
        # bit compare keeps unequal images apart.
        m = init_model(tiny_arch(), seed=3)
        images = self.images(rng)
        want = np.array([predict(m, x) for x in images])
        monkeypatch.setattr(classifier, "_probe", lambda size: np.zeros(size, np.float32))
        assert np.array_equal(predict_batch(m, images), want)
        assert np.array_equal(predict_batch(m, WindowStack.of_array(images)), want)

    def test_groups_match_one_group(self, monkeypatch):
        windows = rectangle_windows(100)
        m = init_model(tiny_arch(input_side=windows.shape[1]), seed=0)
        monkeypatch.setattr(classifier, "GROUP_IMAGES", len(windows))
        whole = predict_batch(m, windows)
        for images in (7, 100, 1000):
            monkeypatch.setattr(classifier, "GROUP_IMAGES", images)
            assert np.array_equal(predict_batch(m, windows), whole)

    def test_peak_does_not_grow_with_images(self, monkeypatch):
        # Groups of 1,000 images, windows of 1 KB: beyond 16 bytes of class
        # and index per image, the peak holds a group's fingerprints and
        # indices and the windows of one block's compare or forward, a
        # bound that the 10 and 41 MB stacks do not move.
        monkeypatch.setattr(classifier, "GROUP_IMAGES", 1000)
        for side in (100, 200):
            windows = rectangle_windows(side)
            m = init_model(tiny_arch(input_side=windows.shape[1]), seed=0)
            tracemalloc.start()
            try:
                predict_batch(m, windows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - 16 * len(windows) < 1_000_000, (side, peak)


class TestBackward:
    @pytest.mark.parametrize("arch, n", [
        (load_config(None, True, {}).arch(), 1),
        (load_config(None, True, {}).arch(), 7),
        (load_config(None, True, {}).arch(), 32),
        (ArchDescriptor(12, 6, [ConvBlock(4, stride=1), ConvBlock(8, kernel=5, stride=1)]), 9),
    ])
    def test_matches_per_sample_oracle(self, rng, monkeypatch, arch, n):
        m = init_model(arch, seed=4)
        images = rng.random((n, arch.input_side, arch.input_side)).astype(np.float32)
        labels = rng.integers(0, arch.num_classes, n).astype(np.uint16)
        loss, grads = backward(m, (images, labels))
        want_loss, want = per_sample_backward(m, images, labels)
        # The loss is computed from float32 logits whose products now sum
        # in another order, so it is asked to agree to float32 rounding.
        assert loss == pytest.approx(want_loss, rel=np.finfo(np.float32).eps)
        assert sorted(grads) == sorted(want)
        for name, g in want.items():
            assert grads[name].dtype == np.float32
            assert grads[name].shape == m.weights[name].shape
            err = np.max(np.abs(grads[name] - g))
            assert err <= 1e-5 * np.max(np.abs(g)), name
        # The oracle's logits agree with the shared forward's to float32
        # rounding, and backward's forward is inference's bit for bit on
        # one full block.
        want_logits = per_sample_forward(m, images)[0]
        err = np.max(np.abs(_forward(m, images) - want_logits))
        assert err <= 1e-5 * np.max(np.abs(want_logits))
        side = arch.input_side
        full = rng.random((inference_block(arch), side, side)).astype(np.float32)
        calls = record_forward(monkeypatch)
        backward(m, (full, np.zeros(len(full), dtype=np.int64)))
        predict_batch(m, full)
        assert len(calls) == 2
        assert np.array_equal(calls[0][1], calls[1][1])

    @pytest.mark.parametrize("labels", [[0, -1], [0.0, 1.0], [0, 5], [[0, 1]]])
    def test_bad_labels_rejected(self, rng, labels):
        m = init_model(tiny_arch(), seed=0)
        images = rng.random((2, 8, 8)).astype(np.float32)
        with pytest.raises(ShapeError):
            backward(m, (images, np.array(labels)))


class TestTraining:
    def test_loss_decreases(self):
        ds = tiny_dataset()
        m = init_model(tiny_arch(), seed=0)
        _, hist = train(m, ds, TrainConfig(epochs=8, batch_size=8, learning_rate=0.05))
        assert len(hist["train_loss"]) == 8
        assert len(hist["val_accuracy"]) == 8
        assert hist["train_loss"][-1] < hist["train_loss"][0]

    def test_bitwise_deterministic(self):
        ds = tiny_dataset()
        m = init_model(tiny_arch(), seed=0)
        cfg = TrainConfig(epochs=4, batch_size=8, learning_rate=0.05, seed=3)
        m1, h1 = train(m, ds, cfg)
        m2, h2 = train(m, ds, cfg)
        assert m1.checksum() == m2.checksum()
        assert h1 == h2

    def test_train_seed_changes_result(self):
        ds = tiny_dataset()
        m = init_model(tiny_arch(), seed=0)
        m1, _ = train(m, ds, TrainConfig(epochs=3, batch_size=8, seed=1))
        m2, _ = train(m, ds, TrainConfig(epochs=3, batch_size=8, seed=2))
        assert m1.checksum() != m2.checksum()

    def test_best_epoch_snapshot(self):
        ds = tiny_dataset()
        m = init_model(tiny_arch(), seed=0)
        out, hist = train(m, ds, TrainConfig(epochs=6, batch_size=8))
        acc = hist["val_accuracy"]
        best = out.train_meta["best_epoch"]
        assert acc[best] == max(acc)
        assert acc.index(max(acc)) == best  # ties resolve to earlier epoch
        assert out.train_meta["final_val_accuracy"] == max(acc)

    def test_zero_lr_freezes_weights(self):
        ds = tiny_dataset()
        m = init_model(tiny_arch(), seed=0)
        out, _ = train(m, ds, TrainConfig(epochs=2, batch_size=8, learning_rate=0.0))
        assert out.checksum() == m.checksum()

    def test_provenance_carried(self):
        ds = tiny_dataset()
        m = init_model(tiny_arch(), seed=0)
        out, _ = train(m, ds, TrainConfig(epochs=1, batch_size=8))
        for key in ("interaction_distance", "px_per_nm", "compression_factor",
                    "row_reducer", "col_reducer", "num_classes"):
            assert key in out.train_meta

    def test_field_backed_matches_materialized(self):
        # Two sources, so batches read windows from both fields.
        tiling = TilingConfig(
            interaction_distance=8.0, px_per_nm=1.0, compression_factor=2,
            row_reducer="mean", col_reducer="mean",
        )
        ref = rasterize(LayoutPattern([rect(6, 6, 26, 26)]), 1.0, (0, 0, 32, 32))
        iip_cfg = IipConfig(num_classes=5, iik=make_iik("gaussian", 2.0, 6.0, 1.0))
        parts = [
            build_dataset(LayoutPattern([r]), ref, tiling, iip_cfg, per_class_cap=30, seed=s)
            for s, r in enumerate((rect(8, 8, 24, 24), rect(4, 10, 28, 20)))
        ]
        ds = split_dataset(merge_datasets(parts), (0.6, 0.2, 0.2), seed=1)
        assert len(ds.images.sources) == 2
        flat = PixelDataset(np.asarray(ds.images), ds.labels, ds.coords, ds.splits, dict(ds.meta))
        m = init_model(tiny_arch(), seed=0)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=2)
        got, got_hist = train(m, ds, cfg)
        want, want_hist = train(m, flat, cfg)
        assert got_hist == want_hist
        for k in want.weights:
            assert np.array_equal(got.weights[k], want.weights[k])

    def test_class_count_mismatch(self):
        ds = tiny_dataset()
        m = init_model(tiny_arch(num_classes=7), seed=0)
        with pytest.raises(ShapeError):
            train(m, ds, TrainConfig(epochs=1))

    def test_image_side_mismatch(self):
        ds = tiny_dataset()
        m = init_model(tiny_arch(input_side=10), seed=0)
        with pytest.raises(ShapeError):
            train(m, ds, TrainConfig(epochs=1))


class TestModelIO:
    def test_roundtrip(self, tmp_path):
        ds = tiny_dataset()
        m = init_model(tiny_arch(), seed=0)
        out, _ = train(m, ds, TrainConfig(epochs=2, batch_size=8))
        p = tmp_path / "model.bin"
        save_model(out, p)
        back = load_model(p)
        assert back.checksum() == out.checksum()
        assert back.arch.to_dict() == out.arch.to_dict()
        assert back.train_meta == out.train_meta
        for k in out.weights:
            assert np.array_equal(back.weights[k], out.weights[k])

    def test_payload_corruption_rejected(self, tmp_path):
        m = init_model(tiny_arch(), seed=0)
        p = tmp_path / "model.bin"
        save_model(m, p)
        raw = bytearray(p.read_bytes())
        raw[-3] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_model(p)

    def test_truncation_rejected(self, tmp_path):
        m = init_model(tiny_arch(), seed=0)
        p = tmp_path / "model.bin"
        save_model(m, p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_model(p)

    def test_garbage_header_rejected(self, tmp_path):
        p = tmp_path / "model.bin"
        p.write_bytes(b"\x00\x01\x02 not json\n" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_model(p)

    def test_wrong_format_tag_rejected(self, tmp_path):
        p = tmp_path / "model.bin"
        p.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(FormatError):
            load_model(p)
        p.write_bytes(b'["pixel-correction-model"]\n')
        with pytest.raises(FormatError):
            load_model(p)

    @pytest.mark.parametrize("field", ["tensors", "payload_sha256", "arch", "seed"])
    def test_header_field_missing(self, tmp_path, field):
        p = tmp_path / "model.bin"
        save_model(init_model(tiny_arch(), seed=0), p)
        head, payload = p.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        del header[field]
        p.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(FormatError, match=field):
            load_model(p)

    def test_arch_disagreeing_with_manifest_rejected(self, tmp_path):
        # The arch claims 4 filters over a 2-filter payload whose digest holds.
        p = tmp_path / "model.bin"
        save_model(init_model(ArchDescriptor(8, 5, [ConvBlock(2)]), seed=0), p)
        head, payload = p.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["arch"]["conv_blocks"][0]["filters"] = 4
        p.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(FormatError, match="manifest"):
            load_model(p)

    @pytest.mark.parametrize("arch", [
        {"num_classes": 5, "conv_blocks": [{"filters": 2}]},  # no input_side
        {"input_side": 8, "num_classes": 5, "conv_blocks": [{"filterz": 2}]},
        {"input_side": "eight", "num_classes": 5, "conv_blocks": [{"filters": 2}]},
        [8, 5],
    ])
    def test_malformed_arch_rejected(self, tmp_path, arch):
        p = tmp_path / "model.bin"
        save_model(init_model(tiny_arch(), seed=0), p)
        head, payload = p.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["arch"] = arch
        p.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(FormatError, match="malformed arch"):
            load_model(p)

    @pytest.mark.parametrize("saved, field, value", [
        ({"num_classes": 2}, "num_classes", 2.5),
        ({"input_side": 50}, "input_side", 50.9),
        ({}, "num_classes", True),
    ])
    def test_non_integer_arch_count_rejected(self, tmp_path, saved, field, value):
        # Truncated to an integer, 2.5 and 50.9 would name the saved
        # model's own counts, and the file would load.
        p = tmp_path / "model.bin"
        save_model(init_model(tiny_arch(**saved), seed=0), p)
        head, payload = p.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["arch"][field] = value
        p.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(FormatError, match=f"malformed arch.*{field}"):
            load_model(p)

    def test_renamed_tensor_rejected(self, tmp_path):
        p = tmp_path / "model.bin"
        save_model(init_model(tiny_arch(), seed=0), p)
        head, payload = p.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["tensors"][0][0] = "conv0_weight"
        p.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(FormatError, match="conv0_weight"):
            load_model(p)

    def test_missing_newline_rejected(self, tmp_path):
        p = tmp_path / "model.bin"
        p.write_bytes(b'{"format": "pixel-correction-model"}')
        with pytest.raises(FormatError):
            load_model(p)
