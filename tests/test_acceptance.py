"""End-to-end acceptance gates for the correction flow.

Each test covers one numbered criterion, measures its own runtime against
the stated budget, and records a one-line pass/fail verdict that conftest
prints after the run.  The expensive artifacts (toy-profile ILT references,
the case-study dataset and model) are built once per session and their
build times are charged to the criteria that consume them.
"""

import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_grid, record_criterion
from pixelret.classifier import (
    ArchDescriptor,
    ConvBlock,
    TrainConfig,
    backward,
    init_model,
    load_model,
    predict_batch,
    save_model,
    train,
)
from pixelret.cli import CANONICAL_PATTERNS, load_config
from pixelret.errors import ChecksumError, FormatError, ParseError
from pixelret.grid import read_graymap, write_graymap
from pixelret.iip import (
    IipConfig,
    compute_iip,
    export_iip,
    import_iip,
    make_iik,
)
from pixelret.ilt import IltConfig, ilt_loss, optimize_mask
from pixelret.layout import (
    LayoutPattern,
    generate_test_pattern,
    parse_layout,
    rasterize,
    write_layout,
)
from pixelret.litho import LithoConfig, aerial_image, convolve_direct, convolve_fft, print_image
from pixelret.pipeline import (
    CleanupRules,
    CorrectionConfig,
    bench_scaling,
    confusion_matrix,
    correct,
    deployment_raster,
    iou,
    predict_map,
    recorrect,
    write_scaling_csv,
)
from pixelret.tiling import (
    PixelDataset,
    TilingConfig,
    build_dataset,
    load_dataset,
    merge_datasets,
    save_dataset,
    split_dataset,
)


def rect(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def _finish(num: int, name: str, failures: list, detail: str) -> None:
    record_criterion(num, name, not failures, detail)
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


# ---------------------------------------------------------------------------
# Shared session artifacts (toy profile)
# ---------------------------------------------------------------------------

TRAIN_FAMILIES = ("iso40", "iso140", "ls40", "ls140")
UNSEEN_WIDTHS = ("iso60", "iso100")


@pytest.fixture(scope="session")
def toy_cfg():
    return load_config(None, True, {})


@pytest.fixture(scope="session")
def toy_ilt(toy_cfg):
    """ILT reference masks for every canonical pattern, with per-pattern
    wall time so consuming criteria can account for the shared cost.
    """
    litho = toy_cfg.litho()
    icfg = toy_cfg.ilt()
    tiling = toy_cfg.tiling()
    out = {}
    for name, params in CANONICAL_PATTERNS.items():
        pattern = generate_test_pattern(**params)
        t0 = time.perf_counter()
        target = deployment_raster(pattern, tiling)
        result = optimize_mask(target, litho, icfg)
        out[name] = SimpleNamespace(
            pattern=pattern,
            target=target,
            result=result,
            seconds=time.perf_counter() - t0,
        )
    return out


@pytest.fixture(scope="session")
def toy_dataset(toy_cfg, toy_ilt):
    t0 = time.perf_counter()
    tiling = toy_cfg.tiling()
    iip_cfg = toy_cfg.iip()
    cap = int(toy_cfg.raw["sampling"]["per_class_cap"])
    parts = [
        build_dataset(
            toy_ilt[name].pattern,
            toy_ilt[name].result.mask,
            tiling,
            iip_cfg,
            per_class_cap=cap,
            seed=toy_cfg.sampling_seed,
        )
        for name in TRAIN_FAMILIES
    ]
    ds = split_dataset(
        merge_datasets(parts),
        tuple(toy_cfg.raw["sampling"]["split_fractions"]),
        toy_cfg.split_seed,
    )
    return SimpleNamespace(ds=ds, seconds=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def toy_model(toy_cfg, toy_dataset):
    t0 = time.perf_counter()
    model0 = init_model(toy_cfg.arch(), toy_cfg.init_seed)
    model, history = train(model0, toy_dataset.ds, toy_cfg.train())
    return SimpleNamespace(
        model=model, history=history, seconds=time.perf_counter() - t0
    )


# ---------------------------------------------------------------------------
# 1. Convolution oracle
# ---------------------------------------------------------------------------

def test_criterion_01_convolution_oracle():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(101))
    worst = 0.0
    for _ in range(50):
        img = rng.random((64, 64))
        ker = rng.random((15, 15))
        ker /= ker.sum()
        a = convolve_direct(img, ker)
        b = convolve_fft(img, ker)
        worst = max(worst, float(np.abs(a - b).max()))
    elapsed = time.perf_counter() - t0
    failures = []
    if worst > 1e-6:
        failures.append(f"max abs diff {worst:.3e} > 1e-6")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _finish(
        1,
        "convolution dual-route agreement",
        failures,
        f"50 grids, max abs diff {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. IIP map properties
# ---------------------------------------------------------------------------

def test_criterion_02_iip_properties():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(202))
    failures = []
    n_nonempty = 0
    n_empty = 0
    for i in range(100):
        side = int(rng.integers(24, 49))
        density = 0.0 if i % 33 == 0 else float(rng.uniform(0.02, 0.6))
        mask_vals = (rng.random((side, side)) < density).astype(np.float64)
        mask = make_grid(mask_vals)
        sigma = float(rng.uniform(1.0, 4.0))
        iik = make_iik("gaussian", sigma, 3.0 * sigma, 1.0)
        m = compute_iip(mask, iik).grid.values
        if m.min() < 0.0 or m.max() > 1.0:
            failures.append(f"mask {i}: values outside [0,1]")
        if mask_vals.any():
            n_nonempty += 1
            if m.max() != 1.0:
                failures.append(f"mask {i}: nonempty peak {m.max()} != 1.0")
        else:
            n_empty += 1
            if m.any():
                failures.append(f"mask {i}: empty mask gave nonzero map")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _finish(
        2,
        "IIP in [0,1], peak 1 when nonempty, zeros when empty",
        failures,
        f"{n_nonempty} nonempty + {n_empty} empty masks, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. ILT gradient vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_03_ilt_gradient():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(303))
    litho = LithoConfig(sigma_nm=2.0, radius_nm=5.0, resist_threshold=0.5)
    cfg = IltConfig()
    h = 1e-3
    worst = 0.0
    for _ in range(20):
        target = make_grid((rng.random((16, 16)) < 0.4).astype(np.float64))
        theta = target.with_values(rng.normal(0.0, 1.0, (16, 16)))
        _, grad = ilt_loss(theta, target, litho, cfg)
        for _ in range(4):
            iy = int(rng.integers(0, 16))
            ix = int(rng.integers(0, 16))
            vp = theta.values.copy()
            vp[iy, ix] += h
            vm = theta.values.copy()
            vm[iy, ix] -= h
            lp, _ = ilt_loss(theta.with_values(vp), target, litho, cfg)
            lm, _ = ilt_loss(theta.with_values(vm), target, litho, cfg)
            fd = (lp - lm) / (2 * h)
            an = grad.values[iy, ix]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-12))
    elapsed = time.perf_counter() - t0
    failures = []
    if worst >= 1e-3:
        failures.append(f"max relative error {worst:.3e} >= 1e-3")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _finish(
        3,
        "ILT analytic gradient matches finite differences",
        failures,
        f"20 instances x 4 pixels, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. ILT improvement across all test-pattern families
# ---------------------------------------------------------------------------

def test_criterion_04_ilt_improvement(toy_cfg, toy_ilt):
    t0 = time.perf_counter()
    litho = toy_cfg.litho()
    failures = []
    margins = {}
    for name, item in toy_ilt.items():
        kernel = litho.kernel(item.target.px_per_nm)
        printed = print_image(aerial_image(item.target, kernel), litho.resist_threshold)
        baseline = iou(printed, item.target)
        final = item.result.final_fidelity
        margins[name] = final - baseline
        if final < baseline:
            failures.append(f"{name}: fidelity {final:.4f} < baseline {baseline:.4f}")
    for name in ("iso40", "ls40"):
        if margins[name] <= 0.0:
            failures.append(f"{name}: no strict improvement (margin {margins[name]:.4f})")
    elapsed = time.perf_counter() - t0 + sum(i.seconds for i in toy_ilt.values())
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    worst_name = min(margins, key=margins.get)
    _finish(
        4,
        "ILT fidelity >= print-the-target baseline on every family",
        failures,
        f"{len(toy_ilt)} patterns, smallest margin {margins[worst_name]:+.4f} "
        f"({worst_name}), 40nm margins iso {margins['iso40']:+.4f} / "
        f"ls {margins['ls40']:+.4f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. Classifier gradient vs an independent float64 oracle
# ---------------------------------------------------------------------------

def _oracle_loss(m, images, labels):
    """Float64 re-implementation of the forward pass with explicit spatial
    loops, sharing no code with the package's im2col path.
    """
    x = np.asarray(images, dtype=np.float64)[:, None, :, :]
    for i, b in enumerate(m.arch.conv_blocks):
        w = m.weights[f"conv{i}_w"].astype(np.float64)
        bias = m.weights[f"conv{i}_b"].astype(np.float64)
        n, _, h, wd = x.shape
        oh = (h - b.kernel) // b.stride + 1
        ow = (wd - b.kernel) // b.stride + 1
        out = np.empty((n, b.filters, oh, ow))
        for oy in range(oh):
            for ox in range(ow):
                patch = x[
                    :,
                    :,
                    oy * b.stride : oy * b.stride + b.kernel,
                    ox * b.stride : ox * b.stride + b.kernel,
                ]
                out[:, :, oy, ox] = np.tensordot(patch, w, axes=([1, 2, 3], [1, 2, 3]))
        x = np.maximum(out + bias[None, :, None, None], 0.0)
    gap = x.mean(axis=(2, 3))
    logits = gap @ m.weights["dense_w"].astype(np.float64).T + m.weights[
        "dense_b"
    ].astype(np.float64)
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def test_criterion_05_classifier_gradient():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(505))
    archs = [
        ArchDescriptor(6, 3, [ConvBlock(2)]),
        ArchDescriptor(8, 4, [ConvBlock(2), ConvBlock(3)]),
    ]
    failures = []
    worst = 0.0
    h = 1e-5
    for a_i, arch in enumerate(archs):
        m = init_model(arch, seed=rng.integers(0, 1000))
        images = rng.random((6, arch.input_side, arch.input_side)).astype(np.float32)
        labels = rng.integers(0, arch.num_classes, 6).astype(np.uint16)
        loss, grads = backward(m, (images, labels))
        oracle = _oracle_loss(m, images, labels)
        if abs(loss - oracle) > 1e-5 * max(1.0, abs(oracle)):
            failures.append(
                f"net {a_i}: package loss {loss:.8f} vs oracle {oracle:.8f}"
            )
        for name in m.tensor_names():
            w = m.weights[name]
            flat = w.reshape(-1)
            picks = rng.choice(flat.size, size=min(8, flat.size), replace=False)
            for idx in picks:
                orig = float(flat[idx])
                mp = m.copy()
                mp.weights[name].reshape(-1)[idx] = np.float32(orig + h)
                lp = _oracle_loss(mp, images, labels)
                mm = m.copy()
                mm.weights[name].reshape(-1)[idx] = np.float32(orig - h)
                lm = _oracle_loss(mm, images, labels)
                fd = (lp - lm) / (
                    float(mp.weights[name].reshape(-1)[idx])
                    - float(mm.weights[name].reshape(-1)[idx])
                )
                an = float(grads[name].reshape(-1)[idx])
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    if worst >= 1e-2:
        failures.append(f"max relative error {worst:.3e} >= 1e-2")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _finish(
        5,
        "backprop matches float64 finite-difference oracle",
        failures,
        f"2 tiny nets, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. Sanity-task learnability and training determinism
# ---------------------------------------------------------------------------

def _brightness_dataset(n_per_class=150, num_classes=4, side=8, seed=606):
    from pixelret.iip import bin_class

    rng = np.random.Generator(np.random.PCG64(seed))
    n = n_per_class * num_classes
    images = np.empty((n, side, side), dtype=np.float32)
    labels = np.empty(n, dtype=np.uint16)
    splits = np.empty(n, dtype=np.uint8)
    for i in range(n):
        c = i % num_classes
        brightness = (c + rng.uniform(0.05, 0.95)) / num_classes
        img = brightness + rng.uniform(-0.01, 0.01, (side, side))
        images[i] = np.clip(img, 0.0, 1.0).astype(np.float32)
        labels[i] = bin_class(float(images[i].mean()), num_classes)
        splits[i] = 0 if (i // num_classes) % 6 < 4 else (1 if (i // num_classes) % 6 == 4 else 2)
    coords = np.stack([np.arange(n) % 1000, np.arange(n) // 1000], axis=1).astype(np.int32)
    return PixelDataset(images, labels, coords, splits, {"num_classes": num_classes})


def test_criterion_06_sanity_task():
    t0 = time.perf_counter()
    ds = _brightness_dataset()
    arch = ArchDescriptor(8, 4, [ConvBlock(4), ConvBlock(8)])
    cfg = TrainConfig(epochs=20, batch_size=16, learning_rate=0.05, seed=1)
    m0 = init_model(arch, seed=0)
    m1, h1 = train(m0, ds, cfg)
    m2, h2 = train(m0, ds, cfg)
    best = max(h1["val_accuracy"])
    first_hit = next(
        (e + 1 for e, acc in enumerate(h1["val_accuracy"]) if acc >= 0.90), None
    )
    elapsed = time.perf_counter() - t0
    failures = []
    if best < 0.90:
        failures.append(f"val accuracy {best:.3f} < 0.90 within 20 epochs")
    if h1 != h2:
        failures.append("two identically seeded runs gave different histories")
    if m1.checksum() != m2.checksum():
        failures.append("two identically seeded runs gave different weights")
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _finish(
        6,
        "brightness-bin task >= 90% val accuracy, bitwise-repeatable training",
        failures,
        f"best val {best:.3f} (epoch {first_hit}), two runs identical, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. End-to-end case study at the toy profile
# ---------------------------------------------------------------------------

def test_criterion_07_case_study(toy_cfg, toy_ilt, toy_dataset, toy_model):
    t0 = time.perf_counter()
    ds = toy_dataset.ds
    model = toy_model.model
    num_classes = toy_cfg.raw["iip"]["num_classes"]
    failures = []

    test_idx = ds.split_indices("test")
    preds = predict_batch(model, ds.images[test_idx])
    labels = ds.labels[test_idx].astype(np.int64)
    within1 = float(np.mean(np.abs(preds.astype(np.int64) - labels) <= 1))
    cm = confusion_matrix(preds.astype(np.int64), labels, num_classes)
    diag_mass = cm.within_one_accuracy()
    if within1 < 0.70:
        failures.append(f"held-out within-1 accuracy {within1:.3f} < 0.70")
    if diag_mass < 0.70:
        failures.append(f"confusion diagonal+-1 mass {diag_mass:.3f} < 0.70")

    ccfg = toy_cfg.correction()
    ious = {}
    for name in UNSEEN_WIDTHS:
        item = toy_ilt[name]
        corrected = correct(item.pattern, model, ccfg)
        ious[name] = iou(corrected.grid, item.result.mask)
        if ious[name] < 0.75:
            failures.append(f"{name}: IoU vs ILT reference {ious[name]:.3f} < 0.75")

    elapsed = (
        time.perf_counter()
        - t0
        + sum(toy_ilt[n].seconds for n in TRAIN_FAMILIES + UNSEEN_WIDTHS)
        + toy_dataset.seconds
        + toy_model.seconds
    )
    if elapsed >= 900.0:
        failures.append(f"runtime {elapsed:.1f}s >= 900s")
    _finish(
        7,
        "train on 40/140nm families; generalize to unseen 60-100nm widths",
        failures,
        f"within-1 {within1:.3f}, diag+-1 {diag_mass:.3f}, "
        f"IoU iso60 {ious['iso60']:.3f} / iso100 {ious['iso100']:.3f}, "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. Determinism and consistency
# ---------------------------------------------------------------------------

def _small_correction(workers=1):
    tiling = TilingConfig(
        interaction_distance=8.0, px_per_nm=1.0, compression_factor=2,
        row_reducer="mean", col_reducer="mean",
    )
    iik = make_iik("gaussian", 2.0, 6.0, 1.0)
    return CorrectionConfig(
        tiling=tiling,
        iip=IipConfig(num_classes=5, iik=iik, threshold=0.5),
        workers=workers,
        cleanup=CleanupRules(),
    )


def test_criterion_08_determinism():
    t0 = time.perf_counter()
    arch = ArchDescriptor(8, 5, [ConvBlock(4), ConvBlock(8)])
    m1 = init_model(arch, seed=0)
    m2 = init_model(arch, seed=9)
    pattern = LayoutPattern([rect(8, 8, 24, 28)])
    failures = []

    base = predict_map(m1, pattern, _small_correction(workers=1))
    for w in (2, 4, 8):
        other = predict_map(m1, pattern, _small_correction(workers=w))
        if not np.array_equal(base.grid.values, other.grid.values):
            failures.append(f"workers={w} output differs from workers=1")

    shifted = LayoutPattern([rect(8 + 3, 8 + 5, 24 + 3, 28 + 5)])
    moved = predict_map(m1, shifted, _small_correction())
    if not np.array_equal(base.grid.values, moved.grid.values):
        failures.append("whole-pixel translation changed predicted values")
    if moved.grid.origin != (base.grid.origin[0] + 3, base.grid.origin[1] + 5):
        failures.append("translated map origin did not follow the shift")

    box = base.grid.bbox_nm()
    sub = (box[0], box[1], box[0] + 12, box[3])
    spliced = recorrect(base, pattern, [sub], m2, _small_correction())
    fresh = predict_map(m2, pattern, _small_correction())
    from pixelret.pipeline import _bbox_pixel_mask

    mask = _bbox_pixel_mask(base.grid, [sub])
    if not np.array_equal(spliced.grid.values[mask], fresh.grid.values[mask]):
        failures.append("recorrect region does not match fresh second-model run")
    if not np.array_equal(spliced.grid.values[~mask], base.grid.values[~mask]):
        failures.append("recorrect touched pixels outside the region")
    untouched = recorrect(base, pattern, [], m2, _small_correction())
    if not np.array_equal(untouched.grid.values, base.grid.values):
        failures.append("recorrect with empty region changed the map")

    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    _finish(
        8,
        "bitwise worker invariance, translation consistency, recorrect splicing",
        failures,
        f"workers 1/2/4/8 identical, shift (+3,+5)nm identical, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. Scaling benchmark
# ---------------------------------------------------------------------------

def test_criterion_09_scaling(tmp_path):
    t0 = time.perf_counter()
    arch = ArchDescriptor(8, 3, [ConvBlock(2)])
    model = init_model(arch, seed=0)
    tiling = TilingConfig(
        interaction_distance=8.0, px_per_nm=1.0, compression_factor=2,
        row_reducer="mean", col_reducer="mean",
    )
    cfg = CorrectionConfig(
        tiling=tiling,
        iip=IipConfig(num_classes=3, iik=make_iik("gaussian", 2.0, 6.0, 1.0)),
        workers=1,
    )
    # 84nm square + 8nm halo on each side -> exactly 100x100 px = 1e4 pixels
    pattern = LayoutPattern([rect(0, 0, 84, 84)])
    report = bench_scaling(model, pattern, cfg, worker_counts=[1, 2, 4], repeats=1)
    csv_path = tmp_path / "scaling.csv"
    write_scaling_csv(report, csv_path)
    print(f"\nscaling report ({report.n_pixels} pixels) -> {csv_path}")
    for row in report.rows:
        print(
            f"  workers {row['workers']}: {row['wall_seconds']:.3f}s "
            f"speedup {row['speedup']:.2f} efficiency {row['efficiency']:.2f}"
        )

    failures = []
    if not report.consistent:
        failures.append("outputs differ across worker counts")
    if report.n_pixels < 10_000:
        failures.append(f"workload {report.n_pixels} px < 10000")
    speedup4 = next(r["speedup"] for r in report.rows if r["workers"] == 4)
    cores = os.cpu_count() or 1
    if cores >= 4:
        note = f"speedup at 4 workers {speedup4:.2f}"
        if speedup4 < 3.2:
            failures.append(f"speedup at 4 workers {speedup4:.2f} < 3.2 on {cores} cores")
    else:
        note = (
            f"speedup assertion skipped ({cores} core(s) < 4); "
            f"measured {speedup4:.2f} at 4 workers"
        )
    elapsed = time.perf_counter() - t0
    _finish(
        9,
        "scaling report with bitwise-equality gate",
        failures,
        f"{report.n_pixels}px workload, consistent={report.consistent}, "
        f"{note}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 10. Format round-trips and corruption rejection
# ---------------------------------------------------------------------------

def test_criterion_10_formats(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(1010))
    failures = []

    # layout: text round-trip is bitwise stable
    pattern = LayoutPattern(
        [rect(0, 0, 40, 20), [(50, 0), (70, 0), (70, 30), (60, 30), (60, 10), (50, 10)]]
    )
    text = write_layout(pattern)
    if write_layout(parse_layout(text)) != text:
        failures.append("layout text round-trip not bitwise stable")
    try:
        parse_layout("garbage that is not a layout\n")
        failures.append("garbage layout accepted")
    except ParseError:
        pass

    # graymap: second write reproduces the first file byte for byte
    g = make_grid(rng.random((20, 30)).astype(np.float32))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_graymap(g, p1)
    back = read_graymap(p1, origin=g.origin, px_per_nm=g.px_per_nm)
    write_graymap(back, p2)
    if p1.read_bytes() != p2.read_bytes():
        failures.append("graymap write/read/write not bitwise stable")
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P3\n2 2\n255\n0 0 0 0\n")
    try:
        read_graymap(bad, origin=(0.5, 0.5), px_per_nm=1.0)
        failures.append("graymap with wrong magic accepted")
    except FormatError:
        pass

    # dataset: save/load/save bitwise round-trip, corrupted payload rejected
    tiling = TilingConfig(
        interaction_distance=8.0, px_per_nm=1.0, compression_factor=2,
        row_reducer="mean", col_reducer="mean",
    )
    ref = rasterize(LayoutPattern([rect(6, 6, 26, 26)]), 1.0, (0, 0, 32, 32))
    ds = build_dataset(
        LayoutPattern([rect(8, 8, 24, 24)]),
        ref,
        tiling,
        IipConfig(num_classes=5, iik=make_iik("gaussian", 2.0, 6.0, 1.0)),
        per_class_cap=30,
        seed=0,
    )
    d1, d2 = tmp_path / "ds1", tmp_path / "ds2"
    save_dataset(ds, d1)
    save_dataset(load_dataset(d1), d2)
    for f in sorted(os.listdir(d1)):
        if (d1 / f).read_bytes() != (d2 / f).read_bytes():
            failures.append(f"dataset file {f} not bitwise stable")
    corrupted = bytearray((d1 / "images.f32").read_bytes())
    corrupted[64] ^= 0xFF
    (d1 / "images.f32").write_bytes(bytes(corrupted))
    try:
        load_dataset(d1)
        failures.append("corrupted dataset payload accepted")
    except ChecksumError:
        pass

    # model: save/load/save bitwise round-trip, corrupted payload rejected
    model = init_model(ArchDescriptor(8, 5, [ConvBlock(4), ConvBlock(8)]), seed=0)
    m1, m2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    save_model(model, m1)
    save_model(load_model(m1), m2)
    if m1.read_bytes() != m2.read_bytes():
        failures.append("model save/load/save not bitwise stable")
    blob = bytearray(m1.read_bytes())
    blob[-5] ^= 0xFF
    m1.write_bytes(bytes(blob))
    try:
        load_model(m1)
        failures.append("corrupted model payload accepted")
    except ChecksumError:
        pass

    # exported IIP map: payload digest guards the sidecar pairing
    iip_map = compute_iip(ref, make_iik("gaussian", 2.0, 6.0, 1.0))
    ip = tmp_path / "iip.pgm"
    export_iip(iip_map, ip, num_classes=5)
    import_iip(ip)
    blob = bytearray(ip.read_bytes())
    blob[-2] ^= 0xFF
    ip.write_bytes(bytes(blob))
    try:
        import_iip(ip)
        failures.append("corrupted IIP payload accepted")
    except ChecksumError:
        pass

    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _finish(
        10,
        "layout/graymap/dataset/model round-trips; corruption rejected by name",
        failures,
        f"5 formats exercised, {elapsed:.1f}s",
    )
