"""Wall time of the model-building stages on the toy profile, stage by stage.

Prints the host's CPU count; for each of the six case-study families
(iso40, iso140, ls40, ls140, iso60, iso100) the ILT target shape, the
real-FFT transform shape its convolutions run at (the one
litho.fft_convolver's docstring states), optimize_mask's milliseconds per
gradient step, the median milliseconds of one float32 convolution (the
precision optimize_mask descends in) and, for comparison, of one float64
convolution, and how one float32 loss-and-gradient evaluation splits
between its two convolutions and its elementwise work (medians over 20
evaluations at the ILT mask), and the
ILT mask's sha256 (RasterGrid.checksum, first 16 hex digits) and
final_fidelity, so that two commits' runs show whether their masks agree;
the median milliseconds of one backward step on 32 training images of the toy
arch; and the wall time of one epoch of train on the dataset built from
the four training families' ILT masks (the criterion 7 recipe, seeded by
the toy config).  OpenBLAS is pinned to one thread, as in the benchmark.

    PYTHONPATH=src python3 scripts/model_build_stages.py [--reps N]
"""

import argparse
import dataclasses
import os
import time

# OpenBLAS reads its thread count once, when numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
from scipy.fft import next_fast_len

from pixelret.classifier import backward, init_model, train
from pixelret.cli import CANONICAL_PATTERNS, load_config
from pixelret.ilt import _loss_and_grad, optimize_mask
from pixelret.litho import fft_convolver
from pixelret.layout import generate_test_pattern
from pixelret.pipeline import deployment_raster
from pixelret.tiling import build_dataset, merge_datasets, split_dataset

TRAIN_FAMILIES = ("iso40", "iso140", "ls40", "ls140")
FAMILIES = TRAIN_FAMILIES + ("iso60", "iso100")
BATCH = 32
ILT_REPS = 20


def transform_shape(shape, kernel_side):
    """The H x W transform fft_convolver runs images of shape at."""
    r = kernel_side // 2
    return next_fast_len(shape[0] + r, True), next_fast_len(shape[1] + r, True)


def step_split(target, mask, litho_cfg, icfg, reps):
    """Median ms of one float32 and of one float64 convolution, and of one
    float32 _loss_and_grad evaluation's two convolutions and its
    elementwise remainder, at theta = the mask's logit, as optimize_mask
    runs them."""
    kernel = litho_cfg.kernel(target.px_per_nm).values
    convolve = fft_convolver(kernel, target.shape, np.float32)
    convolve64 = fft_convolver(kernel, target.shape)
    tv = target.values.astype(np.float32)
    theta = icfg.sigmoid_steepness_mask * (2.0 * mask.values.astype(np.float32) - 1.0)
    spent = []

    def timed(img):
        t0 = time.perf_counter()
        out = convolve(img)
        spent.append(time.perf_counter() - t0)
        return out

    conv, conv64, fft_ms, rest_ms = [], [], [], []
    for _ in range(reps):
        spent.clear()
        timed(tv)
        conv.append(spent[0])
        t0 = time.perf_counter()
        convolve64(tv)
        conv64.append(time.perf_counter() - t0)
        spent.clear()
        t0 = time.perf_counter()
        _loss_and_grad(
            theta, tv, timed, litho_cfg.resist_threshold,
            icfg.sigmoid_steepness_mask, icfg.sigmoid_steepness_resist,
        )
        wall = time.perf_counter() - t0
        fft_ms.append(sum(spent))
        rest_ms.append(wall - sum(spent))
    return tuple(1000.0 * float(np.median(x)) for x in (conv, conv64, fft_ms, rest_ms))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=200, help="timed backward steps")
    args = ap.parse_args()

    cfg = load_config(None, True, {})
    tiling, litho_cfg, icfg = cfg.tiling(), cfg.litho(), cfg.ilt()
    print(f"nproc {os.cpu_count()}")

    masks, patterns = {}, {}
    for name in FAMILIES:
        patterns[name] = generate_test_pattern(**CANONICAL_PATTERNS[name])
        target = deployment_raster(patterns[name], tiling)
        t0 = time.perf_counter()
        result = optimize_mask(target, litho_cfg, icfg)
        ms = 1000.0 * (time.perf_counter() - t0) / icfg.steps
        masks[name] = result.mask
        h, w = transform_shape(target.shape, litho_cfg.kernel(target.px_per_nm).side)
        conv, conv64, fft_ms, rest_ms = step_split(
            target, result.mask, litho_cfg, icfg, ILT_REPS
        )
        print(
            f"ilt {name:7s} {target.height}x{target.width} px  transform {h}x{w}"
            f"  {ms:.1f} ms/step  {conv:.2f} ms/convolution (float64 {conv64:.2f})"
            f"  loss+grad: 2 convolutions {fft_ms:.2f} ms + elementwise {rest_ms:.2f} ms"
        )
        print(
            f"ilt {name:7s} mask sha256 {result.mask.checksum()[:16]}"
            f"  final_fidelity {result.final_fidelity!r}"
        )

    t0 = time.perf_counter()
    parts = [
        build_dataset(
            patterns[name], masks[name], tiling, cfg.iip(),
            per_class_cap=int(cfg.raw["sampling"]["per_class_cap"]),
            seed=cfg.sampling_seed,
        )
        for name in TRAIN_FAMILIES
    ]
    ds = split_dataset(
        merge_datasets(parts), tuple(cfg.raw["sampling"]["split_fractions"]), cfg.split_seed
    )
    print(f"build_dataset {len(ds)} samples  {time.perf_counter() - t0:.2f} s")

    model = init_model(cfg.arch(), cfg.init_seed)
    train_idx = ds.split_indices("train")
    rng = np.random.Generator(np.random.PCG64(0))
    times = []
    for rep in range(args.reps + 5):
        sel = train_idx[rng.choice(train_idx.size, BATCH, replace=False)]
        t0 = time.perf_counter()
        backward(model, (ds.images[sel], ds.labels[sel]))
        if rep >= 5:  # the first steps warm caches and allocators
            times.append(time.perf_counter() - t0)
    print(f"backward batch {BATCH}  {1000.0 * np.median(times):.2f} ms/step (median of {args.reps})")

    t0 = time.perf_counter()
    _, history = train(model, ds, dataclasses.replace(cfg.train(), epochs=1))
    wall = time.perf_counter() - t0
    steps = -(-train_idx.size // cfg.train().batch_size)
    print(
        f"train 1 epoch {train_idx.size} samples, {steps} steps  {wall:.2f} s"
        f"  ({1000.0 * wall / steps:.2f} ms/step, val accuracy {history['val_accuracy'][0]:.4f})"
    )


if __name__ == "__main__":
    main()
