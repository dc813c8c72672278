"""Where per-pixel CNN inference spends its time, layer by layer.

Prints the host's CPU count; for the toy and default CLI archs, the
microseconds per image of each conv layer's im2col, GEMM and bias+ReLU and
of the pooled dense head, once for the per-sample forward (every product
per image in an (n, c, h, w) layout, the arithmetic inference used before
it ran in blocks) and once for the block forward at the arch's
inference_block size; and the wall time of one pipeline._infer_chunk call
on a 200-pixel chunk of a 20 x 20 px box of a toy line-space raster, the
shape of one worker's share of a request, once with the raster crop that
pipeline._task gives a predict_map chunk (the worker reduces it) and once
with the crop of a deployment memo's polyphase planes that it gives a
recorrect chunk, followed by the share of the chunk's windows that
predict_batch classifies (one per distinct window) and the time it spends
reading them from the planes and fingerprinting them, and on the sort and
bit compare that find the copies.  The block forward's timed steps are
checked to give classifier._forward's logits bit for bit.  OpenBLAS is
pinned to one thread, as in the benchmark.

    PYTHONPATH=src python3 scripts/inference_stages.py [--reps N]
"""

import argparse
import os
import time

# OpenBLAS reads its thread count once, when numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from pixelret.classifier import _distinct, _forward, _im2col, _probe, inference_block, init_model
from pixelret.cli import load_config
from pixelret.iip import class_values
from pixelret.layout import generate_test_pattern
from pixelret.pipeline import _infer_chunk, _Memo, _task, deployment_raster
from pixelret.tiling import window_field


def per_sample_steps(m, images, clock):
    """The per-sample forward; clock(name) marks the end of a step."""
    x = images[:, None, :, :]
    for i, b in enumerate(m.arch.conv_blocks):
        k, s = b.kernel, b.stride
        cols = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        n, c, oh, ow = cols.shape[:4]
        cols = cols.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, oh * ow)
        clock(f"conv{i} im2col")
        z = np.matmul(m.weights[f"conv{i}_w"].reshape(b.filters, -1), cols)
        clock(f"conv{i} gemm")
        x = np.maximum(z + m.weights[f"conv{i}_b"][None, :, None], 0.0).reshape(n, b.filters, oh, ow)
        clock(f"conv{i} bias+relu")
    gap = x.mean(axis=(2, 3))
    out = np.matmul(gap[:, None, :], m.weights["dense_w"].T)[:, 0] + m.weights["dense_b"]
    clock("pool+dense")
    return out


def block_steps(m, images, clock):
    """classifier._forward's steps, timed."""
    n = images.shape[0]
    x = images.transpose(1, 2, 0)[None]
    for i, b in enumerate(m.arch.conv_blocks):
        cols, oh, ow = _im2col(x, b.kernel, b.stride)
        clock(f"conv{i} im2col")
        a = m.weights[f"conv{i}_w"].reshape(b.filters, -1) @ cols
        clock(f"conv{i} gemm")
        a += m.weights[f"conv{i}_b"][:, None]
        np.maximum(a, 0.0, out=a)
        clock(f"conv{i} bias+relu")
        x = a.reshape(b.filters, oh, ow, n)
    out = x.reshape(x.shape[0], -1, n).mean(axis=1).T @ m.weights["dense_w"].T + m.weights["dense_b"]
    clock("pool+dense")
    return out


def median_ms(f, reps):
    """Median milliseconds of f() over reps calls, after two untimed ones."""
    times = []
    for rep in range(reps + 2):
        t0 = time.perf_counter()
        f()
        if rep >= 2:
            times.append(time.perf_counter() - t0)
    return 1000.0 * float(np.median(times))


def step_times(steps, m, images, reps):
    """Median microseconds per image of each step over reps calls."""
    times: dict[str, list[float]] = {}
    for rep in range(reps + 2):
        marks = [("", time.perf_counter())]
        steps(m, images, lambda name: marks.append((name, time.perf_counter())))
        if rep >= 2:  # the first calls warm caches and allocators
            for (_, t0), (name, t1) in zip(marks, marks[1:]):
                times.setdefault(name, []).append(1e6 * (t1 - t0) / len(images))
    return {name: float(np.median(t)) for name, t in times.items()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=20, help="timed calls per forward")
    args = ap.parse_args()
    print(f"nproc {os.cpu_count()}")
    rng = np.random.Generator(np.random.PCG64(0))

    for profile, toy in (("toy", True), ("default", False)):
        m = init_model(load_config(None, toy, {}).arch(), 0)
        side, block = m.arch.input_side, inference_block(m.arch)
        images = rng.random((block, side, side)).astype(np.float32)
        if not np.array_equal(block_steps(m, images, lambda name: None), _forward(m, images)):
            raise SystemExit("block_steps no longer matches classifier._forward")
        rows = {
            "per-sample": step_times(per_sample_steps, m, images, args.reps),
            f"block {block}": step_times(block_steps, m, images, args.reps),
        }
        print(f"{profile} arch, {side} x {side} px, us/px (median of {args.reps})")
        print(f"  {'step':18s}" + "".join(f"{name:>14s}" for name in rows))
        for step in rows["per-sample"]:
            print(f"  {step:18s}" + "".join(f"{r[step]:14.1f}" for r in rows.values()))
        print(f"  {'total':18s}" + "".join(f"{sum(r.values()):14.1f}" for r in rows.values()))

    cfg = load_config(None, True, {})
    tiling, num_classes = cfg.tiling(), cfg.iip().num_classes
    m = init_model(cfg.arch(), cfg.init_seed)
    pattern = generate_test_pattern("line_space", 80, pitch=200, count=5, length=400)
    raster = deployment_raster(pattern, tiling)
    ys, xs = np.mgrid[: 20, : 20]
    flat = ((raster.height // 2 + ys) * raster.width + raster.width // 2 + xs).ravel()[:200]
    memo = _Memo((pattern.checksum(), tiling, num_classes), m, raster)
    memo.fill(*np.divmod(flat, raster.width))
    tasks = {
        "raster crop": _task(m, raster, flat, tiling, class_values(num_classes)),
        "planes crop": _task(m, memo, flat, tiling, class_values(num_classes)),
    }
    for kind, task in tasks.items():
        print(
            f"_infer_chunk 200 px of a {raster.width} x {raster.height} px raster, {kind}, "
            f"block {inference_block(m.arch)}: "
            f"{median_ms(lambda: _infer_chunk(task), args.reps):.2f} ms (median of {args.reps})"
        )
    # predict_batch's fingerprints of the chunk's windows, one block read
    # from the planes at a time, then its sort and bit compare (one group:
    # 200 windows).
    _, crop, coords, _, _ = tasks["planes crop"]
    windows = window_field(crop, coords, tiling)
    size, block, n = m.arch.input_side**2, inference_block(m.arch), len(windows)
    probe = _probe(size)

    def fingerprints():
        return np.concatenate([
            np.asarray(windows[s : s + block]).reshape(-1, size) @ probe for s in range(0, n, block)
        ])

    fp = fingerprints()
    distinct = len(_distinct(windows, fp, block)[0])
    fp_ms = median_ms(fingerprints, args.reps)
    compare_ms = median_ms(lambda: _distinct(windows, fp, block), args.reps)
    print(
        f"  distinct windows {distinct} of {n} ({distinct / n:.2f}); reading and "
        f"fingerprinting {fp_ms:.3f} ms, sort and bit compare {compare_ms:.3f} ms "
        f"(medians of {args.reps})"
    )


if __name__ == "__main__":
    main()
