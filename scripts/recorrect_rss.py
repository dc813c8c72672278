"""Peak RSS and request time of recorrect under the default CLI profile.

An 1800 x 840 nm rectangle gives a 5200 x 3280 px deployment raster at the
default tiling (400 nm interaction distance, 2 px/nm, 200 x 200 px inputs).
An untrained model of the default arch re-corrects 30 x 30 px regions at
--workers (default 1), --requests of them (default 1), each on the map the
one before returned, starting from an all-zero prior map.  The first region
is the raster's centre; region i > 0 is placed at random, seeded by i, so
that it lies on the rectangle.  Prints the last map's sha256; the first
request's time, and the median over the rest; how the region pixels got
their class from recorrect's deployment memo: from its per-pixel class map
(an earlier request classified the pixel), from a kept window equal to the
pixel's (the lookup reads the window from the memo's planes, filling the
tiles it needs), or by inference; and the process's peak RSS up to the end
of the last call, which includes the raster and the prior map; the
workers' memory is not counted.

    PYTHONPATH=src python3 scripts/recorrect_rss.py [--workers N] [--requests K]
"""

import argparse
import hashlib
import resource
import time

import numpy as np

from pixelret import pipeline
from pixelret.classifier import init_model
from pixelret.cli import load_config
from pixelret.iip import IipMap
from pixelret.layout import LayoutPattern
from pixelret.pipeline import deployment_raster, recorrect

SIDE = 30  # region side, px


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workers", type=int, default=1, help="processes that run inference")
    ap.add_argument("--requests", type=int, default=1, help="recorrect calls, one region each")
    args = ap.parse_args()
    cfg = load_config(None, False, {})
    ccfg = cfg.correction(workers=args.workers)
    target = LayoutPattern([[(0, 0), (1800, 0), (1800, 840), (0, 840)]])
    raster = deployment_raster(target, ccfg.tiling)
    out = IipMap(raster.with_values(np.zeros(raster.shape)), "", "")
    model = init_model(cfg.arch(), cfg.init_seed)
    # The rectangle's pixels, so that a region's corner lies on it.
    ppn, (ox, oy) = raster.px_per_nm, raster.origin
    lo = np.ceil((np.array([0.0, 0.0]) - (ox, oy)) * ppn).astype(int)
    hi = np.floor((np.array([1800.0, 840.0]) - (ox, oy)) * ppn).astype(int) - SIDE
    region_px, looked_up, inferred, seconds = 0, [], [], []
    real_lookup, real_infer = pipeline._Memo.lookup, pipeline._infer

    def counted_lookup(memo, sel_flat, block):
        looked_up.append(len(sel_flat))
        return real_lookup(memo, sel_flat, block)

    def counted_infer(m, source, sel_flat, cfg, workers):
        inferred.append(len(sel_flat))
        return real_infer(m, source, sel_flat, cfg, workers)

    pipeline._Memo.lookup, pipeline._infer = counted_lookup, counted_infer
    for i in range(args.requests):
        if i == 0:
            x, y = raster.width // 2, raster.height // 2
        else:
            x, y = np.random.default_rng(i).integers(lo, hi + 1)
        box = (*raster.pixel_center(x, y), *raster.pixel_center(x + SIDE - 1, y + SIDE - 1))
        t0 = time.perf_counter()
        out = recorrect(out, target, [box], model, ccfg)
        seconds.append(time.perf_counter() - t0)
        region_px += SIDE * SIDE
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pipeline._Memo.lookup, pipeline._infer = real_lookup, real_infer
    changed = int(np.count_nonzero(out.grid.values))
    print(f"raster {raster.width}x{raster.height} px, {changed} px nonzero after "
          f"{args.requests} request(s) of {SIDE}x{SIDE} px")
    print("map sha256", hashlib.sha256(out.grid.values).hexdigest())
    rest = f"{1000 * float(np.median(seconds[1:])):.0f} ms" if len(seconds) > 1 else "none"
    print(f"first request {1000 * seconds[0]:.0f} ms, median of the rest {rest}")
    print(f"region pixels from the class map {1 - sum(looked_up) / region_px:.3f}, "
          f"a kept window {(sum(looked_up) - sum(inferred)) / region_px:.3f}, "
          f"inference {sum(inferred) / region_px:.3f}")
    print(f"peak RSS up to the end of the last recorrect {peak_mib:.0f} MiB")


if __name__ == "__main__":
    main()
