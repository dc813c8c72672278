"""Peak RSS and wall time of one build_dataset call under the default CLI
profile.

An 1800 x 840 nm rectangle gives a 5200 x 3280 px raster at the default
tiling (400 nm interaction distance, 2 px/nm, 200 x 200 px inputs).  The
target's own raster serves as the reference mask, so no ILT runs; with
per_class_cap 3 the 100 IIP classes give at most 300 samples.  Prints the
dataset's sha256 (images, labels and coords), the wall time of the call,
the process's peak RSS up to its end, which includes the raster, and the
bytes the dataset holds (its polyphase planes plus its per-sample columns)
next to the bytes of the (n, side, side) image stack it reads on demand.
Before that call it runs compute_iip once on the same raster, the first
step of build_dataset, and prints its wall time and tracemalloc peak, with
tracing stopped before build_dataset runs.

    PYTHONPATH=src python3 scripts/build_dataset_rss.py
"""

import hashlib
import resource
import time
import tracemalloc

import numpy as np

from pixelret.cli import load_config
from pixelret.iip import compute_iip
from pixelret.layout import LayoutPattern
from pixelret.pipeline import deployment_raster
from pixelret.tiling import build_dataset


def main() -> None:
    cfg = load_config(None, False, {})
    tiling = cfg.tiling()
    target = LayoutPattern([[(0, 0), (1800, 0), (1800, 840), (0, 840)]])
    ref_mask = deployment_raster(target, tiling)
    tracemalloc.start()
    t0 = time.perf_counter()
    compute_iip(ref_mask, cfg.iip().iik)
    iip_wall = time.perf_counter() - t0
    iip_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    t0 = time.perf_counter()
    ds = build_dataset(target, ref_mask, tiling, cfg.iip(), per_class_cap=3, seed=cfg.seed)
    wall = time.perf_counter() - t0
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stack = ds.images
    held = sum(values.nbytes for values, _ in stack.sources) + sum(
        a.nbytes for a in (stack.src, stack.pos, ds.labels, ds.coords, ds.splits)
    )
    digest = hashlib.sha256()
    for a in (np.asarray(ds.images), ds.labels, ds.coords):
        digest.update(a.tobytes())
    print(f"raster {ref_mask.width}x{ref_mask.height} px, {len(ds)} samples")
    print("dataset sha256", digest.hexdigest())
    print(
        f"compute_iip {iip_wall:.2f} s, traced peak {iip_peak / 2**20:.0f} MiB "
        f"(float64 raster {ref_mask.width * ref_mask.height * 8 / 2**20:.0f} MiB)"
    )
    print(f"build_dataset {wall:.2f} s")
    print(f"peak RSS up to the end of build_dataset {peak_mib:.0f} MiB")
    print(
        f"dataset holds {held / 2**20:.1f} MiB (planes and columns); "
        f"its image stack is {len(ds) * ds.image_side**2 * 4 / 2**20:.1f} MiB"
    )


if __name__ == "__main__":
    main()
