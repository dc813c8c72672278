"""Peak RSS of one recorrect call under the default CLI profile.

An 1800 x 840 nm rectangle gives a 5200 x 3280 px deployment raster at the
default tiling (400 nm interaction distance, 2 px/nm, 200 x 200 px inputs).
An untrained model of the default arch re-corrects a 30 x 30 px region of an
all-zero prior map at workers 1.  Prints the map's sha256 and the process's
peak RSS up to the end of the call, which includes the raster and the
prior map.

    PYTHONPATH=src python3 scripts/recorrect_rss.py
"""

import hashlib
import resource

import numpy as np

from pixelret.classifier import init_model
from pixelret.cli import load_config
from pixelret.iip import IipMap
from pixelret.layout import LayoutPattern
from pixelret.pipeline import deployment_raster, recorrect

cfg = load_config(None, False, {})
ccfg = cfg.correction(workers=1)
target = LayoutPattern([[(0, 0), (1800, 0), (1800, 840), (0, 840)]])
raster = deployment_raster(target, ccfg.tiling)
prior = IipMap(raster.with_values(np.zeros(raster.shape)), "", "")
x0, y0 = raster.pixel_center(raster.width // 2, raster.height // 2)
x1, y1 = raster.pixel_center(raster.width // 2 + 29, raster.height // 2 + 29)
model = init_model(cfg.arch(), cfg.init_seed)
out = recorrect(prior, target, [(x0, y0, x1, y1)], model, ccfg)
peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
changed = int(np.count_nonzero(out.grid.values != prior.grid.values))
print(f"raster {raster.width}x{raster.height} px, {changed} px changed")
print("map sha256", hashlib.sha256(out.grid.values).hexdigest())
print(f"peak RSS up to the end of recorrect {peak_mib:.0f} MiB")
