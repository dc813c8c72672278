"""Every number the library takes from a caller or a file follows one rule:
a bool is not a number, and strings, None, NaN and infinities are refused
by name, with the error class of the site that takes them."""

import json
import re

import numpy as np
import pytest
from conftest import make_grid
from test_tiling import build_small

from pixelret.classifier import (
    ArchDescriptor,
    ConvBlock,
    TrainConfig,
    init_model,
    load_model,
    save_model,
)
from pixelret.errors import ArchError, FormatError, ParamError, RangeError, RegionError
from pixelret.grid import RasterGrid
from pixelret.iip import IipConfig, compute_iip, export_iip, import_iip, make_iik, threshold_iip
from pixelret.ilt import IltConfig
from pixelret.layout import LayoutPattern, generate_test_pattern, rasterize
from pixelret.litho import Kernel, LithoConfig, make_gaussian_kernel, print_image
from pixelret.pipeline import CleanupRules, CorrectionConfig, cleanup
from pixelret.tiling import TilingConfig, split_dataset

BAD = [True, "x", None, float("nan"), float("inf")]


def iik():
    return make_iik("gaussian", 2.0, 6.0, 1.0)


def iip_map():
    return compute_iip(make_grid(np.ones((8, 8))), iik())


def grid(width=2, height=2, px_per_nm=1.0, x=0.0, y=0.0):
    return RasterGrid(width, height, (x, y), px_per_nm, np.zeros((2, 2)))


def square():
    return LayoutPattern([[(0, 0), (4, 0), (4, 4), (0, 4)]])


def region(i):
    return lambda v: rasterize(square(), 1.0, tuple(v if k == i else c
                                                    for k, c in enumerate((0, 0, 8, 8))))


def keyword(label, make, error, names):
    return {f"{label}.{n}": (error, lambda v, n=n: make(**{n: v})) for n in names}


SITES = {
    **keyword("TilingConfig", TilingConfig, ParamError,
              ["interaction_distance", "px_per_nm", "compression_factor"]),
    **keyword("IltConfig", IltConfig, ParamError,
              ["steps", "learning_rate", "sigmoid_steepness_resist", "sigmoid_steepness_mask",
               "binarize_threshold"]),
    **keyword("LithoConfig", LithoConfig, ParamError,
              ["sigma_nm", "radius_nm", "resist_threshold"]),
    **keyword("IipConfig", lambda **kw: IipConfig(iik=iik(), **kw), ParamError,
              ["num_classes", "threshold"]),
    **keyword("TrainConfig", TrainConfig, ParamError,
              ["epochs", "batch_size", "learning_rate", "seed"]),
    **keyword("CorrectionConfig",
              lambda **kw: CorrectionConfig(TilingConfig(), IipConfig(iik=iik()), **kw),
              ParamError, ["workers"]),
    **keyword("CleanupRules", CleanupRules, ParamError, ["min_area", "min_edge"]),
    **keyword("ConvBlock", lambda **kw: ConvBlock(**{"filters": 4, **kw}), ArchError,
              ["filters", "kernel", "stride"]),
    **keyword("ArchDescriptor",
              lambda **kw: ArchDescriptor(**{"input_side": 8, "num_classes": 5,
                                             "conv_blocks": [ConvBlock(4)], **kw}),
              ArchError, ["input_side", "num_classes"]),
    **keyword("RasterGrid", grid, RangeError, ["width", "height", "px_per_nm", "x", "y"]),
    "Kernel.px_per_nm": (ParamError, lambda v: Kernel(np.ones((1, 1)), v)),
    **keyword("make_gaussian_kernel",
              lambda **kw: make_gaussian_kernel(**{"sigma_nm": 2.0, "radius_nm": 6.0,
                                                   "px_per_nm": 1.0, **kw}),
              ParamError, ["sigma_nm", "radius_nm", "px_per_nm"]),
    "rasterize.px_per_nm": (RegionError, lambda v: rasterize(square(), v, (0, 0, 8, 8))),
    **{f"rasterize.region[{i}]": (RegionError, region(i)) for i in range(4)},
    "threshold_iip.t": (ParamError, lambda v: threshold_iip(iip_map(), v)),
    "print_image.resist_threshold": (ParamError, lambda v: print_image(grid(), v)),
    "cleanup.min_area": (ParamError, lambda v: cleanup(square(), v, 0.0)),
    "cleanup.min_edge": (ParamError, lambda v: cleanup(square(), 0.0, v)),
}
NAMES = {"x": "origin", "y": "origin", "t": "threshold"}


@pytest.mark.parametrize("site, value", [(s, v) for s in SITES for v in BAD])
def test_bad_number_refused_by_name(site, value):
    error, call = SITES[site]
    field = site.split(".", 1)[1]
    name = NAMES.get(field, field.split("[")[0])
    with pytest.raises(error, match=re.escape(name)):
        call(value)


def test_numpy_reals_taken_numpy_ints_refused():
    # Reals may come from numpy; counts go into JSON headers as Python ints.
    assert TilingConfig(px_per_nm=np.float32(1.0)).window_side == 801
    assert grid(px_per_nm=np.float64(2.0), x=np.float32(0.5)).px_per_nm == 2.0
    with pytest.raises(ParamError, match="steps"):
        IltConfig(steps=np.int64(3))


# -- seeds and pattern sizes ------------------------------------------------

def seed_calls():
    arch = ArchDescriptor(8, 5, [ConvBlock(2)])
    ds, _ = build_small(cap=10)
    return {
        "init_model": lambda s: init_model(arch, s),
        "build_dataset": lambda s: build_small(seed=s, cap=10),
        "split_dataset": lambda s: split_dataset(ds, (0.8, 0.1, 0.1), s),
        "TrainConfig": lambda s: TrainConfig(seed=s),
    }


@pytest.mark.parametrize("seed", [-1, "a", 1.5, True, None])
def test_bad_seed_refused(seed):
    for call in seed_calls().values():
        with pytest.raises(ParamError, match="seed"):
            call(seed)


def test_numpy_seed_taken_as_int():
    # numpy's generators draw numpy ints; a model seeded with one still saves.
    m = init_model(ArchDescriptor(8, 5, [ConvBlock(2)]), np.int64(3))
    assert type(m.seed) is int
    assert type(build_small(seed=np.int64(3), cap=10)[0].meta["seed"]) is int


@pytest.mark.parametrize("args", [
    ("isolated_line", 40.5, None, 1, 400),
    ("isolated_line", True, None, 1, 400),
    ("isolated_line", 40, None, 1, 400.0),
    ("isolated_line", 40, None, 1, "400"),
    ("line_space", 40, 80.5, 5, 400),
    ("line_space", 40, 80, 5.0, 400),
    ("line_space", 40, 80, 5, None),
    ("square", "40", None, 1, None),
])
def test_generator_sizes_must_be_integers(args):
    with pytest.raises(ParamError):
        generate_test_pattern(*args)


# -- file headers -----------------------------------------------------------

def rewrite_model_header(path, **fields):
    head, payload = path.read_bytes().split(b"\n", 1)
    header = {**json.loads(head), **fields}
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


@pytest.mark.parametrize("field, value", [
    ("seed", "x"), ("seed", [1]), ("seed", None), ("seed", 1.5), ("seed", True), ("seed", -1),
    ("train_meta", "x"), ("train_meta", [1]), ("train_meta", None),
])
def test_model_header_fields_checked(tmp_path, field, value):
    path = tmp_path / "m.bin"
    save_model(init_model(ArchDescriptor(8, 5, [ConvBlock(2)]), seed=0), path)
    rewrite_model_header(path, **{field: value})
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}.*{field}"):
        load_model(path)


@pytest.mark.parametrize("field, value", [
    ("num_classes", "1e400"), ("num_classes", 2.7), ("num_classes", True),
    ("num_classes", 1), ("num_classes", 70000), ("num_classes", "x"),
    ("px_per_nm", "x"), ("px_per_nm", 0), ("px_per_nm", True), ("px_per_nm", "NaN"),
    ("origin", ["a", 0]), ("origin", [0]), ("origin", "x"), ("origin", [0, None]),
    ("origin", [True, 0]), ("origin", [0, "Infinity"]),
])
def test_iip_sidecar_fields_checked(tmp_path, field, value):
    path = tmp_path / "m.pgm"
    export_iip(iip_map(), path, 20)
    side = tmp_path / "m.pgm.json"
    text = json.dumps({**json.loads(side.read_text()), field: value})
    # JSON's own spellings of the non-finite floats and of a huge number.
    for word in ("1e400", "NaN", "Infinity"):
        text = text.replace(f'"{word}"', word)
    side.write_text(text)
    with pytest.raises(FormatError, match=f"{re.escape(str(side))}.*{field}"):
        import_iip(path)
