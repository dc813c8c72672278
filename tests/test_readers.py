"""Every reader fails by name: a missing file, a directory, bytes that are
not UTF-8, text that is not JSON, JSON nested past the parser's stack and
JSON that holds no object each raise FormatError naming the path."""

import re

import numpy as np
import pytest
from conftest import make_grid
from test_tiling import build_small

from pixelret.classifier import ArchDescriptor, ConvBlock, init_model, load_model, save_model
from pixelret.cli import _read_pattern, load_config
from pixelret.errors import FormatError
from pixelret.grid import read_graymap, write_graymap
from pixelret.iip import compute_iip, export_iip, import_iip, make_iik
from pixelret.tiling import load_dataset, save_dataset


def config(tmp):
    path = tmp / "c.json"
    path.write_text("{}")
    return path, lambda: load_config(str(path), False, {})


def layout(tmp):
    path = tmp / "p.layout"
    path.write_text('{units: "nm", polygons: [[0,0,10,0,10,10,0,10]]}')
    return path, lambda: _read_pattern(str(path))


def model(tmp):
    path = tmp / "m.bin"
    save_model(init_model(ArchDescriptor(8, 5, [ConvBlock(2)]), seed=0), path)
    return path, lambda: load_model(path)


def dataset(fname):
    def make(tmp):
        save_dataset(build_small(cap=10)[0], tmp / "d")
        return tmp / "d" / fname, lambda: load_dataset(tmp / "d")
    return make


def iip(suffix):
    def make(tmp):
        m = compute_iip(make_grid(np.ones((8, 8))), make_iik("gaussian", 3.0, 9.0, 1.0))
        export_iip(m, tmp / "m.pgm", 20)
        return tmp / f"m.pgm{suffix}", lambda: import_iip(tmp / "m.pgm")
    return make


def graymap(tmp):
    path = tmp / "g.pgm"
    write_graymap(make_grid(np.ones((4, 4))), path)
    return path, lambda: read_graymap(path)


def directory(path):
    path.unlink()
    path.mkdir()


CORRUPT = {
    "missing": lambda path: path.unlink(),
    "directory": directory,
    "not UTF-8": lambda path: path.write_bytes(b'{"units": "\xff"}\n'),
    "not JSON": lambda path: path.write_bytes(b"{not json\n"),
    "too deep": lambda path: path.write_bytes(b"[" * 100_000 + b"\n"),
    "JSON list": lambda path: path.write_bytes(b"[1, 2]\n"),
}
FILES = ["missing", "directory"]
JSON = list(CORRUPT)
READERS = {
    "config": (config, JSON),
    # Layout syntax errors are ParseErrors, tested with the parser.
    "layout": (layout, FILES + ["not UTF-8"]),
    "model": (model, JSON),
    "dataset meta": (dataset("meta"), JSON),
    "dataset tensor": (dataset("coords.i32"), FILES),
    "IIP sidecar": (iip(".json"), JSON),
    "IIP graymap": (iip(""), FILES),
    "graymap": (graymap, FILES),
}


@pytest.mark.parametrize("reader, case", [
    (reader, case) for reader, (_, cases) in READERS.items() for case in cases
])
def test_unreadable_input_named(tmp_path, reader, case):
    make, _ = READERS[reader]
    path, load = make(tmp_path)
    CORRUPT[case](path)
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load()
