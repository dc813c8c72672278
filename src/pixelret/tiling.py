"""Per-pixel training data extraction.

Every pixel of a rasterized target owns a square window whose radius is the
interaction distance: everything that can influence that pixel's correction.
Windows are compressed blockwise with separate row/column reducers (the
directional pair keeps horizontal and vertical context distinguishable) and
paired with the pixel's IIP class to form a dataset.

A compressed field is stored as f x f polyphase planes, plane (a, b) =
field[a::f, b::f] (the shift-and-stitch layout of Long, Shelhamer & Darrell,
CVPR 2015 §3.2), so the window at field offset (r, c) is the contiguous block
plane (r % f, c % f)[r//f : r//f + side, c//f : c//f + side].  Planes
holds a whole raster's planes, filled by tile for the pixels whose windows
are read, and is the one planes geometry of dataset building and
deployment; window_field reads a worker's crop of them.  WindowStack, the
one window reader, serves building, training and deployment alike, and
extract_window plus compress_window is its one-pixel reference.  A
dataset keeps each source's planes, so no step from build to training
holds a stack of every sample's image.
"""

from __future__ import annotations

import hashlib
import json
import mmap
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ChecksumError,
    CoordError,
    DimMismatch,
    EmptyDataset,
    FormatError,
    ParamError,
    check_int,
    check_real,
    check_seed,
)
from .grid import RasterGrid, json_object, read_bytes, sha256_bytes
from .iip import IipConfig, bin_classes, compute_iip
from .layout import LayoutPattern, rasterize

DATASET_FORMAT_VERSION = 1
SPLIT_NAMES = ("train", "val", "test")

# Reducer names; compress_window and window_field reduce with _reduce.
_REDUCERS = ("mean", "max")

# Float64 bytes of one band of fill_field's arrays (padded raster, rows
# reduced, plane rows), and bytes per block of images save_dataset writes;
# bounds their working memory.
_BAND_BYTES = 16 << 20


@dataclass
class TilingConfig:
    """Window and compression geometry.

    window_side = 2*round(interaction_distance*px_per_nm)+1 pixels; after
    trimming the far edge to a multiple of compression_factor, the
    compressed image side is trimmed_side/compression_factor.
    """

    interaction_distance: float = 400.0
    px_per_nm: float = 2.0
    compression_factor: int = 8
    row_reducer: str = "mean"
    col_reducer: str = "max"

    def __post_init__(self):
        for name in ("interaction_distance", "px_per_nm"):
            check_real(name, getattr(self, name), above=0)
        check_int("compression_factor", self.compression_factor, least=1)
        for name in (self.row_reducer, self.col_reducer):
            if name not in _REDUCERS:
                raise ParamError(f"unknown reducer {name!r}; choose from {_REDUCERS}")
        if self.window_side < self.compression_factor:
            raise ParamError("compression_factor exceeds the window side")

    @property
    def window_radius(self) -> int:
        return int(np.floor(self.interaction_distance * self.px_per_nm + 0.5))

    @property
    def window_side(self) -> int:
        return 2 * self.window_radius + 1

    @property
    def output_side(self) -> int:
        return (self.window_side - self.window_side % self.compression_factor) \
            // self.compression_factor


# Dataset meta that a trained model carries, so deployment can refuse a
# config whose tiling or class count differs from its training data's.
PROVENANCE_KEYS = (*(f.name for f in fields(TilingConfig)), "num_classes")


def provenance(tiling: TilingConfig, num_classes: int) -> dict:
    return {**asdict(tiling), "num_classes": num_classes}


class WindowStack:
    """Read-on-demand (n, side, side) float32 stack of sample windows.

    A source is a values array and a view of it whose last two axes are a
    window: window_field's (f, f, rows, cols, side, side) view of one set
    of polyphase planes, or a stored image stack seen as (n, 1, side,
    side).  Sample i is window pos[i] of source src[i], the leading
    entries of pos[i] indexing that source's view: (a, b, row, col) of
    planes, (index, 0) of a stack.  Indexing by int, slice, index array or
    mask reads those windows into a new ndarray; np.asarray reads them
    all; take(idx) selects samples without reading any.
    """

    ndim = 3
    dtype = np.dtype(np.float32)

    def __init__(
        self, sources: list[tuple[np.ndarray, np.ndarray]], src: np.ndarray, pos: np.ndarray
    ):
        self.sources, self.src, self.pos = sources, src, pos
        self.shape = (len(src), *sources[0][1].shape[-2:])

    @classmethod
    def of_array(cls, images) -> "WindowStack":
        """images as one source; a WindowStack is returned as it is."""
        if isinstance(images, WindowStack):
            return images
        images = np.asarray(images, dtype=np.float32)
        if images.ndim != 3 or images.shape[1] != images.shape[2]:
            raise FormatError(f"images must be (n, side, side), got {images.shape}")
        n = len(images)
        pos = np.zeros((n, 4), np.intp)
        pos[:, 0] = np.arange(n)
        return cls([(images, images[:, None])], np.zeros(n, np.intp), pos)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key) -> np.ndarray:
        pos = self.pos[key]
        src, idx = np.atleast_1d(self.src[key]), pos.reshape(-1, 4).T
        if len(self.sources) == 1:
            view = self.sources[0][1]
            out = view[tuple(idx[: view.ndim - 2])]
        else:
            out = np.empty((len(src), *self.shape[1:]), dtype=np.float32)
            for s, (_, view) in enumerate(self.sources):
                k = src == s
                out[k] = view[tuple(i[k] for i in idx[: view.ndim - 2])]
        return out if pos.ndim == 2 else out[0]

    def take(self, idx) -> "WindowStack":
        return WindowStack(self.sources, self.src[idx], self.pos[idx])

    def at(self, ys: np.ndarray, xs: np.ndarray) -> "WindowStack":
        """The windows at field offsets (row ys[i], column xs[i]) of this
        stack's first source, which holds planes, in order; none is read."""
        f = self.sources[0][1].shape[0]
        pos = np.stack([ys % f, xs % f, ys // f, xs // f], axis=1)
        return WindowStack(self.sources[:1], np.zeros(len(pos), np.intp), pos)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = self[:]
        return out if dtype is None else out.astype(dtype, copy=False)


@dataclass
class PixelDataset:
    """Column-oriented sample store: images, labels, coords, split codes.

    Samples are kept in coordinate-sorted order (y then x).  splits holds
    indices into SPLIT_NAMES per sample.  images reads each sample's window
    from its source on demand; an (n, side, side) array passed in is taken
    as one source.
    """

    images: WindowStack = field(repr=False)  # (n, side, side) float32
    labels: np.ndarray = field(repr=False)  # (n,) uint16
    coords: np.ndarray = field(repr=False)  # (n, 2) int32, columns (x, y)
    splits: np.ndarray = field(repr=False)  # (n,) uint8
    meta: dict

    def __post_init__(self):
        self.images = WindowStack.of_array(self.images)
        n = len(self.images)
        if self.labels.shape != (n,) or self.coords.shape != (n, 2) or self.splits.shape != (n,):
            raise FormatError("labels/coords/splits length mismatch with images")
        # A source's range bounds its windows'.  Written so that NaN fails.
        for values, _ in self.images.sources:
            if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
                raise FormatError("image values outside [0, 1]")
        if n and self.splits.max() >= len(SPLIT_NAMES):
            raise FormatError("split code out of range")
        # Sample identity is (source, coord); single-source datasets leave
        # sample_source_index unset and key on coord alone.
        src = self.meta.get("sample_source_index")
        if src is None:
            src = np.zeros(n, np.int64)
        elif not isinstance(src, list) or len(src) != n or any(
            type(s) is not int or not -(2**63) <= s < 2**63 for s in src
        ):
            raise FormatError("sample_source_index must list one int64 integer per sample")
        # Sorted (source, x, y) rows: a duplicate sits next to its twin.
        keys = np.column_stack([src, self.coords]).astype(np.int64)
        keys = keys[np.lexsort(keys.T)]
        if (keys[1:] == keys[:-1]).all(axis=1).any():
            raise FormatError("duplicate (coord, source) pairs in dataset")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def image_side(self) -> int:
        return int(self.images.shape[1])

    @property
    def num_classes(self) -> int:
        return int(self.meta["num_classes"])

    def split_indices(self, name: str) -> np.ndarray:
        if name not in SPLIT_NAMES:
            raise ParamError(f"unknown split {name!r}")
        return np.nonzero(self.splits == SPLIT_NAMES.index(name))[0]


# ---------------------------------------------------------------------------
# Window extraction and compression
# ---------------------------------------------------------------------------

def extract_window(g: RasterGrid, coord: tuple[int, int], cfg: TilingConfig) -> RasterGrid:
    """Square window of cfg.window_side centered on pixel coord=(x, y);
    area outside the grid is zero (dark field beyond the layout).
    """
    x, y = coord
    if not (0 <= x < g.width and 0 <= y < g.height):
        raise CoordError(f"pixel ({x}, {y}) outside grid {g.width}x{g.height}")
    r = cfg.window_radius
    side = cfg.window_side
    out = np.zeros((side, side), dtype=g.values.dtype)
    sy0, sy1 = max(0, y - r), min(g.height, y + r + 1)
    sx0, sx1 = max(0, x - r), min(g.width, x + r + 1)
    out[sy0 - y + r : sy1 - y + r, sx0 - x + r : sx1 - x + r] = g.values[sy0:sy1, sx0:sx1]
    ox, oy = g.pixel_center(x - r, y - r)
    return RasterGrid(side, side, (ox, oy), g.px_per_nm, out)


def compress_window(w: RasterGrid | np.ndarray, cfg: TilingConfig) -> np.ndarray:
    """Blockwise nonuniform compression.

    The far edge is trimmed so the side divides by compression_factor; each
    factor x factor block collapses its row axis with row_reducer, then the
    remaining column axis with col_reducer, each in index order (_reduce).
    Returns float32.
    """
    v = w.values if isinstance(w, RasterGrid) else np.asarray(w)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ParamError(f"window must be square 2D, got shape {v.shape}")
    f = cfg.compression_factor
    s = v.shape[0] - v.shape[0] % f
    if s == 0:
        raise ParamError(f"window side {v.shape[0]} smaller than factor {f}")
    v = v[:s, :s].astype(np.float64)
    rows = _reduce([v[k::f] for k in range(f)], cfg.row_reducer)
    return _reduce([rows[:, k::f] for k in range(f)], cfg.col_reducer).astype(np.float32)


def _reduce(parts: list[np.ndarray], reducer: str) -> np.ndarray:
    """Reduce same-shape float64 arrays elementwise, one part after another
    from the first, the order numpy reduces an axis that is not its inner
    loop; the mean starts from 0.0, as numpy's does, and divides by the
    part count."""
    if reducer == "max":
        acc = parts[0].copy()
        for part in parts[1:]:
            np.maximum(acc, part, out=acc)
        return acc
    acc = parts[0] + 0.0
    for part in parts[1:]:
        acc += part
    acc /= len(parts)
    return acc


def window_field(planes: np.ndarray, coords: np.ndarray, cfg: TilingConfig) -> WindowStack:
    """The windows at field offsets coords[i] = (column, row) of (f, f,
    rows, cols) polyphase planes, in coords order, read on demand from the
    planes in place; an offset whose window leaves them is a CoordError."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    side, f = cfg.output_side, cfg.compression_factor
    if ((coords < 0) | (coords // f + side > (planes.shape[3], planes.shape[2]))).any():
        raise CoordError(f"window offsets outside planes {planes.shape}")
    view = sliding_window_view(planes, (side, side), axis=(2, 3))
    stack = WindowStack([(planes, view)], np.empty(0, np.intp), np.empty((0, 4), np.intp))
    return stack.at(coords[:, 1], coords[:, 0])


def fill_field(g: RasterGrid, cfg: TilingConfig, out: np.ndarray, x: int, y: int) -> None:
    """Fill (f, f, h, w) polyphase planes out with compressed field values:
    out[a, b, i, j] compresses the f x f block of the zero-padded raster at
    top-left pixel (x + b + j*f, y + a + i*f), so plane (a, b) is the
    blockwise compression of the raster shifted by (a, b).  Bands of plane
    rows, each within _BAND_BYTES, reduce the f shifted rows, then the f
    shifted columns, with compress_window's _reduce, into the band's field
    rows, which are then dealt out to the planes; so each value's bits
    match compress_window's whatever box, band or plane holds it.
    """
    f, _, h, w = out.shape
    cols = w * f + f - 1
    band = max(1, _BAND_BYTES // (8 * 3 * f * cols))
    b0, b1 = np.clip((x, x + cols), 0, g.width)
    for i0 in range(0, h, band):
        n, top = min(band, h - i0), y + i0 * f
        a0, a1 = np.clip((top, top + n * f + f - 1), 0, g.height)
        pad = np.zeros((n * f + f - 1, cols))
        pad[a0 - top : a1 - top, b0 - x : b1 - x] = g.values[a0:a1, b0:b1]
        rows = _reduce([pad[k : k + n * f] for k in range(f)], cfg.row_reducer)
        field = _reduce([rows[:, k : k + w * f] for k in range(f)], cfg.col_reducer)
        out[:, :, i0 : i0 + n] = field.reshape(n, f, w, f).transpose(1, 3, 0, 2)


# Plane values per side of a Planes tile, the unit it is filled in.
_TILE = 8


def _private(shape: tuple, dtype) -> np.ndarray:
    """A zeroed array in a private anonymous mapping, so that its untouched
    pages are never backed nor promoted to huge pages, and a forked
    child's writes stay its own."""
    buf = mmap.mmap(-1, max(1, int(np.prod(shape)) * np.dtype(dtype).itemsize),
                    flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype, int(np.prod(shape))).reshape(shape)


class Planes:
    """The (f, f, rows, cols) polyphase planes (values, in a private
    mapping) of the compressed field of a whole zero-padded raster, filled
    a tile of _TILE x _TILE plane values (in every plane) at a time;
    filled marks the tiles written.  Field value (v, u) compresses the
    block at raster pixel (u - r, v - r), r the window radius, so pixel
    (x, y) has the window at field offset (x, y).  Pixels are named by flat
    index y * width + x, and one outside the raster is a CoordError."""

    def __init__(self, raster: RasterGrid, cfg: TilingConfig):
        self.raster, self.cfg = raster, cfg
        side, f = cfg.output_side, cfg.compression_factor
        shape = ((raster.height - 1) // f + side, (raster.width - 1) // f + side)
        self.values = _private((f, f, *shape), np.float32)
        self.stack = window_field(self.values, np.empty((0, 2)), cfg)
        self.filled = np.zeros((-(-shape[0] // _TILE), -(-shape[1] // _TILE)), bool)

    def _yx(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ys, xs) of the pixels with the given flat indices."""
        flat = np.asarray(flat, dtype=np.int64)
        w, h = self.raster.width, self.raster.height
        if flat.size and (flat.min() < 0 or flat.max() >= w * h):
            raise CoordError(f"flat pixel indices outside raster {w}x{h}")
        return np.divmod(flat, w)

    def fill(self, flat: np.ndarray) -> None:
        """Fill every tile that the windows of the pixels with the given
        flat indices read: those up to `reach` tiles below and right of
        each pixel's own tile, which may hold one more tile of each side
        than its window reads."""
        t, cfg = _TILE, self.cfg
        f, r = cfg.compression_factor, cfg.window_radius
        reach = (t - 1 + cfg.output_side - 1) // t
        ys, xs = self._yx(flat)
        cells = np.zeros_like(self.filled)
        cells[ys // f // t, xs // f // t] = True
        need, (h, w) = np.zeros_like(cells), cells.shape
        for dy in range(min(reach + 1, h)):
            for dx in range(min(reach + 1, w)):
                need[dy:, dx:] |= cells[: h - dy, : w - dx]
        need &= ~self.filled
        for ty in np.flatnonzero(need.any(axis=1)):
            cols = np.flatnonzero(need[ty])
            # One fill per run of adjacent tiles.
            for run in np.split(cols, np.flatnonzero(np.diff(cols) > 1) + 1):
                i0, j0 = ty * t, run[0] * t
                out = self.values[:, :, i0 : i0 + t, j0 : (run[-1] + 1) * t]
                fill_field(self.raster, cfg, out, j0 * f - r, i0 * f - r)
        self.filled |= need

    def windows(self, flat: np.ndarray) -> WindowStack:
        """The windows of the pixels with the given flat indices, read on
        demand from the planes in place, which fill must have filled for
        them."""
        return self.stack.at(*self._yx(flat))

    def crop(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(planes, coords): the rows and columns of the planes that the
        windows of the pixels with the given flat indices (at least one)
        span, a view, and those windows' offsets on it, for window_field."""
        ys, xs = self._yx(flat)
        coords = np.stack([xs, ys], axis=1)
        f, side = self.cfg.compression_factor, self.cfg.output_side
        (j0, i0), (j1, i1) = coords.min(axis=0) // f, coords.max(axis=0) // f + side
        return self.values[:, :, i0:i1, j0:j1], coords - (j0 * f, i0 * f)


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------

def build_dataset(
    target: LayoutPattern,
    ref_mask: RasterGrid,
    tiling: TilingConfig,
    iip_cfg: IipConfig,
    per_class_cap: int = 1000,
    seed: int = 0,
) -> PixelDataset:
    """Pair compressed target windows with IIP classes of the reference mask.

    Pixels are selected per class up to per_class_cap (an integer >= 1) via
    a seeded shuffle, then assembled in coordinate order.  The target is
    rasterized on the reference mask's pixels, and the dataset reads its
    windows from the raster's Planes, filled for them alone.  All samples
    start in the train split; use split_dataset to partition.
    """
    check_int("per_class_cap", per_class_cap, least=1)
    seed = check_seed(seed)
    if tiling.px_per_nm != ref_mask.px_per_nm:
        raise ParamError(
            f"tiling at {tiling.px_per_nm} px/nm, mask at {ref_mask.px_per_nm}"
        )
    raster = rasterize(target, ref_mask.px_per_nm, ref_mask.bbox_nm())
    if raster.shape != ref_mask.shape:
        raise DimMismatch(f"target raster {raster.shape} vs reference mask {ref_mask.shape}")
    if not raster.values.any() and not ref_mask.values.any():
        raise EmptyDataset("empty target and empty reference mask")
    iip = compute_iip(ref_mask, iip_cfg.iik)
    label_map = bin_classes(iip.grid.values, iip_cfg.num_classes)

    rng = np.random.Generator(np.random.PCG64(seed))
    flat_labels = label_map.ravel()
    chosen: list[np.ndarray] = []
    for c in range(iip_cfg.num_classes):
        idx = np.nonzero(flat_labels == c)[0]
        if idx.size > per_class_cap:
            idx = idx[rng.permutation(idx.size)[:per_class_cap]]
        chosen.append(idx)
    sel = np.sort(np.concatenate(chosen))

    planes = Planes(raster, tiling)
    planes.fill(sel)
    ys, xs = np.unravel_index(sel, label_map.shape)
    meta = {
        "format_version": DATASET_FORMAT_VERSION,
        "image_side": tiling.output_side,
        **provenance(tiling, iip_cfg.num_classes),
        "per_class_cap": per_class_cap,
        "seed": seed,
        "iik_checksum": iip.iik_checksum,
        "ref_mask_checksum": iip.source_mask_checksum,
        "source_pattern_checksum": target.checksum(),
    }
    return PixelDataset(
        images=planes.windows(sel),
        labels=flat_labels[sel].astype(np.uint16),
        coords=np.stack([xs, ys], axis=1).astype(np.int32),
        splits=np.zeros(sel.size, dtype=np.uint8),
        meta=meta,
    )


def merge_datasets(parts: list[PixelDataset]) -> PixelDataset:
    """Concatenate datasets built from different source patterns.

    Per-part provenance moves into meta: meta["sources"] lists each part's
    pattern checksum and meta["sample_source_index"] tags every sample with
    its part, so (source, coord) stays unique while coords remain per-source
    pixel indices.  The result reads its images from the parts' sources.
    """
    if not parts:
        raise EmptyDataset("nothing to merge")
    sides = {p.image_side for p in parts}
    classes = {p.num_classes for p in parts}
    if len(sides) != 1 or len(classes) != 1:
        raise FormatError("datasets disagree on image side or class count")
    part_ids: list[int] = []
    for k, p in enumerate(parts):
        part_ids.extend([k] * len(p))
    meta = dict(parts[0].meta)
    meta["sources"] = [p.meta.get("source_pattern_checksum", "") for p in parts]
    meta["sample_source_index"] = part_ids
    stacks = [p.images for p in parts]
    first = np.cumsum([0] + [len(s.sources) for s in stacks])
    return PixelDataset(
        images=WindowStack(
            [source for s in stacks for source in s.sources],
            np.concatenate([s.src + k for s, k in zip(stacks, first)]),
            np.concatenate([s.pos for s in stacks]),
        ),
        labels=np.concatenate([p.labels for p in parts]),
        coords=np.concatenate([p.coords for p in parts]),
        splits=np.concatenate([p.splits for p in parts]),
        meta=meta,
    )


def split_dataset(
    d: PixelDataset, fractions: tuple[float, float, float], seed: int
) -> PixelDataset:
    """Assign train/val/test splits, stratified per class; the result
    shares d's arrays but for splits, and has its own meta dict.

    Each class's samples are shuffled with the seeded generator and cut by
    the three fractions (largest-remainder rounding, so per-class sizes are
    exact up to +-1).
    """
    if len(fractions) != len(SPLIT_NAMES):
        raise ParamError(f"need {len(SPLIT_NAMES)} split fractions, got {fractions}")
    for f in fractions:
        check_real("split fraction", f, least=0)
    if not abs(sum(fractions) - 1.0) <= 1e-9:
        raise ParamError(f"fractions must sum to 1, got {fractions}")
    rng = np.random.Generator(np.random.PCG64(check_seed(seed)))
    splits = np.zeros(len(d), dtype=np.uint8)
    for c in np.unique(d.labels):
        idx = np.nonzero(d.labels == c)[0]
        idx = idx[rng.permutation(idx.size)]
        n = idx.size
        base = [int(np.floor(f * n)) for f in fractions]
        rem = n - sum(base)
        fracs = [f * n - b for f, b in zip(fractions, base)]
        for _ in range(rem):
            k = int(np.argmax(fracs))
            base[k] += 1
            fracs[k] = -1.0
        stop1, stop2 = base[0], base[0] + base[1]
        splits[idx[:stop1]] = 0
        splits[idx[stop1:stop2]] = 1
        splits[idx[stop2:]] = 2
    return PixelDataset(d.images, d.labels, d.coords, splits, dict(d.meta))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_FILES = {
    "images": ("images.f32", "<f4"),
    "labels": ("labels.u16", "<u2"),
    "coords": ("coords.i32", "<i4"),
    "splits": ("splits.u8", "u1"),
}


def save_dataset(d: PixelDataset, dirpath: str | Path) -> None:
    """Write a dataset directory: `meta` JSON plus flat little-endian
    binary tensors, each checksummed in meta.  Each tensor is read and
    written in blocks of samples, so the image stack is never held whole.
    """
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    block = max(1, _BAND_BYTES // (4 * d.image_side**2))
    checksums = {}
    for key, (fname, dtype) in _FILES.items():
        column, digest = getattr(d, key), hashlib.sha256()
        with open(dirpath / fname, "wb") as f:
            for start in range(0, len(d), block):
                payload = column[start : start + block].astype(dtype).tobytes()
                f.write(payload)
                digest.update(payload)
        checksums[key] = digest.hexdigest()
    meta = dict(d.meta)
    meta["format_version"] = DATASET_FORMAT_VERSION
    meta["num_samples"] = len(d)
    meta["checksums"] = checksums
    (dirpath / "meta").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_dataset(dirpath: str | Path) -> PixelDataset:
    """Load and verify a dataset directory written by save_dataset."""
    dirpath = Path(dirpath)
    meta_path = dirpath / "meta"
    meta = json_object(read_bytes(meta_path, "dataset meta"), f"dataset meta {meta_path}")
    if meta.get("format_version") != DATASET_FORMAT_VERSION:
        raise FormatError(
            f"dataset format version {meta.get('format_version')} "
            f"(supported: {DATASET_FORMAT_VERSION})"
        )
    for key, least in (("num_samples", 0), ("image_side", 1), ("num_classes", 2)):
        check_int(f"meta field {key!r}", meta.get(key), least=least, error=FormatError)
    checksums = meta.get("checksums")
    if not isinstance(checksums, dict):
        raise FormatError(f"meta field 'checksums' must be an object, got {checksums!r}")
    n, side = meta["num_samples"], meta["image_side"]
    raw = {}
    for key, (fname, dtype) in _FILES.items():
        payload = read_bytes(dirpath / fname, "dataset file")
        digest = sha256_bytes(payload)
        if digest != checksums.get(key):
            raise ChecksumError(f"{fname}: checksum mismatch")
        raw[key] = np.frombuffer(payload, dtype=dtype)
    try:
        images = raw["images"].reshape(n, side, side).astype(np.float32)
        labels = raw["labels"].reshape(n).astype(np.uint16)
        coords = raw["coords"].reshape(n, 2).astype(np.int32)
        splits = raw["splits"].reshape(n).astype(np.uint8)
    except ValueError as e:
        raise FormatError(f"payload size inconsistent with meta: {e}") from None
    return PixelDataset(images, labels, coords, splits, meta)
