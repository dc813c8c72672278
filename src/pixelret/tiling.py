"""Per-pixel training data extraction.

Every pixel of a rasterized target owns a square window whose radius is the
interaction distance: everything that can influence that pixel's correction.
Windows are compressed blockwise with separate row/column reducers (the
directional pair keeps horizontal and vertical context distinguishable) and
paired with the pixel's IIP class to form a dataset.  window_field builds
one compressed field per pixel set and reads each window as a strided view
of it, for dataset building and deployment alike; extract_window plus
compress_window is its one-pixel reference.
"""

from __future__ import annotations

import json
from collections.abc import Callable
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
)
from .grid import RasterGrid, sha256_bytes
from .iip import IipConfig, bin_classes, compute_iip
from .layout import LayoutPattern, rasterize

DATASET_FORMAT_VERSION = 1
SPLIT_NAMES = ("train", "val", "test")

_REDUCER_NAMES = ("mean", "max", "center_weighted")

# Float64 bytes per band of window_field's row stack; bounds its working memory.
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
        if self.interaction_distance <= 0:
            raise ParamError(
                f"interaction_distance must be > 0, got {self.interaction_distance}"
            )
        if self.px_per_nm <= 0:
            raise ParamError(f"px_per_nm must be > 0, got {self.px_per_nm}")
        if self.compression_factor < 1:
            raise ParamError(
                f"compression_factor must be >= 1, got {self.compression_factor}"
            )
        for name in (self.row_reducer, self.col_reducer):
            if name not in _REDUCER_NAMES:
                raise ParamError(f"unknown reducer {name!r}; choose from {_REDUCER_NAMES}")
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


@dataclass
class PixelDataset:
    """Column-oriented sample store: images, labels, coords, split codes.

    Samples are kept in coordinate-sorted order (y then x).  splits holds
    indices into SPLIT_NAMES per sample.
    """

    images: np.ndarray = field(repr=False)  # (n, side, side) float32
    labels: np.ndarray = field(repr=False)  # (n,) uint16
    coords: np.ndarray = field(repr=False)  # (n, 2) int32, columns (x, y)
    splits: np.ndarray = field(repr=False)  # (n,) uint8
    meta: dict

    def __post_init__(self):
        n = self.images.shape[0]
        if self.images.ndim != 3 or self.images.shape[1] != self.images.shape[2]:
            raise FormatError(f"images must be (n, side, side), got {self.images.shape}")
        if self.labels.shape != (n,) or self.coords.shape != (n, 2) or self.splits.shape != (n,):
            raise FormatError("labels/coords/splits length mismatch with images")
        if n and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise FormatError("image values outside [0, 1]")
        if n and self.splits.max() >= len(SPLIT_NAMES):
            raise FormatError("split code out of range")
        # Sample identity is (source, coord); single-source datasets leave
        # sample_source_index unset and key on coord alone.
        src = self.meta.get("sample_source_index")
        if src is None:
            src = [0] * n
        elif len(src) != n:
            raise FormatError("sample_source_index length mismatch")
        keys = {(s, int(x), int(y)) for s, (x, y) in zip(src, self.coords)}
        if n != len(keys):
            raise FormatError("duplicate (coord, source) pairs in dataset")

    def __len__(self) -> int:
        return int(self.images.shape[0])

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

    def subset(self, indices: np.ndarray) -> "PixelDataset":
        idx = np.asarray(indices)
        meta = dict(self.meta)
        src = meta.get("sample_source_index")
        if src is not None:
            meta["sample_source_index"] = [src[int(i)] for i in idx]
        return PixelDataset(
            images=self.images[idx].copy(),
            labels=self.labels[idx].copy(),
            coords=self.coords[idx].copy(),
            splits=self.splits[idx].copy(),
            meta=meta,
        )


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


def _reduce(a: np.ndarray, axis: int, name: str, factor: int) -> np.ndarray:
    if name == "mean":
        return a.mean(axis=axis)
    if name == "max":
        return a.max(axis=axis)
    # center_weighted: triangular weights peaking mid-block.
    idx = np.arange(factor, dtype=np.float64)
    w = 1.0 + np.minimum(idx, factor - 1 - idx)
    w /= w.sum()
    shape = [1] * a.ndim
    shape[axis] = factor
    return (a * w.reshape(shape)).sum(axis=axis)


def compress_window(w: RasterGrid | np.ndarray, cfg: TilingConfig) -> np.ndarray:
    """Blockwise nonuniform compression.

    The far edge is trimmed so the side divides by compression_factor; each
    factor x factor block collapses its row axis with row_reducer, then the
    remaining column axis with col_reducer.  Returns float32.
    """
    v = w.values if isinstance(w, RasterGrid) else np.asarray(w)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ParamError(f"window must be square 2D, got shape {v.shape}")
    f = cfg.compression_factor
    s = v.shape[0] - v.shape[0] % f
    if s == 0:
        raise ParamError(f"window side {v.shape[0]} smaller than factor {f}")
    v = v[:s, :s].astype(np.float64)
    blocks = v.reshape(s // f, f, s // f, f)
    rows_done = _reduce(blocks, 1, cfg.row_reducer, f)
    out = _reduce(rows_done, 2, cfg.col_reducer, f)
    return out.astype(np.float32)


def window_field(g: RasterGrid, coords: np.ndarray, cfg: TilingConfig) -> Callable:
    """Build the compressed field over the box the windows of coords[i] =
    (x, y) cover; return windows(c), the float32 windows of pixels c inside
    coords' bounding box, bitwise equal to compress_window(extract_window).

    With (x0, y0) the box's low corner, field value (v, u) compresses the
    f x f block of the zero-padded raster at top-left pixel (x0 - r + u,
    y0 - r + v), so the window of (x, y) is field[y - y0 + i*f, x - x0 + j*f].
    Row bands, each within _BAND_BYTES, reduce rows over the f shifted rows
    on axis 1, then columns gathered f wide into a contiguous last axis: the
    layouts compress_window reduces in, so the bits match.
    """
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    if ((coords < 0) | (coords >= (g.width, g.height))).any():
        raise CoordError(f"pixel coords outside grid {g.width}x{g.height}")
    side, f = cfg.output_side, cfg.compression_factor
    span = (side - 1) * f + 1
    lo, view = np.zeros(2, np.int64), np.empty((0, 0, side, side), np.float32)
    if len(coords):
        lo = coords.min(axis=0)
        (x, y), (w, h) = lo - cfg.window_radius, np.ptp(coords, axis=0) + span
        field = np.empty((h, w), dtype=np.float32)
        band = max(1, _BAND_BYTES // (8 * f * (w + f - 1)))
        b0, b1 = np.clip((x, x + w + f - 1), 0, g.width)
        for v0 in range(0, h, band):
            n, top = min(band, h - v0), y + v0
            a0, a1 = np.clip((top, top + n + f - 1), 0, g.height)
            pad = np.zeros((n + f - 1, w + f - 1))
            pad[a0 - top : a1 - top, b0 - x : b1 - x] = g.values[a0:a1, b0:b1]
            rows = _reduce(np.stack([pad[a : a + n] for a in range(f)], 1), 1, cfg.row_reducer, f)
            cols = rows[:, np.arange(w)[:, None] + np.arange(f)]
            field[v0 : v0 + n] = _reduce(cols, 2, cfg.col_reducer, f)
        view = sliding_window_view(field, (span, span))[:, :, ::f, ::f]

    def windows(c: np.ndarray) -> np.ndarray:
        u, v = (np.asarray(c, dtype=np.int64).reshape(-1, 2) - lo).T
        if ((u < 0) | (u >= view.shape[1]) | (v < 0) | (v >= view.shape[0])).any():
            raise CoordError(f"pixels outside the field's box at {tuple(lo)}")
        return view[v, u]

    return windows


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------

def _target_raster_like(target: LayoutPattern, ref_mask: RasterGrid) -> RasterGrid:
    inv = 1.0 / ref_mask.px_per_nm
    region = (
        ref_mask.origin[0] - 0.5 * inv,
        ref_mask.origin[1] - 0.5 * inv,
        ref_mask.origin[0] - 0.5 * inv + ref_mask.width * inv,
        ref_mask.origin[1] - 0.5 * inv + ref_mask.height * inv,
    )
    raster = rasterize(target, ref_mask.px_per_nm, region)
    if raster.shape != ref_mask.shape:
        raise DimMismatch(
            f"target raster {raster.shape} vs reference mask {ref_mask.shape}"
        )
    return raster


def build_dataset(
    target: LayoutPattern,
    ref_mask: RasterGrid,
    tiling: TilingConfig,
    iip_cfg: IipConfig,
    per_class_cap: int = 1000,
    seed: int = 0,
) -> PixelDataset:
    """Pair compressed target windows with IIP classes of the reference mask.

    Pixels are selected per class up to per_class_cap via a seeded shuffle,
    then assembled in coordinate order.  All samples start in the train
    split; use split_dataset to partition.
    """
    if iip_cfg.iik is None:
        raise ParamError("iip_cfg.iik is required to build a dataset")
    if tiling.px_per_nm != ref_mask.px_per_nm:
        raise ParamError(
            f"tiling at {tiling.px_per_nm} px/nm, mask at {ref_mask.px_per_nm}"
        )
    raster = _target_raster_like(target, ref_mask)
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
    sel = np.sort(np.concatenate(chosen)) if chosen else np.empty(0, np.int64)
    if sel.size == 0:
        raise EmptyDataset("no pixels selected")

    ys, xs = np.unravel_index(sel, label_map.shape)
    coords = np.stack([xs, ys], axis=1)
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
        images=window_field(raster, coords, tiling)(coords),
        labels=flat_labels[sel].astype(np.uint16),
        coords=coords.astype(np.int32),
        splits=np.zeros(sel.size, dtype=np.uint8),
        meta=meta,
    )


def merge_datasets(parts: list[PixelDataset]) -> PixelDataset:
    """Concatenate datasets built from different source patterns.

    Per-part provenance moves into meta: meta["sources"] lists each part's
    pattern checksum and meta["sample_source_index"] tags every sample with
    its part, so (source, coord) stays unique while coords remain per-source
    pixel indices.
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
    return PixelDataset(
        images=np.concatenate([p.images for p in parts]),
        labels=np.concatenate([p.labels for p in parts]),
        coords=np.concatenate([p.coords for p in parts]),
        splits=np.concatenate([p.splits for p in parts]),
        meta=meta,
    )


def split_dataset(
    d: PixelDataset, fractions: tuple[float, float, float], seed: int
) -> PixelDataset:
    """Assign train/val/test splits, stratified per class.

    Each class's samples are shuffled with the seeded generator and cut by
    the fractions (largest-remainder rounding, so per-class sizes are exact
    up to +-1).
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ParamError(f"fractions must sum to 1, got {fractions}")
    if any(f < 0 for f in fractions):
        raise ParamError(f"fractions must be nonnegative, got {fractions}")
    rng = np.random.Generator(np.random.PCG64(seed))
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
    out = d.subset(np.arange(len(d)))
    out.splits = splits
    return out


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
    binary tensors, each checksummed in meta.
    """
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    arrays = {
        "images": d.images.astype("<f4"),
        "labels": d.labels.astype("<u2"),
        "coords": d.coords.astype("<i4"),
        "splits": d.splits.astype("u1"),
    }
    checksums = {}
    for key, (fname, _) in _FILES.items():
        payload = arrays[key].tobytes()
        (dirpath / fname).write_bytes(payload)
        checksums[key] = sha256_bytes(payload)
    meta = dict(d.meta)
    meta["format_version"] = DATASET_FORMAT_VERSION
    meta["num_samples"] = len(d)
    meta["checksums"] = checksums
    (dirpath / "meta").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_dataset(dirpath: str | Path) -> PixelDataset:
    """Load and verify a dataset directory written by save_dataset."""
    dirpath = Path(dirpath)
    meta_path = dirpath / "meta"
    if not meta_path.exists():
        raise FormatError(f"{dirpath} has no meta file")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as e:
        raise FormatError(f"meta file is not valid JSON: {e}") from None
    if meta.get("format_version") != DATASET_FORMAT_VERSION:
        raise FormatError(
            f"dataset format version {meta.get('format_version')} "
            f"(supported: {DATASET_FORMAT_VERSION})"
        )
    for key in ("num_samples", "image_side", "num_classes", "checksums"):
        if key not in meta:
            raise FormatError(f"meta missing field {key!r}")
    n, side = meta["num_samples"], meta["image_side"]
    raw = {}
    for key, (fname, dtype) in _FILES.items():
        fpath = dirpath / fname
        if not fpath.exists():
            raise FormatError(f"missing dataset file {fname}")
        payload = fpath.read_bytes()
        digest = sha256_bytes(payload)
        if digest != meta["checksums"].get(key):
            raise ChecksumError(f"{fname}: checksum mismatch")
        raw[key] = np.frombuffer(payload, dtype=dtype)
    try:
        images = raw["images"].reshape(n, side, side).astype(np.float32)
        labels = raw["labels"].astype(np.uint16)
        coords = raw["coords"].reshape(n, 2).astype(np.int32)
        splits = raw["splits"].astype(np.uint8)
    except ValueError as e:
        raise FormatError(f"payload size inconsistent with meta: {e}") from None
    if labels.shape != (n,) or splits.shape != (n,):
        raise FormatError("payload size inconsistent with meta")
    return PixelDataset(images, labels, coords, splits, meta)
