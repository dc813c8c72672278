"""Full-pattern correction: classify every pixel's compressed window with
the CNN, split over forked workers, reassemble the predicted IIP map,
threshold and vectorize it into a mask pattern, enforce minimal geometry
rules, and measure quality and scaling.

Every entry point that runs a model (predict_map, recorrect, correct,
bench_scaling) gets its deployment raster from _deployment, which first
checks the model against the config, so a model trained on other tiling
or classes is refused rather than deployed.

The caller and forked worker processes, started on demand and kept, each
on its own pipe, classify one pixel chunk each (model, tiling and the crop
that the chunk's windows read passed in the task; a worker keeps the last
model it received, and a task leaves out a model equal to it); the caller
reads every reply, even when its own chunk fails, and re-raises a worker's
exception with its type.  A chunk holds at least one inference block.  A
caller that may not fork (ilt.fork_safe: daemonic, or running another
thread) classifies every chunk itself.  Inference starts no thread.
predict_map's tasks carry a crop of the raster, which each process
reduces into the polyphase planes of its own compressed field
(window_field), so workers reduce in parallel.
recorrect keeps one deployment memo (_memo) between calls: the raster, the
polyphase planes of the whole raster's compressed field, filled a tile at
a time, each pixel's class once known, and one classified window per
fingerprint.  A region pixel that an earlier call classified takes its
class from the per-pixel map with no read; another whose window, read from
the planes, equals a kept one bit for bit takes that one's class; only the
rest are inferred, from the same planes: in place in the caller's chunk,
and from a crop of them in a worker's.  A new target, tiling, class count
or model replaces the entry.  Like _pool, it is not safe to share between
threads.
predict_batch classifies each distinct window of a group once.  Field
values are reduced by the same ops in the same order whatever planes hold
them, zero beyond the raster whether or not it is cropped; equal windows
get the class of one of them, and the CNN classifies fixed-shape blocks in
which a window's class does not depend on its slot or block-mates, so the
map is bitwise identical for any worker count, chunking, region or memo
state.
"""

from __future__ import annotations

import copy
import mmap
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from pathlib import Path

import numpy as np

from .classifier import ModelParams, fingerprints, inference_block, predict_batch
from .errors import (ConfigError, CoordError, DimMismatch, ParamError, ShapeError, check_int,
                     check_real)
from .grid import RasterGrid, write_csv
from .iip import IipConfig, IipMap, bin_classes, class_values, threshold_iip
from .ilt import fork_safe
from .layout import (
    Bbox,
    LayoutPattern,
    polygon_area,
    polygon_min_edge,
    raster_region,
    rasterize,
    vectorize,
)
from .tiling import TilingConfig, WindowStack, fill_field, provenance, window_field


@dataclass
class CleanupRules:
    min_area: float = 0.0
    min_edge: float = 0.0

    def __post_init__(self):
        for name in ("min_area", "min_edge"):
            check_real(name, getattr(self, name), least=0)


@dataclass
class CorrectionConfig:
    tiling: TilingConfig
    iip: IipConfig
    workers: int = 1
    cleanup: CleanupRules = field(default_factory=CleanupRules)

    def __post_init__(self):
        check_int("workers", self.workers, least=1)


@dataclass
class ConfusionMatrix:
    """counts[ref_class, pred_class] over evaluated pixels."""

    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DimMismatch(f"confusion matrix must be square, got {c.shape}")
        if c.min() < 0:
            raise ParamError("confusion matrix counts must be >= 0")
        self.counts = c.astype(np.int64)

    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        t = self.total()
        return float(np.trace(self.counts) / t) if t else 0.0

    def within_one_accuracy(self) -> float:
        """Fraction of mass on the diagonal and its two neighbors."""
        t = self.total()
        if not t:
            return 0.0
        hit = sum(
            int(np.trace(self.counts, offset=k)) for k in (-1, 0, 1)
        )
        return hit / t


@dataclass
class Correction:
    """Every stage of one correction; all grids share the deployment
    raster's geometry.
    """

    iip_map: IipMap
    threshold: RasterGrid  # binary: 1 where iip_map exceeds the IIP threshold
    pattern: LayoutPattern  # vectorized threshold grid after cleanup
    grid: RasterGrid  # pattern re-rasterized (all zeros when empty)


@dataclass
class ScalingReport:
    rows: list[dict]  # workers, wall_seconds, speedup, efficiency
    consistent: bool
    n_pixels: int


# ---------------------------------------------------------------------------
# Deployment raster and pixel selection
# ---------------------------------------------------------------------------

def deployment_raster(target: LayoutPattern, tiling: TilingConfig) -> RasterGrid:
    """Rasterize the target over its bbox expanded by the interaction
    distance, so every processed pixel sees true dark field beyond the
    layout edge.
    """
    region = raster_region(target, tiling.interaction_distance)
    return rasterize(target, tiling.px_per_nm, region)


def _region_pixels(g: RasterGrid, boxes: list[Bbox]) -> np.ndarray:
    """Sorted flat indices of the pixels whose centers fall inside any box
    (closed bounds); every box must lie within the grid's area.
    """
    gx0, gy0, gx1, gy1 = g.bbox_nm()
    inv = 1.0 / g.px_per_nm
    xs = g.origin[0] + np.arange(g.width) * inv
    ys = g.origin[1] + np.arange(g.height) * inv
    parts = []
    for box in boxes:
        x0, y0, x1, y1 = (check_real("region bbox", c, error=CoordError) for c in box)
        if not (x0 < x1 and y0 < y1):
            raise CoordError(f"degenerate region bbox {box}")
        if x0 < gx0 - 1e-9 or y0 < gy0 - 1e-9 or x1 > gx1 + 1e-9 or y1 > gy1 + 1e-9:
            raise CoordError(f"region bbox {box} outside grid area {g.bbox_nm()}")
        # Centres increase along each axis, so those within the closed
        # bounds form one index range per axis.
        c0, c1 = np.searchsorted(xs, x0, "left"), np.searchsorted(xs, x1, "right")
        r0, r1 = np.searchsorted(ys, y0, "left"), np.searchsorted(ys, y1, "right")
        parts.append((np.arange(r0, r1)[:, None] * g.width + np.arange(c0, c1)).ravel())
    return np.unique(np.concatenate([np.empty(0, np.int64), *parts]))


def _bbox_pixel_mask(g: RasterGrid, boxes: list[Bbox]) -> np.ndarray:
    """_region_pixels as a boolean mask of the grid's shape."""
    mask = np.zeros(g.width * g.height, dtype=bool)
    mask[_region_pixels(g, boxes)] = True
    return mask.reshape(g.height, g.width)


# ---------------------------------------------------------------------------
# Model check and deployment raster
# ---------------------------------------------------------------------------

def _deployment(m: ModelParams, target: LayoutPattern, cfg: CorrectionConfig) -> RasterGrid:
    """The deployment raster of target, once m is checked against cfg."""
    _check_model(m, cfg)
    return deployment_raster(target, cfg.tiling)


def _check_model(m: ModelParams, cfg: CorrectionConfig) -> None:
    """Refuse a model trained on differently tiled or differently classed
    data than cfg describes (ConfigError naming each clash), or whose input
    side or class count does not fit cfg (ShapeError).
    """
    tiling = cfg.tiling
    current = provenance(tiling, cfg.iip.num_classes)
    clashes = [
        f"{key}: model trained with {m.train_meta[key]!r}, config has {val!r}"
        for key, val in current.items()
        if key in m.train_meta and m.train_meta[key] != val
    ]
    if clashes:
        raise ConfigError("model/config mismatch; " + "; ".join(clashes))
    if m.arch.input_side != tiling.output_side:
        raise ShapeError(
            f"model input {m.arch.input_side}px, tiling output "
            f"{tiling.output_side}px"
        )
    if m.arch.num_classes != cfg.iip.num_classes:
        raise ShapeError(
            f"model has {m.arch.num_classes} classes, config {cfg.iip.num_classes}"
        )


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def _task(m: ModelParams, source: RasterGrid | _Memo, flat: np.ndarray, tiling: TilingConfig,
          table: np.ndarray) -> tuple:
    """The task that classifies the deployment raster's pixels with the
    given flat indices: the crop of the source that their windows read,
    and their coords on it.  From a raster (which the task's process
    reduces) that is their box plus the window radius, clipped to the
    raster; from a memo, the rows and columns of its planes that their
    windows span, a view that a worker receives as a copy.  This is the one
    place that tells the two kinds apart."""
    raster = source if isinstance(source, RasterGrid) else source.raster
    coords = np.stack([flat % raster.width, flat // raster.width], axis=1)
    if raster is source:
        r = tiling.window_radius
        x0, y0 = np.maximum(coords.min(axis=0) - r, 0)
        x1, y1 = np.minimum(coords.max(axis=0) + r + 1, (raster.width, raster.height))
        crop = RasterGrid(int(x1 - x0), int(y1 - y0), raster.pixel_center(x0, y0),
                          raster.px_per_nm, raster.values[y0:y1, x0:x1])
        return m, crop, coords - (x0, y0), tiling, table
    f, side = tiling.compression_factor, tiling.output_side
    (j0, i0), (j1, i1) = coords.min(axis=0) // f, coords.max(axis=0) // f + side
    return m, source.planes[:, :, i0:i1, j0:j1], coords - (j0 * f, i0 * f), tiling, table


def _infer_chunk(task: tuple) -> np.ndarray:
    """Class values (table indexed by class id) of the pixels at coords on
    the (cropped) raster."""
    m, raster, coords, tiling, table = task
    return table[predict_batch(m, window_field(raster, coords, tiling))]


def _infer(
    m: ModelParams, source: RasterGrid | _Memo, sel_flat: np.ndarray, cfg: CorrectionConfig,
    workers: int
) -> np.ndarray:
    """Class values of the deployment raster's pixels with the given flat
    indices, read from the raster or from a memo's planes (see _task), in
    at most `workers` chunks, none smaller than one inference block.  A
    process that may not fork (see fork_safe) classifies every chunk
    itself, with the same bits."""
    global _pool
    table = class_values(cfg.iip.num_classes)
    chunks = min(workers, -(-len(sel_flat) // inference_block(m.arch)))
    # Contiguous chunks whose sizes differ by at most one; none is empty.
    tasks = [
        _task(m, source, chunk, cfg.tiling, table)
        for chunk in np.array_split(sel_flat, max(chunks, 1))
        if chunk.size
    ]
    if len(tasks) <= 1 or not fork_safe():
        parts = [_infer_chunk(t) for t in tasks]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
    pool = _worker_pool(len(tasks) - 1)
    # Out of _pool for the call: a call cut short while it reads replies
    # leaves some unread, so its workers are not reused.
    _pool = (os.getpid(), ())
    replies: list = []
    try:
        # The workers get their tasks first; this process classifies the
        # first chunk meanwhile.
        for worker, task in zip(pool, tasks[1:]):
            replies.append(_send(worker, task))
        first = _infer_chunk(tasks[0])
    finally:
        # Every task sent is answered, whatever was raised, so that no
        # reply is left for the next call to read.
        replies = [reply or _receive(worker) for worker, reply in zip(pool, replies)]
        _pool = (os.getpid(), tuple(w for w in pool if not w.conn.closed))
    for reply in replies:
        if isinstance(reply, BaseException):
            raise reply
    return np.concatenate([first, *replies])


@dataclass(eq=False)
class _Worker:
    """A forked process, this process's end of its pipe, and a copy of the
    last model sent to it, which the process keeps."""

    proc: BaseProcess
    conn: Connection
    model: ModelParams | None = None


# (owner pid, idle workers), kept so that only the first call at a worker
# count starts processes; a worker holds no data but its last model, and
# every task carries the rest.
_pool: tuple[int, tuple[_Worker, ...]] = (os.getpid(), ())


def _worker_pool(workers: int) -> tuple[_Worker, ...]:
    """At least `workers` forked worker processes, started on demand
    (fork, not spawn: a spawned worker would pay the package import).  A
    forked child starts its own rather than use its parent's."""
    global _pool
    owner, pool = _pool
    if owner != os.getpid():
        for w in pool:
            w.conn.close()  # the parent's pipe ends, inherited by fork
        pool = ()
    ctx = multiprocessing.get_context("fork")
    while len(pool) < workers:
        conn, child_end = ctx.Pipe()
        ends = [w.conn for w in pool] + [conn]
        proc = ctx.Process(target=_serve, args=(child_end, ends), daemon=True)
        proc.start()
        child_end.close()
        pool += (_Worker(proc, conn),)
    _pool = (os.getpid(), pool)
    return pool


def _serve(conn: Connection, ends: list[Connection]) -> None:
    """A worker: answer each task from conn with its class values, or with
    the exception it raised, until the caller closes the pipe.  A task
    whose model is None is for the last model received."""
    for end in ends:
        end.close()  # the caller's ends, so that its exit reaches recv as EOF
    model = None
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task[0] is None:
            task = (model, *task[1:])
        model = task[0]
        try:
            reply = _infer_chunk(task)
        except Exception as e:
            reply = e
        conn.send(reply)


def _send(worker: _Worker, task: tuple) -> RuntimeError | None:
    """Send a task, without its model when the worker holds an equal one.
    Models are compared by value, since a caller may change one in place."""
    m = task[0]
    held = worker.model is not None and _same_model(worker.model, m)
    try:
        worker.conn.send((None, *task[1:]) if held else task)
    except OSError:
        return _lost(worker)
    if not held:
        worker.model = copy.deepcopy(m)
    return None


def _same_model(a: ModelParams, b: ModelParams) -> bool:
    """Whether a and b have equal archs and bitwise equal weights."""
    return a.arch == b.arch and a.weights.keys() == b.weights.keys() and all(
        w.dtype == b.weights[k].dtype and w.shape == b.weights[k].shape
        and w.tobytes() == b.weights[k].tobytes()
        for k, w in a.weights.items()
    )


def _receive(worker: _Worker):
    try:
        return worker.conn.recv()
    except (EOFError, OSError):
        return _lost(worker)


def _lost(worker: _Worker) -> RuntimeError:
    """The error for a worker that has died; its pipe end is closed, which
    keeps it out of the pool, and it is reaped."""
    worker.conn.close()
    worker.proc.kill()
    worker.proc.join()
    return RuntimeError(
        f"inference worker {worker.proc.pid} died (exit code {worker.proc.exitcode})"
    )


# ---------------------------------------------------------------------------
# Deployment memo
# ---------------------------------------------------------------------------

# Plane values per side of a memo planes tile, the unit it is filled in.
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


class _Memo:
    """What one deployment has classified: its key (target checksum, a
    copy of the tiling, class count) and a deep copy of its model; its
    raster; the polyphase planes of the compressed field of the whole
    zero-padded raster, filled a tile at a time as windows need them; each
    raster pixel's class id + 1, 0 while unknown; and, sorted by
    fingerprint, one classified window per fingerprint, as its pixel's
    flat index and its class value.

    Field value (v, u) compresses the block at raster pixel (u - r, v - r),
    r the window radius, so the window of pixel (x, y) is the one at field
    offset (x, y).  The planes and the class ids live in private mappings
    (_private).
    """

    def __init__(self, key: tuple, m: ModelParams, raster: RasterGrid):
        self.key, self.model, self.raster = key, copy.deepcopy(m), raster
        tiling = key[1]
        side, f = tiling.output_side, tiling.compression_factor
        shape = ((raster.height - 1) // f + side, (raster.width - 1) // f + side)
        self.planes = _private((f, f, *shape), np.float32)
        self.known = _private((raster.height * raster.width,), np.min_scalar_type(key[2]))
        self.stack = window_field(self.planes, np.empty((0, 2)), tiling)
        self.filled = np.zeros((-(-shape[0] // _TILE), -(-shape[1] // _TILE)), bool)
        self.fp = np.empty(0, np.float32)
        self.flat = np.empty(0, np.int64)
        self.values = np.empty(0, np.float64)

    def fill(self, ys: np.ndarray, xs: np.ndarray) -> None:
        """Fill every tile that the windows of pixels (xs, ys) read: those
        up to `reach` tiles below and right of each pixel's own tile, which
        may hold one more tile of each side than its window reads."""
        t, tiling = _TILE, self.key[1]
        f, r = tiling.compression_factor, tiling.window_radius
        reach = (t - 1 + tiling.output_side - 1) // t
        cells = np.zeros_like(self.filled)
        cells[ys // f // t, xs // f // t] = True
        rows = cells.copy()
        for k in range(1, reach + 1):
            rows[k:] |= cells[:-k]
        need = rows.copy()
        for k in range(1, reach + 1):
            need[:, k:] |= rows[:, :-k]
        need &= ~self.filled
        for ty in np.flatnonzero(need.any(axis=1)):
            cols = np.flatnonzero(need[ty])
            # One fill per run of adjacent tiles.
            for run in np.split(cols, np.flatnonzero(np.diff(cols) > 1) + 1):
                i0, j0 = ty * t, run[0] * t
                out = self.planes[:, :, i0 : i0 + t, j0 : (run[-1] + 1) * t]
                fill_field(self.raster, tiling, out, j0 * f - r, i0 * f - r)
        self.filled |= need

    def windows(self, flat: np.ndarray) -> WindowStack:
        """The windows of the raster pixels with the given flat indices,
        read from the planes in place."""
        return self.stack.at(np.stack([flat % self.raster.width, flat // self.raster.width], 1))

    def lookup(self, sel_flat: np.ndarray, block: int) -> tuple[np.ndarray, ...]:
        """(hit, values, fp) for the raster pixels with the given flat
        indices: whether a kept window's fingerprint and float32 bits equal
        the pixel window's, the kept class value where they do, and each
        window's fingerprint.  Windows are read and compared `block` at a
        time."""
        ys, xs = np.divmod(sel_flat, self.raster.width)
        self.fill(ys, xs)
        stack = self.windows(sel_flat)
        hit = np.zeros(len(sel_flat), bool)
        values = np.empty(len(sel_flat), np.float64)
        fp = np.empty(len(sel_flat), np.float32)
        for s in range(0, len(sel_flat), block):
            windows = stack[s : s + block]
            fp[s : s + block] = fingerprints(windows, block)
            j, found = _find(self.fp, fp[s : s + block])
            cand = np.flatnonzero(found)
            kept = self.windows(self.flat[j[cand]])[:]
            same = cand[(windows[cand].view(np.uint32) == kept.view(np.uint32)).all(axis=(1, 2))]
            hit[s + same] = True
            values[s + same] = self.values[j[same]]
        return hit, values, fp

    def add(self, fp: np.ndarray, flat: np.ndarray, values: np.ndarray) -> None:
        """Keep the first classified window of each fingerprint that no kept
        window has."""
        fp, first = np.unique(fp, return_index=True)
        at, found = _find(self.fp, fp)
        fp, first, at = fp[~found], first[~found], at[~found]
        self.fp = np.insert(self.fp, at, fp)
        self.flat = np.insert(self.flat, at, flat[first])
        self.values = np.insert(self.values, at, values[first])


def _find(keys: np.ndarray, fp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(at, found): where each fp would sit in the sorted keys, and
    whether keys holds it there."""
    at = np.searchsorted(keys, fp)
    if not len(keys):
        return at, np.zeros(len(fp), bool)
    return at, keys[np.minimum(at, len(keys) - 1)] == fp


# The last deployment recorrect served, kept between its calls like _pool
# and, like it, not safe to share between threads.
_memo: _Memo | None = None


def _memo_for(m: ModelParams, target: LayoutPattern, cfg: CorrectionConfig) -> _Memo:
    """The kept memo if it serves m, target and cfg, else a new empty one
    (which is not kept until the call that made it succeeds)."""
    key = (target.checksum(), cfg.tiling, cfg.iip.num_classes)
    if _memo is not None and _memo.key == key and _same_model(_memo.model, m):
        return _memo
    tiling = replace(cfg.tiling)
    return _Memo((key[0], tiling, key[2]), m, deployment_raster(target, tiling))


def predict_map(m: ModelParams, target: LayoutPattern, cfg: CorrectionConfig) -> IipMap:
    """Predicted IIP map over the deployment raster; bitwise independent of
    cfg.workers.
    """
    raster = _deployment(m, target, cfg)
    sel_flat = np.arange(raster.width * raster.height, dtype=np.int64)
    values = _infer(m, raster, sel_flat, cfg, cfg.workers)
    grid = raster.with_values(values.reshape(raster.height, raster.width))
    return IipMap(
        grid=grid,
        source_mask_checksum=target.checksum(),
        iik_checksum=cfg.iip.iik.checksum(),
    )


def recorrect(
    prior: IipMap,
    target: LayoutPattern,
    region: list[Bbox],
    m2: ModelParams,
    cfg: CorrectionConfig,
) -> IipMap:
    """Re-run inference with m2 only on pixels inside the given regions and
    splice the new values into a copy of the prior map; everything outside
    is bitwise untouched.  The prior must lie on the deployment raster's
    pixels (size, origin and resolution), else CoordError.  A pixel that
    the deployment memo has classified takes its class from the memo's
    per-pixel map, and one whose window equals a kept one takes that
    window's class; the others are inferred from the memo's planes.  Once
    inference has returned, the memo keeps their windows and every region
    pixel's class.
    """
    global _memo
    _check_model(m2, cfg)
    memo = _memo_for(m2, target, cfg)
    raster = memo.raster
    if raster.placement != prior.grid.placement:
        raise CoordError(
            f"prior map placement {prior.grid.placement} does not match the "
            f"deployment raster's {raster.placement} (width, height, origin "
            "in nm, px/nm)"
        )
    sel_flat = _region_pixels(raster, region)
    table = class_values(cfg.iip.num_classes)
    known = memo.known[sel_flat].astype(np.intp)
    values = table[known - 1]
    new = np.flatnonzero(known == 0)
    hit, values[new], fp = memo.lookup(sel_flat[new], inference_block(m2.arch))
    miss = new[~hit]
    values[miss] = _infer(m2, memo, sel_flat[miss], cfg, cfg.workers)
    memo.add(fp[~hit], sel_flat[miss], values[miss])
    memo.known[sel_flat[new]] = np.searchsorted(table, values[new]) + 1
    _memo = memo
    flat = prior.grid.values.copy().ravel()
    flat[sel_flat] = values
    return IipMap(
        grid=prior.grid.with_values(flat.reshape(prior.grid.shape)),
        source_mask_checksum=prior.source_mask_checksum,
        iik_checksum=prior.iik_checksum,
    )


# ---------------------------------------------------------------------------
# Geometry cleanup and the end-to-end correction
# ---------------------------------------------------------------------------

def cleanup(p: LayoutPattern, min_area: float, min_edge: float) -> LayoutPattern:
    """Drop polygons below the area or edge-length floors (no repair)."""
    CleanupRules(min_area, min_edge)  # refuses a bad floor by name
    keep = [
        poly
        for poly in p.polygons
        if polygon_area(poly) >= min_area and polygon_min_edge(poly) >= min_edge
    ]
    return LayoutPattern(keep, p.layer)


def correct(target: LayoutPattern, m: ModelParams, cfg: CorrectionConfig) -> Correction:
    """Predict the IIP map, threshold it, vectorize, clean up, and
    re-rasterize the cleaned pattern on the map's grid.
    """
    iip_map = predict_map(m, target, cfg)
    mask = threshold_iip(iip_map, cfg.iip.threshold)
    pattern = cleanup(vectorize(mask), cfg.cleanup.min_area, cfg.cleanup.min_edge)
    grid = (
        rasterize(pattern, mask.px_per_nm, mask.bbox_nm())
        if not pattern.is_empty
        else mask.with_values(np.zeros_like(mask.values))
    )
    return Correction(iip_map, mask, pattern, grid)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _as_class_array(x, num_classes: int) -> np.ndarray:
    if isinstance(x, IipMap):
        return bin_classes(x.grid.values, num_classes)
    a = np.asarray(x)
    if np.issubdtype(a.dtype, np.integer):
        if a.size and (a.min() < 0 or a.max() >= num_classes):
            raise ParamError("class ids outside [0, C)")
        return a
    return bin_classes(a, num_classes)


def confusion_matrix(pred, ref, num_classes: int) -> ConfusionMatrix:
    """Counts indexed [reference, predicted]; inputs may be IipMaps, class
    arrays, or [0,1] value arrays (binned).
    """
    check_int("num_classes", num_classes, least=1)
    p = _as_class_array(pred, num_classes)
    r = _as_class_array(ref, num_classes)
    if p.shape != r.shape:
        raise DimMismatch(f"pred {p.shape} vs ref {r.shape}")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (r.ravel().astype(np.int64), p.ravel().astype(np.int64)), 1)
    return ConfusionMatrix(counts)


# ---------------------------------------------------------------------------
# Scaling benchmark
# ---------------------------------------------------------------------------

def bench_scaling(
    m: ModelParams,
    target: LayoutPattern,
    cfg: CorrectionConfig,
    worker_counts: list[int],
    repeats: int = 3,
) -> ScalingReport:
    """Time the inference stage at each worker count, gate on bitwise-equal
    outputs, and report speedup and efficiency relative to the single-worker
    run.

    An untimed warm-up call starts the workers; each repeat then yields
    the mean of as many calls as fill 0.2 s (a small workload's call lasts
    milliseconds), and the wall time is the median over repeats.
    """
    if not worker_counts or worker_counts[0] != 1:
        raise ParamError("worker_counts must start with 1 (the baseline)")
    for w in worker_counts:
        check_int("worker_counts entry", w, least=1)
    check_int("repeats", repeats, least=1)
    raster = _deployment(m, target, cfg)
    sel_flat = np.arange(raster.width * raster.height, dtype=np.int64)
    if sel_flat.size < 10_000:
        raise ParamError(
            f"benchmark workload has {sel_flat.size} pixels; need >= 10000"
        )
    rows = []
    baseline = None
    reference_values = None
    consistent = True
    for w in worker_counts:
        times = []
        _infer(m, raster, sel_flat, cfg, w)
        for _ in range(repeats):
            calls, t0 = 0, time.perf_counter()
            while (elapsed := time.perf_counter() - t0) < 0.2:
                values = _infer(m, raster, sel_flat, cfg, w)
                calls += 1
            times.append(elapsed / calls)
        wall = float(np.median(times))
        if reference_values is None:
            reference_values = values
            baseline = wall
        elif not np.array_equal(values, reference_values):
            consistent = False
        speedup = baseline / wall if wall > 0 else float("inf")
        rows.append(
            {
                "workers": w,
                "wall_seconds": wall,
                "speedup": speedup,
                "efficiency": speedup / w,
            }
        )
    return ScalingReport(rows=rows, consistent=consistent, n_pixels=int(sel_flat.size))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def write_scaling_csv(report: ScalingReport, path: str | Path) -> None:
    rows = (
        (r["workers"], f"{r['wall_seconds']:.6f}", f"{r['speedup']:.4f}", f"{r['efficiency']:.4f}")
        for r in report.rows
    )
    write_csv(path, rows, ["workers", "wall_seconds", "speedup", "efficiency"])


def write_confusion_csv(cm: ConfusionMatrix, path: str | Path) -> None:
    write_csv(path, ([int(v) for v in row] for row in cm.counts))
