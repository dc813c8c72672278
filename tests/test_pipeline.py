import multiprocessing
import os
import threading
import tracemalloc

import numpy as np
import pytest

from pixelret import classifier, pipeline, tiling
from pixelret.classifier import ArchDescriptor, ConvBlock, inference_block, init_model, predict
from pixelret.errors import ConfigError, CoordError, DimMismatch, ParamError, ShapeError
from pixelret.grid import RasterGrid, iou
from pixelret.ilt import fork_safe
from pixelret.iip import IipConfig, IipMap, class_value, class_values, make_iik, threshold_iip
from pixelret.layout import LayoutPattern, rasterize
from pixelret.pipeline import (
    CleanupRules,
    ConfusionMatrix,
    CorrectionConfig,
    bench_scaling,
    cleanup,
    confusion_matrix,
    correct,
    deployment_raster,
    predict_map,
    recorrect,
    write_confusion_csv,
    write_scaling_csv,
)
from pixelret.tiling import TilingConfig, compress_window, extract_window


def rect(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def toy_cfg(workers=1, **cleanup_kw):
    tiling = TilingConfig(
        interaction_distance=8.0, px_per_nm=1.0, compression_factor=2,
        row_reducer="mean", col_reducer="mean",
    )
    iik = make_iik("gaussian", 2.0, 6.0, 1.0)
    return CorrectionConfig(
        tiling=tiling,
        iip=IipConfig(num_classes=5, iik=iik, threshold=0.5),
        workers=workers,
        cleanup=CleanupRules(**cleanup_kw),
    )


def toy_model(num_classes=5, seed=0):
    arch = ArchDescriptor(
        input_side=8, num_classes=num_classes,
        conv_blocks=[ConvBlock(4), ConvBlock(8)],
    )
    return init_model(arch, seed=seed)


def zero_model(num_classes=5):
    m = toy_model(num_classes)
    for k in m.weights:
        m.weights[k] = np.zeros_like(m.weights[k])
    return m


PATTERN = LayoutPattern([rect(8, 8, 24, 24)])
# Four lines: along them and between them many windows are equal.
LINES = LayoutPattern([rect(8 + 12 * k, 8, 14 + 12 * k, 40) for k in range(4)])


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    """Every test starts with no deployment memo and leaves none behind."""
    monkeypatch.setattr(pipeline, "_memo", None)


def oracle_map(m, target, cfg):
    """The deployment raster's class values, one pixel at a time:
    class_value(predict(compress_window(extract_window(...))))."""
    raster = deployment_raster(target, cfg.tiling)
    out = np.empty(raster.shape)
    for y in range(raster.height):
        for x in range(raster.width):
            img = compress_window(extract_window(raster, (x, y), cfg.tiling), cfg.tiling)
            out[y, x] = class_value(predict(m, img), cfg.iip.num_classes)
    return out


class TestConfigs:
    def test_cleanup_rules(self):
        with pytest.raises(ParamError):
            CleanupRules(min_area=-1.0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ParamError, match="finite"):
                CleanupRules(min_area=value)
            with pytest.raises(ParamError, match="finite"):
                CleanupRules(min_edge=value)

    def test_workers_positive(self):
        with pytest.raises(ParamError):
            toy_cfg(workers=0)
        for value in (1.5, 2.0, True):
            with pytest.raises(ParamError, match="workers"):
                toy_cfg(workers=value)


class TestPredictMap:
    def test_zero_head_uniform_class_zero(self):
        out = predict_map(zero_model(), PATTERN, toy_cfg())
        expected = class_value(0, 5)
        assert np.all(out.grid.values == expected)
        assert out.source_mask_checksum == PATTERN.checksum()

    def test_worker_count_invariance(self):
        m = toy_model()
        a = predict_map(m, PATTERN, toy_cfg(workers=1))
        b = predict_map(m, PATTERN, toy_cfg(workers=2))
        c = predict_map(m, PATTERN, toy_cfg(workers=4))
        assert np.array_equal(a.grid.values, b.grid.values)
        assert np.array_equal(a.grid.values, c.grid.values)

    def test_translation_consistency(self):
        m = toy_model()
        moved = LayoutPattern([rect(8 + 4, 8 + 4, 24 + 4, 24 + 4)])
        a = predict_map(m, PATTERN, toy_cfg())
        b = predict_map(m, moved, toy_cfg())
        assert np.array_equal(a.grid.values, b.grid.values)
        assert b.grid.origin[0] == a.grid.origin[0] + 4
        assert b.grid.origin[1] == a.grid.origin[1] + 4

    def test_shape_mismatches(self):
        bad_side = init_model(
            ArchDescriptor(10, 5, [ConvBlock(4)]), seed=0
        )
        with pytest.raises(ShapeError):
            predict_map(bad_side, PATTERN, toy_cfg())
        bad_classes = toy_model(num_classes=7)
        with pytest.raises(ShapeError):
            predict_map(bad_classes, PATTERN, toy_cfg())

    def test_trained_with_other_tiling_rejected(self):
        # A model trained with other reducers is refused, not deployed.
        m = toy_model()
        prior = predict_map(m, PATTERN, toy_cfg())
        m.train_meta["col_reducer"] = "max"
        with pytest.raises(ConfigError, match="col_reducer"):
            predict_map(m, PATTERN, toy_cfg())
        with pytest.raises(ConfigError, match="col_reducer"):
            recorrect(prior, PATTERN, [prior.grid.bbox_nm()], m, toy_cfg())

    def test_long_uniform_runs(self, monkeypatch):
        # A long bar: along its rows and in the dark field many windows are
        # equal, and each is classified once.
        bar = LayoutPattern([rect(8, 8, 72, 20)])
        m = toy_model(seed=4)
        want = oracle_map(m, bar, toy_cfg())
        forwarded = []
        real = classifier._forward
        with monkeypatch.context() as patch:
            patch.setattr(classifier, "_forward",
                          lambda m, x, cache=None: forwarded.append(len(x)) or real(m, x))
            assert np.array_equal(predict_map(m, bar, toy_cfg()).grid.values, want)
        assert sum(forwarded) < want.size / 2
        for workers in (2, 3):
            assert np.array_equal(predict_map(m, bar, toy_cfg(workers)).grid.values, want)

    def test_deployment_raster_margin(self):
        g = deployment_raster(PATTERN, toy_cfg().tiling)
        # bbox (8,8,24,24) expanded by interaction distance 8 on all sides
        assert g.bbox_nm() == (0.0, 0.0, 32.0, 32.0)
        assert g.shape == (32, 32)


def worker_pids():
    return [w.proc.pid for w in pipeline._pool[1]]


def report_workers(conn, m):
    """Runs in a forked child: its map at 2 workers and its workers' pids."""
    out = predict_map(m, PATTERN, toy_cfg(workers=2))
    conn.send((worker_pids(), out.grid.values))


def map_in_daemon(m):
    """Runs in a pool worker, which may not start a process: its map at 2
    workers and the processes it started."""
    assert multiprocessing.current_process().daemon
    values = predict_map(m, PATTERN, toy_cfg(workers=2)).grid.values
    return values, multiprocessing.active_children()


class TestWorkers:
    """Inference workers are forked on demand, each on its own pipe, and
    kept between calls; every call reads back exactly its own replies."""

    def test_workers_reused(self):
        # LINES's 2,784 px make 22 blocks, a chunk for each of the kept
        # workers and a new one.
        m = toy_model()
        want = predict_map(m, LINES, toy_cfg()).grid.values
        a = predict_map(m, LINES, toy_cfg(workers=2))
        pids = worker_pids()
        assert pids
        b = predict_map(m, LINES, toy_cfg(workers=2))
        assert worker_pids() == pids
        # A call that needs more workers keeps these and starts the rest.
        assert len(pids) + 2 <= 22
        c = predict_map(m, LINES, toy_cfg(workers=len(pids) + 2))
        assert worker_pids()[: len(pids)] == pids
        assert len(worker_pids()) == len(pids) + 1
        for out in (a, b, c):
            assert np.array_equal(out.grid.values, want)

    def test_forked_child_starts_its_own(self):
        m = toy_model()
        predict_map(m, PATTERN, toy_cfg(workers=2))
        parent = worker_pids()
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=report_workers, args=(send, m))
        child.start()
        assert receive.poll(120)
        pids, values = receive.recv()
        child.join(60)
        assert child.exitcode == 0
        assert pids and not set(pids) & set(parent)
        assert np.array_equal(values, predict_map(m, PATTERN, toy_cfg()).grid.values)
        assert worker_pids() == parent

    def test_worker_exception_reaches_caller(self, monkeypatch):
        m = toy_model()
        want = predict_map(m, PATTERN, toy_cfg()).grid.values
        real = pipeline._task

        def off_crop(m, raster, flat, tiling, table):
            # Every chunk but the caller's (which starts at pixel 0) gets
            # coords past its crop, which window_field refuses.
            task = real(m, raster, flat, tiling, table)
            if flat[0]:
                task = (*task[:2], task[2] + (0, raster.height), *task[3:])
            return task

        monkeypatch.setattr(pipeline, "_task", off_crop)
        with pytest.raises(CoordError, match="outside grid"):
            predict_map(m, PATTERN, toy_cfg(workers=3))
        pids = worker_pids()
        monkeypatch.undo()
        assert np.array_equal(predict_map(m, PATTERN, toy_cfg(workers=3)).grid.values, want)
        assert worker_pids() == pids

    def test_killed_worker_named_then_replaced(self):
        m = toy_model()
        want = predict_map(m, PATTERN, toy_cfg()).grid.values
        predict_map(m, PATTERN, toy_cfg(workers=2))
        proc = pipeline._pool[1][0].proc
        proc.kill()
        proc.join(60)
        assert not proc.is_alive()
        with pytest.raises(RuntimeError, match=f"worker {proc.pid} died"):
            predict_map(m, PATTERN, toy_cfg(workers=2))
        assert proc.pid not in worker_pids()
        assert np.array_equal(predict_map(m, PATTERN, toy_cfg(workers=2)).grid.values, want)
        assert proc.pid not in worker_pids()

    def test_worker_dying_on_its_task_named(self, monkeypatch):
        caller, real = os.getpid(), pipeline._infer_chunk

        def dying(task):
            if os.getpid() != caller:
                os._exit(3)
            return real(task)

        # Fresh workers, forked with the patched chunk; the kept ones are
        # restored with the pool afterwards.
        monkeypatch.setattr(pipeline, "_infer_chunk", dying)
        monkeypatch.setattr(pipeline, "_pool", (caller, ()))
        with pytest.raises(RuntimeError, match=r"died \(exit code 3\)"):
            predict_map(toy_model(), PATTERN, toy_cfg(workers=2))
        assert pipeline._pool == (caller, ())

    def test_daemonic_caller_classifies_itself(self):
        m = toy_model()
        with multiprocessing.get_context("fork").Pool(1) as pool:
            values, children = pool.apply_async(map_in_daemon, (m,)).get(timeout=120)
        assert values.tobytes() == predict_map(m, PATTERN, toy_cfg()).grid.values.tobytes()
        assert children == []

    def test_error_in_callers_chunk_drains_replies(self, monkeypatch):
        m, m2 = toy_model(), toy_model(seed=9)
        predict_map(m, PATTERN, toy_cfg(workers=3))  # forks the workers unpatched
        pids = worker_pids()

        def failing(task):
            raise ZeroDivisionError("the caller's chunk")

        monkeypatch.setattr(pipeline, "_infer_chunk", failing)
        with pytest.raises(ZeroDivisionError):
            predict_map(m, PATTERN, toy_cfg(workers=3))
        monkeypatch.undo()
        # The next call reads its own replies, not the failed call's.
        want = predict_map(m2, PATTERN, toy_cfg()).grid.values
        assert np.array_equal(predict_map(m2, PATTERN, toy_cfg(workers=3)).grid.values, want)
        assert worker_pids() == pids

    def test_call_cut_short_in_its_replies(self, monkeypatch):
        m, m2 = toy_model(), toy_model(seed=9)
        predict_map(m, PATTERN, toy_cfg(workers=2))
        pids = worker_pids()

        def interrupted(worker):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "_receive", interrupted)
        with pytest.raises(KeyboardInterrupt):
            predict_map(m, PATTERN, toy_cfg(workers=2))
        monkeypatch.undo()
        # Its workers, whose replies were never read, are not reused.
        want = predict_map(m2, PATTERN, toy_cfg()).grid.values
        assert np.array_equal(predict_map(m2, PATTERN, toy_cfg(workers=2)).grid.values, want)
        assert worker_pids() and not set(worker_pids()) & set(pids)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("factor", [1, 2])
    def test_boxes_at_raster_edges(self, workers, factor):
        # Each chunk's task holds only the raster its windows read, so
        # boxes at every edge and corner cut crops that the raster clips.
        # At factor 1 a window reads its whole side, radius included; at
        # factor 2 compression trims its far edge.  A box holds 400 px,
        # at least one 128-image block per worker, and the memo is emptied
        # before each call, so every pixel runs in a chunk.
        cfg = toy_cfg()
        cfg.tiling.compression_factor = factor
        arch = ArchDescriptor(cfg.tiling.output_side, 5, [ConvBlock(4), ConvBlock(8)])
        m1, m2 = init_model(arch, seed=0), init_model(arch, seed=9)
        prior = predict_map(m1, PATTERN, cfg)
        fresh = predict_map(m2, PATTERN, cfg).grid.values
        x0, y0, x1, y1 = prior.grid.bbox_nm()
        corners = [
            (x0 + fx * (x1 - x0 - 20), y0 + fy * (y1 - y0 - 20))
            for fy in (0, 0.5, 1) for fx in (0, 0.5, 1)
        ]
        regions = [[(x, y, x + 20, y + 20)] for x, y in corners]
        regions.append([(x, y, x + 20, y + 20) for x, y in corners[::8]])
        cfg.workers = workers
        assert inference_block(arch) * workers <= 400
        for region in regions:
            pipeline._memo = None
            out = recorrect(prior, PATTERN, region, m2, cfg)
            mask = pipeline._bbox_pixel_mask(prior.grid, region)
            assert np.array_equal(out.grid.values[mask], fresh[mask])
            assert np.array_equal(out.grid.values[~mask], prior.grid.values[~mask])

    def test_task_crop(self):
        raster = deployment_raster(PATTERN, toy_cfg().tiling)  # 32 x 32, radius 8
        flat = np.array([20 * 32 + 10, 20 * 32 + 12, 22 * 32 + 11])
        _, crop, coords, _, _ = pipeline._task(toy_model(), raster, flat, toy_cfg().tiling, None)
        assert crop.shape == (31 - 12, 21 - 2)
        assert np.array_equal(crop.values, raster.values[12:31, 2:21])
        assert crop.origin == raster.pixel_center(2, 12)
        assert np.array_equal(coords, [[8, 8], [10, 8], [9, 10]])
        # Clipped to the raster at its corner.
        _, crop, coords, _, _ = pipeline._task(toy_model(), raster, np.array([0, 33]),
                                               toy_cfg().tiling, None)
        assert crop.shape == (10, 10) and crop.origin == raster.origin
        assert np.array_equal(coords, [[0, 0], [1, 1]])

    def test_model_resent_only_when_changed(self):
        m = toy_model()
        cfg = toy_cfg(workers=2)
        prior = predict_map(m, PATTERN, cfg)
        region = [prior.grid.bbox_nm()]
        worker = pipeline._pool[1][0]
        sent = []

        class Recording:
            """The worker's pipe end, recording whether each task held a model."""

            def __init__(self, conn):
                self.conn = conn

            def send(self, task):
                sent.append(task[0] is not None)
                self.conn.send(task)

            def __getattr__(self, name):
                return getattr(self.conn, name)

        worker.conn = Recording(worker.conn)
        try:
            first = recorrect(prior, PATTERN, region, m, cfg)
            m.weights["conv0_w"] *= -1.0  # in place: the same object, other weights
            second = recorrect(prior, PATTERN, region, m, cfg)
        finally:
            worker.conn = worker.conn.conn
        assert sent == [False, True]
        assert np.array_equal(first.grid.values, prior.grid.values)
        assert not np.array_equal(second.grid.values, first.grid.values)
        assert np.array_equal(second.grid.values, oracle_map(m, PATTERN, cfg))

    def test_no_process_accumulates(self):
        m = toy_model()
        predict_map(m, PATTERN, toy_cfg(workers=3))
        before = {p.pid for p in multiprocessing.active_children()}
        for workers in (2, 3, 1, 3, 2):
            predict_map(m, PATTERN, toy_cfg(workers=workers))
        assert {p.pid for p in multiprocessing.active_children()} <= before


class TestChunks:
    """_infer cuts at most `workers` chunks, none smaller than one
    inference block, and forks only where fork_safe()."""

    @staticmethod
    def requested(monkeypatch):
        """The worker counts _infer asks _worker_pool for."""
        counts, real = [], pipeline._worker_pool

        def counting(workers):
            counts.append(workers)
            return real(workers)

        monkeypatch.setattr(pipeline, "_worker_pool", counting)
        return counts

    def test_no_chunk_below_one_block(self, monkeypatch):
        m = toy_model()
        assert inference_block(m.arch) == 128  # PATTERN's 1,024 px make 8 blocks
        want = predict_map(m, PATTERN, toy_cfg()).grid.values
        counts = self.requested(monkeypatch)
        for workers, pool in ((2, [1]), (8, [7]), (10_000, [7])):
            counts.clear()
            assert np.array_equal(predict_map(m, PATTERN, toy_cfg(workers)).grid.values, want)
            assert counts == pool
        # A region of fewer pixels than one block runs in the caller.
        counts.clear()
        x0, y0, _, _ = deployment_raster(PATTERN, toy_cfg().tiling).bbox_nm()
        region = [(x0, y0, x0 + 10, y0 + 10)]
        out = recorrect(predict_map(m, PATTERN, toy_cfg()), PATTERN, region, m, toy_cfg(3))
        assert counts == []
        assert np.array_equal(out.grid.values, want)

    def test_no_fork_beside_another_thread(self, monkeypatch):
        m = toy_model()
        want = predict_map(m, PATTERN, toy_cfg()).grid.values
        forks, counting = [], [True]
        os.register_at_fork(before=lambda: counting[0] and forks.append(os.getpid()))
        # No kept worker, so a 2-worker call could only fork one.
        monkeypatch.setattr(pipeline, "_pool", (os.getpid(), ()))
        done = threading.Event()
        waiting = threading.Thread(target=done.wait, args=(60,))
        waiting.start()
        try:
            assert not fork_safe()
            values = predict_map(m, PATTERN, toy_cfg(workers=2)).grid.values
        finally:
            done.set()
            waiting.join(60)
            counting[0] = False
        assert forks == []
        assert values.tobytes() == want.tobytes()


def request_stream(grid, seed, n):
    """n seeded requests of 1-2 boxes of 2-7 nm a side inside the grid."""
    rng = np.random.default_rng(seed)
    x0, y0, x1, y1 = grid.bbox_nm()
    for _ in range(n):
        boxes = []
        for _ in range(int(rng.integers(1, 3))):
            w, h = rng.integers(2, 8, 2)
            bx, by = rng.uniform(x0, x1 - w), rng.uniform(y0, y1 - h)
            boxes.append((bx, by, bx + w, by + h))
        yield boxes


def count_inferred(monkeypatch):
    """The pixel count of every _infer call."""
    counts, real = [], pipeline._infer

    def counting(m, raster, sel_flat, cfg, workers):
        counts.append(len(sel_flat))
        return real(m, raster, sel_flat, cfg, workers)

    monkeypatch.setattr(pipeline, "_infer", counting)
    return counts


class TestDeploymentMemo:
    """recorrect gives a pixel the class of a bitwise-equal window that an
    earlier call on the same deployment classified, and infers the rest."""

    def test_stream_bitwise_equal_to_emptied_memo(self, monkeypatch):
        m, cfg = toy_model(seed=3), toy_cfg()
        inferred = count_inferred(monkeypatch)
        prior = predict_map(zero_model(), LINES, cfg)
        maps, touched = {}, np.zeros(prior.grid.shape, bool)
        for empty in (False, True):
            inferred.clear()
            out = prior
            for boxes in request_stream(prior.grid, 5, 300):
                if empty:
                    pipeline._memo = None
                out = recorrect(out, LINES, boxes, m, cfg)
                touched |= pipeline._bbox_pixel_mask(out.grid, boxes)
            maps[empty] = (out.grid.values, sum(inferred))
        assert maps[False][0].tobytes() == maps[True][0].tobytes()
        assert maps[False][1] < maps[True][1] / 4
        fresh = predict_map(m, LINES, cfg).grid.values
        assert np.array_equal(maps[False][0][touched], fresh[touched])
        assert np.array_equal(maps[False][0][~touched], prior.grid.values[~touched])

    def test_entry_replaced_on_any_difference(self, monkeypatch):
        inferred = count_inferred(monkeypatch)
        m, cfg = toy_model(), toy_cfg()

        def served(target, model, cfg):
            """recorrect over target's whole raster equals a fresh map; the
            entry it leaves."""
            prior = predict_map(zero_model(model.arch.num_classes), target, cfg)
            out = recorrect(prior, target, [prior.grid.bbox_nm()], model, cfg)
            assert out.grid.values.tobytes() == predict_map(model, target, cfg).grid.values.tobytes()
            return pipeline._memo

        memo = served(PATTERN, m, cfg)
        inferred.clear()
        # An equal model, compared by value, keeps it: the prior and the
        # fresh map infer all 1,024 px, recorrect none.
        assert served(PATTERN, m.copy(), cfg) is memo
        assert inferred == [1024, 0, 1024]
        # Each call differs from the last in one thing only.
        m.weights["conv0_w"] *= -1.0  # in place
        memo, last = served(PATTERN, m, cfg), memo
        assert memo is not last
        cfg.tiling.row_reducer = "max"  # in place
        memo, last = served(PATTERN, m, cfg), memo
        assert memo is not last
        memo, last = served(LayoutPattern([rect(12, 12, 28, 28)]), m, cfg), memo
        assert memo is not last
        # A class count fits only a model of as many classes.
        cfg7 = CorrectionConfig(cfg.tiling, IipConfig(num_classes=7, iik=cfg.iip.iik))
        assert served(PATTERN, toy_model(num_classes=7), cfg7) is not memo

    def test_every_fingerprint_colliding(self, monkeypatch):
        # A zero probe gives every window the same fingerprint, so the
        # entry keeps one window and every other one is told apart by bits.
        m, cfg = toy_model(seed=3), toy_cfg()
        want = predict_map(m, LINES, cfg).grid.values
        monkeypatch.setattr(classifier, "_probe", lambda size: np.zeros(size, np.float32))
        out = predict_map(zero_model(), LINES, cfg)
        for boxes in request_stream(out.grid, 6, 20):
            out = recorrect(out, LINES, boxes, m, cfg)
            mask = pipeline._bbox_pixel_mask(out.grid, boxes)
            assert np.array_equal(out.grid.values[mask], want[mask])
        assert len(pipeline._memo.fp) == 1

    def test_failing_worker_leaves_entry_unchanged(self, monkeypatch):
        m, cfg = toy_model(), toy_cfg(workers=2)
        prior = predict_map(m, PATTERN, toy_cfg())
        x0, y0, _, _ = prior.grid.bbox_nm()
        recorrect(prior, PATTERN, [(x0, y0, x0 + 3, y0 + 3)], m, cfg)
        memo = pipeline._memo
        kept = [a.tobytes() for a in (memo.fp, memo.flat, memo.values)]
        caller, real = os.getpid(), pipeline._infer_chunk

        def failing(task):
            if os.getpid() != caller:
                raise ZeroDivisionError("a worker's chunk")
            return real(task)

        # Fresh workers, forked with the failing chunk; about 1,000 misses
        # make 2 chunks.
        monkeypatch.setattr(pipeline, "_infer_chunk", failing)
        monkeypatch.setattr(pipeline, "_pool", (caller, ()))
        with pytest.raises(ZeroDivisionError):
            recorrect(prior, PATTERN, [prior.grid.bbox_nm()], m, cfg)
        assert pipeline._memo is memo
        assert [a.tobytes() for a in (memo.fp, memo.flat, memo.values)] == kept

    def test_only_recorrect_reads_the_memo(self, monkeypatch):
        class Unreadable:
            def __getattr__(self, name):
                raise AssertionError(f"read the memo's {name}")

        memo = Unreadable()
        monkeypatch.setattr(pipeline, "_memo", memo)
        m, cfg = toy_model(), toy_cfg()
        raster = deployment_raster(PATTERN, cfg.tiling)
        predict(m, compress_window(extract_window(raster, (5, 5), cfg.tiling), cfg.tiling))
        predict_map(m, PATTERN, toy_cfg(workers=2))
        correct(PATTERN, m, cfg)
        square = LayoutPattern([rect(0, 0, 84, 84)])  # 100 x 100 px
        bench_scaling(m, square, cfg, worker_counts=[1], repeats=1)
        assert pipeline._memo is memo

    def test_entry_holds_no_more_than_its_windows(self):
        # Over a stream, the traced memory held at its end is the entry's
        # raster, model and 20 bytes per kept window (a float32
        # fingerprint, an int64 pixel and a float64 class value), plus the
        # last map; the field is a mapping that tracemalloc does not see.
        m, cfg = toy_model(seed=3), toy_cfg()
        out = predict_map(zero_model(), LINES, cfg)
        boxes = list(request_stream(out.grid, 7, 200))
        tracemalloc.start()
        try:
            for region in boxes:
                out = recorrect(out, LINES, region, m, cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        memo = pipeline._memo
        entry = (memo.raster.values.nbytes + memo.filled.nbytes + 20 * len(memo.fp)
                 + sum(w.nbytes for w in memo.model.weights.values()))
        assert len(memo.fp) > 100
        assert held <= entry + out.grid.values.nbytes + (64 << 10), (held, entry)


class TestClassMapAndPlanes:
    """recorrect gives a pixel that an earlier call on the same deployment
    classified its class with no window read, and classifies the misses
    from the memo's planes, in the caller or in a worker's crop."""

    def test_revisited_region_reads_no_window(self, monkeypatch):
        m, cfg = toy_model(seed=3), toy_cfg()
        prior = predict_map(zero_model(), LINES, cfg)
        x0, y0, _, _ = prior.grid.bbox_nm()
        first = [(x0 + 4, y0 + 4, x0 + 20, y0 + 14), (x0 + 12, y0 + 10, x0 + 30, y0 + 25)]
        inside = [(x0 + 6, y0 + 5, x0 + 18, y0 + 12), (x0 + 14, y0 + 12, x0 + 28, y0 + 24)]
        out = recorrect(prior, LINES, first, m, cfg)
        reads, prints = [], []
        real_read, real_fp = tiling.WindowStack.__getitem__, pipeline.fingerprints

        def read(stack, key):
            reads.append(key)
            return real_read(stack, key)

        def counted(images, block):
            prints.append(len(images))
            return real_fp(images, block)

        monkeypatch.setattr(tiling.WindowStack, "__getitem__", read)
        monkeypatch.setattr(pipeline, "fingerprints", counted)
        monkeypatch.setattr(classifier, "fingerprints", counted)
        inferred = count_inferred(monkeypatch)
        again = recorrect(out, LINES, inside, m, cfg)
        assert reads == [] and prints == [] and inferred == [0]
        # The same bits as with the memo emptied, and as a fresh map.
        monkeypatch.undo()
        pipeline._memo = None
        want = recorrect(out, LINES, inside, m, cfg).grid.values
        assert again.grid.values.tobytes() == want.tobytes()
        mask = pipeline._bbox_pixel_mask(out.grid, inside)
        assert np.array_equal(again.grid.values[mask], predict_map(m, LINES, cfg).grid.values[mask])

    def test_class_map_holds_every_region_pixel(self):
        m, cfg = toy_model(seed=3), toy_cfg()
        prior = predict_map(zero_model(), LINES, cfg)
        out, touched = prior, np.zeros(prior.grid.shape, bool)
        for boxes in request_stream(prior.grid, 8, 30):
            out = recorrect(out, LINES, boxes, m, cfg)
            touched |= pipeline._bbox_pixel_mask(out.grid, boxes)
        known = pipeline._memo.known.reshape(prior.grid.shape).astype(np.intp)
        assert np.array_equal(known > 0, touched)
        table = class_values(cfg.iip.num_classes)
        assert np.array_equal(table[known[touched] - 1], out.grid.values[touched])

    @pytest.mark.parametrize("factor", [2, 3])
    def test_planes_crop_tasks_match_the_callers_bits(self, factor):
        # Misses classified from the memo's planes: in the caller (1
        # worker) and from the crops that 2 and 3 workers receive, equal to
        # the raster-crop tasks that predict_map sends.
        cfg = toy_cfg()
        cfg.tiling.compression_factor = factor  # windows of side 8 and 5
        arch = ArchDescriptor(cfg.tiling.output_side, 5, [ConvBlock(4, stride=1), ConvBlock(8)])
        m = init_model(arch, seed=4)
        raster = deployment_raster(PATTERN, cfg.tiling)
        memo = pipeline._Memo((PATTERN.checksum(), cfg.tiling, 5), m, raster)
        flat = np.flatnonzero(np.arange(raster.width * raster.height) % 3 != 1)
        memo.fill(*np.divmod(flat, raster.width))
        want = pipeline._infer(m, raster, flat, cfg, 1)
        assert inference_block(arch) * 3 <= len(flat)
        for workers in (1, 2, 3):
            got = pipeline._infer(m, memo, flat, cfg, workers)
            assert got.tobytes() == want.tobytes()
        assert np.array_equal(want, oracle_map(m, PATTERN, cfg).ravel()[flat])

    def test_planes_crop_is_what_the_windows_read(self):
        cfg = toy_cfg()  # radius 8, factor 2, side 8
        raster = deployment_raster(PATTERN, cfg.tiling)  # 32 x 32
        memo = pipeline._Memo((PATTERN.checksum(), cfg.tiling, 5), toy_model(), raster)
        flat = np.array([20 * 32 + 10, 20 * 32 + 13, 23 * 32 + 11])
        _, crop, coords, _, _ = pipeline._task(toy_model(), memo, flat, cfg.tiling, None)
        # Plane rows 10-11 and columns 5-6 start the windows, which span 8.
        assert crop.shape == (2, 2, 11 + 8 - 10, 6 + 8 - 5)
        assert np.shares_memory(crop, memo.planes)
        assert np.array_equal(coords, [[0, 0], [3, 0], [1, 3]])


class TestRegionPixels:
    def test_matches_brute_force(self, rng):
        # Random, overlapping and raster-edge boxes: the flat indices of
        # the pixels whose centres lie in any box, sorted, each once.
        g = RasterGrid(41, 29, (-3.25, 7.75), 2.0, np.zeros((29, 41)))
        gx0, gy0, gx1, gy1 = g.bbox_nm()
        xs = g.origin[0] + np.arange(g.width) / g.px_per_nm
        ys = g.origin[1] + np.arange(g.height) / g.px_per_nm
        for trial in range(300):
            boxes = []
            for _ in range(int(rng.integers(1, 5))):
                x0, x1 = sorted(rng.uniform(gx0, gx1, 2))
                y0, y1 = sorted(rng.uniform(gy0, gy1, 2))
                if trial % 3 == 1:  # against the raster's edges
                    x0, y1 = gx0, gy1
                if trial % 3 == 2 and boxes:  # overlapping the last box
                    x0, y0 = boxes[-1][0] + 0.5, boxes[-1][1] + 0.5
                    x1, y1 = max(x1, x0 + 1), max(y1, y0 + 1)
                boxes.append((x0, y0, min(x1, gx1), min(y1, gy1)))
            brute = np.zeros(g.shape, bool)
            for y in range(g.height):
                for x in range(g.width):
                    brute[y, x] = any(
                        b[0] <= xs[x] <= b[2] and b[1] <= ys[y] <= b[3] for b in boxes
                    )
            got = pipeline._region_pixels(g, boxes)
            assert np.array_equal(got, np.flatnonzero(brute))
        assert len(pipeline._region_pixels(g, [])) == 0

    def test_errors_named(self):
        g = RasterGrid(8, 8, (0.5, 0.5), 1.0, np.zeros((8, 8)))
        for box, match in (((2, 2, 2, 5), "degenerate"), ((float("nan"), 1, 4, 5), "region bbox"),
                           ((-3, 1, 4, 5), "outside grid area")):
            with pytest.raises(CoordError, match=match):
                pipeline._region_pixels(g, [(1, 1, 3, 3), box])


class TestRecorrect:
    def test_empty_region_is_identity(self):
        m = toy_model()
        prior = predict_map(m, PATTERN, toy_cfg())
        out = recorrect(prior, PATTERN, [], toy_model(seed=9), toy_cfg())
        assert np.array_equal(out.grid.values, prior.grid.values)
        assert out.grid.values is not prior.grid.values

    def test_full_region_matches_fresh_predict(self):
        m1, m2 = toy_model(seed=0), toy_model(seed=9)
        prior = predict_map(m1, PATTERN, toy_cfg())
        box = prior.grid.bbox_nm()
        out = recorrect(prior, PATTERN, [box], m2, toy_cfg())
        fresh = predict_map(m2, PATTERN, toy_cfg())
        assert np.array_equal(out.grid.values, fresh.grid.values)

    def test_outside_region_bitwise_untouched(self):
        m1, m2 = toy_model(seed=0), toy_model(seed=9)
        cfg = toy_cfg()
        prior = predict_map(m1, PATTERN, cfg)
        x0, y0, x1, y1 = prior.grid.bbox_nm()
        region = [(x0, y0, x0 + 10, y1)]
        out = recorrect(prior, PATTERN, region, m2, cfg)
        from pixelret.pipeline import _bbox_pixel_mask

        mask = _bbox_pixel_mask(prior.grid, region)
        assert np.array_equal(out.grid.values[~mask], prior.grid.values[~mask])
        fresh = predict_map(m2, PATTERN, cfg)
        assert np.array_equal(out.grid.values[mask], fresh.grid.values[mask])

    def test_prior_shape_mismatch(self):
        m = toy_model()
        prior = predict_map(m, PATTERN, toy_cfg())
        other = LayoutPattern([rect(8, 8, 30, 24)])
        box = prior.grid.bbox_nm()
        with pytest.raises(CoordError):
            recorrect(prior, other, [box], m, toy_cfg())

    def test_misaligned_prior_rejected(self):
        # A prior predicted for the pattern shifted by (+5, +3) nm has the
        # raster's shape but another origin; splicing into it would put
        # every new value 5 x 3 px off.
        m = toy_model()
        raster = deployment_raster(PATTERN, toy_cfg().tiling)
        shifted = predict_map(m, LayoutPattern([rect(13, 11, 29, 27)]), toy_cfg())
        assert shifted.grid.shape == raster.shape
        assert shifted.grid.origin != raster.origin
        coarse = IipMap(
            RasterGrid(raster.width, raster.height, raster.origin, 2.0, raster.values),
            "", "",
        )
        box = raster.bbox_nm()
        for prior in (shifted, coarse):
            with pytest.raises(CoordError) as err:
                recorrect(prior, PATTERN, [box], m, toy_cfg())
            for g in (prior.grid, raster):
                assert str(g.placement) in str(err.value)
        # An empty region splices nothing but must still refuse the prior.
        with pytest.raises(CoordError):
            recorrect(shifted, PATTERN, [], m, toy_cfg())

    def test_region_outside_grid_rejected(self):
        m = toy_model()
        prior = predict_map(m, PATTERN, toy_cfg())
        with pytest.raises(CoordError):
            recorrect(prior, PATTERN, [(-500, 0, -400, 10)], m, toy_cfg())
        with pytest.raises(CoordError):
            recorrect(prior, PATTERN, [(5, 5, 5, 10)], m, toy_cfg())

    def test_class_count_mismatch(self):
        # Fewer classes would write wrong class values, more would index
        # past the class-value table; both must be refused up front.
        prior = predict_map(toy_model(), PATTERN, toy_cfg())
        box = prior.grid.bbox_nm()
        for num_classes in (3, 7):
            with pytest.raises(ShapeError):
                recorrect(prior, PATTERN, [box], toy_model(num_classes), toy_cfg())


class TestBboxPixelMask:
    @staticmethod
    def formula(g, boxes):
        """Pixels whose centres lie in any box, bounds included: the
        whole-raster comparison per box."""
        xs = g.origin[0] + np.arange(g.width) * (1.0 / g.px_per_nm)
        ys = g.origin[1] + np.arange(g.height) * (1.0 / g.px_per_nm)
        mask = np.zeros(g.shape, dtype=bool)
        for x0, y0, x1, y1 in boxes:
            mask |= ((ys >= y0) & (ys <= y1))[:, None] & ((xs >= x0) & (xs <= x1))[None, :]
        return mask

    @pytest.mark.parametrize("px_per_nm, origin", [
        (1.0, (0.5, 0.5)), (2.0, (-3.25, 7.75)), (3.0, (0.1, -2.0 / 3.0)),
    ])
    def test_matches_formula(self, rng, px_per_nm, origin):
        g = RasterGrid(37, 23, origin, px_per_nm, np.zeros((23, 37)))
        gx0, gy0, gx1, gy1 = g.bbox_nm()
        xs = [g.pixel_center(i, 0)[0] for i in range(g.width)]
        ys = [g.pixel_center(0, j)[1] for j in range(g.height)]
        for trial in range(200):
            boxes = []
            for _ in range(int(rng.integers(1, 4))):
                if trial % 2:  # every edge exactly on a pixel centre
                    x0, x1 = sorted(rng.choice(xs, 2, replace=False))
                    y0, y1 = sorted(rng.choice(ys, 2, replace=False))
                else:
                    x0, x1 = sorted(rng.uniform(gx0, gx1, 2))
                    y0, y1 = sorted(rng.uniform(gy0, gy1, 2))
                boxes.append((x0, y0, x1, y1))
            assert np.array_equal(pipeline._bbox_pixel_mask(g, boxes), self.formula(g, boxes))
        whole = [g.bbox_nm()]
        assert pipeline._bbox_pixel_mask(g, whole).all()

    def test_degenerate_box_rejected(self):
        g = RasterGrid(8, 8, (0.5, 0.5), 1.0, np.zeros((8, 8)))
        for box in [(2, 2, 2, 5), (2, 5, 4, 3), (float("nan"), 1, 4, 5)]:
            with pytest.raises(CoordError):
                pipeline._bbox_pixel_mask(g, [box])


class TestCleanup:
    def test_area_floor(self):
        p = LayoutPattern([rect(0, 0, 5, 5), rect(10, 10, 12, 12)])
        out = cleanup(p, min_area=25.0, min_edge=0.0)
        assert len(out.polygons) == 1
        out2 = cleanup(p, min_area=25.1, min_edge=0.0)
        assert len(out2.polygons) == 0

    def test_edge_floor_drops_whole_polygon(self):
        # L-shape with one 1nm notch edge is dropped, not repaired
        lshape = [(0, 0), (10, 0), (10, 9), (9, 9), (9, 10), (0, 10)]
        p = LayoutPattern([lshape, rect(20, 20, 30, 30)])
        out = cleanup(p, min_area=0.0, min_edge=4.0)
        assert len(out.polygons) == 1
        assert out.polygons[0] == rect(20, 20, 30, 30)

    def test_zero_thresholds_keep_all(self):
        p = LayoutPattern([rect(0, 0, 1, 1), rect(5, 5, 6, 6)])
        out = cleanup(p, 0.0, 0.0)
        assert len(out.polygons) == 2

    def test_negative_rejected(self):
        with pytest.raises(ParamError):
            cleanup(LayoutPattern([]), -1.0, 0.0)

    def test_nan_floor_rejected(self):
        # area >= nan is False, so a NaN floor would drop every polygon.
        p = LayoutPattern([rect(0, 0, 5, 5)])
        for floors in ((float("nan"), 0.0), (0.0, float("nan"))):
            with pytest.raises(ParamError, match="finite"):
                cleanup(p, *floors)


class TestCorrect:
    def test_zero_model_yields_empty_pattern(self):
        # uniform value 0.1 never exceeds the 0.5 threshold
        out = correct(PATTERN, zero_model(), toy_cfg())
        assert out.pattern.polygons == []

    def test_returns_cleaned_pattern(self):
        m = toy_model()
        out = correct(PATTERN, m, toy_cfg(min_area=2.0))
        from pixelret.layout import polygon_area

        for poly in out.pattern.polygons:
            assert polygon_area(poly) >= 2.0

    def test_matches_manual_chain(self):
        from pixelret.layout import vectorize

        cfg = toy_cfg(min_area=2.0)
        empty = []
        for m in (toy_model(), zero_model()):
            manual_map = predict_map(m, PATTERN, cfg)
            manual_mask = threshold_iip(manual_map, cfg.iip.threshold)
            expect = cleanup(vectorize(manual_mask), 2.0, 0.0)
            if expect.is_empty:
                expect_grid = manual_mask.with_values(np.zeros_like(manual_mask.values))
            else:
                expect_grid = rasterize(
                    expect, manual_mask.px_per_nm, manual_mask.bbox_nm()
                )
            got = correct(PATTERN, m, cfg)
            assert got.iip_map.grid.checksum() == manual_map.grid.checksum()
            assert got.threshold.checksum() == manual_mask.checksum()
            assert got.pattern.checksum() == expect.checksum()
            assert got.grid.checksum() == expect_grid.checksum()
            empty.append(expect.is_empty)
        assert empty == [False, True]


    def test_grid_on_the_threshold_grid_at_fractional_resolution(self):
        # At 0.3 px/nm the deployment raster's nm bounds are a few ulps
        # wider than its 11 x 12 px; the re-rasterized pattern keeps them.
        tiling = TilingConfig(interaction_distance=10.0, px_per_nm=0.3, compression_factor=1)
        cfg = CorrectionConfig(tiling, IipConfig(num_classes=5, iik=make_iik("gaussian", 2.0, 6.0, 0.3)))
        m = init_model(ArchDescriptor(tiling.output_side, 5, [ConvBlock(4)]), seed=0)
        for w in m.weights.values():
            w[...] = 0.0
        m.weights["dense_b"][-1] = 1.0  # every pixel in the top class
        out = correct(LayoutPattern([rect(0, 0, 20, 14)]), m, cfg)
        assert out.threshold.shape == (11, 12) and out.threshold.values.all()
        assert not out.pattern.is_empty
        assert out.grid.shape == out.threshold.shape


class TestConfusion:
    def test_known_counts(self):
        pred = np.array([0, 1, 2, 2], dtype=np.int64)
        ref = np.array([0, 1, 1, 2], dtype=np.int64)
        cm = confusion_matrix(pred, ref, 3)
        assert cm.counts[0, 0] == 1
        assert cm.counts[1, 1] == 1
        assert cm.counts[1, 2] == 1
        assert cm.counts[2, 2] == 1
        assert cm.total() == 4
        assert cm.accuracy() == pytest.approx(0.75)
        assert cm.within_one_accuracy() == pytest.approx(1.0)

    def test_value_arrays_are_binned(self):
        pred = np.array([0.05, 0.55])
        ref = np.array([0.05, 0.95])
        cm = confusion_matrix(pred, ref, 2)
        assert cm.counts[0, 0] == 1
        assert cm.counts[1, 1] == 1

    def test_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            confusion_matrix(np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64), 2)

    def test_class_id_out_of_range(self):
        with pytest.raises(ParamError):
            confusion_matrix(np.array([0, 5]), np.array([0, 1]), 3)

    @pytest.mark.parametrize("num_classes", [True, "x", None, 0, 1.0])
    def test_bad_class_count_refused_by_name(self, num_classes):
        with pytest.raises(ParamError, match="num_classes"):
            confusion_matrix(np.array([0, 0]), np.array([0, 0]), num_classes)

    def test_empty_matrix_metrics(self):
        cm = ConfusionMatrix(np.zeros((3, 3), dtype=np.int64))
        assert cm.accuracy() == 0.0
        assert cm.within_one_accuracy() == 0.0

    def test_nonsquare_rejected(self):
        with pytest.raises(DimMismatch):
            ConfusionMatrix(np.zeros((2, 3), dtype=np.int64))

    def test_csv(self, tmp_path):
        cm = confusion_matrix(np.array([0, 1]), np.array([0, 0]), 2)
        f = tmp_path / "cm.csv"
        write_confusion_csv(cm, f)
        rows = f.read_text().strip().splitlines()
        assert rows == ["1,1", "0,0"]


class TestIou:
    def grid(self, vals):
        a = np.asarray(vals, dtype=np.float64)
        return RasterGrid(a.shape[1], a.shape[0], (0.5, 0.5), 1.0, a)

    def test_identical(self):
        g = self.grid([[1, 0], [0, 1]])
        assert iou(g, g) == 1.0

    def test_disjoint(self):
        a = self.grid([[1, 0], [0, 0]])
        b = self.grid([[0, 0], [0, 1]])
        assert iou(a, b) == 0.0

    def test_half(self):
        a = self.grid([[1, 1], [0, 0]])
        b = self.grid([[1, 0], [0, 0]])
        assert iou(a, b) == 0.5

    def test_both_empty(self):
        a = self.grid([[0, 0], [0, 0]])
        assert iou(a, a) == 1.0

    def test_shape_mismatch(self):
        a = self.grid([[1, 0]])
        b = self.grid([[1], [0]])
        with pytest.raises(DimMismatch):
            iou(a, b)


class TestBenchScaling:
    def test_must_start_at_one(self):
        m = toy_model()
        with pytest.raises(ParamError):
            bench_scaling(m, PATTERN, toy_cfg(), worker_counts=[2, 4])

    def test_repeats_must_be_positive(self):
        # 100x100 px, large enough that only the repeat count is at fault
        square = LayoutPattern([rect(0, 0, 84, 84)])
        with pytest.raises(ParamError, match="repeats"):
            bench_scaling(toy_model(), square, toy_cfg(), worker_counts=[1], repeats=0)

    @pytest.mark.parametrize("counts", [[1, 2.5], [1, True], [1, 0], [True, 2]])
    def test_worker_counts_must_be_positive_integers(self, counts):
        with pytest.raises(ParamError, match="worker_counts"):
            bench_scaling(toy_model(), PATTERN, toy_cfg(), worker_counts=counts)

    @pytest.mark.parametrize("repeats", [1.5, True])
    def test_repeats_must_be_an_integer(self, repeats):
        with pytest.raises(ParamError, match="repeats"):
            bench_scaling(toy_model(), PATTERN, toy_cfg(), worker_counts=[1], repeats=repeats)

    def test_differing_outputs_reported(self, monkeypatch):
        # A worker count whose values differ from the 1-worker run's.
        def infer(m, raster, sel_flat, cfg, workers):
            return np.full(sel_flat.size, float(workers > 1))

        monkeypatch.setattr(pipeline, "_infer", infer)
        square = LayoutPattern([rect(0, 0, 84, 84)])  # 100 x 100 px
        report = bench_scaling(toy_model(), square, toy_cfg(), worker_counts=[1, 2, 1], repeats=1)
        assert not report.consistent
        assert [row["workers"] for row in report.rows] == [1, 2, 1]

    def test_small_workload_rejected(self):
        m = toy_model()
        with pytest.raises(ParamError):
            bench_scaling(m, PATTERN, toy_cfg(), worker_counts=[1])

    def test_scaling_csv(self, tmp_path):
        from pixelret.pipeline import ScalingReport

        rep = ScalingReport(
            rows=[
                {"workers": 1, "wall_seconds": 2.0, "speedup": 1.0, "efficiency": 1.0},
                {"workers": 2, "wall_seconds": 1.0, "speedup": 2.0, "efficiency": 1.0},
            ],
            consistent=True,
            n_pixels=12000,
        )
        f = tmp_path / "s.csv"
        write_scaling_csv(rep, f)
        rows = f.read_text().strip().splitlines()
        assert rows[0] == "workers,wall_seconds,speedup,efficiency"
        assert rows[1].startswith("1,2.000000,1.0000")
        assert rows[2].startswith("2,1.000000,2.0000")
