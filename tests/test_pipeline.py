import multiprocessing
import os

import numpy as np
import pytest

from pixelret import classifier, pipeline
from pixelret.classifier import ArchDescriptor, ConvBlock, init_model, predict
from pixelret.errors import ConfigError, CoordError, DimMismatch, ParamError, ShapeError
from pixelret.grid import RasterGrid, iou
from pixelret.iip import IipConfig, IipMap, class_value, make_iik, threshold_iip
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
        m = toy_model()
        want = predict_map(m, PATTERN, toy_cfg()).grid.values
        a = predict_map(m, PATTERN, toy_cfg(workers=2))
        pids = worker_pids()
        assert pids
        b = predict_map(m, PATTERN, toy_cfg(workers=2))
        assert worker_pids() == pids
        # A call that needs more workers keeps these and starts the rest.
        c = predict_map(m, PATTERN, toy_cfg(workers=len(pids) + 2))
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
        # factor 2 compression trims its far edge.
        cfg = toy_cfg()
        cfg.tiling.compression_factor = factor
        arch = ArchDescriptor(cfg.tiling.output_side, 5, [ConvBlock(4), ConvBlock(8)])
        m1, m2 = init_model(arch, seed=0), init_model(arch, seed=9)
        prior = predict_map(m1, PATTERN, cfg)
        fresh = predict_map(m2, PATTERN, cfg).grid.values
        x0, y0, x1, y1 = prior.grid.bbox_nm()
        corners = [
            (x0 + fx * (x1 - x0 - 6), y0 + fy * (y1 - y0 - 6))
            for fy in (0, 0.5, 1) for fx in (0, 0.5, 1)
        ]
        regions = [[(x, y, x + 6, y + 6)] for x, y in corners]
        regions.append([(x, y, x + 6, y + 6) for x, y in corners[::8]])
        cfg.workers = workers
        for region in regions:
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
