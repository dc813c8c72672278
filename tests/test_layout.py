import re

import numpy as np
import pytest

from pixelret.errors import GeometryError, ParamError, ParseError, RegionError
from pixelret.grid import RasterGrid
from pixelret.layout import (
    LayoutPattern,
    generate_test_pattern,
    parse_layout,
    polygon_area,
    polygon_min_edge,
    raster_region,
    rasterize,
    snap_pattern,
    vectorize,
    write_layout,
)


def rect(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


class TestPatternValidation:
    def test_rectangle_ok(self):
        p = LayoutPattern([rect(0, 0, 10, 20)])
        assert p.bbox == (0, 0, 10, 20)
        assert not p.is_empty

    def test_empty_ok(self):
        p = LayoutPattern([])
        assert p.is_empty
        assert p.bbox is None

    def test_odd_vertex_count_rejected(self):
        with pytest.raises(GeometryError):
            LayoutPattern([[(0, 0), (10, 0), (10, 10)]])

    def test_diagonal_edge_rejected(self):
        with pytest.raises(GeometryError):
            LayoutPattern([[(0, 0), (10, 5), (10, 10), (0, 10)]])

    def test_zero_length_edge_rejected(self):
        with pytest.raises(GeometryError):
            LayoutPattern([[(0, 0), (0, 0), (10, 0), (10, 10), (0, 10), (0, 5)]])

    def test_self_intersection_rejected(self):
        # bowtie-like rectilinear path crossing itself
        poly = [(0, 0), (10, 0), (10, 6), (4, 6), (4, -2), (0, -2)]
        with pytest.raises(GeometryError):
            LayoutPattern([poly])

    def test_l_shape_ok(self):
        poly = [(0, 0), (10, 0), (10, 5), (5, 5), (5, 10), (0, 10)]
        p = LayoutPattern([poly])
        assert polygon_area(poly) == 75.0
        assert p.bbox == (0, 0, 10, 10)


class TestPolygonHelpers:
    def test_area_rectangle(self):
        assert polygon_area(rect(0, 0, 10, 20)) == 200.0

    def test_area_orientation_independent(self):
        assert polygon_area(list(reversed(rect(0, 0, 10, 20)))) == 200.0

    def test_min_edge(self):
        assert polygon_min_edge(rect(0, 0, 3, 100)) == 3.0


class TestSnap:
    def test_covers_the_unit_squares_rasterize_covers(self):
        # A centre on a left or bottom edge is inside, on a right or top
        # edge outside.
        p = LayoutPattern([rect(0.4, 0.6, 10.4, 20.5)], layer=3)
        q = snap_pattern(p)
        assert q.polygons == [rect(0, 1, 10, 20)]
        assert q.layer == 3

    def test_half_nm_jogs(self, rng):
        # Masks traced at 2 px/nm step by half a nanometre; rounding their
        # vertices one by one would collapse edges.
        for _ in range(20):
            v = (rng.random((12, 12)) < 0.6).astype(np.uint8)
            p = vectorize(RasterGrid(12, 12, (0.25, 0.25), 2.0, v))
            q = snap_pattern(p)
            assert all(float(c).is_integer() for poly in q.polygons for xy in poly for c in xy)
            assert parse_layout(write_layout(q)) == q
            region = (0, 0, 6, 6)
            assert np.array_equal(rasterize(q, 1.0, region).values,
                                  rasterize(p, 1.0, region).values)

    def test_sliver_vanishes(self):
        assert snap_pattern(LayoutPattern([rect(0.2, 0.0, 0.4, 10.0)])).is_empty


class TestGenerate:
    def test_isolated_line(self):
        p = generate_test_pattern("isolated_line", 40, length=400)
        assert p.polygons == [rect(-20, -200, 20, 200)]

    def test_line_space(self):
        p = generate_test_pattern("line_space", 40, pitch=80, count=5, length=400)
        assert len(p.polygons) == 5
        xs = sorted(poly[0][0] for poly in p.polygons)
        assert xs == [-180, -100, -20, 60, 140]
        for poly in p.polygons:
            assert polygon_area(poly) == 40 * 400

    def test_square(self):
        p = generate_test_pattern("square", 100)
        assert polygon_area(p.polygons[0]) == 100 * 100

    def test_bad_args(self):
        with pytest.raises(ParamError):
            generate_test_pattern("isolated_line", 0, length=100)
        with pytest.raises(ParamError):
            generate_test_pattern("line_space", 40, pitch=30, count=2, length=100)
        with pytest.raises(ParamError):
            generate_test_pattern("ring", 40)


class TestFileFormat:
    def test_roundtrip_simple(self):
        p = generate_test_pattern("line_space", 40, pitch=120, count=3, length=200)
        q = parse_layout(write_layout(p))
        assert q.polygons == p.polygons
        assert q.layer == p.layer

    def test_roundtrip_random(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(20):
            polys = []
            for i in range(int(rng.integers(1, 4))):
                x0 = int(rng.integers(-50, 50))
                y0 = int(rng.integers(-50, 50))
                w = int(rng.integers(1, 30))
                h = int(rng.integers(1, 30))
                polys.append(rect(x0 + 200 * i, y0, x0 + 200 * i + w, y0 + h))
            p = LayoutPattern(polys, layer=int(rng.integers(0, 5)))
            text = write_layout(p)
            q = parse_layout(text)
            assert q.polygons == p.polygons
            assert q.layer == p.layer
            assert write_layout(q) == text

    def test_empty_roundtrip(self):
        p = LayoutPattern([])
        assert parse_layout(write_layout(p)).is_empty

    def test_non_integer_coordinate_rejected(self):
        text = write_layout(LayoutPattern([rect(0, 0, 10, 10)]))
        with pytest.raises(ParseError):
            parse_layout(text.replace("10", "10.5", 1))

    def test_bad_units_rejected(self):
        text = write_layout(LayoutPattern([rect(0, 0, 10, 10)]))
        with pytest.raises(ParseError):
            parse_layout(text.replace('"nm"', '"um"'))

    def test_truncated_rejected(self):
        text = write_layout(LayoutPattern([rect(0, 0, 10, 10)]))
        with pytest.raises(ParseError):
            parse_layout(text[: len(text) // 2])

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_layout("not a layout at all")

    def test_error_names_polygon(self):
        # second polygon is degenerate; the diagnostic should say which
        text = (
            '{\n  units: "nm",\n  layer: 0,\n  polygons: [\n'
            "    [0,0,10,0,10,10,0,10],\n"
            "    [0,0,10,5,10,10,0,10],\n  ],\n}\n"
        )
        with pytest.raises(GeometryError, match="polygon 1"):
            parse_layout(text)

    @pytest.mark.parametrize("text", [
        # not JSON once names are quoted and trailing commas dropped
        '{units: "nm", polygons: [[0 0 10 0 10 10 0 10]]}',
        '{units: "nm" layer: 0}',
        '{units: "nm", polygons: [[0,0,10,0,10,10,0,10] [20,0,30,0,30,10,20,10]]}',
        '{units: "nm", polygons: [[0,0,010,0,10,10,0,10]]}',
        '{units: "nm", polygons: [[0,0,\u0661\u0660,0,10,10,0,10]]}',
        '{units: "nm", polygons: [[0,0,+10,0,10,10,0,10]]}',
        '{units: "nm", // comment\n layer: 0}',
        '{units: "nm",, layer: 0}',
        '{units: "nm", polygons: [[0,0,10,0,10,10,0,10],,]}',
        '{units: "nm", polygons: [,[0,0,10,0,10,10,0,10]]}',
        '{units: "nm"} {}',
        "",
        '{units: "nm", polygons: ' + "[" * 100_000,  # deeper than the parser's stack
        # JSON, but not a layout
        '{units: "nm", polygons: [[[0,0],10,0,10,10,0,10]]}',
        '{units: "nm", polygons: [["0",0,10,0,10,10,0,10]]}',
        '{units: "nm", polygons: {}}',
        '{units: "nm", layer: true}',
        '{units: "nm", layer: 0, layer: 1}',
        '{units: "nm", name: "x"}',
        "[]",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(ParseError):
            parse_layout(text)

    @pytest.mark.parametrize("text", [
        '{"units": "nm", "layer": 0, "polygons": [[0,0,10,0,10,10,0,10]]}',
        '{units: "nm", layer: 0, polygons: [[0,0,10,0,10,10,0,10]]}',
        '{\r\n\tunits: "nm",\r\n\tlayer: 0,\r\n\tpolygons: [\r\n'
        '\t\t[0,0,10,0,10,10,0,10],\r\n\t],\r\n}\r\n',
    ])
    def test_json_variants_accepted(self, text):
        assert parse_layout(text) == LayoutPattern([rect(0, 0, 10, 10)])

    def test_escaped_units_accepted(self):
        assert parse_layout('{units: "n\\u006d"}').is_empty

    @pytest.mark.parametrize("big", ["9" * 400, str(2**53 + 1), str(-(2**53) - 1), "9" * 5000])
    def test_coordinate_beyond_float_rejected(self, big):
        # A float vertex holds integers up to 2**53 exactly; beyond that a
        # round trip would change the file, and 400 digits overflow a float.
        text = f'{{units: "nm", polygons: [[0,0,10,0,10,10,0,10], [0,0,{big},0,10,10,0,10]]}}'
        with pytest.raises(ParseError, match="polygon 1|digits"):
            parse_layout(text)

    def test_coordinate_at_float_limit_roundtrips(self):
        p = LayoutPattern([rect(0, 0, 2**53, 2**53)])
        text = write_layout(p)
        assert write_layout(parse_layout(text)) == text

    def test_mutations_raise_named_errors(self):
        text = write_layout(LayoutPattern(
            [rect(0, 0, 10, 10), [(20, 0), (30, 0), (30, 5), (25, 5), (25, 10), (20, 10)]],
            layer=3,
        ))
        alphabet = text + "{}[]:,\"-+.eE 0123456789\t\r\nxnmabc/"
        rng = np.random.Generator(np.random.PCG64(17))
        outcomes = set()
        for _ in range(2000):
            i = int(rng.integers(len(text)))
            c = alphabet[int(rng.integers(len(alphabet)))]
            kind = int(rng.integers(3))
            mutated = (
                text[:i] + text[i + 1:] if kind == 0
                else text[:i] + c + text[i:] if kind == 1
                else text[:i] + c + text[i + 1:]
            )
            try:
                parse_layout(mutated)
                outcomes.add("parsed")
            except (ParseError, GeometryError) as exc:
                outcomes.add(type(exc).__name__)
        assert outcomes == {"parsed", "ParseError", "GeometryError"}


class TestRasterize:
    def test_unit_square_1px(self):
        p = LayoutPattern([rect(0, 0, 2, 2)])
        g = rasterize(p, 1.0, (0, 0, 2, 2))
        assert g.shape == (2, 2)
        assert g.values.sum() == 4
        assert g.origin == (0.5, 0.5)

    def test_pixel_center_rule(self):
        # pixel centers at 0.5, 1.5, 2.5; polygon [1,2] covers only 1.5
        p = LayoutPattern([rect(1, 0, 2, 3)])
        g = rasterize(p, 1.0, (0, 0, 3, 3))
        assert g.values[:, 0].sum() == 0
        assert g.values[:, 1].sum() == 3
        assert g.values[:, 2].sum() == 0

    def test_boundary_half_open(self):
        # center exactly on lower/left edge counts as inside, upper/right not
        p = LayoutPattern([rect(0.5, 0.5, 2.5, 2.5)])
        g = rasterize(p, 1.0, (0, 0, 3, 3))
        assert g.values.tolist() == [[1, 1, 0], [1, 1, 0], [0, 0, 0]]

    def test_two_px_per_nm(self):
        p = LayoutPattern([rect(0, 0, 2, 2)])
        g = rasterize(p, 2.0, (0, 0, 2, 2))
        assert g.shape == (4, 4)
        assert g.values.sum() == 16

    def test_area_match_random(self):
        # pixel count approximates area as resolution rises
        p = LayoutPattern([rect(-7, -3, 13, 11)])
        g = rasterize(p, 4.0, raster_region(p, 2))
        assert g.values.sum() == pytest.approx(20 * 14 * 16, rel=1e-6)

    def test_raster_region_expands_bbox(self):
        p = LayoutPattern([rect(0, 0, 10, 10)])
        assert raster_region(p, 5) == (-5, -5, 15, 15)

    @pytest.mark.parametrize("px_per_nm, region", [
        (0.0, (0, 0, 2, 2)),
        (float("nan"), (0, 0, 2, 2)),
        (float("inf"), (0, 0, 2, 2)),
        (1.0, (0, 0, 0, 2)),
        (1.0, (float("nan"), 0, 2, 2)),
        (1.0, (0, 0, 2, float("nan"))),
        (1.0, (0, 0, float("inf"), 2)),
        (1.0, (0, float("-inf"), 2, 2)),
    ])
    def test_bad_resolution_or_region_rejected(self, px_per_nm, region):
        with pytest.raises(RegionError):
            rasterize(LayoutPattern([rect(0, 0, 2, 2)]), px_per_nm, region)

    @pytest.mark.parametrize("region", [(-1e308, 0, 1e308, 1), (0, 0, 1e300, 1)])
    def test_region_too_large_rejected(self, region):
        # Refused before anything is allocated: the first extent overflows
        # to inf, the second has more pixels than an array can index.
        with pytest.raises(RegionError, match=re.escape(str(region))):
            rasterize(LayoutPattern([rect(0, 0, 2, 2)]), 1.0, region)

    def test_raster_region_empty_pattern(self):
        with pytest.raises(RegionError):
            raster_region(LayoutPattern([]), 10)


class TestVectorize:
    def test_rectangle_roundtrip(self):
        p = LayoutPattern([rect(2, 3, 9, 8)])
        g = rasterize(p, 1.0, (0, 0, 12, 12))
        q = vectorize(g)
        assert q.polygons == [rect(2, 3, 9, 8)]

    def test_l_shape_vertices(self):
        poly = [(0, 0), (10, 0), (10, 5), (5, 5), (5, 10), (0, 10)]
        g = rasterize(LayoutPattern([poly]), 1.0, (-1, -1, 12, 12))
        q = vectorize(g)
        assert len(q.polygons) == 1
        assert len(q.polygons[0]) == 6
        assert polygon_area(q.polygons[0]) == 75.0

    def test_empty(self):
        g = rasterize(LayoutPattern([rect(0, 0, 1, 1)]), 1.0, (2, 2, 5, 5))
        assert g.values.sum() == 0
        assert vectorize(g).is_empty

    def test_random_blob_exact_roundtrip(self):
        rng = np.random.Generator(np.random.PCG64(11))
        from conftest import make_grid

        for _ in range(25):
            arr = (rng.random((16, 16)) < 0.45).astype(np.float32)
            g = make_grid(arr)
            q = vectorize(g)
            g2 = rasterize(q, 1.0, g.bbox_nm()) if not q.is_empty else g.with_values(
                np.zeros_like(arr)
            )
            assert np.array_equal(g2.values, arr)

    def test_hole_component_roundtrips_via_rectangles(self):
        from conftest import make_grid

        arr = np.ones((7, 7), dtype=np.float32)
        arr[3, 3] = 0.0
        g = make_grid(arr)
        q = vectorize(g)
        g2 = rasterize(q, 1.0, g.bbox_nm())
        assert np.array_equal(g2.values, arr)

    def test_diagonal_touch_separate_components(self):
        from conftest import make_grid

        arr = np.zeros((4, 4), dtype=np.float32)
        arr[0, 0] = arr[1, 1] = 1.0
        q = vectorize(make_grid(arr))
        assert len(q.polygons) == 2

    def test_half_nm_grid(self):
        p = LayoutPattern([rect(1, 1, 4, 3)])
        g = rasterize(p, 2.0, (0, 0, 5, 4))
        q = vectorize(g)
        g2 = rasterize(q, 2.0, (0, 0, 5, 4))
        assert np.array_equal(g2.values, g.values)
        assert q.polygons == [rect(1, 1, 4, 3)]
