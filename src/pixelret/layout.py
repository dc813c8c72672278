"""Layout geometry: rectilinear polygon patterns, text serialization,
rasterization to pixel grids, and vectorization of binary grids back to
polygons.

Coordinates are nanometers.  Layout files store integer nm only; in memory a
pattern may carry sub-nm vertices (vectorizing a grid finer than 1 px/nm
yields vertices on the 1/px_per_nm lattice), and :func:`snap_pattern`
resamples it onto the integer-nm file lattice.

Layout file format (UTF-8 text, one object)::

    {
      units: "nm",
      layer: 0,
      polygons: [
        [0,0, 100,0, 100,40, 0,40],
      ],
    }

The text is JSON, except that field names may be unquoted and a list or
object may end with a trailing comma.  ``units`` must be ``"nm"``, ``layer``
is an int (default 0), and ``polygons`` (default empty) holds flat int lists
with |coordinate| <= 2**53, exact as floats; no other or repeated field.
Polygons are implicitly closed, vertices flattened as x0,y0,x1,y1,...
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import GeometryError, ParamError, ParseError, RegionError, check_int, check_real
from .grid import RasterGrid, sha256_bytes

Vertex = tuple[float, float]
Polygon = list[Vertex]
Bbox = tuple[float, float, float, float]

# 4-connectivity structuring element for foreground components.
_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


# ---------------------------------------------------------------------------
# Polygon validation helpers
# ---------------------------------------------------------------------------

def _edges_of(poly: Polygon):
    """Yield (x1, y1, x2, y2) for each edge, closing the ring."""
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        yield (x1, y1, x2, y2)


def polygon_area(poly: Polygon) -> float:
    """Unsigned shoelace area in nm^2."""
    a = np.asarray(poly, dtype=np.float64)
    x, y = a[:, 0], a[:, 1]
    return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0)


def polygon_min_edge(poly: Polygon) -> float:
    """Length of the shortest edge in nm."""
    a = np.asarray(poly, dtype=np.float64)
    d = np.roll(a, -1, axis=0) - a
    return float(np.min(np.abs(d[:, 0]) + np.abs(d[:, 1])))  # edges are axis-parallel


def _validate_polygon(poly: Polygon, index: int) -> None:
    n = len(poly)
    if n < 4 or n % 2 != 0:
        raise GeometryError(f"polygon {index}: vertex count {n} (need even, >= 4)")

    horiz = []  # (y, xlo, xhi, edge_idx, reversed?)
    vert = []
    for ei, (x1, y1, x2, y2) in enumerate(_edges_of(poly)):
        if x1 == x2 and y1 == y2:
            raise GeometryError(f"polygon {index}: zero-length edge at vertex {ei}")
        if y1 == y2:
            horiz.append((y1, min(x1, x2), max(x1, x2), ei, x2 < x1))
        elif x1 == x2:
            vert.append((x1, min(y1, y2), max(y1, y2), ei, y2 < y1))
        else:
            raise GeometryError(f"polygon {index}: edge at vertex {ei} is not axis-parallel")

    def adjacent(i: int, j: int) -> bool:
        return (abs(i - j) == 1) or (abs(i - j) == n - 1)

    # Collinear pairs (H-H / V-V): any overlap beyond a shared endpoint, or a
    # point-touch between non-adjacent edges, makes the polygon non-simple.
    for group in (horiz, vert):
        for a in range(len(group)):
            c1, lo1, hi1, e1, r1 = group[a]
            for b in range(a + 1, len(group)):
                c2, lo2, hi2, e2, r2 = group[b]
                if c1 != c2:
                    continue
                if max(lo1, lo2) > min(hi1, hi2):
                    continue
                if adjacent(e1, e2) and max(lo1, lo2) == min(hi1, hi2):
                    continue  # consecutive edges meeting at their shared vertex
                raise GeometryError(
                    f"polygon {index}: edges {e1} and {e2} overlap or touch"
                )

    # Perpendicular pairs: closed-interval contact between non-adjacent edges.
    for xv, ylo, yhi, ev, _ in vert:
        for yh, xlo, xhi, eh, _ in horiz:
            if adjacent(ev, eh):
                continue
            if xlo <= xv <= xhi and ylo <= yh <= yhi:
                raise GeometryError(
                    f"polygon {index}: edges {ev} and {eh} touch (self-intersection)"
                )


# ---------------------------------------------------------------------------
# Pattern
# ---------------------------------------------------------------------------

@dataclass
class LayoutPattern:
    """A set of simple rectilinear polygons on one layer.

    Polygons are validated on construction: closed rings, axis-parallel
    nonzero edges, even vertex count >= 4, non-self-intersecting.
    """

    polygons: list[Polygon] = field(default_factory=list)
    layer: int = 0

    def __post_init__(self):
        norm: list[Polygon] = []
        for i, poly in enumerate(self.polygons):
            ring = [(float(x), float(y)) for x, y in poly]
            _validate_polygon(ring, i)
            norm.append(ring)
        self.polygons = norm

    @property
    def is_empty(self) -> bool:
        return not self.polygons

    @property
    def bbox(self) -> Bbox | None:
        """Tight (xmin, ymin, xmax, ymax) over all vertices; None if empty."""
        if self.is_empty:
            return None
        pts = np.concatenate([np.asarray(p) for p in self.polygons])
        return (
            float(pts[:, 0].min()),
            float(pts[:, 1].min()),
            float(pts[:, 0].max()),
            float(pts[:, 1].max()),
        )

    def checksum(self) -> str:
        payload = repr((self.layer, [[(v[0], v[1]) for v in p] for p in self.polygons]))
        return sha256_bytes(payload.encode())


def snap_pattern(p: LayoutPattern) -> LayoutPattern:
    """The pattern on the integer-nm lattice: the unit squares whose centres
    it covers (rasterize's rule at 1 px/nm), traced by vectorize.  Every
    vertex is integer nm and every polygon valid; a part narrower than 1 nm
    may vanish, split or merge with a neighbour.
    """
    if p.is_empty:
        return p
    x0, y0, x1, y1 = p.bbox
    region = (np.floor(x0), np.floor(y0), np.ceil(x1), np.ceil(y1))
    return LayoutPattern(vectorize(rasterize(p, 1.0, region)).polygons, p.layer)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

# A bare field name after "{" or ",", and a comma right before "]" or "}":
# the two places where the layout format is looser than JSON.
_BARE_NAME = re.compile(r"([{,]\s*)([A-Za-z_]\w*)(\s*:)")
_TRAILING_COMMA = re.compile(r",(\s*[]}])")


def _fields(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ParseError(f"duplicate field among {[key for key, _ in pairs]}")
    return obj


def parse_layout(text: str) -> LayoutPattern:
    """Parse the layout text format into a validated pattern.

    Raises ParseError on malformed syntax and GeometryError when a polygon
    violates a geometric invariant; both name the offending polygon index.
    """
    text = _TRAILING_COMMA.sub(r"\1", _BARE_NAME.sub(r'\1"\2"\3', text))
    try:
        obj = json.loads(text, object_pairs_hook=_fields)
    except (ValueError, RecursionError) as exc:  # syntax, int digit limit, nesting
        raise ParseError(f"malformed layout: {exc}") from None
    if type(obj) is not dict:
        raise ParseError("a layout is one {...} object")
    unknown = sorted(obj.keys() - {"units", "layer", "polygons"})
    if unknown:
        raise ParseError(f"unknown field {unknown[0]!r}")
    if obj.get("units") != "nm":
        raise ParseError(f'units must be "nm", got {obj.get("units")!r}')
    layer = check_int("layer", obj.get("layer", 0), error=ParseError)
    flats = obj.get("polygons", [])
    if type(flats) is not list:
        raise ParseError(f"polygons must be a list, got {flats!r}")
    polygons: list[Polygon] = []
    for i, flat in enumerate(flats):
        # Beyond 2**53 a float vertex would round, and 400 digits overflow it.
        if type(flat) is not list or any(type(v) is not int or abs(v) > 2**53 for v in flat):
            raise ParseError(f"polygon {i}: need a flat list of integers with |c| <= 2**53")
        if len(flat) % 2 != 0:
            raise ParseError(f"polygon {i}: odd coordinate count {len(flat)}")
        polygons.append(list(zip(flat[::2], flat[1::2])))
    return LayoutPattern(polygons, layer)


def write_layout(p: LayoutPattern) -> str:
    """Serialize a pattern to the layout text format (integer nm only)."""
    lines = ["{", '  units: "nm",', f"  layer: {p.layer},", "  polygons: ["]
    for i, poly in enumerate(p.polygons):
        coords = []
        for x, y in poly:
            for v in (x, y):
                iv = int(round(v))
                if abs(v - iv) > 1e-6:
                    raise GeometryError(
                        f"polygon {i}: vertex {v} is not integer nm; snap_pattern first"
                    )
                coords.append(str(iv))
        lines.append("    [" + ",".join(coords) + "],")
    lines.append("  ],")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------

def rasterize(p: LayoutPattern, px_per_nm: float, region: Bbox) -> RasterGrid:
    """Binary grid over ``region``: 1 where the pixel center is inside any
    polygon.

    Boundary rule is half-open, lower-left inclusive: a center exactly on a
    left/bottom polygon edge counts as inside, on a right/top edge as
    outside.  Grid dims are ceil(extent * px_per_nm).
    """
    check_real("px_per_nm", px_per_nm, above=0, error=RegionError)
    xmin, ymin, xmax, ymax = (check_real("region", c, error=RegionError) for c in region)
    if not (xmin < xmax and ymin < ymax):
        raise RegionError(f"degenerate region {region}")
    w = float(np.ceil((xmax - xmin) * px_per_nm))
    h = float(np.ceil((ymax - ymin) * px_per_nm))
    # Bytes of the float64 pixel centres and the output; an extent that
    # overflowed to inf fails the comparison too.
    if not 8 * (w + h) + w * h <= np.iinfo(np.intp).max:
        raise RegionError(f"region {region} at {px_per_nm} px/nm is too large to rasterize")
    w, h = int(w), int(h)
    xc = xmin + (np.arange(w) + 0.5) / px_per_nm
    yc = ymin + (np.arange(h) + 0.5) / px_per_nm
    out = np.zeros((h, w), dtype=bool)
    for poly in p.polygons:
        a = np.asarray(poly)
        px0, px1 = a[:, 0].min(), a[:, 0].max()
        py0, py1 = a[:, 1].min(), a[:, 1].max()
        # Index window covering this polygon's bbox.
        i0 = int(np.searchsorted(xc, px0, side="left"))
        i1 = int(np.searchsorted(xc, px1, side="right"))
        j0 = int(np.searchsorted(yc, py0, side="left"))
        j1 = int(np.searchsorted(yc, py1, side="right"))
        if i0 >= i1 or j0 >= j1:
            continue
        xs = xc[i0:i1][None, :]
        ys = yc[j0:j1][:, None]
        inside = np.zeros((j1 - j0, i1 - i0), dtype=bool)
        # Crossing count against vertical edges only (ray cast toward +x),
        # half-open in y so shared vertices are counted once.
        for (x1, y1, x2, y2) in _edges_of(poly):
            if x1 != x2:
                continue
            ylo, yhi = (y1, y2) if y1 < y2 else (y2, y1)
            inside ^= (ys >= ylo) & (ys < yhi) & (xs < x1)
        out[j0:j1, i0:i1] |= inside
    origin = (xmin + 0.5 / px_per_nm, ymin + 0.5 / px_per_nm)
    return RasterGrid(w, h, origin, px_per_nm, out.astype(np.uint8))


def raster_region(p: LayoutPattern, margin: float) -> Bbox:
    """Pattern bbox expanded by ``margin`` nm on all sides."""
    if p.is_empty:
        raise RegionError("empty pattern has no raster region")
    x0, y0, x1, y1 = p.bbox
    return (x0 - margin, y0 - margin, x1 + margin, y1 + margin)


# ---------------------------------------------------------------------------
# Vectorization
# ---------------------------------------------------------------------------

def _trace_boundary(comp: np.ndarray) -> list[tuple[int, int]] | None:
    """Trace the single CCW boundary ring of a 4-connected mask.

    Vertices are pixel-corner coordinates (col, row).  Returns None when the
    boundary is not a single unambiguous loop, which is when the mask has a
    hole (4-connected background): the hole's boundary is a second loop, or
    meets the outer one at a corner that two edges leave.  The caller then
    falls back to rectangle decomposition.
    """
    padded = np.zeros((comp.shape[0] + 2, comp.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = comp
    c = padded
    edges: dict[tuple[int, int], tuple[int, int]] = {}

    def add(y, x, start, end):
        # y/x index into padded; corners are in unpadded units.
        for iy, ix in zip(y, x):
            s = (start[0] + ix - 1, start[1] + iy - 1)
            e = (end[0] + ix - 1, end[1] + iy - 1)
            if s in edges:
                return False
            edges[s] = e
        return True

    specs = [
        (c[1:-1, 1:-1] & ~c[:-2, 1:-1], (0, 0), (1, 0)),    # bottom, travel +x
        (c[1:-1, 1:-1] & ~c[1:-1, 2:], (1, 0), (1, 1)),     # right, travel +y
        (c[1:-1, 1:-1] & ~c[2:, 1:-1], (1, 1), (0, 1)),     # top, travel -x
        (c[1:-1, 1:-1] & ~c[1:-1, :-2], (0, 1), (0, 0)),    # left, travel -y
    ]
    for mask, s_off, e_off in specs:
        ys, xs = np.nonzero(mask)
        ok = add(ys + 1, xs + 1, s_off, e_off)
        if not ok:
            return None

    start = min(edges)
    ring = [start]
    cur = edges.pop(start)
    while cur != start:
        ring.append(cur)
        nxt = edges.pop(cur, None)
        if nxt is None:
            return None
        cur = nxt
    if edges:
        return None  # more than one loop: not simply connected

    # Collapse collinear unit steps.
    out: list[tuple[int, int]] = []
    m = len(ring)
    for k in range(m):
        px, py = ring[(k - 1) % m]
        cx, cy = ring[k]
        nx, ny = ring[(k + 1) % m]
        if (cx - px, cy - py) != (nx - cx, ny - cy):
            out.append((cx, cy))
    return out


def _rectangles_of(comp: np.ndarray) -> list[list[tuple[int, int]]]:
    """Decompose a mask into disjoint rectangles (row runs merged upward).

    Exact under union fill; used for components that enclose holes, which a
    single simple polygon cannot represent.
    """
    rects: list[list[int]] = []  # [x0, x1, y0, y1) in pixel units
    open_runs: dict[tuple[int, int], list[int]] = {}
    h = comp.shape[0]
    for iy in range(h):
        row = comp[iy]
        d = np.diff(np.concatenate(([0], row.view(np.uint8), [0])))
        starts = np.nonzero(d == 1)[0]
        ends = np.nonzero(d == -1)[0]
        nxt: dict[tuple[int, int], list[int]] = {}
        for x0, x1 in zip(starts, ends):
            key = (int(x0), int(x1))
            run = open_runs.pop(key, None)
            if run is not None and run[3] == iy:
                run[3] = iy + 1
                nxt[key] = run
            else:
                run = [int(x0), int(x1), iy, iy + 1]
                rects.append(run)
                nxt[key] = run
        open_runs = nxt
    return [
        [(x0, y0), (x1, y0), (x1, y1), (x0, y1)] for x0, x1, y0, y1 in rects
    ]


def vectorize(g: RasterGrid) -> LayoutPattern:
    """Trace 4-connected components of 1-pixels into rectilinear polygons.

    Re-rasterizing the result at the grid's own resolution reproduces the
    grid exactly.  Components that enclose holes are emitted as several
    rectangles (the pattern format has no hole representation).
    """
    ppnm = g.px_per_nm
    v = g.values
    if not g.is_binary():
        raise GeometryError("vectorize requires a binary grid")
    mask = np.asarray(v != 0)
    labels, count = ndimage.label(mask, structure=_CROSS)

    def corner_to_nm(cx: float, cy: float) -> Vertex:
        x = g.origin[0] + (cx - 0.5) / ppnm
        y = g.origin[1] + (cy - 0.5) / ppnm
        xi, yi = round(x), round(y)
        return (xi if abs(x - xi) < 1e-9 else x, yi if abs(y - yi) < 1e-9 else y)

    polygons: list[Polygon] = []
    slices = ndimage.find_objects(labels)
    for idx in range(count):
        sl = slices[idx]
        comp = labels[sl] == (idx + 1)
        ring = _trace_boundary(comp)  # None when comp has a hole
        local = [ring] if ring is not None else _rectangles_of(comp)
        oy, ox = sl[0].start, sl[1].start
        for lp in local:
            polygons.append([corner_to_nm(cx + ox, cy + oy) for cx, cy in lp])
    return LayoutPattern(polygons, layer=0)


# ---------------------------------------------------------------------------
# Test-pattern generation
# ---------------------------------------------------------------------------

def generate_test_pattern(
    topology: str,
    width: int,
    pitch: int | None = None,
    count: int = 1,
    length: int | None = None,
) -> LayoutPattern:
    """Canonical test structures centered at the origin.

    topology: "isolated_line" (one width x length rectangle), "line_space"
    (``count`` lines at ``pitch``), or "square" (width x width).  Odd extents
    are centered to the integer-nm grid (shifted by up to half a nm).
    """
    check_int("width", width, least=1)
    check_int("count", count, least=1)

    def rect(x0, y0, x1, y1):
        return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]

    if topology == "isolated_line":
        check_int("isolated_line length", length, least=1)
        x0, y0 = -(width // 2), -(length // 2)
        return LayoutPattern([rect(x0, y0, x0 + width, y0 + length)])
    if topology == "line_space":
        check_int("line_space length", length, least=1)
        check_int("line_space pitch", pitch, least=width + 1)
        extent = (count - 1) * pitch + width
        x0, y0 = -(extent // 2), -(length // 2)
        polys = [
            rect(x0 + i * pitch, y0, x0 + i * pitch + width, y0 + length)
            for i in range(count)
        ]
        return LayoutPattern(polys)
    if topology == "square":
        x0 = -(width // 2)
        return LayoutPattern([rect(x0, x0, x0 + width, x0 + width)])
    raise ParamError(f"unknown topology {topology!r}")
