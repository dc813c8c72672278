"""Dense 2D scalar fields with physical placement metadata.

A :class:`RasterGrid` stores a row-major array of pixel values together with
the nm coordinate of the center of pixel ``(0, 0)`` and the linear resolution
in pixels per nm.  Row index runs along +y, column index along +x, so
``values[iy, ix]`` is the pixel whose center sits at
``(origin_x + ix / px_per_nm, origin_y + iy / px_per_nm)``.

Grids are exported as binary PGM ("P5", maxval 255) with pixel value
``floor(255 * v + 0.5)``; row 0 (lowest y) is written first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimMismatch, FormatError, RangeError, check_int, check_real


@dataclass
class RasterGrid:
    """Scalar field on a uniform pixel grid.

    width/height are pixel counts, ``origin`` is the nm position of the
    center of pixel (0, 0), and ``px_per_nm`` the linear resolution per axis
    (area density is ``px_per_nm ** 2`` pixels per nm^2).
    """

    width: int
    height: int
    origin: tuple[float, float]
    px_per_nm: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_int("width", self.width, least=0, error=RangeError)
        check_int("height", self.height, least=0, error=RangeError)
        self.values = np.asarray(self.values)
        if self.values.shape != (self.height, self.width):
            raise DimMismatch(
                f"values shape {self.values.shape} != (height={self.height}, width={self.width})"
            )
        check_real("px_per_nm", self.px_per_nm, above=0, error=RangeError)
        if not isinstance(self.origin, (tuple, list)) or len(self.origin) != 2:
            raise RangeError(f"origin must be two numbers, got {self.origin!r}")
        for c in self.origin:
            check_real("origin", c, error=RangeError)
        # Python floats, so that equal placements compare and hash equal.
        self.origin = (float(self.origin[0]), float(self.origin[1]))
        if self.values.dtype.kind == "f" and not np.all(np.isfinite(self.values)):
            raise RangeError("real grid contains non-finite values")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    def is_binary(self) -> bool:
        """True when every pixel is exactly 0 or 1."""
        v = self.values
        return bool(np.all((v == 0) | (v == 1)))

    def pixel_center(self, ix: int, iy: int) -> tuple[float, float]:
        """nm coordinates of the center of pixel (ix, iy)."""
        return (
            self.origin[0] + ix / self.px_per_nm,
            self.origin[1] + iy / self.px_per_nm,
        )

    def bbox_nm(self) -> tuple[float, float, float, float]:
        """Outer nm bounds of the pixel area covered by this grid."""
        half = 0.5 / self.px_per_nm
        x0, y0 = self.origin
        return (
            x0 - half,
            y0 - half,
            x0 + (self.width - 1) / self.px_per_nm + half,
            y0 + (self.height - 1) / self.px_per_nm + half,
        )

    def with_values(self, values: np.ndarray) -> "RasterGrid":
        """Same placement metadata, new pixel data."""
        return RasterGrid(self.width, self.height, self.origin, self.px_per_nm, values)

    def checksum(self) -> str:
        """SHA-256 over shape, placement, and raw pixel bytes."""
        h = hashlib.sha256()
        h.update(f"{self.width},{self.height},{self.origin},{self.px_per_nm}".encode())
        h.update(np.ascontiguousarray(self.values))
        return h.hexdigest()


def iou(a: RasterGrid, b: RasterGrid) -> float:
    """Intersection over union of binary grids; 1.0 when both are empty."""
    if a.shape != b.shape:
        raise DimMismatch(f"grids {a.shape} vs {b.shape}")
    av, bv = a.values != 0, b.values != 0
    union = int(np.logical_or(av, bv).sum())
    if union == 0:
        return 1.0
    return float(np.logical_and(av, bv).sum() / union)


def write_graymap(grid: RasterGrid, path) -> None:
    """Write the grid as binary PGM; values are clipped to [0, 1] first."""
    v = np.clip(np.asarray(grid.values, dtype=np.float64), 0.0, 1.0)
    data = np.floor(v * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(data).tobytes())


def read_graymap(path, origin=(0.0, 0.0), px_per_nm: float = 1.0) -> RasterGrid:
    """Read a binary PGM written by :func:`write_graymap`.

    Placement metadata is not stored in the PGM itself, so the caller
    supplies it (or a sidecar does).  Values come back as ``byte / 255``.
    """
    return parse_graymap(read_bytes(path, "graymap"), origin, px_per_nm)


def parse_graymap(raw: bytes, origin, px_per_nm: float) -> RasterGrid:
    """The grid that binary PGM bytes hold, placed as read_graymap places it."""
    try:
        magic, rest = raw.split(b"\n", 1)
        if magic != b"P5":
            raise FormatError(f"not a binary PGM (magic {magic!r})")
        dims, rest = rest.split(b"\n", 1)
        w, h = (int(t) for t in dims.split())
        maxval, payload = rest.split(b"\n", 1)
        if int(maxval) != 255:
            raise FormatError(f"unsupported maxval {maxval!r}")
    except (ValueError, IndexError) as exc:
        raise FormatError(f"malformed PGM header: {exc}") from exc
    check_int("PGM width", w, least=0, error=FormatError)
    check_int("PGM height", h, least=0, error=FormatError)
    if len(payload) != w * h:
        raise FormatError(f"PGM payload has {len(payload)} bytes, expected {w * h}")
    data = np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
    return RasterGrid(w, h, tuple(origin), px_per_nm, data.astype(np.float64) / 255.0)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_bytes(path, what: str) -> bytes:
    """The bytes of the file at ``path``, described as ``what`` in errors."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from None


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file at ``path``, described as ``what`` in errors."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from None


def json_object(data: bytes, what: str) -> dict:
    """The JSON object UTF-8 ``data`` holds; ``what``, path included, names it."""
    try:
        obj = json.loads(data.decode())
    except (ValueError, RecursionError) as exc:  # encoding or syntax; nesting too deep
        raise FormatError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must hold a JSON object")
    return obj
