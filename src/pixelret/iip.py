"""Inverse intensity profile maps.

A binary reference mask convolved with a nonnegative kernel (the IIK) and
scaled by the map's supremum gives a continuous field in [0, 1]: bright
cores where mask features sit, graded halos around them, zero in the far
field.  The field is discretized into uniform classes for training and
recovered from class ids via bin midpoints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ChecksumError, FormatError, ParamError, RangeError, ResolutionMismatch,
                     check_int, check_real)
from .grid import RasterGrid, json_object, parse_graymap, read_bytes, sha256_bytes, write_graymap
from .litho import Kernel, convolve_fft, make_gaussian_kernel

IIP_SIDECAR_VERSION = 1


def _check_num_classes(num_classes: int, least: int, error=ParamError, name="num_classes") -> int:
    """Refuse a class count below least or above what uint16 class ids hold."""
    return check_int(f"{name} (uint16 class ids)", num_classes, least=least,
                     most=int(np.iinfo(np.uint16).max) + 1, error=error)


@dataclass(kw_only=True)
class IipConfig:
    """Class count, kernel, and mask-recovery threshold for IIP maps."""

    num_classes: int = 100
    iik: Kernel
    threshold: float = 0.5

    def __post_init__(self):
        _check_num_classes(self.num_classes, 2)
        check_real("threshold", self.threshold, above=0, below=1)


@dataclass
class IipMap:
    """IIP field plus digests of the mask and kernel that produced it."""

    grid: RasterGrid = field(repr=False)
    source_mask_checksum: str
    iik_checksum: str


def make_iik(kind: str, sigma: float, radius: float, px_per_nm: float) -> Kernel:
    """Construct an inverse intensity kernel; only "gaussian" is available."""
    if kind != "gaussian":
        raise ParamError(f"unknown IIK kind {kind!r}")
    return make_gaussian_kernel(sigma, radius, px_per_nm)


def compute_iip(mask: RasterGrid, iik: Kernel) -> IipMap:
    """Convolve the mask with the IIK and scale so the supremum is 1.

    An empty mask maps to all zeros (the 0/0 case is defined away).  Values
    are exact in [0, 1]; FFT round-off below zero is clipped.  The mask goes
    to the convolver in its own dtype, and the clip, the division by the
    peak and the cap at 1 run in place on the convolver's float64 output,
    so the call holds no more than one convolution does.
    """
    if iik.px_per_nm != mask.px_per_nm:
        raise ResolutionMismatch(
            f"IIK at {iik.px_per_nm} px/nm, mask at {mask.px_per_nm}"
        )
    if not mask.is_binary():
        raise RangeError("compute_iip requires a binary mask")
    values = convolve_fft(mask.values, iik.values)
    np.clip(values, 0.0, None, out=values)
    peak = float(values.max())
    if peak > 0.0:
        values /= peak
    return IipMap(
        grid=mask.with_values(np.minimum(values, 1.0, out=values)),
        source_mask_checksum=mask.checksum(),
        iik_checksum=iik.checksum(),
    )


def bin_classes(values: np.ndarray, num_classes: int) -> np.ndarray:
    """Uniform binning, floor(v * C) with the top edge clamped into class
    C-1; returns uint16 class ids.  Values outside [0, 1] or NaN raise
    RangeError.
    """
    _check_num_classes(num_classes, 1)
    v = np.asarray(values)
    if v.size and not (v.min() >= 0.0 and v.max() <= 1.0):
        raise RangeError("IIP values outside [0, 1]")
    return np.minimum((v * num_classes).astype(np.int64), num_classes - 1).astype(np.uint16)


def bin_class(v: float, num_classes: int) -> int:
    """bin_classes of one value."""
    return int(bin_classes(np.float64(v), num_classes))


def class_values(num_classes: int) -> np.ndarray:
    """Every class's bin midpoint, (c + 0.5) / C in float64, indexed by
    class id; the inverse of bin_classes up to quantization."""
    _check_num_classes(num_classes, 1)
    return (np.arange(num_classes) + 0.5) / num_classes


def class_value(c: int, num_classes: int) -> float:
    """class_values of one class id, an int; numpy ints, which
    bin_classes returns, are converted."""
    values = class_values(num_classes)
    c = check_int("class id", int(c) if isinstance(c, np.integer) else c)
    if not 0 <= c < num_classes:
        raise RangeError(f"class {c} outside [0, {num_classes})")
    return float(values[c])


def threshold_iip(m: IipMap, t: float) -> RasterGrid:
    """Binary mask: 1 where the map value exceeds t."""
    check_real("threshold", t, above=0, below=1)
    return m.grid.with_values((m.grid.values > t).astype(np.uint8))


def export_iip(m: IipMap, path: str | Path, num_classes: int) -> None:
    """Write the map as an 8-bit graymap plus a JSON sidecar (<path>.json)
    recording class count and provenance digests.  Inspection artifact; the
    graymap quantizes to 1/255.
    """
    path = Path(path)
    write_graymap(m.grid, path)
    sidecar = {
        "format": "iip-graymap",
        "version": IIP_SIDECAR_VERSION,
        "num_classes": num_classes,
        "px_per_nm": m.grid.px_per_nm,
        "origin": list(m.grid.origin),
        "source_mask_checksum": m.source_mask_checksum,
        "iik_checksum": m.iik_checksum,
        "payload_sha256": sha256_bytes(read_bytes(path, "IIP graymap")),
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def import_iip(path: str | Path) -> tuple[IipMap, int]:
    """Rebuild (map, num_classes) from export_iip output, 8-bit precision."""
    side = f"{path}.json"
    sidecar = json_object(read_bytes(side, "IIP sidecar"), f"IIP sidecar {side}")
    if sidecar.get("format") != "iip-graymap":
        raise FormatError(f"{side} is not an IIP sidecar")
    if sidecar.get("version") != IIP_SIDECAR_VERSION:
        raise FormatError(f"unsupported IIP sidecar version {sidecar.get('version')}")
    try:
        origin = sidecar["origin"]
        px_per_nm = sidecar["px_per_nm"]
        num_classes = sidecar["num_classes"]
        source_ck = sidecar["source_mask_checksum"]
        iik_ck = sidecar["iik_checksum"]
        digest = sidecar["payload_sha256"]
    except KeyError as exc:
        raise FormatError(f"malformed IIP sidecar field: {exc}") from exc
    _check_num_classes(num_classes, 2, FormatError, f"IIP sidecar {side}: num_classes")
    check_real(f"IIP sidecar {side}: px_per_nm", px_per_nm, above=0, error=FormatError)
    if not isinstance(origin, list) or len(origin) != 2:
        raise FormatError(f"IIP sidecar {side}: origin must be two numbers, got {origin!r}")
    for c in origin:
        check_real(f"IIP sidecar {side}: origin", c, error=FormatError)
    raw = read_bytes(path, "IIP graymap")
    if sha256_bytes(raw) != digest:
        raise ChecksumError(f"IIP graymap {path} does not match its sidecar digest")
    g = parse_graymap(raw, tuple(origin), px_per_nm)
    m = IipMap(grid=g, source_mask_checksum=source_ck, iik_checksum=iik_ck)
    return m, num_classes
