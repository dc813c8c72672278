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

from .errors import ChecksumError, FormatError, ParamError, RangeError, ResolutionMismatch
from .grid import RasterGrid, read_graymap, sha256_bytes, write_graymap
from .litho import Kernel, convolve_fft, make_gaussian_kernel

IIP_SIDECAR_VERSION = 1


def _check_num_classes(num_classes: int, least: int) -> None:
    """Refuse a class count below least or above what uint16 class ids hold."""
    most = int(np.iinfo(np.uint16).max) + 1
    if type(num_classes) is not int or not least <= num_classes <= most:
        raise ParamError(
            f"num_classes must be an integer in [{least}, {most}] for uint16 class ids,"
            f" got {num_classes!r}"
        )


@dataclass(kw_only=True)
class IipConfig:
    """Class count, kernel, and mask-recovery threshold for IIP maps."""

    num_classes: int = 100
    iik: Kernel
    threshold: float = 0.5

    def __post_init__(self):
        _check_num_classes(self.num_classes, 2)
        if not 0.0 < self.threshold < 1.0:
            raise ParamError(f"threshold must be in (0, 1), got {self.threshold}")


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
    are exact in [0, 1]; FFT round-off below zero is clipped.
    """
    if iik.px_per_nm != mask.px_per_nm:
        raise ResolutionMismatch(
            f"IIK at {iik.px_per_nm} px/nm, mask at {mask.px_per_nm}"
        )
    if not mask.is_binary():
        raise RangeError("compute_iip requires a binary mask")
    raw = convolve_fft(mask.values.astype(np.float64), iik.values)
    np.clip(raw, 0.0, None, out=raw)
    peak = float(raw.max())
    values = raw / peak if peak > 0.0 else raw
    return IipMap(
        grid=mask.with_values(np.minimum(values, 1.0)),
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


def class_value(c: int, num_classes: int) -> float:
    """Bin midpoint; inverse of bin_classes up to quantization."""
    _check_num_classes(num_classes, 1)
    if not 0 <= c < num_classes:
        raise RangeError(f"class {c} outside [0, {num_classes})")
    return (c + 0.5) / num_classes


def threshold_iip(m: IipMap, t: float) -> RasterGrid:
    """Binary mask: 1 where the map value exceeds t."""
    if not 0.0 < t < 1.0:
        raise ParamError(f"threshold must be in (0, 1), got {t}")
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
        "payload_sha256": sha256_bytes(path.read_bytes()),
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def import_iip(path: str | Path) -> tuple[IipMap, int]:
    """Rebuild (map, num_classes) from export_iip output, 8-bit precision."""
    path = Path(path)
    try:
        sidecar = json.loads(Path(str(path) + ".json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable IIP sidecar {path}.json: {exc}") from exc
    if sidecar.get("format") != "iip-graymap":
        raise FormatError(f"{path}.json is not an IIP sidecar")
    if sidecar.get("version") != IIP_SIDECAR_VERSION:
        raise FormatError(f"unsupported IIP sidecar version {sidecar.get('version')}")
    try:
        origin = tuple(sidecar["origin"])
        px_per_nm = sidecar["px_per_nm"]
        num_classes = int(sidecar["num_classes"])
        source_ck = sidecar["source_mask_checksum"]
        iik_ck = sidecar["iik_checksum"]
        digest = sidecar["payload_sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed IIP sidecar field: {exc}") from exc
    try:
        payload = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read IIP graymap {path}: {exc}") from None
    if sha256_bytes(payload) != digest:
        raise ChecksumError(f"IIP graymap {path} does not match its sidecar digest")
    g = read_graymap(path, origin=origin, px_per_nm=px_per_nm)
    m = IipMap(grid=g, source_mask_checksum=source_ck, iik_checksum=iik_ck)
    return m, num_classes
