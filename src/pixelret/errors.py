"""Exception hierarchy shared by all pixelret modules, and check_int and
check_real: a bool is never a number, and strings, None, NaN and
infinities fail by name."""

import operator

import numpy as np

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


class PixelretError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PixelretError):
    """Malformed layout/config/file syntax."""


class GeometryError(PixelretError):
    """A polygon violates a geometric invariant (names the polygon index)."""


class RegionError(PixelretError):
    """Degenerate, non-finite or too large a raster region."""


class ParamError(PixelretError):
    """An operation parameter is out of its documented range."""


class ResolutionMismatch(PixelretError):
    """Grid and kernel (or two grids) disagree on pixels-per-nm."""


class DimMismatch(PixelretError):
    """Two grids that must share dimensions do not."""


class RangeError(PixelretError):
    """A scalar value lies outside its documented interval."""


class DivergenceError(PixelretError):
    """Mask optimization produced a non-finite loss."""


class CoordError(PixelretError):
    """A pixel coordinate or pixel region lies outside the grid."""


class EmptyDataset(PixelretError):
    """No pixels survived selection, or a dataset has no samples."""


class FormatError(PixelretError):
    """A file cannot be read, or has the wrong version, magic, or structure."""


class ChecksumError(PixelretError):
    """A serialized artifact failed its integrity digest check."""


class ArchError(PixelretError):
    """Invalid classifier architecture descriptor."""


class ShapeError(PixelretError):
    """Tensor/image shape incompatible with the model architecture."""


class ConfigError(PixelretError):
    """Cross-field inconsistency in a run configuration (names the fields)."""


def _check(ok: bool, error: type, name: str, what: str, value, bounds) -> None:
    """Raise error naming value unless ok and value meets every (op, bound)
    pair whose bound is not None."""
    bounds = [(op, bound) for op, bound in bounds if bound is not None]
    if not (ok and all(_OPS[op](value, bound) for op, bound in bounds)):
        span = " and".join(f" {op} {bound}" for op, bound in bounds)
        raise error(f"{name} must be {what}{span}, got {value!r}")


def check_int(name: str, value, *, least=None, most=None, error=ParamError) -> int:
    """value, if it is a Python int (never a bool, nor a numpy int, since
    these values go into JSON headers) within the bounds given."""
    _check(type(value) is int, error, name, "an integer", value, ((">=", least), ("<=", most)))
    return value


def check_seed(seed) -> int:
    """A random seed as a Python int >= 0; numpy ints, which numpy's own
    generators draw, are taken and converted."""
    return check_int("seed", int(seed) if isinstance(seed, np.integer) else seed, least=0)


def check_real(name: str, value, *, above=None, least=None, below=None, error=ParamError):
    """value, if it is a finite int, float or numpy real (never a bool)
    within the bounds given; NaN fails every comparison."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    _check(real and -float("inf") < value < float("inf"), error, name, "a finite number", value,
           ((">", above), (">=", least), ("<", below)))
    return value
