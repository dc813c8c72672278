"""Exception hierarchy shared by all pixelret modules."""


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
