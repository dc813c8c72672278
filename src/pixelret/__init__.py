"""Pixel-based machine-learning lithography correction.

The flow: generate reference photomasks for training layouts with a toy
inverse-lithography optimizer, convert each reference mask into an inverse
intensity profile (IIP), train a per-pixel CNN classifier on compressed
layout windows, then predict IIP maps for unseen layouts and threshold them
into corrected masks.  Prediction is embarrassingly parallel and bitwise
deterministic regardless of worker count and batch size.

Imported before numpy, the package keeps BLAS to one thread per process
unless the environment already sets the count: it sets the unset ones of
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 in
os.environ, which child processes inherit too.  Its parallel work runs in
processes (the pipeline's worker pool, ILT's checker), and a BLAS pool
beside them spins on ILT's per-step np.dot and keeps ILT's checks inline.
OpenBLAS reads the count once, when numpy loads, so the setting has no
effect when numpy was imported first.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")

from .classifier import (
    ArchDescriptor,
    ConvBlock,
    ModelParams,
    TrainConfig,
    init_model,
    load_model,
    predict,
    save_model,
    train,
)
from .errors import (
    ArchError,
    ChecksumError,
    ConfigError,
    CoordError,
    DimMismatch,
    DivergenceError,
    EmptyDataset,
    FormatError,
    GeometryError,
    ParamError,
    ParseError,
    PixelretError,
    RangeError,
    RegionError,
    ResolutionMismatch,
    ShapeError,
)
from .grid import RasterGrid, iou, read_graymap, write_graymap
from .iip import (
    IipConfig,
    IipMap,
    class_value,
    compute_iip,
    export_iip,
    import_iip,
    make_iik,
    threshold_iip,
)
from .ilt import IltConfig, IltResult, ilt_loss, optimize_mask, save_loss_history
from .layout import (
    LayoutPattern,
    generate_test_pattern,
    parse_layout,
    raster_region,
    rasterize,
    snap_pattern,
    vectorize,
    write_layout,
)
from .litho import (
    Kernel,
    LithoConfig,
    aerial_image,
    convolve_direct,
    convolve_fft,
    fft_convolver,
    make_gaussian_kernel,
    print_image,
    simulate_print,
)
from .pipeline import (
    CleanupRules,
    ConfusionMatrix,
    Correction,
    CorrectionConfig,
    ScalingReport,
    bench_scaling,
    cleanup,
    confusion_matrix,
    correct,
    deployment_raster,
    predict_map,
    recorrect,
)
from .tiling import (
    PixelDataset,
    TilingConfig,
    build_dataset,
    compress_window,
    extract_window,
    load_dataset,
    merge_datasets,
    save_dataset,
    split_dataset,
)

__version__ = "1.0.0"

__all__ = [
    "ArchDescriptor",
    "ArchError",
    "CleanupRules",
    "ChecksumError",
    "ConfigError",
    "ConfusionMatrix",
    "ConvBlock",
    "CoordError",
    "Correction",
    "CorrectionConfig",
    "DimMismatch",
    "DivergenceError",
    "EmptyDataset",
    "FormatError",
    "GeometryError",
    "IipConfig",
    "IipMap",
    "IltConfig",
    "IltResult",
    "Kernel",
    "LayoutPattern",
    "LithoConfig",
    "ModelParams",
    "ParamError",
    "ParseError",
    "PixelDataset",
    "PixelretError",
    "RangeError",
    "RasterGrid",
    "RegionError",
    "ResolutionMismatch",
    "ScalingReport",
    "ShapeError",
    "TilingConfig",
    "TrainConfig",
    "aerial_image",
    "bench_scaling",
    "build_dataset",
    "class_value",
    "cleanup",
    "compress_window",
    "compute_iip",
    "confusion_matrix",
    "convolve_direct",
    "convolve_fft",
    "correct",
    "deployment_raster",
    "export_iip",
    "extract_window",
    "fft_convolver",
    "generate_test_pattern",
    "ilt_loss",
    "import_iip",
    "init_model",
    "iou",
    "load_dataset",
    "load_model",
    "make_gaussian_kernel",
    "make_iik",
    "merge_datasets",
    "optimize_mask",
    "parse_layout",
    "predict",
    "predict_map",
    "print_image",
    "raster_region",
    "rasterize",
    "read_graymap",
    "recorrect",
    "save_dataset",
    "save_loss_history",
    "save_model",
    "simulate_print",
    "snap_pattern",
    "split_dataset",
    "threshold_iip",
    "train",
    "vectorize",
    "write_graymap",
    "write_layout",
]
