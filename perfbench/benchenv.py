"""Process set-up shared by the benchmark scripts: pin the BLAS pool, put
the checkout's own ``src`` first on the import path, and describe the host.

``prepare`` must run before numpy is imported, because OpenBLAS reads its
thread count once, when the library loads.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads and import pixelret from ROOT/src; exit with code 2
    when the checkout holds no library source.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("benchenv.prepare() must run before numpy is imported")
    src = ROOT / "src"
    if not (src / "pixelret" / "__init__.py").is_file():
        sys.stderr.write(f"error: no pixelret source under {src}\n")
        raise SystemExit(2)
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import pixelret

    if Path(pixelret.__file__).resolve().parent != (src / "pixelret").resolve():
        sys.stderr.write(f"error: imported pixelret from {pixelret.__file__}\n")
        raise SystemExit(2)


def _blas_threads_in_use() -> int | None:
    """Ask the loaded OpenBLAS for its pool size; None when not found."""
    try:
        with open("/proc/self/maps") as f:
            libs = {
                line.split()[-1]
                for line in f
                if "openblas" in line.lower() and line.split()[-1].startswith("/")
            }
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def host_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "commit": git_commit(),
    }
