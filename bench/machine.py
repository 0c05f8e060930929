"""Machine and library metadata recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_size() -> str:
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            if Path(index, "level").read_text().strip() == "3":
                return Path(index, "size").read_text().strip()
        except OSError:
            continue
    return "unknown"


def _blas() -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {"name": "unknown"}
    return {k: info.get(k) for k in ("name", "version", "openblas configuration") if k in info}


def _blas_threads() -> object:
    """The OpenBLAS thread count in effect in this process, queried from the
    library numpy loaded; the environment's setting when that fails."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            return f"{var}={os.environ[var]}"
    return "unknown"


def metadata() -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": _l3_size(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": _blas_threads(),
    }
