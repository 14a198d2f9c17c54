"""Machine and library facts recorded with every benchmark result."""

import ctypes
import os
import platform

import numpy as np
import scipy


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches():
    """{"L1d": "48K", "L2": "2048K", ...} for cpu0, from sysfs."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        size = _read(os.path.join(base, entry, "size"))
        if level and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            out[f"L{level}{suffix}"] = size
    return out


def _openblas():
    """(version, threads in use) of the OpenBLAS numpy loaded, or Nones."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    version = f"{info.get('name')} {info.get('version')}"
    libs = {line.split()[-1] for line in (_read("/proc/self/maps") or "").splitlines()
            if "openblas" in line.lower() and line.split()[-1].endswith(".so")}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return version, fn()
    return version, None


def info():
    blas_version, blas_threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
