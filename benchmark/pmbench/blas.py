"""Name, version and thread setting of the BLAS numpy runs on."""

from __future__ import annotations

import ctypes
import os

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _loaded_openblas():
    """Path of the OpenBLAS library mapped into this process, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in path.lower() and ".so" in path:
                    return path
    except OSError:
        pass
    return None


def _openblas_runtime(path):
    """(config string, thread count) asked of the loaded OpenBLAS itself."""
    lib = ctypes.CDLL(path)
    config = threads = None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and threads is None:
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                threads = int(get_threads())
            if get_config is not None and config is None:
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                config = get_config().decode("utf-8", "replace")
    return config, threads


def blas_info() -> dict:
    import numpy as np
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas_name"] = blas.get("name")
        info["blas_version"] = blas.get("version")
    except (TypeError, KeyError):
        info["blas_name"] = info["blas_version"] = None
    path = _loaded_openblas()
    config, threads = _openblas_runtime(path) if path else (None, None)
    info["blas_runtime_config"] = config
    info["blas_threads"] = threads
    info["blas_thread_env"] = {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ}
    return info
