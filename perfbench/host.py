"""Host stamp for every benchmark record, and the BLAS thread setting.

:data:`BLAS_THREADS` is exported to the environment by ``run.py`` before
numpy is imported, because OpenBLAS reads it only when it loads.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

#: BLAS threads per benchmark process.  One: the training step is a
#: single Python thread whose GEMMs are small (d=64), and the serving
#: workloads already spend ``nproc`` on their client threads.
BLAS_THREADS = 1

#: Closed-loop client threads of the serving workloads.  ``recommend``
#: is synchronous, so each client is one thread; two is the whole
#: thread budget of a 2-core host.
CLIENT_THREADS = 2

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads(environ=os.environ) -> None:
    for key in BLAS_ENV:
        environ[key] = str(BLAS_THREADS)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_info() -> tuple:
    """``(version, live thread count)`` of the OpenBLAS numpy loaded."""
    import numpy as np

    version = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        pass
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
        if threads is not None:
            break
    return version, threads


def host_stamp() -> dict:
    import numpy as np
    import scipy

    blas_version, blas_threads = _openblas_info()
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads if blas_threads is not None else BLAS_THREADS,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "client_threads": CLIENT_THREADS,
        "platform": sys.platform,
    }
