"""Shared pytest setup: every run's header names the BLAS kernel in use.

A few byte-exact tests hold that a row's result does not depend on the rows
batched with it. On OpenBLAS's SkylakeX kernels a row of a product has the
same bits wherever it sits; on its Haswell kernels it can differ in the last
place, so a failure there reads differently once the header shows the
kernel. ``test_blas_kernels.py`` reruns the equalities that hold on every
kernel under each one the CPU can run.
"""

import ctypes
from pathlib import Path

import numpy as np


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS chose for this CPU, or ``unknown``
    where that library or its core-name query is missing."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    return f"openblas core: {openblas_core()}"
