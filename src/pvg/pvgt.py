"""PVGT tensor file format.

Layout, all little-endian: magic bytes ``PVGT``, u32 rank, rank u32 extents,
then product(extents) IEEE-754 f32 values. Used for datasets and checkpoint
parameters.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import FileFormatError

MAGIC = b"PVGT"


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Write ``array`` as f32 to ``path`` in PVGT layout."""
    arr = np.asarray(array, dtype=np.float32)
    if arr.ndim:
        arr = np.ascontiguousarray(arr)  # on 0-d input this would add an axis
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype("<f4").tobytes(order="C"))


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a PVGT file into a float32 array, validating the full layout."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 8:
        raise FileFormatError(f"{path}: truncated header")
    if raw[:4] != MAGIC:
        raise FileFormatError(f"{path}: bad magic {raw[:4]!r}")
    (rank,) = struct.unpack_from("<I", raw, 4)
    header = 8 + 4 * rank
    if rank > 8:
        raise FileFormatError(f"{path}: implausible rank {rank}")
    if len(raw) < header:
        raise FileFormatError(f"{path}: truncated extent list")
    shape = struct.unpack_from(f"<{rank}I", raw, 8)
    count = math.prod(shape)  # a Python int: an int64 product would wrap
    expected = header + 4 * count
    if len(raw) != expected:
        raise FileFormatError(
            f"{path}: payload is {len(raw) - header} bytes, expected {4 * count}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=header, count=count)
    return data.reshape(shape).astype(np.float32)
