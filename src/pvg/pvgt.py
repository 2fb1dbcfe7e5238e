"""PVGT tensor file format.

Layout, all little-endian: magic bytes ``PVGT``, u32 rank, rank u32 extents,
then product(extents) IEEE-754 f32 values. Used for datasets and checkpoint
parameters.

Each payload exists once in memory. A read checks the size the extents
declare against the file's size before it allocates anything, then reads the
payload straight into the array it returns. A write hands the array's own
buffer to the file, with no copy of the payload unless the input is not
already C-contiguous little-endian float32.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .errors import FileFormatError

MAGIC = b"PVGT"


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Write ``array`` as f32 to ``path`` in PVGT layout."""
    arr = np.asarray(array, dtype="<f4", order="C")  # copies only if it must
    header = MAGIC + struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr)


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a PVGT file into a writable little-endian float32 array,
    validating the full layout. Only a regular file is read: its size bounds
    the payload before the array is allocated."""
    path = Path(path)
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise FileFormatError(f"{path}: not a regular file")
        head = fh.read(8)
        if len(head) < 8:
            raise FileFormatError(f"{path}: truncated header")
        if head[:4] != MAGIC:
            raise FileFormatError(f"{path}: bad magic {head[:4]!r}")
        (rank,) = struct.unpack_from("<I", head, 4)
        if rank > 8:
            raise FileFormatError(f"{path}: implausible rank {rank}")
        extents = fh.read(4 * rank)
        if len(extents) < 4 * rank:
            raise FileFormatError(f"{path}: truncated extent list")
        shape = struct.unpack(f"<{rank}I", extents)
        count = math.prod(shape)  # a Python int: an int64 product would wrap
        payload = info.st_size - 8 - 4 * rank
        if payload != 4 * count:
            raise FileFormatError(f"{path}: payload is {payload} bytes, expected {4 * count}")
        data = np.empty(shape, dtype="<f4")
        filled = fh.readinto(data)  # a buffered readinto stops short only at EOF
    if filled != data.nbytes:  # the file shrank after fstat
        raise FileFormatError(f"{path}: payload is {filled} bytes, expected {4 * count}")
    return data
