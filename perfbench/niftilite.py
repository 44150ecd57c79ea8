"""Stand-alone NIfTI-1 reader and writer for the benchmark's inputs and checks.

Deliberately independent of ``segqc.nifti``: the benchmark writes the
label volumes the program reads and re-reads the volumes the program
writes, so a defect in segqc's own codec cannot hide itself. Supports
only what the benchmark needs: 3-D, little- or big-endian, uint8/int16/
uint16/float32, optional gzip, no scaling.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

_DTYPES = {2: np.uint8, 4: np.int16, 16: np.float32, 512: np.uint16}
_CODES = {np.dtype(v): k for k, v in _DTYPES.items()}


def write(path: str | Path, data: np.ndarray, spacing=(1.0, 1.0, 1.0)) -> None:
    """Little-endian single-file NIfTI-1, x-fastest payload at offset 352."""
    data = np.asarray(data)
    code = _CODES[data.dtype]
    hdr = bytearray(352)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into("<2h", hdr, 70, code, data.dtype.itemsize * 8)
    struct.pack_into("<8f", hdr, 76, 1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<3f", hdr, 108, 352.0, 1.0, 0.0)  # vox_offset, slope, inter
    hdr[344:348] = b"n+1\x00"
    body = bytes(hdr) + data.astype(data.dtype.newbyteorder("<")).tobytes(order="F")
    if str(path).endswith(".gz"):
        body = gzip.compress(body, compresslevel=6, mtime=0)
    Path(path).write_bytes(body)


def read(path: str | Path) -> np.ndarray:
    """Voxel array indexed [x, y, z] in native byte order."""
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    e = "<" if struct.unpack_from("<i", raw, 0)[0] == 348 else ">"
    if raw[344:348] != b"n+1\x00" or struct.unpack_from(e + "i", raw, 0)[0] != 348:
        raise ValueError(f"{path}: not a single-file NIfTI-1 volume")
    dim = struct.unpack_from(e + "8h", raw, 40)
    if dim[0] != 3:
        raise ValueError(f"{path}: expected a 3-D volume, dim[0] = {dim[0]}")
    (code,) = struct.unpack_from(e + "h", raw, 70)
    (offset,) = struct.unpack_from(e + "f", raw, 108)
    dt = np.dtype(_DTYPES[code]).newbyteorder(e)
    n = dim[1] * dim[2] * dim[3]
    flat = np.frombuffer(raw, dtype=dt, count=n, offset=int(offset))
    return flat.reshape(dim[1:4], order="F").astype(dt.newbyteorder("="))


def decoded_size(path: str | Path) -> int:
    """Bytes of the (decompressed) file: header, padding and payload."""
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head != b"\x1f\x8b":
        return Path(path).stat().st_size
    # gzip's ISIZE trailer is the uncompressed length mod 2**32, which is
    # exact for every volume a single NIfTI-1 file can hold here
    with open(path, "rb") as fh:
        fh.seek(-4, 2)
        return struct.unpack("<I", fh.read(4))[0]
