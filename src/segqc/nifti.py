"""Minimal single-file NIfTI-1 reader and writer.

Covers exactly what the toolkit needs to exchange label maps and scalar
volumes with standard neuroimaging pipelines: 348-byte headers with magic
"n+1\\0", the four datatypes uint8/int16/uint16/float32, 3-D volumes, and
transparent gzip. Both byte orders are accepted on read (detected from
the header-size field); writes are always little-endian with vox_offset
352. Orientation fields (qform/sform) are carried through numerically
but never interpreted: volumes entering one computation must share dims
and voxel spacing, which is validated elsewhere.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .volumes import LabelVolume, ValidationError, VoxelGeometry

HEADER_SIZE = 348
MAGIC = b"n+1\x00"
WRITE_VOX_OFFSET = 352

# datatype code -> numpy dtype (byte order applied at read time)
DTYPES = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    16: np.dtype(np.float32),
    512: np.dtype(np.uint16),
}
_CODE_OF_DTYPE = {dt: code for code, dt in DTYPES.items()}
_BITPIX = {code: dt.itemsize * 8 for code, dt in DTYPES.items()}


class NiftiFormatError(ValidationError):
    """The file is not a NIfTI-1 volume this reader supports."""


@dataclass(frozen=True)
class OrientationInfo:
    """qform/sform fields, carried numerically and never interpreted."""

    qfac: float = 1.0
    qform_code: int = 0
    sform_code: int = 0
    quatern: tuple[float, float, float] = (0.0, 0.0, 0.0)
    qoffset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    srow_x: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    srow_y: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    srow_z: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class NiftiHeaderSubset:
    """The header fields this subset reads, writes, and validates."""

    dims: tuple[int, int, int]
    datatype: int
    bitpix: int
    pixdim: tuple[float, float, float]
    vox_offset: float
    scl_slope: float
    scl_inter: float
    magic: bytes


@dataclass(frozen=True)
class NiftiImage:
    """A decoded volume plus enough header context to re-emit it."""

    geometry: VoxelGeometry
    data: np.ndarray
    header: NiftiHeaderSubset
    orientation: OrientationInfo
    scaled: bool  # True when scl_slope/scl_inter were applied

    def as_label_volume(self) -> LabelVolume:
        if self.scaled:
            raise NiftiFormatError(
                "scaled data (scl_slope/scl_inter applied) cannot be used as labels"
            )
        if not np.issubdtype(self.data.dtype, np.integer):
            raise NiftiFormatError(
                f"datatype {self.data.dtype.name} cannot be used as labels; "
                "labels must be integer-typed"
            )
        return LabelVolume(self.geometry, self.data)


class _Gunzip:
    """Inflate a gzip stream on demand, never past what the caller asks for.

    Bounding each read by the size the header declares keeps a small
    stream that expands far beyond its volume (a gzip bomb) from being
    decoded in full.
    """

    def __init__(self, raw: bytes):
        self._inflater = zlib.decompressobj(wbits=31)
        self._pending = raw
        self._ended = False

    def read(self, size: int) -> bytes:
        """Up to ``size`` decoded bytes; fewer only where the stream ends."""
        parts = []
        while size > 0 and not self._ended:
            try:
                chunk = self._inflater.decompress(self._pending, size)
            except zlib.error as exc:
                raise NiftiFormatError(f"gzip stream is corrupt: {exc}") from exc
            if self._inflater.eof:
                # a concatenated stream continues with its next member
                self._pending = self._inflater.unused_data
                self._ended = not self._pending
                self._inflater = zlib.decompressobj(wbits=31)
            elif chunk:
                self._pending = self._inflater.unconsumed_tail
            else:
                raise NiftiFormatError("gzip stream is corrupt: truncated stream")
            parts.append(chunk)
            size -= len(chunk)
        return parts[0] if len(parts) == 1 else b"".join(parts)


def _detect_byteorder(buf: bytes) -> str:
    (le,) = struct.unpack_from("<i", buf, 0)
    (be,) = struct.unpack_from(">i", buf, 0)
    if le == HEADER_SIZE:
        return "<"
    if be == HEADER_SIZE:
        return ">"
    raise NiftiFormatError(
        f"sizeof_hdr: got {le} (little-endian) / {be} (big-endian), need {HEADER_SIZE}"
    )


def _parse_header(buf: bytes) -> tuple[NiftiHeaderSubset, OrientationInfo, str]:
    if len(buf) < HEADER_SIZE:
        raise NiftiFormatError(f"truncated header: {len(buf)} bytes, need {HEADER_SIZE}")
    e = _detect_byteorder(buf)
    magic = buf[344:348]
    if magic != MAGIC:
        raise NiftiFormatError(f"magic: got {magic!r}, need {MAGIC!r} (single-file NIfTI-1)")
    dim = struct.unpack_from(e + "8h", buf, 40)
    if dim[0] != 3:
        raise NiftiFormatError(f"dim[0]: got {dim[0]}, need 3 (3-D volumes only)")
    dims = dim[1:4]
    if min(dims) < 1:
        raise NiftiFormatError(f"dim[1..3]: got {dims}, every extent must be >= 1")
    (datatype,) = struct.unpack_from(e + "h", buf, 70)
    if datatype not in DTYPES:
        raise NiftiFormatError(
            f"datatype: code {datatype} unsupported; supported codes {sorted(DTYPES)}"
        )
    (bitpix,) = struct.unpack_from(e + "h", buf, 72)
    if bitpix != _BITPIX[datatype]:
        raise NiftiFormatError(
            f"bitpix: got {bitpix}, need {_BITPIX[datatype]} for datatype {datatype}"
        )
    pixdim = struct.unpack_from(e + "8f", buf, 76)
    spacing = pixdim[1:4]
    if not all(np.isfinite(s) and s > 0 for s in spacing):
        raise NiftiFormatError(f"pixdim[1..3]: got {spacing}, need finite positive spacings")
    (vox_offset,) = struct.unpack_from(e + "f", buf, 108)
    if not np.isfinite(vox_offset) or vox_offset < HEADER_SIZE:
        raise NiftiFormatError(f"vox_offset: got {vox_offset}, need >= {HEADER_SIZE}")
    scl_slope, scl_inter = struct.unpack_from(e + "2f", buf, 112)
    if not np.isfinite(scl_slope) or not np.isfinite(scl_inter):
        raise NiftiFormatError(
            f"scl_slope/scl_inter: got ({scl_slope}, {scl_inter}), must be finite"
        )
    qform_code, sform_code = struct.unpack_from(e + "2h", buf, 252)
    quatern = struct.unpack_from(e + "3f", buf, 256)
    qoffset = struct.unpack_from(e + "3f", buf, 268)
    srow_x = struct.unpack_from(e + "4f", buf, 280)
    srow_y = struct.unpack_from(e + "4f", buf, 296)
    srow_z = struct.unpack_from(e + "4f", buf, 312)
    header = NiftiHeaderSubset(
        dims=tuple(int(d) for d in dims),
        datatype=int(datatype),
        bitpix=int(bitpix),
        pixdim=tuple(float(s) for s in spacing),
        vox_offset=float(vox_offset),
        scl_slope=float(scl_slope),
        scl_inter=float(scl_inter),
        magic=magic,
    )
    orientation = OrientationInfo(
        qfac=float(pixdim[0]),
        qform_code=int(qform_code),
        sform_code=int(sform_code),
        quatern=tuple(float(v) for v in quatern),
        qoffset=tuple(float(v) for v in qoffset),
        srow_x=tuple(float(v) for v in srow_x),
        srow_y=tuple(float(v) for v in srow_y),
        srow_z=tuple(float(v) for v in srow_z),
    )
    return header, orientation, e


def read_nifti(path: str | Path) -> NiftiImage:
    """Decode a .nii or .nii.gz file (gzip detected by signature).

    ``data`` is read-only and indexed ``[x, y, z]`` in file order: for a
    little-endian unscaled file it is a Fortran-order (x-fastest) view
    over the decoded bytes, not a copy. A gzip stream is decoded only as
    far as the header says the volume reaches.

    Integer payloads keep their stored dtype unless a nontrivial
    scl_slope/scl_inter forces scaling, which disqualifies them as label
    maps. Float payloads have slope/intercept applied (slope 0 means 1);
    the trivial slope 1 / intercept 0 case skips arithmetic entirely so
    round-trips are bit-exact. Every format error names the file.
    """
    raw = Path(path).read_bytes()
    try:
        return _decode(raw)
    except ValidationError as exc:
        raise NiftiFormatError(f"{path}: {exc}") from exc


def _decode(raw: bytes) -> NiftiImage:
    gz = _Gunzip(raw) if raw[:2] == b"\x1f\x8b" else None
    head = gz.read(HEADER_SIZE) if gz else raw
    header, orientation, e = _parse_header(head)
    dt = DTYPES[header.datatype].newbyteorder(e)
    n = int(np.prod(header.dims))
    offset = int(header.vox_offset)
    need = offset + n * dt.itemsize
    if gz:
        # the payload buffer starts right after the header
        body = gz.read(need - HEADER_SIZE)
        gz.read(1)  # reaches the trailer of a well-formed stream, checking its CRC
        have, offset = HEADER_SIZE + len(body), offset - HEADER_SIZE
    else:
        body, have = raw, len(raw)
    if have < need:
        raise NiftiFormatError(
            f"truncated data section: need {need} bytes total, file has {have}"
        )
    flat = np.frombuffer(body, dtype=dt, count=n, offset=offset)
    data = flat.reshape(header.dims, order="F")
    if e == ">":
        data = data.astype(data.dtype.newbyteorder("<"))

    slope = header.scl_slope if header.scl_slope != 0.0 else 1.0
    inter = header.scl_inter
    scaled = False
    # extreme (finite) slopes may saturate float32 to inf; that is the
    # correct IEEE result, not a condition worth a RuntimeWarning
    with np.errstate(over="ignore"):
        if np.issubdtype(data.dtype, np.integer):
            if (header.scl_slope not in (0.0, 1.0)) or inter != 0.0:
                # scaled integers are real-valued measurements, not labels
                data = data.astype(np.float32) * np.float32(slope) + np.float32(inter)
                scaled = True
        else:
            if slope != 1.0 or inter != 0.0:
                data = data * np.float32(slope) + np.float32(inter)
                scaled = True

    data.flags.writeable = False
    geometry = VoxelGeometry(dims=header.dims, spacing=header.pixdim)
    return NiftiImage(geometry=geometry, data=data,
                      header=header, orientation=orientation, scaled=scaled)


def read_orientation(path: str | Path) -> OrientationInfo:
    """Orientation fields of a .nii or .nii.gz file, decoding only its header."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER_SIZE)
    if head[:2] == b"\x1f\x8b":
        head = _Gunzip(Path(path).read_bytes()).read(HEADER_SIZE)
    return _parse_header(head)[1]


def read_label_nifti(path: str | Path) -> LabelVolume:
    """Read a file that must contain an integer label map; errors name it."""
    image = read_nifti(path)
    try:
        return image.as_label_volume()
    except ValidationError as exc:
        raise NiftiFormatError(f"{path}: {exc}") from exc


def _storage_dtype(data: np.ndarray) -> np.dtype:
    if data.dtype in _CODE_OF_DTYPE:
        return data.dtype
    if np.issubdtype(data.dtype, np.floating):
        return np.dtype(np.float32)
    if np.issubdtype(data.dtype, np.integer):
        lo = int(data.min()) if data.size else 0
        hi = int(data.max()) if data.size else 0
        if lo >= 0 and hi <= np.iinfo(np.uint8).max:
            return np.dtype(np.uint8)
        if lo >= 0 and hi <= np.iinfo(np.uint16).max:
            return np.dtype(np.uint16)
        if lo >= np.iinfo(np.int16).min and hi <= np.iinfo(np.int16).max:
            return np.dtype(np.int16)
        raise NiftiFormatError(
            f"integer data range [{lo}, {hi}] does not fit any supported datatype "
            "(uint8, int16, uint16)"
        )
    raise NiftiFormatError(f"cannot store dtype {data.dtype.name}")


def write_nifti(
    path: str | Path,
    data: np.ndarray | LabelVolume,
    geometry: VoxelGeometry | None = None,
    orientation: OrientationInfo | None = None,
) -> None:
    """Write a 3-D volume as little-endian single-file NIfTI-1.

    Data already in a supported dtype is stored bit-exactly; other
    integer data is narrowed to the smallest supported integer type and
    other float data is cast to float32. A ``.gz`` suffix gzips the
    output at level 1 with a fixed timestamp, so identical volumes give
    identical bytes. Level 1 trades size for time: on one bundled scan's
    135 near one-hot float32 maps (59.8 MB) it compressed in 0.12 s
    against 0.76 s at level 9 and decoded in 0.065 s against 0.090 s, for
    557 kB of files against 239 kB (2-CPU host, best of 5).
    """
    if isinstance(data, LabelVolume):
        geometry = data.geometry
        data = data.data
    if geometry is None:
        raise ValidationError("geometry is required when writing a bare array")
    data = np.asarray(data)
    if data.shape != geometry.dims:
        raise ValidationError(f"data shape {data.shape} does not match dims {geometry.dims}")
    dt = _storage_dtype(data)
    payload = data.astype(dt, copy=False)
    code = _CODE_OF_DTYPE[dt]
    o = orientation or OrientationInfo()

    buf = bytearray(WRITE_VOX_OFFSET)  # header + 4 zero bytes (no extensions)
    struct.pack_into("<i", buf, 0, HEADER_SIZE)
    struct.pack_into("<8h", buf, 40, 3, *geometry.dims, 1, 1, 1, 1)
    struct.pack_into("<h", buf, 70, code)
    struct.pack_into("<h", buf, 72, _BITPIX[code])
    struct.pack_into("<8f", buf, 76, o.qfac, *geometry.spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", buf, 108, float(WRITE_VOX_OFFSET))
    struct.pack_into("<2f", buf, 112, 1.0, 0.0)  # scl_slope, scl_inter
    struct.pack_into("<2h", buf, 252, o.qform_code, o.sform_code)
    struct.pack_into("<3f", buf, 256, *o.quatern)
    struct.pack_into("<3f", buf, 268, *o.qoffset)
    struct.pack_into("<4f", buf, 280, *o.srow_x)
    struct.pack_into("<4f", buf, 296, *o.srow_y)
    struct.pack_into("<4f", buf, 312, *o.srow_z)
    buf[344:348] = MAGIC

    body = bytes(buf) + payload.tobytes(order="F")
    path = Path(path)
    if path.suffix == ".gz":
        body = gzip.compress(body, compresslevel=1, mtime=0)
    path.write_bytes(body)
