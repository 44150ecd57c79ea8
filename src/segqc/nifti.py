"""Minimal single-file NIfTI-1 reader and writer.

Covers exactly what the toolkit needs to exchange label maps and scalar
volumes with standard neuroimaging pipelines: 348-byte headers with magic
"n+1\\0", the four datatypes uint8/int16/uint16/float32, 3-D volumes, and
transparent gzip. Both byte orders are accepted on read (detected from
the header-size field); writes are always little-endian with vox_offset
352. Orientation fields (qform/sform) are carried through numerically
but never interpreted: volumes entering one computation must share dims
and voxel spacing, which is validated elsewhere, and label files must
not declare different orientations (:func:`_check_orientation`).
"""

from __future__ import annotations

import gzip
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .volumes import LabelVolume, ValidationError, VoxelGeometry, _MappedFile, _require_memory

HEADER_SIZE = 348
MAGIC = b"n+1\x00"
WRITE_VOX_OFFSET = 352
# bytes pulled, and inflated, at once: small blocks, which the heap reuses
_GZIP_CHUNK = 1 << 16
# bytes of input inflated at once: the inflater keeps what it has not consumed
_GZIP_INPUT = 1 << 14

# datatype code -> numpy dtype (byte order applied at read time)
DTYPES = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    16: np.dtype(np.float32),
    512: np.dtype(np.uint16),
}
_CODE_OF_DTYPE = {dt: code for code, dt in DTYPES.items()}
_BITPIX = {code: dt.itemsize * 8 for code, dt in DTYPES.items()}

# Byte offset and struct format (byte order prefixed at use) of each header
# field read or written; those named like OrientationInfo's are carried as-is.
_FIELDS = {
    "sizeof_hdr": (0, "i"),
    "dim": (40, "8h"),
    "datatype": (70, "h"),
    "bitpix": (72, "h"),
    "pixdim": (76, "8f"),  # pixdim[0] is qfac
    "vox_offset": (108, "f"),
    "scl_slope": (112, "f"),
    "scl_inter": (116, "f"),
    "qform_code": (252, "h"),
    "sform_code": (254, "h"),
    "quatern": (256, "3f"),
    "qoffset": (268, "3f"),
    "srow_x": (280, "4f"),
    "srow_y": (296, "4f"),
    "srow_z": (312, "4f"),
    "magic": (344, "4s"),
}


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

    def __str__(self) -> str:
        """The one spelling of an orientation in messages: each form's code,
        then the fields it declares."""
        q = f" qfac {self.qfac} quatern {self.quatern} qoffset {self.qoffset}"
        s = f" srow_x {self.srow_x} srow_y {self.srow_y} srow_z {self.srow_z}"
        return (f"qform_code {self.qform_code}{q if self.qform_code else ''}, "
                f"sform_code {self.sform_code}{s if self.sform_code else ''}")

    def _declared(self) -> tuple | None:
        """The fields this orientation declares, as stored: a form's own
        fields count only when its code is nonzero; None when neither is."""
        if not (self.qform_code or self.sform_code):
            return None
        return (self.qform_code, self.qform_code and (self.qfac, self.quatern, self.qoffset),
                self.sform_code, self.sform_code and (self.srow_x, self.srow_y, self.srow_z))


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
    # the plain file ``data`` maps, which label passes read slabs from; else None
    _file: _MappedFile | None = field(default=None, repr=False, compare=False, kw_only=True)


class _Gunzip:
    """Inflate the gzip stream of an open file on demand, never past what
    the caller asks for.

    Bounding each read by the size the header declares keeps a small
    stream that expands far beyond its volume (a gzip bomb) from being
    decoded in full; input is pulled, and output inflated, in chunks.
    """

    def __init__(self, fh):
        self._fh, self._pending, self._fed = fh, b"", False  # fed: a member is open
        self._inflater = zlib.decompressobj(wbits=31)

    def pause(self) -> int:
        """Let go of the file, and of the input read but not yet inflated:
        returns the file offset of that input, where the stream goes on once
        it is given the file again, seeked there (:meth:`resume`)."""
        at = self._fh.tell() - len(self._pending)
        self._fh, self._pending = None, b""
        return at

    def resume(self, fh, at: int) -> None:
        """Go on reading from the file ``fh`` at ``at``, the offset :meth:`pause` returned."""
        fh.seek(at)
        self._fh = fh

    def read(self, size: int) -> bytes:
        """Up to ``size`` decoded bytes; fewer only where the stream ends."""
        buf = np.empty(size, dtype=np.uint8)  # its pages are touched only as they are filled
        return buf[:self.readinto(buf)].tobytes()

    def readinto(self, buf) -> int:
        """Fill the writable buffer ``buf`` with decoded bytes; returns their
        count, less than its size only where the stream ends."""
        view, done = memoryview(buf).cast("B"), 0
        while done < len(view):
            if not self._pending:
                self._pending = self._fh.read(_GZIP_INPUT)
                if not self._pending:  # the file has ended
                    if self._fed:
                        raise NiftiFormatError("gzip stream is corrupt: truncated stream")
                    break
            try:
                chunk = self._inflater.decompress(self._pending, min(len(view) - done, _GZIP_CHUNK))
            except zlib.error as exc:
                raise NiftiFormatError(f"gzip stream is corrupt: {exc}") from exc
            self._fed = not self._inflater.eof
            if self._inflater.eof:
                # a concatenated stream continues with its next member
                self._pending = self._inflater.unused_data
                self._inflater = zlib.decompressobj(wbits=31)
            else:
                self._pending = self._inflater.unconsumed_tail
            view[done:done + len(chunk)] = chunk
            done += len(chunk)
        return done


def _parse_header(buf: bytes) -> tuple[NiftiHeaderSubset, OrientationInfo, str]:
    if len(buf) < HEADER_SIZE:
        raise NiftiFormatError(f"truncated header: {len(buf)} bytes, need {HEADER_SIZE}")
    offset, fmt = _FIELDS["sizeof_hdr"]
    le, be = (struct.unpack_from(e + fmt, buf, offset)[0] for e in "<>")
    if HEADER_SIZE not in (le, be):
        raise NiftiFormatError(
            f"sizeof_hdr: got {le} (little-endian) / {be} (big-endian), need {HEADER_SIZE}"
        )
    e = "<" if le == HEADER_SIZE else ">"
    f = {}
    for name, (offset, fmt) in _FIELDS.items():
        v = struct.unpack_from(e + fmt, buf, offset)
        f[name] = v[0] if len(v) == 1 else v
    h = NiftiHeaderSubset(f["dim"][1:4], f["datatype"], f["bitpix"], f["pixdim"][1:4],
                          f["vox_offset"], f["scl_slope"], f["scl_inter"], f["magic"])
    if h.magic != MAGIC:
        raise NiftiFormatError(f"magic: got {h.magic!r}, need {MAGIC!r} (single-file NIfTI-1)")
    if f["dim"][0] != 3:
        raise NiftiFormatError(f"dim[0]: got {f['dim'][0]}, need 3 (3-D volumes only)")
    if min(h.dims) < 1:
        raise NiftiFormatError(f"dim[1..3]: got {h.dims}, every extent must be >= 1")
    if h.datatype not in DTYPES:
        raise NiftiFormatError(
            f"datatype: code {h.datatype} unsupported; supported codes {sorted(DTYPES)}"
        )
    if h.bitpix != _BITPIX[h.datatype]:
        raise NiftiFormatError(
            f"bitpix: got {h.bitpix}, need {_BITPIX[h.datatype]} for datatype {h.datatype}"
        )
    if not all(np.isfinite(s) and s > 0 for s in h.pixdim):
        raise NiftiFormatError(f"pixdim[1..3]: got {h.pixdim}, need finite positive spacings")
    if not np.isfinite(h.vox_offset) or h.vox_offset < HEADER_SIZE:
        raise NiftiFormatError(f"vox_offset: got {h.vox_offset}, need >= {HEADER_SIZE}")
    if h.vox_offset % 1:
        raise NiftiFormatError(f"vox_offset: got {h.vox_offset}, need a whole number of bytes")
    if not np.isfinite(h.scl_slope) or not np.isfinite(h.scl_inter):
        raise NiftiFormatError(
            f"scl_slope/scl_inter: got ({h.scl_slope}, {h.scl_inter}), must be finite"
        )
    orientation = OrientationInfo(qfac=f["pixdim"][0], **{
        field.name: f[field.name] for field in fields(OrientationInfo) if field.name != "qfac"})
    return h, orientation, e


def read_nifti(path: str | Path) -> NiftiImage:
    """Decode a .nii or .nii.gz file (gzip detected by signature).

    ``data`` is read-only and indexed ``[x, y, z]`` in file order: for a
    little-endian unscaled file it is a Fortran-order (x-fastest) view,
    not a copy, of a read-only map of a plain file (which must then stay
    unchanged) or of a gzip stream decoded only as far as the volume
    reaches.

    Integer payloads keep their stored dtype unless a nontrivial
    scl_slope/scl_inter forces scaling, which disqualifies them as label
    maps. Float payloads have slope/intercept applied (slope 0 means 1);
    the trivial slope 1 / intercept 0 case skips arithmetic entirely so
    round-trips are bit-exact. Every format error names the file. The file
    is read or mapped only up to ``vox_offset`` plus the volume, and not at all
    when what the read holds (for gzip the volume, ``vox_offset`` twice and six
    64 KiB chunks) exceeds the memory the process may use. For a mapped
    file the image also keeps a descriptor of it, which the passes over a
    label volume read their slabs from (:class:`segqc.volumes._MappedFile`)
    so that none of them faults a page of the map in.
    """
    try:
        with open(path, "rb") as fh:
            return _decode(fh)
    except ValidationError as exc:
        raise NiftiFormatError(f"{path}: {exc}") from exc


def _read_header(fh) -> tuple[_Gunzip | None, NiftiHeaderSubset, OrientationInfo, str]:
    """The gzip reader of ``fh`` (None for a plain file) and its checked header."""
    gz = _Gunzip(fh) if fh.read(2) == b"\x1f\x8b" else None
    fh.seek(0)
    return gz, *_parse_header(gz.read(HEADER_SIZE) if gz else fh.read(HEADER_SIZE))


def _truncated(need: int, have: int) -> NiftiFormatError:
    return NiftiFormatError(f"truncated data section: need {need} bytes total, file has {have}")


def _values(data: np.ndarray, header: NiftiHeaderSubset) -> tuple[np.ndarray, bool]:
    """The stored values ``data`` (all of a file's payload or any part of
    it) in native byte order with the header's scaling applied, and whether
    it was: every step is per voxel."""
    if data.dtype.byteorder == ">":
        data = data.astype(data.dtype.newbyteorder("<"))
    slope = header.scl_slope if header.scl_slope != 0.0 else 1.0
    inter = header.scl_inter
    # extreme (finite) slopes may saturate float32 to inf; that is the
    # correct IEEE result, not a condition worth a RuntimeWarning
    with np.errstate(over="ignore"):
        if np.issubdtype(data.dtype, np.integer):
            if (header.scl_slope not in (0.0, 1.0)) or inter != 0.0:
                # scaled integers are real-valued measurements, not labels
                return data.astype(np.float32) * np.float32(slope) + np.float32(inter), True
        elif slope != 1.0 or inter != 0.0:
            return data * np.float32(slope) + np.float32(inter), True
    return data, False


def _decode(fh) -> NiftiImage:
    gz, header, orientation, e = _read_header(fh)
    dt = DTYPES[header.datatype].newbyteorder(e)
    n = int(np.prod(header.dims))
    offset = int(header.vox_offset)
    need = offset + n * dt.itemsize
    # gzip: the bytes before the payload twice (read, copied) and 6 chunks: input,
    # its tail, last and next inflated chunk (two blocks, joined), zlib and file buffers
    held, what = need + (offset + 6 * _GZIP_CHUNK if gz else 0), f"dims {list(header.dims)}"
    _require_memory(held, what)
    try:  # the check passed, but the interpreter and its threads hold memory too
        if gz:
            flat = np.empty(n, dtype=dt)
            have = HEADER_SIZE + len(gz.read(offset - HEADER_SIZE)) + gz.readinto(flat)
            gz.read(1)  # reaches the trailer of a well-formed stream, checking its CRC
        else:
            import errno, mmap  # here, not at import, so startup loads nothing new
            have = os.fstat(fd := fh.fileno()).st_size
            try:  # a read-only map of the declared bytes only, which labels then view
                body = mmap.mmap(fd, need, access=mmap.ACCESS_READ) if have >= need else b""
            except OSError as exc:  # a map that finds no address space left fails with ENOMEM
                if exc.errno != errno.ENOMEM:
                    raise
                raise MemoryError from None
    except MemoryError:
        raise ValidationError(f"{what} need at least {held / 2**30:.3g} GiB, "
                              "more than this process has left") from None
    if have < need:
        raise _truncated(need, have)
    if not gz:
        flat = np.frombuffer(body, dtype=dt, count=n, offset=offset)
    flat.flags.writeable = False
    data, scaled = _values(flat.reshape(header.dims, order="F"), header)
    data.flags.writeable = False
    geometry = VoxelGeometry(dims=header.dims, spacing=header.pixdim)
    mapped = not gz and e == "<" and not scaled  # ``data`` views the map
    file = _MappedFile(fh.name, fd, offset, data) if mapped else None
    return NiftiImage(geometry=geometry, data=data, header=header,
                      orientation=orientation, scaled=scaled, _file=file)


def _identity(fh) -> tuple:
    """What tells the open file ``fh`` from another, or from itself changed."""
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class _MapStream:
    """A map file read in ascending z-slabs, each straight from the file.

    Opening it reads and checks its header, and for gzip inflates up to
    its payload; each :meth:`read` then takes the next planes. A plain
    file is read by one positional read a slab, a gzip stream inflated on
    from where the last read stopped (:meth:`_Gunzip.pause`). Both reopen
    the file for each read, so a stream holds no descriptor, and no input
    it has not inflated, between reads. Values come out as
    :func:`read_nifti` gives them (:func:`_values`), and so do the errors,
    each naming the file: a plain file shorter than its volume is refused
    when opened, a gzip one by the read that reaches its end, and the read
    of the last planes checks a gzip stream's CRC. A file replaced or
    changed since it was opened (another inode, size or mtime) fails the
    next read with an OSError naming it.
    """

    def __init__(self, path: str | Path):
        self.path, self.planes = path, 0  # planes read so far
        try:
            with open(path, "rb") as fh:
                self._gz, self._header, _, e = _read_header(fh)
                self._seen = _identity(fh)
                self.geometry = VoxelGeometry(self._header.dims, self._header.pixdim)
                self._dtype = DTYPES[self._header.datatype].newbyteorder(e)
                self._at = offset = int(self._header.vox_offset)  # at: where the next read starts
                self._need = offset + self.geometry.n_voxels * self._dtype.itemsize
                if self._gz:  # inflate up to the payload a chunk at a time, keeping none of it
                    self._have = HEADER_SIZE  # bytes inflated
                    while self._have < offset and (got := len(
                            self._gz.read(min(offset - self._have, _GZIP_CHUNK)))):
                        self._have += got
                    self._at = self._gz.pause()
                elif (have := os.fstat(fh.fileno()).st_size) < self._need:
                    raise _truncated(self._need, have)
        except ValidationError as exc:
            raise NiftiFormatError(f"{path}: {exc}") from exc

    def read(self, z: slice, buf: np.ndarray) -> np.ndarray:
        """Planes ``z`` of the map, the first of them :attr:`planes`, read
        into the uint8 array ``buf``, which their stored bytes must fit."""
        nx, ny, nz = self.geometry.dims
        z0, z1, _ = z.indices(nz)
        assert z0 == self.planes, "a map stream is read in ascending z-slabs"
        raw = buf[:nx * ny * (z1 - z0) * self._dtype.itemsize]
        try:
            with open(self.path, "rb") as fh:
                if _identity(fh) != self._seen:
                    raise OSError(f"{self.path}: the file changed since it was opened")
                if self._gz:
                    self._gz.resume(fh, self._at)
                    self._have += (got := self._gz.readinto(raw))
                    if got < raw.size:
                        raise _truncated(self._need, self._have)
                    if z1 == nz:
                        self._gz.read(1)  # reaches the trailer, checking the CRC
                    self._at = self._gz.pause()
                else:
                    if (got := os.preadv(fh.fileno(), [raw], self._at)) < raw.size:
                        raise _truncated(self._need, self._at + got)
                    self._at += got
        except ValidationError as exc:
            raise NiftiFormatError(f"{self.path}: {exc}") from exc
        self.planes = z1
        data = raw.view(self._dtype).reshape((nx, ny, z1 - z0), order="F")
        return _values(data, self._header)[0]


def read_label_nifti(path: str | Path) -> LabelVolume:
    """Read a file that must contain an integer label map; errors name it."""
    image = read_nifti(path)
    if image.scaled:
        raise NiftiFormatError(
            f"{path}: scaled data (scl_slope/scl_inter applied) cannot be used as labels"
        )
    if not np.issubdtype(image.data.dtype, np.integer):
        raise NiftiFormatError(f"{path}: datatype {image.data.dtype.name} cannot be used as "
                               "labels; labels must be integer-typed")
    return LabelVolume(image.geometry, image.data, _orientation=image.orientation,
                       _file=image._file)


def _check_orientation(path: str | Path, vol: LabelVolume, first_path: str | Path,
                       first: LabelVolume) -> None:
    """Refuse the label volume ``vol``, read from ``path``, when it declares
    another orientation than ``first``, read from ``first_path``. A file
    whose qform_code and sform_code are both 0 declares nothing and matches
    any; declared fields compare exactly as stored, with no tolerance."""
    mine, theirs = vol._orientation._declared(), first._orientation._declared()
    if None not in (mine, theirs) and mine != theirs:
        raise ValidationError(f"{path}: orientation ({vol._orientation}) does not match "
                              f"{first_path} orientation ({first._orientation})")


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
    557 kB of files against 239 kB (2-CPU host, best of 5). The file is
    written beside ``path`` and renamed over it (:func:`_atomic`).
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

    values = {**vars(o), "sizeof_hdr": HEADER_SIZE, "dim": (3, *geometry.dims, 1, 1, 1, 1),
              "datatype": code, "bitpix": _BITPIX[code],
              "pixdim": (o.qfac, *geometry.spacing, 0.0, 0.0, 0.0, 0.0),
              "vox_offset": float(WRITE_VOX_OFFSET), "scl_slope": 1.0, "scl_inter": 0.0,
              "magic": MAGIC}
    buf = bytearray(WRITE_VOX_OFFSET)  # header + 4 zero bytes (no extensions)
    for name, (offset, fmt) in _FIELDS.items():
        v = values[name]
        struct.pack_into("<" + fmt, buf, offset, *(v if np.ndim(v) else (v,)))

    body = bytes(buf) + payload.tobytes(order="F")
    path = Path(path)
    if path.suffix == ".gz":
        body = gzip.compress(body, compresslevel=1, mtime=0)
    with _atomic(path) as tmp:
        tmp.write_bytes(body)


@contextmanager
def _atomic(path: str | Path):
    """Yield a temp path; rename it over ``path`` only if the block succeeds.

    The temp name keeps the target's name, suffix included, and starts with
    a dot so discovery skips it. A reader never sees a half-written file,
    and a volume still mapped from the file it replaces keeps its contents.
    """
    final = Path(path)
    tmp = final.with_name(f".tmp-{os.getpid()}-{final.name}")
    try:
        yield tmp
        os.replace(tmp, final)
    finally:
        tmp.unlink(missing_ok=True)
