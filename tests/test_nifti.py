"""Reader/writer for the single-file NIfTI-1 subset."""

import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from segqc import nifti
from segqc.nifti import (
    HEADER_SIZE,
    MAGIC,
    WRITE_VOX_OFFSET,
    NiftiFormatError,
    OrientationInfo,
    read_label_nifti,
    read_nifti,
    read_orientation,
    write_nifti,
)
from segqc.volumes import LabelVolume, ValidationError, VoxelGeometry

GEOM = VoxelGeometry((5, 4, 3), (1.0, 1.25, 2.5))


def random_volume(dtype, seed=0):
    rng = np.random.default_rng(seed)
    if np.issubdtype(np.dtype(dtype), np.integer):
        info = np.iinfo(dtype)
        return rng.integers(max(info.min, -500), min(info.max, 500) + 1,
                            GEOM.dims).astype(dtype)
    return rng.standard_normal(GEOM.dims).astype(dtype)


# -- round trips ---------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint16, np.float32])
@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_round_trip_preserves_bits(tmp_path, dtype, suffix):
    data = random_volume(dtype)
    path = tmp_path / f"vol{suffix}"
    write_nifti(path, data, GEOM)
    img = read_nifti(path)
    assert img.data.dtype == np.dtype(dtype)
    assert np.array_equal(img.data, data)
    assert img.geometry.dims == GEOM.dims
    assert img.geometry.spacing == pytest.approx(GEOM.spacing)
    assert not img.scaled
    assert img.header.vox_offset == 352.0
    assert img.header.scl_slope == 1.0 and img.header.scl_inter == 0.0
    assert img.header.magic == MAGIC


def test_label_volume_round_trip(tmp_path):
    labels = LabelVolume(GEOM, random_volume(np.uint8, seed=3) % 4)
    path = tmp_path / "seg.nii.gz"
    write_nifti(path, labels)
    back = read_label_nifti(path)
    assert np.array_equal(back.data, labels.data)
    assert back.geometry.dims == GEOM.dims


def test_gzip_output_is_deterministic(tmp_path):
    data = random_volume(np.int16, seed=1)
    a, b = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
    write_nifti(a, data, GEOM)
    write_nifti(b, data, GEOM)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("volume", [
    LabelVolume(GEOM, random_volume(np.uint8, seed=4) % 5),
    np.random.default_rng(5).dirichlet(np.ones(3), GEOM.dims)[..., 0],  # a float map
], ids=["labels", "float32_map"])
def test_gzip_writer_is_level_1_and_decodes_to_the_plain_file(tmp_path, volume):
    plain, a, b = tmp_path / "v.nii", tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
    for path in (plain, a, b):
        write_nifti(path, volume, None if isinstance(volume, LabelVolume) else GEOM)
    assert gzip.decompress(a.read_bytes()) == plain.read_bytes()
    assert a.read_bytes() == b.read_bytes()
    header = a.read_bytes()[:10]
    assert header[4:8] == bytes(4)  # mtime 0
    assert header[8] == 4  # XFL: written by the fastest level, 1


def test_gzip_detected_by_signature_not_suffix(tmp_path):
    data = random_volume(np.uint8, seed=2)
    gz = tmp_path / "vol.nii.gz"
    write_nifti(gz, data, GEOM)
    misnamed = tmp_path / "vol.nii"
    misnamed.write_bytes(gz.read_bytes())
    assert np.array_equal(read_nifti(misnamed).data, data)


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_read_returns_read_only_view_in_file_order(tmp_path, suffix):
    data = random_volume(np.int16, seed=4)
    path = tmp_path / f"vol{suffix}"
    write_nifti(path, data, GEOM)
    raw = path.read_bytes()
    if suffix == ".nii.gz":
        raw = gzip.decompress(raw)
    img = read_nifti(path)
    assert not img.data.flags.writeable
    assert img.data.flags.f_contiguous
    assert img.data.reshape(-1, order="F").tobytes() == raw[352:]
    # labels built from the view share it instead of copying
    assert not read_label_nifti(path).data.flags.owndata


def test_concatenated_gzip_members_are_read(tmp_path):
    data = random_volume(np.uint8, seed=5)
    plain = tmp_path / "vol.nii"
    write_nifti(plain, data, GEOM)
    raw = plain.read_bytes()
    split = tmp_path / "split.nii.gz"
    split.write_bytes(gzip.compress(raw[:200]) + gzip.compress(raw[200:]))
    assert np.array_equal(read_nifti(split).data, data)


def test_gzip_bomb_decodes_only_the_declared_volume(tmp_path):
    import tracemalloc

    data = random_volume(np.uint8, seed=6)
    plain = tmp_path / "vol.nii"
    write_nifti(plain, data, GEOM)
    expansion = 64 << 20
    bomb = tmp_path / "bomb.nii.gz"
    bomb.write_bytes(gzip.compress(plain.read_bytes() + bytes(expansion)))
    assert bomb.stat().st_size < expansion // 100
    tracemalloc.start()
    try:
        img = read_nifti(bomb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(img.data, data)
    assert peak < expansion // 16


_TAIL_PROBE = """
import resource, sys
from segqc.nifti import read_nifti
limit = 3 * 2**29  # 1.5 GiB of address space, set in this child process only
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
print(int(read_nifti(sys.argv[1]).data.sum()))
"""


def test_plain_read_stops_at_the_declared_volume(tmp_path):
    # a 4^3 volume followed by a 3 GiB (sparse) tail, read in a process that
    # cannot hold the tail: the read takes only vox_offset plus the volume
    import os
    import subprocess
    import sys
    from pathlib import Path

    data = np.arange(64, dtype=np.uint8).reshape(4, 4, 4)
    path = tmp_path / "tail.nii"
    write_nifti(path, data, VoxelGeometry((4, 4, 4), (1.0, 1.0, 1.0)))
    with open(path, "r+b") as fh:
        fh.truncate(3 * 2**30 + 416)
    src = str(Path(nifti.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _TAIL_PROBE, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert int(proc.stdout) == int(data.sum())


def test_gzip_checksum_is_verified(tmp_path, good):
    blob = bytearray(gzip.compress(bytes(good)))
    blob[-8] ^= 0xFF  # first byte of the CRC-32 trailer
    with pytest.raises(NiftiFormatError, match="gzip"):
        reread(tmp_path, blob)


def test_big_endian_file_is_converted(tmp_path):
    dims = (3, 2, 2)
    data = np.arange(12, dtype=">i2").reshape(dims, order="F")
    buf = bytearray(352)
    struct.pack_into(">i", buf, 0, HEADER_SIZE)
    struct.pack_into(">8h", buf, 40, 3, *dims, 1, 1, 1, 1)
    struct.pack_into(">h", buf, 70, 4)   # int16
    struct.pack_into(">h", buf, 72, 16)
    struct.pack_into(">8f", buf, 76, 1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0)
    struct.pack_into(">f", buf, 108, 352.0)
    struct.pack_into(">2f", buf, 112, 1.0, 0.0)
    buf[344:348] = MAGIC
    path = tmp_path / "be.nii"
    path.write_bytes(bytes(buf) + data.tobytes(order="F"))
    img = read_nifti(path)
    assert img.data.dtype == np.dtype("<i2")
    assert np.array_equal(img.data, np.arange(12).reshape(dims, order="F"))


def test_orientation_passthrough(tmp_path):
    # float32-representable values survive the header round trip exactly
    o = OrientationInfo(qfac=-1.0, qform_code=1, sform_code=2,
                        quatern=(0.5, 0.25, -0.125), qoffset=(-10.5, 3.0, 4.75),
                        srow_x=(1.5, 0.0, 0.0, -10.5),
                        srow_y=(0.0, -2.25, 0.0, 3.0),
                        srow_z=(0.0, 0.0, 2.5, 4.75))
    path = tmp_path / "vol.nii"
    write_nifti(path, random_volume(np.uint8), GEOM, orientation=o)
    back = read_nifti(path).orientation
    assert back == o
    assert read_orientation(path) == o


def test_read_orientation_decodes_only_the_header(tmp_path):
    o = OrientationInfo(qform_code=1, sform_code=1, qoffset=(-1.5, 2.0, 3.0),
                        srow_x=(1.0, 0.0, 0.0, -1.5), srow_y=(0.0, 1.0, 0.0, 2.0),
                        srow_z=(0.0, 0.0, 1.0, 3.0))
    path = tmp_path / "vol.nii.gz"
    write_nifti(path, random_volume(np.uint8), GEOM, orientation=o)
    assert read_orientation(path) == o
    # a gzip stream cut off after its header still yields the header
    cut = tmp_path / "cut.nii.gz"
    cut.write_bytes(gzip.compress(gzip.decompress(path.read_bytes())[:HEADER_SIZE]))
    assert read_orientation(cut) == o
    with pytest.raises(NiftiFormatError, match="truncated data"):
        read_nifti(cut)


# -- decoding into a caller's buffer ---------------------------------------------


def _be(raw: bytes) -> bytes:
    """The float32 file ``raw`` rewritten big-endian, header and payload."""
    buf = bytearray(raw[:WRITE_VOX_OFFSET])
    for offset, fmt in nifti._FIELDS.values():
        struct.pack_into(">" + fmt, buf, offset, *struct.unpack_from("<" + fmt, raw, offset))
    return bytes(buf) + np.frombuffer(raw, "<f4", offset=WRITE_VOX_OFFSET).astype(">f4").tobytes()


def _patched(raw: bytes, fmt: str, offset: int, *values, payload: bytes | None = None) -> bytes:
    buf = bytearray(raw[:WRITE_VOX_OFFSET])
    struct.pack_into("<" + fmt, buf, offset, *values)
    return bytes(buf) + (raw[WRITE_VOX_OFFSET:] if payload is None else payload)


def _crc_flipped(blob: bytes) -> bytes:
    blob = bytearray(blob)
    blob[-8] ^= 0xFF  # first byte of the CRC-32 trailer
    return bytes(blob)


def _grid(raw: bytes) -> bytes:
    x, y, z = struct.unpack_from("<3h", raw, 42)
    return _patched(raw, "h", 46, z + 1, payload=raw[WRITE_VOX_OFFSET:] + bytes(4 * x * y))


# name -> (the stored file, from a little-endian float32 .nii's bytes; whether
# it decodes to the same values). Each decodes into a float32 buffer of the
# map's grid exactly as it decodes fresh, with the same values or error.
MAP_VARIANTS = {
    "gzip": (gzip.compress, True),
    "concatenated": (lambda raw: gzip.compress(raw[:500]) + gzip.compress(raw[500:]), True),
    "past_volume": (lambda raw: gzip.compress(raw + bytes(1 << 16)), True),
    "big_endian": (lambda raw: gzip.compress(_be(raw)), True),
    "scaled": (lambda raw: gzip.compress(_patched(
        raw, "2f", 112, 0.5, 0.0,
        payload=(np.frombuffer(raw, "<f4", offset=WRITE_VOX_OFFSET) * 2).tobytes())), True),
    "corrupt_crc": (lambda raw: _crc_flipped(gzip.compress(raw)), False),
    "truncated": (lambda raw: gzip.compress(raw)[:-30], False),
    "float64": (lambda raw: gzip.compress(_patched(raw, "2h", 70, 64, 64)), False),
    "grid": (lambda raw: gzip.compress(_grid(raw)), False),
}


@pytest.mark.parametrize("variant", sorted(MAP_VARIANTS))
def test_decode_into_a_buffer_matches_a_fresh_decode(tmp_path, variant):
    data = np.random.default_rng(7).dirichlet(np.ones(3), GEOM.dims)[..., 0].astype(np.float32)
    plain = tmp_path / "map.nii"
    write_nifti(plain, data, GEOM)
    make, same = MAP_VARIANTS[variant]
    path = tmp_path / "map.nii.gz"
    path.write_bytes(make(plain.read_bytes()))
    buf = np.full(GEOM.dims, np.nan, dtype=np.float32, order="F")
    got = []
    for out in (None, buf):
        try:
            got.append(read_nifti(path, out).data)
        except NiftiFormatError as exc:
            got.append(str(exc))
    fresh, buffered = got
    if isinstance(fresh, str):
        assert buffered == fresh and "map.nii.gz" in fresh
        return
    assert np.array_equal(buffered, fresh) and not buffered.flags.writeable
    assert np.array_equal(fresh, data) == same
    # a file that fits the buffer (the stored dtype and grid) is decoded into it
    fits = variant in ("gzip", "concatenated", "past_volume", "scaled")
    assert (np.shares_memory(buffered, buf) or variant == "scaled") == fits
    assert buf.flags.writeable and np.isnan(buf).all() != fits


def test_decode_reuses_one_buffer_across_files(tmp_path):
    buf = np.empty(GEOM.dims, dtype=np.float32, order="F")
    paths = [tmp_path / f"m{i}.nii.gz" for i in range(3)]
    for i, path in enumerate(paths):
        write_nifti(path, random_volume(np.float32, seed=i), GEOM)
    for path in paths:
        view = read_nifti(path, buf).data
        assert np.shares_memory(view, buf) and np.array_equal(view, read_nifti(path).data)
    # a plain file, an integer file or a C-ordered buffer is decoded as without one
    write_nifti(plain := tmp_path / "p.nii", random_volume(np.float32), GEOM)
    write_nifti(ints := tmp_path / "i.nii.gz", random_volume(np.int16), GEOM)
    for path, out in ((plain, buf), (ints, buf), (paths[0], np.empty(GEOM.dims, np.float32))):
        img = read_nifti(path, out)
        assert not np.shares_memory(img.data, out)
        assert np.array_equal(img.data, read_nifti(path).data)


_REWRITE_PROBE = """
import sys
import numpy as np
from segqc.nifti import read_label_nifti, write_nifti
from segqc.volumes import VoxelGeometry
vol = read_label_nifti(sys.argv[1])
before = int(vol.data.sum())
write_nifti(sys.argv[1], np.zeros(vol.geometry.dims, dtype=np.uint8), vol.geometry)
write_nifti(sys.argv[1], np.zeros((4, 4, 4), dtype=np.uint8),
            VoxelGeometry((4, 4, 4), (1.0, 1.0, 1.0)))
print(before, int(vol.data.sum()))
"""


def test_rewriting_a_mapped_file_leaves_its_volume_unchanged(tmp_path):
    # write_nifti renames a new file over the old one, so a volume mapped
    # from the old file keeps its contents, even when the new one is smaller
    import os
    import subprocess
    import sys
    from pathlib import Path

    path = tmp_path / "ones.nii"
    write_nifti(path, np.ones((64, 64, 64), dtype=np.uint8),
                VoxelGeometry((64, 64, 64), (1.0, 1.0, 1.0)))
    src = str(Path(nifti.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _REWRITE_PROBE, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-500:])
    assert proc.stdout.split() == [str(64**3)] * 2
    assert [p.name for p in tmp_path.iterdir()] == ["ones.nii"]  # no temporary left
    assert read_nifti(path).geometry.dims == (4, 4, 4)


# -- scaling rules -------------------------------------------------------------


def scaled_copy(tmp_path, dtype_code, slope, inter, payload):
    """A valid file with the given scl_slope/scl_inter planted."""
    path = tmp_path / "src.nii"
    write_nifti(path, payload, GEOM)
    buf = bytearray(path.read_bytes())
    struct.pack_into("<2f", buf, 112, slope, inter)
    out = tmp_path / "scaled.nii"
    out.write_bytes(bytes(buf))
    return out


def test_scaled_integers_become_float32(tmp_path):
    payload = random_volume(np.int16, seed=4)
    path = scaled_copy(tmp_path, 4, 2.0, 1.0, payload)
    img = read_nifti(path)
    assert img.scaled
    assert img.data.dtype == np.float32
    assert np.allclose(img.data, payload.astype(np.float32) * 2.0 + 1.0)
    with pytest.raises(NiftiFormatError, match="label"):
        read_label_nifti(path)


def test_intercept_alone_triggers_scaling(tmp_path):
    payload = random_volume(np.uint8, seed=5)
    img = read_nifti(scaled_copy(tmp_path, 2, 1.0, 10.0, payload))
    assert img.scaled
    assert np.allclose(img.data, payload.astype(np.float32) + 10.0)


def test_zero_slope_means_unscaled(tmp_path):
    payload = random_volume(np.int16, seed=6)
    img = read_nifti(scaled_copy(tmp_path, 4, 0.0, 0.0, payload))
    assert not img.scaled
    assert img.data.dtype == np.int16
    assert np.array_equal(img.data, payload)


def test_trivial_slope_skips_float_arithmetic(tmp_path):
    # slope 1 / intercept 0 must leave float payloads bit-identical
    payload = random_volume(np.float32, seed=7)
    path = tmp_path / "f.nii"
    write_nifti(path, payload, GEOM)
    img = read_nifti(path)
    assert not img.scaled
    assert img.data.tobytes() == payload.tobytes()


def test_scaled_floats_have_scaling_applied(tmp_path):
    payload = random_volume(np.float32, seed=8)
    img = read_nifti(scaled_copy(tmp_path, 16, 3.0, -1.5, payload))
    assert img.scaled
    assert np.allclose(img.data, payload * np.float32(3.0) + np.float32(-1.5))


def test_float_data_refused_as_labels(tmp_path):
    path = tmp_path / "f.nii"
    write_nifti(path, random_volume(np.float32), GEOM)
    with pytest.raises(NiftiFormatError, match="integer"):
        read_label_nifti(path)


# -- writer dtype selection ------------------------------------------------------


def test_int64_narrowed_to_smallest_type(tmp_path):
    cases = [
        (np.arange(60, dtype=np.int64) % 200, 2),       # fits uint8
        (np.arange(60, dtype=np.int64) + 300, 512),     # fits uint16
        (np.arange(60, dtype=np.int64) - 30, 4),        # negative: int16
    ]
    for k, (flat, want_code) in enumerate(cases):
        path = tmp_path / f"v{k}.nii"
        write_nifti(path, flat.reshape(GEOM.dims), GEOM)
        assert read_nifti(path).header.datatype == want_code


def test_out_of_range_integers_rejected(tmp_path):
    data = np.full(GEOM.dims, 100000, dtype=np.int64)
    with pytest.raises(NiftiFormatError, match="range"):
        write_nifti(tmp_path / "v.nii", data, GEOM)


def test_float64_stored_as_float32(tmp_path):
    data = random_volume(np.float32).astype(np.float64)
    path = tmp_path / "v.nii"
    write_nifti(path, data, GEOM)
    img = read_nifti(path)
    assert img.header.datatype == 16
    assert np.array_equal(img.data, data.astype(np.float32))


def test_write_requires_geometry_and_matching_shape(tmp_path):
    with pytest.raises(ValidationError, match="geometry"):
        write_nifti(tmp_path / "v.nii", np.zeros((2, 2, 2), dtype=np.uint8))
    with pytest.raises(ValidationError, match="shape"):
        write_nifti(tmp_path / "v.nii", np.zeros((2, 2, 2), dtype=np.uint8), GEOM)


# -- malformed input, each error naming its field ---------------------------------


def valid_bytes():
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "v.nii"
        write_nifti(p, random_volume(np.int16, seed=9), GEOM)
        return bytearray(p.read_bytes())


@pytest.fixture(scope="module")
def good():
    return valid_bytes()


def reread(tmp_path, buf):
    p = tmp_path / "bad.nii"
    p.write_bytes(bytes(buf))
    return read_nifti(p)


@pytest.mark.parametrize("mutate,field", [
    (lambda b: struct.pack_into("<i", b, 0, 999), "sizeof_hdr"),
    (lambda b: b.__setitem__(slice(344, 348), b"ni1\x00"), "magic"),
    (lambda b: struct.pack_into("<h", b, 40, 4), "dim\\[0\\]"),
    (lambda b: struct.pack_into("<h", b, 42, 0), "dim\\[1..3\\]"),
    (lambda b: struct.pack_into("<h", b, 70, 64), "datatype"),
    (lambda b: struct.pack_into("<h", b, 72, 8), "bitpix"),
    (lambda b: struct.pack_into("<f", b, 80, 0.0), "pixdim"),
    (lambda b: struct.pack_into("<f", b, 108, 100.0), "vox_offset"),
    (lambda b: struct.pack_into("<f", b, 112, np.inf), "scl_slope"),
    (lambda b: struct.pack_into("<f", b, 108, 352.5), "vox_offset: got 352.5, need a whole"),
])
def test_field_errors_name_the_field(tmp_path, good, mutate, field):
    buf = bytearray(good)
    mutate(buf)
    with pytest.raises(NiftiFormatError, match=field):
        reread(tmp_path, buf)


def test_truncated_header(tmp_path):
    with pytest.raises(NiftiFormatError, match="truncated header"):
        reread(tmp_path, b"\x00" * 40)


def test_truncated_data_section(tmp_path, good):
    with pytest.raises(NiftiFormatError, match="truncated data"):
        reread(tmp_path, bytes(good[:-10]))


def test_corrupt_gzip_stream(tmp_path, good):
    blob = gzip.compress(bytes(good))
    with pytest.raises(NiftiFormatError, match="gzip"):
        reread(tmp_path, blob[:60])


def test_random_corruption_never_escapes_format_error(tmp_path, good):
    # any byte-level damage must surface as NiftiFormatError (or read as
    # some valid volume), never as an unrelated exception
    rng = np.random.default_rng(10)
    for trial in range(60):
        buf = bytearray(good)
        for _ in range(int(rng.integers(1, 8))):
            buf[int(rng.integers(0, len(buf)))] = int(rng.integers(0, 256))
        try:
            reread(tmp_path, buf)
        except NiftiFormatError:
            pass


# -- the header table against the field-by-field oracle ------------------------

F32 = st.floats(-(2.0**100), 2.0**100, width=32)


@st.composite
def nifti_volumes(draw):
    """(data, spacing, orientation): any of the four datatypes, float32-exact
    spacings and orientation fields."""
    dims = draw(st.tuples(*[st.integers(1, 5)] * 3))
    dtype = draw(st.sampled_from([np.uint8, np.int16, np.uint16, np.float32]))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 256, dims)
    data = data.astype(dtype)
    spacing = draw(st.tuples(*[st.floats(2.0**-100, 2.0**100, width=32)] * 3))
    code = st.integers(-(2**15), 2**15 - 1)
    o = OrientationInfo(qfac=draw(F32), qform_code=draw(code), sform_code=draw(code),
                        quatern=draw(st.tuples(*[F32] * 3)), qoffset=draw(st.tuples(*[F32] * 3)),
                        srow_x=draw(st.tuples(*[F32] * 4)), srow_y=draw(st.tuples(*[F32] * 4)),
                        srow_z=draw(st.tuples(*[F32] * 4)))
    return data, spacing, o


@settings(max_examples=60, deadline=None)
@given(volume=nifti_volumes(), byteorder=st.sampled_from("<>"), gz=st.booleans())
def test_header_table_matches_the_field_by_field_oracle(tmp_path_factory, volume, byteorder,
                                                        gz):
    data, spacing, o = volume
    d = tmp_path_factory.mktemp("hdr")
    want = oracles.nifti_bytes_oracle(data, spacing, o, byteorder)
    if byteorder == "<":
        write_nifti(d / "w.nii", data, VoxelGeometry(data.shape, spacing), orientation=o)
        assert (d / "w.nii").read_bytes() == want
    path = d / "o.nii"
    path.write_bytes(gzip.compress(want) if gz else want)
    header, orientation, _ = oracles.nifti_header_oracle(want)
    img = read_nifti(path)
    assert repr((img.header, img.orientation)) == repr((header, orientation))
    assert repr(read_orientation(path)) == repr(orientation)
    assert np.array_equal(img.data, data)


# an edit lands on a byte of a field the codec reads, or on any header byte
FIELD_BYTES = sorted({offset + i for offset, fmt in nifti._FIELDS.values()
                      for i in range(struct.calcsize("<" + fmt))})


@settings(max_examples=300, deadline=None)
@given(volume=nifti_volumes(), byteorder=st.sampled_from("<>"),
       edits=st.lists(st.tuples(st.sampled_from(FIELD_BYTES) | st.integers(0, HEADER_SIZE - 1),
                                st.integers(0, 255)), min_size=1, max_size=3))
def test_mutated_headers_fail_alike_in_table_and_oracle(volume, byteorder, edits):
    buf = bytearray(oracles.nifti_bytes_oracle(*volume, byteorder)[:HEADER_SIZE])
    for at, byte in edits:
        buf[at] = byte
    buf = bytes(buf)
    try:
        want = repr(oracles.nifti_header_oracle(buf))
    except NiftiFormatError as exc:
        with pytest.raises(NiftiFormatError) as got:
            nifti._parse_header(buf)
        assert str(got.value) == str(exc)
    else:
        assert repr(nifti._parse_header(buf)) == want
