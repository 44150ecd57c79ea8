"""Domain type invariants: geometry, registry, label volumes, prob stacks."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from segqc import volumes
from segqc.io import read_sample_set
from segqc.metrics import consensus_segmentation, structure_report
from segqc.nifti import read_label_nifti, write_nifti
from segqc.volumes import (
    LabelVolume,
    McSampleSet,
    ProbMapStack,
    StructureRegistry,
    ValidationError,
    VoxelGeometry,
    _read_only,
    require_valid,
    validate_sample_set,
)


def small_registry():
    return StructureRegistry(
        entries=((0, "background"), (1, "left"), (2, "right")), background_id=0
    )


def geom(*dims, spacing=(1.0, 1.0, 1.0)):
    return VoxelGeometry(dims or (3, 3, 3), spacing)


def argmax_volumes(stacks):
    """Each stack's argmax labels, by the oracle, as label volumes."""
    return tuple(LabelVolume(s.geometry, oracles.argmax_labels_oracle(s.maps, s.label_ids))
                 for s in stacks)


# -- VoxelGeometry -----------------------------------------------------------


def test_geometry_basics():
    g = VoxelGeometry((4, 5, 6), (1.0, 1.5, 2.0))
    assert g.n_voxels == 120
    assert g.voxel_volume == pytest.approx(3.0)


@pytest.mark.parametrize("dims", [(0, 3, 3), (3, -1, 3), (3, 3)])
def test_geometry_rejects_bad_dims(dims):
    with pytest.raises(ValidationError):
        VoxelGeometry(dims, (1.0,) * len(dims))


@pytest.mark.parametrize("spacing", [(0.0, 1, 1), (-1, 1, 1), (np.nan, 1, 1)])
def test_geometry_rejects_bad_spacing(spacing):
    with pytest.raises(ValidationError):
        VoxelGeometry((3, 3, 3), spacing)


# -- StructureRegistry -------------------------------------------------------


def test_registry_accessors():
    reg = small_registry()
    assert reg.ids == (0, 1, 2)
    assert reg.foreground == ((1, "left"), (2, "right"))
    assert reg.max_id == 2
    assert 1 in reg and 7 not in reg


def test_registry_rejects_duplicate_ids():
    with pytest.raises(ValidationError):
        StructureRegistry(entries=((0, "bg"), (1, "a"), (1, "b")), background_id=0)


def test_registry_rejects_duplicate_names():
    with pytest.raises(ValidationError):
        StructureRegistry(entries=((0, "bg"), (1, "a"), (2, "a")), background_id=0)


def test_registry_background_must_be_listed():
    with pytest.raises(ValidationError, match="background"):
        StructureRegistry(entries=((1, "a"), (2, "b")), background_id=0)


def test_registry_rejects_ids_beyond_dense_counting():
    # a volume holding such an id would make check_labels allocate a
    # lookup table of 2**40 entries
    with pytest.raises(ValidationError, match=str(2**40)):
        StructureRegistry(entries=((0, "bg"), (2**40, "far")), background_id=0)


def test_registry_needs_a_foreground_structure():
    with pytest.raises(ValidationError):
        StructureRegistry(entries=((0, "bg"),), background_id=0)


def test_registry_refuses_a_negative_id():
    with pytest.raises(ValidationError) as info:
        StructureRegistry(entries=((0, "bg"), (-3, "s")), background_id=0)
    assert str(info.value) == "label ids must be non-negative"


# -- LabelVolume -------------------------------------------------------------


def test_label_volume_rejects_floats():
    with pytest.raises(ValidationError, match="integer"):
        LabelVolume(geom(), np.zeros((3, 3, 3), dtype=np.float32))


def test_label_volume_rejects_shape_mismatch():
    with pytest.raises(ValidationError, match="shape"):
        LabelVolume(geom(), np.zeros((3, 3, 4), dtype=np.uint8))


def test_label_volume_is_immutable():
    vol = LabelVolume(geom(), np.zeros((3, 3, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 1


def test_array_holding_types_compare_by_identity():
    # field-wise equality would compare arrays, whose element-wise result
    # has no truth value, and arrays are not hashable
    g = geom()
    a = LabelVolume(g, np.zeros((3, 3, 3), dtype=np.uint8))
    b = LabelVolume(g, np.zeros((3, 3, 3), dtype=np.uint8))
    maps = np.full((3, 3, 3, 3), 1 / 3)
    pairs = [(a, b), (ProbMapStack(g, (0, 1, 2), maps), ProbMapStack(g, (0, 1, 2), maps)),
             (McSampleSet(g, small_registry(), (a, b)), McSampleSet(g, small_registry(), (a, b)))]
    for x, y in pairs:
        assert x == x and x != y
        assert len({x, y, x}) == 2


def test_prob_pass_compares_by_identity():
    g = geom()
    stack = ProbMapStack(g, (0, 1, 2), np.full((3, 3, 3, 3), 1 / 3))
    labels = argmax_volumes((stack, stack))
    x, y = (McSampleSet(g, small_registry(), labels, (stack, stack)).prob_pass for _ in "xy")
    assert x == x and x != y
    assert len({x, y, x}) == 2


def test_check_labels_reports_unknown_ids():
    data = np.zeros((3, 3, 3), dtype=np.uint8)
    data[0, 0, 0] = 5
    vol = LabelVolume(geom(), data)
    assert vol.check_labels(small_registry()) == [5]


def test_a_volume_read_from_a_file_and_given_other_data_is_read_from_that_data(tmp_path):
    # the replaced volume no longer reads its slabs from the file it was read from
    import dataclasses

    path = tmp_path / "five.nii"
    write_nifti(path, np.full((3, 3, 3), 5, dtype=np.uint8), geom())
    vol = read_label_nifti(path)
    assert vol.check_labels(small_registry()) == [5]
    other = dataclasses.replace(vol, data=np.ones((3, 3, 3), dtype=np.uint8))
    assert other._orientation is vol._orientation
    assert other.check_labels(small_registry()) == []
    cons = consensus_segmentation(McSampleSet(geom(), small_registry(), (other, other)))
    assert np.array_equal(cons.data, np.ones((3, 3, 3)))


def test_label_volume_from_writeable_array_is_private_copy():
    data = np.zeros((3, 3, 3), dtype=np.uint8)
    vol = LabelVolume(geom(), data)
    assert not np.shares_memory(vol.data, data)
    assert not vol.data.flags.writeable
    data[0, 0, 0] = 7
    assert vol.data[0, 0, 0] == 0
    # a read-only view does not protect the writeable memory under it
    view = data[:]
    view.flags.writeable = False
    assert not np.shares_memory(LabelVolume(geom(), view).data, data)


def test_label_volume_keeps_read_only_view_over_bytes():
    data = np.frombuffer(bytes(range(27)), dtype=np.uint8).reshape((3, 3, 3), order="F")
    vol = LabelVolume(geom(), data)
    assert vol.data is data


def test_label_volume_keeps_a_read_only_file_map_and_copies_other_maps(tmp_path):
    import mmap

    path = tmp_path / "vol.nii"
    write_nifti(path, np.arange(27, dtype=np.uint8).reshape(3, 3, 3), geom())
    data = read_label_nifti(path).data
    assert _read_only(data) is data
    with open(path, "r+b") as fh:
        shared = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_WRITE)
        private = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
    # a read-only view of a writeable map leaves the map itself writeable
    for buf in (shared, private, memoryview(shared).toreadonly(), bytearray(379)):
        arr = np.frombuffer(buf, dtype=np.uint8, count=27, offset=352)
        arr.flags.writeable = False
        kept = _read_only(arr)
        assert not np.shares_memory(kept, arr) and not kept.flags.writeable
        assert np.array_equal(kept, arr)


def test_label_volume_keeps_a_decoded_gzip_volume_and_copies_one_over_a_buffer(tmp_path):
    # a .nii.gz is decoded into a fresh array made read-only once filled;
    # a read-only view of a caller's buffer views memory that stays writeable
    path = tmp_path / "vol.nii.gz"
    write_nifti(path, np.arange(27, dtype=np.uint8).reshape(3, 3, 3), geom())
    data = read_label_nifti(path).data
    assert _read_only(data) is data
    buf = data.copy(order="F")
    view = buf.view()
    view.flags.writeable = False
    assert np.shares_memory(view, buf) and buf.flags.writeable
    kept = _read_only(view)
    assert not np.shares_memory(kept, buf) and np.array_equal(kept, data)


def _resident_kib(path) -> list[int]:
    """The ``Rss:`` kB that /proc/self/smaps lists for each mapping of ``path``."""
    rss, inside = [], False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            fields = line.split()
            if not fields[0].endswith(":"):  # a mapping's first line ends in its file
                inside = len(fields) == 6 and fields[5] == str(path)
            elif inside and fields[0] == "Rss:":
                rss.append(int(fields[1]))
    return rss


def _one_hot_maps(arr, registry, paths) -> list:
    """Write the one-hot float32 map of each registry id of ``arr`` as .nii.gz."""
    for lid, path in zip(registry.ids, paths):
        write_nifti(path, (arr == lid).astype(np.float32), geom(*arr.shape))
    return paths


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_no_pass_maps_a_label_page(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("SEGQC_THREADS", threads)
    dims = (64, 64, 96)
    assert len(volumes._slabs(dims)) == 3
    rng = np.random.default_rng(27)
    truth = np.broadcast_to((np.arange(64) // 16).astype(np.uint8)[:, None, None], dims)
    arrays = [truth.copy()]  # the ground truth, then N = 3 samples with 5 % relabelled
    for _ in range(3):
        arr = truth.copy()
        flip = rng.random(dims) < 0.05
        arr[flip] = rng.integers(0, 4, int(flip.sum()))
        arrays.append(arr)
    registry = StructureRegistry(tuple((i, f"s{i}") for i in range(4)), background_id=0)
    paths = [(tmp_path / f"v{i}.nii").resolve() for i in range(4)]
    for path, arr in zip(paths, arrays):
        write_nifti(path, arr, geom(*dims))
    probs = [_one_hot_maps(arr, registry, [tmp_path / f"p{i}_{k}.nii.gz" for k in range(4)])
             for i, arr in enumerate(arrays[1:])]

    def untouched(when):
        resident = [_resident_kib(p) for p in paths]  # one mapping a file per set read
        assert all(r and set(r) == {0} for r in resident), (when, resident)

    gt = read_label_nifti(paths[0])
    ss = read_sample_set(paths[1:], registry)
    untouched("read_sample_set")
    report = structure_report(ss, gt=gt)
    untouched("structure_report")
    consensus = consensus_segmentation(ss)
    untouched("consensus_segmentation")
    with_maps = read_sample_set(paths[1:], registry, probs)
    assert with_maps.prob_pass.mismatches == (0, 0, 0)
    untouched("the probability pass")
    report_maps = structure_report(with_maps, gt=gt)
    untouched("structure_report of a set with maps")
    # the held volumes still read the files' bytes
    for vol, arr in zip((gt, *ss.labels), arrays):
        assert np.array_equal(vol.data, arr)
    copies = [LabelVolume(gt.geometry, arr.copy()) for arr in arrays]
    in_memory = McSampleSet(gt.geometry, registry, labels=copies[1:])
    expected = structure_report(in_memory, gt=copies[0])
    assert report == expected
    assert report_maps.structures == expected.structures
    for got in (report.consensus.data, consensus.data, report_maps.consensus.data):
        assert got.dtype == expected.consensus.data.dtype
        assert np.array_equal(got, expected.consensus.data)


def test_a_pickled_label_volume_reads_its_own_data_not_a_descriptor(tmp_path):
    import gc
    import pickle

    for name, value in (("a.nii", 1), ("b.nii", 7)):
        write_nifti(tmp_path / name, np.full((8, 8, 8), value, dtype=np.uint8), geom(8, 8, 8))
    blob = pickle.dumps(read_label_nifti(tmp_path / "a.nii"))
    gc.collect()  # the original's descriptor is closed, and its number free again
    other = read_label_nifti(tmp_path / "b.nii")
    vol = pickle.loads(blob)
    assert vol._file is None and other._file is not None
    assert np.array_equal(vol._slab(slice(0, 8)), np.ones((8, 8, 8)))


# Reads a set of label files, cuts the last one short and runs the counting pass:
# through the library ("library") or the CLI, whose read is patched to cut after it.
_CUT_SHORT_PROBE = """
import os, sys
from segqc import cli, io
from segqc.metrics import structure_report
mode, registry, *paths = sys.argv[1:]
read = io.read_sample_set
def read_then_cut(*args, **kwargs):
    sample_set = read(*args, **kwargs)
    os.truncate(paths[-1], os.path.getsize(paths[-1]) // 2)
    return sample_set
if mode == "library":
    sample_set = read_then_cut(paths, io.read_registry(registry))
    try:
        structure_report(sample_set)
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}")
    sys.exit(0)
io.read_sample_set = read_then_cut
sys.exit(cli.main(["metrics", *paths, "--registry", registry, "--out", paths[0] + ".json"]))
"""


@pytest.mark.parametrize("mode", ["library", "cli"])
def test_a_label_file_cut_short_after_it_is_read_is_an_error_not_sigbus(tmp_path, mode):
    import subprocess
    import sys

    from segqc.io import write_registry

    registry = small_registry()
    write_registry(registry, tmp_path / "registry.json")
    data = (np.arange(64 * 64 * 64) % 3).astype(np.uint8).reshape(64, 64, 64)
    paths = [str(tmp_path / f"s{i}.nii") for i in range(3)]
    for path in paths:
        write_nifti(path, data, geom(64, 64, 64))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run(
        [sys.executable, "-c", _CUT_SHORT_PROBE, mode, str(tmp_path / "registry.json"), *paths],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert done.returncode == (0 if mode == "library" else 2), done  # not -SIGBUS
    if mode == "library":
        assert done.stdout.startswith(f"OSError: {paths[-1]}: read "), done.stdout
    else:
        assert done.stderr.startswith(f"i/o error: {paths[-1]}: read "), done.stderr
    assert "shorter than when it was read" in done.stdout + done.stderr
    assert not os.path.exists(paths[0] + ".json")


def gap_registry():
    return StructureRegistry(
        entries=((0, "background"), (2, "left"), (5, "right")), background_id=0
    )


@pytest.mark.parametrize("values,dtype,registry", [
    ((0, 1, 2), np.uint8, small_registry),           # every id known
    ((0, 1, 2, 200, 7), np.uint8, small_registry),   # above the registry range
    ((0, -3, 2, -1), np.int16, small_registry),      # negative ids
    ((0, 2, 5), np.uint8, gap_registry),             # gaps in the registry, all known
    ((0, 1, 2, 4, 5), np.uint8, gap_registry),       # ids inside the gaps
    ((2, 3), np.int64, gap_registry),                # range starts above zero
])
def test_check_labels_matches_unique_reference(values, dtype, registry):
    reg = registry()
    data = np.resize(np.array(values, dtype=dtype), 27)
    vol = LabelVolume(geom(), data.reshape(3, 3, 3))
    expected = sorted(int(v) for v in set(np.unique(data).tolist()) - set(reg.ids))
    assert vol.check_labels(reg) == expected


# -- ProbMapStack ------------------------------------------------------------


def make_stack(maps, ids=(0, 1, 2)):
    arr = np.asarray(maps, dtype=np.float64)
    g = VoxelGeometry(arr.shape[1:], (1.0, 1.0, 1.0))
    return ProbMapStack(geometry=g, label_ids=ids, maps=arr)


def test_prob_stack_shape_checks():
    with pytest.raises(ValidationError):
        make_stack(np.zeros((2, 3, 3, 3)))  # 2 maps for 3 ids
    with pytest.raises(ValidationError) as info:
        ProbMapStack(geom(), (0, 1), (np.zeros((3, 3, 3)), np.zeros((3, 4, 3))))
    assert str(info.value) == "map shape (3, 4, 3) does not match dims (3, 3, 3)"


@pytest.mark.parametrize("dtype", [np.complex128, np.str_, object])
def test_prob_stack_refuses_maps_that_are_not_real_numbers(dtype):
    # a complex map would lose its imaginary part to a cast, a string map
    # fail in one; the stack names its sample instead
    maps = np.zeros((2, 3, 3, 3), dtype=dtype)
    with pytest.raises(ValidationError) as info:
        ProbMapStack(geom(), (0, 1), maps, owner="sample_007.nii")
    assert str(info.value) == (f"sample_007.nii: probability map dtype {maps.dtype} "
                               "is not bool, integer or float")


def test_prob_stack_violations():
    maps = np.zeros((3, 2, 2, 2))
    maps[0] = 1.0
    assert make_stack(maps).violations() == []
    bad = maps.copy()
    bad[0, 0, 0, 0] = 1.5
    out = make_stack(bad).violations()
    assert any("outside [0, 1]" in v for v in out)
    bad = maps.copy()
    bad[0, 0, 0, 0] = 0.9  # sums to 0.9
    assert any("deviate" in v for v in make_stack(bad).violations())
    bad = maps.copy()
    bad[1, 0, 0, 0] = np.nan
    assert any("non-finite" in v for v in make_stack(bad).violations())


def tie_report(maps, ids, label):
    """The report on two samples of ``maps``, whose registry lists ``ids``
    in the stack's order, labelled ``label`` at every voxel."""
    stack = make_stack(maps, ids)
    vol = LabelVolume(stack.geometry, np.full(stack.geometry.dims, label, dtype=np.uint8))
    reg = StructureRegistry(tuple((i, f"s{i}") for i in ids), background_id=0)
    return validate_sample_set(McSampleSet(stack.geometry, reg, (vol, vol), (stack, stack)))


def test_prob_stack_argmax_tie_takes_lowest_id():
    # labels 1 and 2 tie at 0.5: labels 1 are the argmax, labels 2 differ
    maps = np.zeros((3, 1, 1, 1))
    maps[1] = 0.5
    maps[2] = 0.5
    # same distribution with ids listed out of order: maps[0] is label 2
    perm = np.zeros((3, 1, 1, 1))
    perm[0] = 0.5  # label 2
    perm[1] = 0.5  # label 1
    for m, ids in ((maps, (0, 1, 2)), (perm, (2, 1, 0))):
        assert tie_report(m, ids, label=1) == []
        report = tie_report(m, ids, label=2)
        assert [(v.rule, v.sample_index) for v in report] == [
            ("label_prob_mismatch", 0), ("label_prob_mismatch", 1)]
        assert all("at 1 voxels" in v.message for v in report)


def hard_and_soft_stacks(layout):
    """3 samples of 3 float32 maps on 4 x 4 x 10: planes z < 5 one-hot but
    for 2 of their 16 voxels, which hold exact 0 and 1, the smallest
    subnormal, 1 - 2**-24 and 0.5; planes z >= 5 soft at every voxel.
    With ``layout`` "F" each map is Fortran-ordered, as a decoded file is."""
    rng = np.random.default_rng(25)
    tiny, below_one = np.nextafter(np.float32(0), np.float32(1)), np.float32(1 - 2**-24)
    special = np.array([[tiny, 1.0, 0.0], [tiny, below_one, 2**-24], [0.5, 0.5, 0.0],
                        [below_one, 0.0, 2**-24]], dtype=np.float32)
    stacks = []
    for i in range(3):
        maps = np.zeros((3, 4, 4, 10), dtype=np.float32)
        maps[rng.integers(0, 3, (4, 4, 5)), *np.indices((4, 4, 5))] = 1.0
        for z in range(5):
            for x in range(2):
                maps[:, x, (z + i) % 4, z] = special[(x + z + i) % 4]
        maps[:, :, :, 5:] = np.moveaxis(rng.dirichlet(np.ones(3), (4, 4, 5)), -1, 0)
        if layout == "F":  # each maps[k] Fortran-contiguous
            maps = np.moveaxis(np.asfortranarray(np.moveaxis(maps, 0, -1)), -1, 0)
        stacks.append(ProbMapStack(geometry=geom(4, 4, 10), label_ids=(0, 1, 2), maps=maps))
    return stacks


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("slab,masked", [
    (16, True),        # one plane a slab: hard planes take their soft voxels alone
    (48, True),        # three planes: z 3..5 mixes hard and soft planes, above a quarter soft
    (80, True),        # five planes: the hard half and the soft half
    (1 << 17, False),  # one slab, 37.5 % soft: every voxel's term
])
def test_entropy_of_soft_voxels_alone_is_the_dense_entropy(monkeypatch, layout, threads, slab,
                                                           masked):
    import scipy.special
    from scipy.special import xlogy

    stacks = hard_and_soft_stacks(layout)
    want = np.zeros((4, 4, 10))
    for stack in stacks:
        for m in stack.maps:
            want -= xlogy(m, m, dtype=np.float64)
    np.maximum(want, 0.0, out=want)
    shapes = []

    def spy(x, y, **kw):
        shapes.append(np.shape(x))
        return xlogy(x, y, **kw)

    monkeypatch.setattr(scipy.special, "xlogy", spy)
    monkeypatch.setattr(volumes, "_SLAB", slab)
    monkeypatch.setenv("SEGQC_THREADS", threads)
    ss = McSampleSet(geom(4, 4, 10), small_registry(), argmax_volumes(stacks), stacks)
    assert not ss.violations
    got = ss.prob_pass.entropy
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
    # the soft voxels of a hard slab come as one flat run; a dense slab whole
    assert any(len(s) == 1 for s in shapes) == masked
    assert any(len(s) == 3 for s in shapes)


# -- samples and sets --------------------------------------------------------


def test_sample_needs_content():
    with pytest.raises(TypeError, match="labels"):
        McSampleSet(geometry=geom(), registry=small_registry())
    with pytest.raises(ValidationError, match="at least one sample"):
        McSampleSet(geometry=geom(), registry=small_registry(), labels=())
    stack = ProbMapStack(geometry=geom(), label_ids=(0, 1, 2), maps=np.full((3, 3, 3, 3), 1 / 3))
    with pytest.raises(ValidationError, match="1 probability stacks for 0 label volumes"):
        McSampleSet(geometry=geom(), registry=small_registry(), labels=(), probs=(stack,))


def test_sample_set_pairs_labels_with_probs():
    vol = LabelVolume(geom(), np.zeros((3, 3, 3), dtype=np.uint8))
    maps = np.zeros((3, 3, 3, 3))
    maps[0] = 1.0
    stack = ProbMapStack(geometry=geom(), label_ids=(0, 1, 2), maps=maps)
    with pytest.raises(ValidationError, match="2 probability stacks for 3 label volumes"):
        McSampleSet(geometry=geom(), registry=small_registry(),
                    labels=(vol,) * 3, probs=[stack] * 2)
    ss = McSampleSet(geometry=geom(), registry=small_registry(),
                     labels=[vol] * 2, probs=[stack] * 2)
    assert ss.n == 2 and ss.labels == (vol, vol) and ss.probs == (stack, stack)


def test_validate_flags_geometry_mismatch():
    reg = small_registry()
    a = LabelVolume(geom(), np.zeros((3, 3, 3), dtype=np.uint8))
    b = LabelVolume(geom(3, 3, 4), np.zeros((3, 3, 4), dtype=np.uint8))
    ss = McSampleSet(geometry=geom(), registry=reg, labels=(a, b))
    out = validate_sample_set(ss)
    assert any(v.rule == "geometry" and v.sample_index == 1 for v in out)
    with pytest.raises(ValidationError, match="geometry"):
        require_valid(ss)


def test_validate_names_both_grids_of_a_stack_on_another_spacing():
    # the dims agree, so only the spacings tell the two grids apart
    vol = LabelVolume(geom(), np.zeros((3, 3, 3), dtype=np.uint8))
    maps = np.zeros((3, 3, 3, 3))
    maps[0] = 1.0
    near = ProbMapStack(geom(), (0, 1, 2), maps)
    far = ProbMapStack(geom(spacing=(1.0, 1.0, 2.5)), (0, 1, 2), maps)
    ss = McSampleSet(geom(), small_registry(), (vol, vol), (near, far))
    assert [str(v) for v in validate_sample_set(ss)] == [
        "[geometry] sample 1: probability map dims (3, 3, 3) spacing (1.0, 1.0, 2.5) "
        "do not match set geometry dims (3, 3, 3) spacing (1.0, 1.0, 1.0)"]


def test_validate_flags_unknown_labels():
    reg = small_registry()
    data = np.zeros((3, 3, 3), dtype=np.uint8)
    data[1, 1, 1] = 9
    a = LabelVolume(geom(), data)
    b = LabelVolume(geom(), np.zeros((3, 3, 3), dtype=np.uint8))
    ss = McSampleSet(geometry=geom(), registry=reg, labels=(a, b))
    rules = {v.rule for v in validate_sample_set(ss)}
    assert "labels" in rules


def test_validate_flags_labels_disagreeing_with_probs():
    reg = small_registry()
    maps = np.zeros((3, 3, 3, 3))
    maps[1] = 1.0
    stack = ProbMapStack(geometry=geom(), label_ids=(0, 1, 2), maps=maps)
    agree = np.ones((3, 3, 3), dtype=np.uint8)
    differ = agree.copy()
    differ[0, 1, 2] = 2
    ss = McSampleSet(geometry=geom(), registry=reg, probs=(stack, stack),
                     labels=(LabelVolume(geom(), agree), LabelVolume(geom(), differ)))
    out = [v for v in validate_sample_set(ss) if v.rule == "label_prob_mismatch"]
    assert [v.sample_index for v in out] == [1]
    assert "1 voxels" in out[0].message
    with pytest.raises(ValidationError, match="label_prob_mismatch"):
        require_valid(ss)


def test_validation_report_is_memoised(monkeypatch):
    import segqc.volumes as volumes

    calls = []
    real = volumes.validate_sample_set
    monkeypatch.setattr(volumes, "validate_sample_set",
                        lambda ss: calls.append(ss) or real(ss))
    vol = LabelVolume(geom(), np.zeros((3, 3, 3), dtype=np.uint8))
    ss = McSampleSet(geometry=geom(), registry=small_registry(), labels=(vol, vol))
    for _ in range(3):
        require_valid(ss)
    assert ss.violations == ()
    assert len(calls) == 1


def test_validate_flags_prob_label_mismatch():
    reg = small_registry()
    maps = np.zeros((2, 3, 3, 3))
    maps[0] = 1.0
    stack = ProbMapStack(geometry=geom(), label_ids=(0, 1), maps=maps)
    vol = LabelVolume(geom(), np.zeros((3, 3, 3), dtype=np.uint8))
    ss = McSampleSet(geometry=geom(), registry=reg, labels=(vol, vol), probs=(stack, stack))
    assert any(v.rule == "prob_labels" for v in validate_sample_set(ss))


@pytest.mark.parametrize("rule", ["prob_labels", "geometry", "sample_count"])
def test_structural_fault_is_refused_before_any_map_is_read(rule):
    # stacks that list other ids than the registry, a stack on another
    # grid, one sample: each is refused with that fault alone, no map read
    loads = []

    class CountingStack(ProbMapStack):  # the pass opens a stack's maps, load_map one map
        def _open(self):
            loads.append((id(self), "all"))
            return super()._open()

        def load_map(self, k):
            loads.append((id(self), k))
            return super().load_map(k)

    def stack(dims=(3, 3, 3), ids=(0, 1, 2)):
        maps = np.zeros((len(ids), *dims))
        maps[0] = 1.0
        return CountingStack(geometry=geom(*dims), label_ids=ids, maps=maps)

    stacks = {"prob_labels": (stack(), stack(ids=(2, 1, 0))),
              "geometry": (stack(), stack(dims=(3, 3, 4))),
              "sample_count": (stack(),)}[rule]
    # labels on the set's grid, given outright: an argmax of the stack on
    # another grid would be on that grid too, a second fault
    labels = (LabelVolume(geom(), np.zeros((3, 3, 3), dtype=np.uint8)),) * len(stacks)
    ss = McSampleSet(geometry=geom(), registry=small_registry(), labels=labels, probs=stacks)
    assert [v.rule for v in validate_sample_set(ss)] == [rule]
    with pytest.raises(ValidationError, match=rule):
        require_valid(ss)
    assert loads == []


# -- one-hot conversion ------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_onehot_probs_round_trip(seed):
    rng = np.random.default_rng(seed)
    reg = small_registry()
    data = rng.integers(0, 3, size=(4, 4, 4)).astype(np.uint8)
    stack = make_stack(oracles.onehot_maps_oracle(data, reg.ids), ids=reg.ids)
    assert stack.violations() == []
    assert np.all(np.sum(stack.maps, axis=0) == 1.0)
    # no label_prob_mismatch: the maps' argmax is ``data`` at every voxel
    vol = LabelVolume(stack.geometry, data)
    assert validate_sample_set(McSampleSet(stack.geometry, reg, (vol, vol), (stack, stack))) == []
    # exactly one-hot, never fractional
    assert set(np.unique(stack.maps)) <= {0.0, 1.0}
