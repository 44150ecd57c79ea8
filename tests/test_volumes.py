"""Domain type invariants: geometry, registry, label volumes, prob stacks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from segqc import volumes
from segqc.nifti import read_label_nifti, read_nifti, write_nifti
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
    x, y = (McSampleSet(g, small_registry(), probs=(stack, stack)).prob_pass for _ in "xy")
    assert x == x and x != y
    assert len({x, y, x}) == 2


def test_check_labels_reports_unknown_ids():
    data = np.zeros((3, 3, 3), dtype=np.uint8)
    data[0, 0, 0] = 5
    vol = LabelVolume(geom(), data)
    assert vol.check_labels(small_registry()) == [5]


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
    # one decoded into a caller's buffer views memory that stays writeable
    path = tmp_path / "vol.nii.gz"
    write_nifti(path, np.arange(27, dtype=np.uint8).reshape(3, 3, 3), geom())
    data = read_label_nifti(path).data
    assert _read_only(data) is data
    buf = np.empty((3, 3, 3), dtype=np.uint8, order="F")
    view = read_nifti(path, buf).data
    assert np.shares_memory(view, buf) and not view.flags.writeable and buf.flags.writeable
    kept = _read_only(view)
    assert not np.shares_memory(kept, buf) and np.array_equal(kept, data)


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


def argmax_labels(stack):
    """The labels a probability-only sample set reads from ``stack``."""
    ss = McSampleSet(geometry=stack.geometry, registry=small_registry(), probs=(stack,))
    return ss.sample_labels(0)


def test_prob_stack_argmax_tie_takes_lowest_id():
    maps = np.zeros((3, 1, 1, 1))
    maps[1] = 0.5
    maps[2] = 0.5
    assert argmax_labels(make_stack(maps))[0, 0, 0] == 1
    # same distribution with ids listed out of order: maps[0] is label 2
    perm = np.zeros((3, 1, 1, 1))
    perm[0] = 0.5  # label 2
    perm[1] = 0.5  # label 1
    assert argmax_labels(make_stack(perm, ids=(2, 1, 0)))[0, 0, 0] == 1


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
    ss = McSampleSet(geometry=geom(4, 4, 10), registry=small_registry(), probs=stacks)
    assert not ss.violations
    got = ss.prob_pass.entropy
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
    # the soft voxels of a hard slab come as one flat run; a dense slab whole
    assert any(len(s) == 1 for s in shapes) == masked
    assert any(len(s) == 3 for s in shapes)


# -- samples and sets --------------------------------------------------------


def test_sample_needs_content():
    with pytest.raises(ValidationError):
        McSampleSet(geometry=geom(), registry=small_registry())


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


def test_sample_set_labels_from_probs():
    maps = np.zeros((3, 3, 3, 3))
    maps[2] = 1.0
    stack = ProbMapStack(geometry=geom(), label_ids=(0, 1, 2), maps=maps)
    ss = McSampleSet(geometry=geom(), registry=small_registry(), probs=(stack, stack))
    assert np.all(ss.sample_labels(0) == 2)


def test_validate_flags_geometry_mismatch():
    reg = small_registry()
    a = LabelVolume(geom(), np.zeros((3, 3, 3), dtype=np.uint8))
    b = LabelVolume(geom(3, 3, 4), np.zeros((3, 3, 4), dtype=np.uint8))
    ss = McSampleSet(geometry=geom(), registry=reg, labels=(a, b))
    out = validate_sample_set(ss)
    assert any(v.rule == "geometry" and v.sample_index == 1 for v in out)
    with pytest.raises(ValidationError, match="geometry"):
        require_valid(ss)


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
    ss = McSampleSet(geometry=geom(), registry=reg, probs=(stack, stack))
    assert any(v.rule == "prob_labels" for v in validate_sample_set(ss))


@pytest.mark.parametrize("rule", ["prob_labels", "geometry", "sample_count"])
def test_structural_fault_is_refused_before_any_map_is_read(rule):
    # stacks that list other ids than the registry, a stack on another
    # grid, one sample: each is refused with that fault alone, no map read
    loads = []

    class CountingStack(ProbMapStack):
        def load_map(self, k, out=None):
            loads.append((id(self), k))
            return super().load_map(k, out)

    def stack(dims=(3, 3, 3), ids=(0, 1, 2)):
        maps = np.zeros((len(ids), *dims))
        maps[0] = 1.0
        return CountingStack(geometry=geom(*dims), label_ids=ids, maps=maps)

    stacks = {"prob_labels": (stack(), stack(ids=(2, 1, 0))),
              "geometry": (stack(), stack(dims=(3, 3, 4))),
              "sample_count": (stack(),)}[rule]
    ss = McSampleSet(geometry=geom(), registry=small_registry(), probs=stacks)
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
    assert np.all(stack.maps.sum(axis=0) == 1.0)
    assert np.array_equal(argmax_labels(stack), data)
    # exactly one-hot, never fractional
    assert set(np.unique(stack.maps)) <= {0.0, 1.0}
