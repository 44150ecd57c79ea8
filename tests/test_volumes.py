"""Domain type invariants: geometry, registry, label volumes, prob stacks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from segqc.volumes import (
    LabelVolume,
    McSample,
    McSampleSet,
    ProbMapStack,
    StructureRegistry,
    ValidationError,
    VoxelGeometry,
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
    assert reg.name_of(2) == "right"
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


def test_label_volume_flat_is_x_fastest():
    data = np.arange(27, dtype=np.int64).reshape(3, 3, 3)
    vol = LabelVolume(geom(), data)
    # serialized order must walk x first: element (1,0,0) right after (0,0,0)
    assert vol.flat[1] == data[1, 0, 0]


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
    ss = McSampleSet(geometry=stack.geometry, registry=small_registry(),
                     samples=(McSample(probs=stack),))
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


# -- samples and sets --------------------------------------------------------


def test_sample_needs_content():
    with pytest.raises(ValidationError):
        McSample()


def test_sample_kind():
    vol = LabelVolume(geom(), np.zeros((3, 3, 3), dtype=np.uint8))
    assert McSample(labels=vol).kind == "labels"
    maps = np.zeros((3, 3, 3, 3))
    maps[0] = 1.0
    stack = ProbMapStack(geometry=geom(), label_ids=(0, 1, 2), maps=maps)
    assert McSample(probs=stack).kind == "probs"
    assert McSample(labels=vol, probs=stack).kind == "both"


def test_sample_set_labels_from_probs():
    maps = np.zeros((3, 3, 3, 3))
    maps[2] = 1.0
    stack = ProbMapStack(geometry=geom(), label_ids=(0, 1, 2), maps=maps)
    ss = McSampleSet(
        geometry=geom(), registry=small_registry(),
        samples=(McSample(probs=stack), McSample(probs=stack)),
    )
    assert np.all(ss.sample_labels(0) == 2)


def test_validate_flags_geometry_mismatch():
    reg = small_registry()
    a = McSample(labels=LabelVolume(geom(), np.zeros((3, 3, 3), dtype=np.uint8)))
    b = McSample(labels=LabelVolume(geom(3, 3, 4), np.zeros((3, 3, 4), dtype=np.uint8)))
    ss = McSampleSet(geometry=geom(), registry=reg, samples=(a, b))
    out = validate_sample_set(ss)
    assert any(v.rule == "geometry" and v.sample_index == 1 for v in out)
    with pytest.raises(ValidationError, match="geometry"):
        require_valid(ss)


def test_validate_flags_unknown_labels_and_mixed_kinds():
    reg = small_registry()
    data = np.zeros((3, 3, 3), dtype=np.uint8)
    data[1, 1, 1] = 9
    a = McSample(labels=LabelVolume(geom(), data))
    maps = np.zeros((3, 3, 3, 3))
    maps[0] = 1.0
    b = McSample(probs=ProbMapStack(geometry=geom(), label_ids=(0, 1, 2), maps=maps))
    ss = McSampleSet(geometry=geom(), registry=reg, samples=(a, b))
    rules = {v.rule for v in validate_sample_set(ss)}
    assert "labels" in rules and "sample_kind" in rules


def test_validate_flags_labels_disagreeing_with_probs():
    reg = small_registry()
    maps = np.zeros((3, 3, 3, 3))
    maps[1] = 1.0
    stack = ProbMapStack(geometry=geom(), label_ids=(0, 1, 2), maps=maps)
    agree = np.ones((3, 3, 3), dtype=np.uint8)
    differ = agree.copy()
    differ[0, 1, 2] = 2
    ss = McSampleSet(geometry=geom(), registry=reg, samples=(
        McSample(labels=LabelVolume(geom(), agree), probs=stack),
        McSample(labels=LabelVolume(geom(), differ), probs=stack),
    ))
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
    ss = McSampleSet(geometry=geom(), registry=small_registry(),
                     samples=(McSample(labels=vol), McSample(labels=vol)))
    for _ in range(3):
        require_valid(ss)
    assert ss.violations == ()
    assert len(calls) == 1


def test_validate_flags_prob_label_mismatch():
    reg = small_registry()
    maps = np.zeros((2, 3, 3, 3))
    maps[0] = 1.0
    stack = ProbMapStack(geometry=geom(), label_ids=(0, 1), maps=maps)
    ss = McSampleSet(
        geometry=geom(), registry=reg,
        samples=(McSample(probs=stack), McSample(probs=stack)),
    )
    assert any(v.rule == "prob_labels" for v in validate_sample_set(ss))


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
