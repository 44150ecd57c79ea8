"""Phantom construction, MC sampler, and cohort simulator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

import oracles
from bundled import bundled_phantom, bundled_scans
from segqc.metrics import consensus_segmentation, dice_score
from segqc.synth import (
    NoiseSpec,
    PhantomSpec,
    ShapeSpec,
    ValidationError,
    make_cohort,
    make_phantom,
    registry_for_phantom,
    sample_mc,
    soft_probs,
    _grow,
)
from segqc.volumes import LabelVolume, StructureRegistry, VoxelGeometry, validate_sample_set


def box_phantom(dims=24, edges=(10.0, 10.0, 6.0)):
    geom = VoxelGeometry((dims, dims, dims), (1.0, 1.0, 1.0))
    center = ((dims - 1) / 2,) * 3
    return PhantomSpec(geometry=geom, shapes=(ShapeSpec(1, "box", center, edges),))


# -- phantom rasterization -----------------------------------------------------


def test_box_voxel_count_is_exact():
    gt = make_phantom(box_phantom())
    assert int((gt.data == 1).sum()) == 10 * 10 * 6


def test_sphere_semiaxes_rasterization():
    geom = VoxelGeometry((9, 9, 9), (1.0, 1.0, 1.0))
    # semi-axes 0.5: only the center voxel satisfies the ellipsoid test
    spec = PhantomSpec(geometry=geom,
                       shapes=(ShapeSpec(1, "sphere", (4.0, 4.0, 4.0), (0.5, 0.5, 0.5)),))
    gt = make_phantom(spec)
    assert int((gt.data == 1).sum()) == 1
    assert gt.data[4, 4, 4] == 1
    # semi-axes 1.0 adds the six face neighbors
    spec2 = PhantomSpec(geometry=geom,
                        shapes=(ShapeSpec(1, "sphere", (4.0, 4.0, 4.0), (1.0, 1.0, 1.0)),))
    assert int((make_phantom(spec2).data == 1).sum()) == 7


def test_earlier_shapes_win_overlaps():
    geom = VoxelGeometry((12, 12, 12), (1.0, 1.0, 1.0))
    a = ShapeSpec(1, "box", (5.5, 5.5, 5.5), (6.0, 6.0, 6.0))
    b = ShapeSpec(2, "box", (5.5, 5.5, 5.5), (10.0, 10.0, 10.0))
    gt = make_phantom(PhantomSpec(geometry=geom, shapes=(a, b)))
    assert int((gt.data == 1).sum()) == 6 * 6 * 6
    assert int((gt.data == 2).sum()) == 10 * 10 * 10 - 6 * 6 * 6


def test_phantom_validation():
    geom = VoxelGeometry((8, 8, 8), (1.0, 1.0, 1.0))
    with pytest.raises(ValidationError):
        PhantomSpec(geometry=geom, shapes=())
    with pytest.raises(ValidationError, match="background"):
        PhantomSpec(geometry=geom,
                    shapes=(ShapeSpec(0, "box", (4.0, 4.0, 4.0), (2.0, 2.0, 2.0)),))
    with pytest.raises(ValidationError):
        ShapeSpec(1, "cone", (0, 0, 0), (1, 1, 1))
    with pytest.raises(ValidationError):
        ShapeSpec(1, "box", (0, 0, 0), (1.0, 0.0, 1.0))


@pytest.mark.parametrize("make, message", [
    (lambda: ShapeSpec(-1, "box", (4, 4, 4), (2, 2, 2)), "shape label_id must be >= 0"),
    (lambda: ShapeSpec(1, "box", (4, 4), (2, 2, 2)), "center and size must have 3 components"),
    (lambda: ShapeSpec(1, "sphere", (4, 4, 4), (2, 2, 2, 2)),
     "center and size must have 3 components"),
    (lambda: make_phantom(PhantomSpec(VoxelGeometry((8, 8, 8), (1.0, 1.0, 1.0)), (
        ShapeSpec(1, "box", (4.0, 4.0, 3.5), (2.0, 2.0, 2.0)),
        ShapeSpec(2, "box", (4.0, 4.0, 6.5), (2.0, 2.0, 4.0))))),
     "shape 2 exceeds volume bounds on axis 2: [4.50, 8.50] vs [-0.5, 7.5]"),
])
def test_shape_and_phantom_refusals_name_the_fault(make, message):
    with pytest.raises(ValidationError) as info:
        make()
    assert str(info.value) == message


def box_and_sphere(dims=64):
    """A box and a sphere on a ``dims``-cube."""
    geom = VoxelGeometry((dims,) * 3, (1.0, 1.0, 1.0))
    return PhantomSpec(geometry=geom, shapes=(
        ShapeSpec(1, "box", (dims / 3, dims / 3, dims / 2), (dims / 3, dims / 3, dims / 2)),
        ShapeSpec(2, "sphere", (2 * dims / 3, 2 * dims / 3, dims / 2),
                  (dims / 5, dims / 5, dims / 4))))


def traced_peak(fn):
    """``fn()`` and the peak of the memory tracemalloc saw it take."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_make_phantom_paints_in_the_label_dtype():
    # the raster is uint8 and kept, not copied: it and the sphere's float64
    # test take 10 bytes a voxel, where an int64 raster and its masks took 20
    spec = box_and_sphere()
    gt, peak = traced_peak(lambda: make_phantom(spec))
    assert gt.data.dtype == np.uint8
    assert peak < 15 * spec.geometry.n_voxels, peak / spec.geometry.n_voxels


def test_sample_mc_copies_the_ground_truth_once_in_the_sample_dtype():
    # each of N = 4 samples is one uint8 copy of the ground truth, kept: about
    # 13 bytes a voxel with the sampler's masks, where int64 copies took 33
    spec = box_and_sphere()
    gt = make_phantom(spec)
    noise = NoiseSpec(n_samples=4, default_flip_prob=0.2, erosion_dilation_radius=1, seed=3)
    ss, peak = traced_peak(lambda: sample_mc(gt, registry_for_phantom(spec), noise,
                                             with_probs=False))
    assert all(s.data.dtype == np.uint8 for s in ss.labels)
    assert peak < 24 * spec.geometry.n_voxels, peak / spec.geometry.n_voxels


def test_sample_mc_of_a_ground_truth_read_from_a_file_is_the_in_memory_one(tmp_path):
    # a file's volume is x-fastest (Fortran order); the samples, whose flips
    # are written through a flat view, must not depend on that layout
    from segqc.nifti import read_label_nifti, write_nifti

    spec = box_and_sphere(24)
    gt = make_phantom(spec)
    write_nifti(tmp_path / "gt.nii", gt)
    read = read_label_nifti(tmp_path / "gt.nii")
    assert read.data.flags.f_contiguous and not read.data.flags.c_contiguous
    noise = NoiseSpec(n_samples=3, default_flip_prob=0.3, erosion_dilation_radius=1, seed=5)
    want = sample_mc(gt, registry_for_phantom(spec), noise, with_probs=False)
    got = sample_mc(read, registry_for_phantom(spec), noise, with_probs=False)
    assert not all(np.array_equal(s.data, gt.data) for s in want.labels)
    for a, b in zip(got.labels, want.labels):
        assert np.array_equal(a.data, b.data)


def test_multi_part_structure_allowed():
    # one structure id may appear as several disjoint shapes
    geom = VoxelGeometry((16, 16, 16), (1.0, 1.0, 1.0))
    spec = PhantomSpec(geometry=geom, shapes=(
        ShapeSpec(1, "box", (3.5, 3.5, 3.5), (4.0, 4.0, 4.0)),
        ShapeSpec(1, "box", (11.5, 11.5, 11.5), (4.0, 4.0, 4.0)),
    ))
    gt = make_phantom(spec)
    assert int((gt.data == 1).sum()) == 2 * 64
    assert spec.label_ids == (1,)


def test_registry_for_phantom():
    reg = registry_for_phantom(box_phantom())
    assert reg.background_id == 0
    assert reg.foreground == ((1, "structure_1"),)


# -- MC sampler ----------------------------------------------------------------


def test_zero_noise_reproduces_ground_truth_exactly():
    spec = box_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    ss = sample_mc(gt, reg, NoiseSpec(n_samples=4, seed=7))
    for labels, probs in zip(ss.labels, ss.probs, strict=True):
        assert np.array_equal(labels.data, gt.data)
        # probability maps are exact one-hot
        assert set(np.unique(probs.maps)) == {0.0, 1.0}
    assert np.array_equal(consensus_segmentation(ss).data, gt.data)


def test_sampler_is_deterministic():
    spec = box_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    noise = NoiseSpec(n_samples=3, default_flip_prob=0.25, seed=42)
    a = sample_mc(gt, reg, noise)
    b = sample_mc(gt, reg, noise)
    for la, lb in zip(a.labels, b.labels, strict=True):
        assert np.array_equal(la.data, lb.data)
    for pa, pb in zip(a.probs, b.probs, strict=True):
        assert np.array_equal(pa.maps, pb.maps)


def test_sample_streams_stable_under_sample_count():
    # drawing more samples must not change earlier ones
    spec = box_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    few = sample_mc(gt, reg, NoiseSpec(n_samples=3, default_flip_prob=0.3, seed=11),
                    with_probs=False)
    many = sample_mc(gt, reg, NoiseSpec(n_samples=8, default_flip_prob=0.3, seed=11),
                     with_probs=False)
    for sa, sb in zip(few.labels, many.labels):
        assert np.array_equal(sa.data, sb.data)


def test_noise_actually_perturbs():
    spec = box_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    ss = sample_mc(gt, reg, NoiseSpec(n_samples=4, default_flip_prob=0.3, seed=3),
                   with_probs=False)
    assert any(not np.array_equal(s.data, gt.data) for s in ss.labels)


def test_prob_argmax_matches_labels_under_noise():
    spec = bundled_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    ss = sample_mc(gt, reg, NoiseSpec(n_samples=3, default_flip_prob=0.3, seed=5))
    ids = np.asarray(reg.ids)
    for labels, probs in zip(ss.labels, ss.probs, strict=True):
        assert np.array_equal(ids[np.argmax(probs.maps, axis=0)], labels.data)
        # per-voxel probabilities sum to one
        assert not probs.violations()


def test_sampled_labels_and_probs_pass_validation():
    # labels and probability maps of one sample must agree (argmax rule)
    spec = bundled_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    ss = sample_mc(gt, reg, NoiseSpec(n_samples=3, default_flip_prob=0.3, seed=5),
                   with_probs=True)
    assert len(ss.labels) == len(ss.probs) == 3
    assert validate_sample_set(ss) == []


def test_label_only_sampling():
    spec = box_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    ss = sample_mc(gt, reg, NoiseSpec(n_samples=3, default_flip_prob=0.2, seed=1),
                   with_probs=False)
    assert ss.probs is None
    assert len(ss.labels) == 3


def test_sampled_labels_are_not_copied_again(monkeypatch):
    # each sample's array is made once and kept read-only by its LabelVolume
    from segqc import volumes

    spec = bundled_phantom()
    gt = make_phantom(spec)
    scan_id, noise = bundled_scans()[0]
    copies = []

    def counting(arr):
        kept = keep(arr)
        copies.append(kept is not arr)
        return kept

    keep = volumes._read_only
    monkeypatch.setattr(volumes, "_read_only", counting)
    ss = sample_mc(gt, registry_for_phantom(spec), noise, with_probs=False)
    assert scan_id == "scan_00" and len(ss.labels) == len(copies) == 15
    assert not any(copies)


def test_erosion_dilation_changes_volume_by_shells():
    spec = box_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    base = int((gt.data == 1).sum())
    ss = sample_mc(gt, reg, NoiseSpec(n_samples=6, erosion_dilation_radius=1, seed=2),
                   with_probs=False)
    vols = {int((s.data == 1).sum()) for s in ss.labels}
    # every sample is a one-step 6-connected erosion (8x8x4) or dilation
    # (base plus one face shell: 600 + 2*100 + 4*60) of the 10x10x6 box
    assert vols <= {8 * 8 * 4, 600 + 440}
    assert len(vols) == 2  # both coin outcomes appear across 6 samples
    assert base not in vols


@pytest.mark.parametrize("extent", range(1, 10))
@settings(max_examples=40, deadline=None)
@given(others=st.tuples(st.integers(1, 9), st.integers(1, 9)), axis=st.integers(0, 2),
       radius=st.one_of(st.integers(1, 5), st.none()), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_grow_is_ndimages_6_connected_erosion_and_dilation(extent, others, axis, radius,
                                                           density, seed):
    # scipy.ndimage is the reference here only; radius None is one step past sum(dims)
    dims = [*others[:axis], extent, *others[axis:]]
    mask = np.random.default_rng(seed).random(dims) < density
    before = mask.copy()
    r = sum(dims) + 1 if radius is None else radius
    s6 = ndimage.generate_binary_structure(3, 1)
    assert np.array_equal(_grow(mask, r), ndimage.binary_dilation(mask, s6, iterations=r))
    for border in (0, 1):
        assert np.array_equal(~_grow(~mask, r, outside=not border),
                              ndimage.binary_erosion(mask, s6, iterations=r, border_value=border))
    # sample_mc's flip sets: the shells inside and outside each structure
    assert np.array_equal(mask & _grow(~mask, 1),
                          mask & ~ndimage.binary_erosion(mask, s6, border_value=1))
    assert np.array_equal(_grow(mask, 1) & ~mask, ndimage.binary_dilation(mask, s6) & ~mask)
    assert np.array_equal(mask, before)


def test_sampler_rejects_unregistered_labels():
    spec = box_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(box_phantom(edges=(4.0, 4.0, 4.0)))
    ss_reg = registry_for_phantom(spec)
    assert not gt.check_labels(ss_reg)
    bad = make_phantom(PhantomSpec(
        geometry=spec.geometry,
        shapes=spec.shapes + (ShapeSpec(9, "box", (2.0, 2.0, 2.0), (2.0, 2.0, 2.0)),),
    ))
    with pytest.raises(ValidationError, match="unregistered"):
        sample_mc(bad, reg, NoiseSpec(n_samples=2, seed=0))


def test_sampler_range_checks_only_the_ids_it_writes():
    from segqc.volumes import LabelVolume, StructureRegistry

    gt = make_phantom(box_phantom())
    noise = NoiseSpec(n_samples=2, erosion_dilation_radius=1, seed=0)
    # an id above 65535 that the ground truth never uses reaches no sample
    wide = StructureRegistry(((0, "bg"), (1, "box"), (70000, "unused")), background_id=0)
    ss = sample_mc(gt, wide, noise, with_probs=False)
    assert all(s.data.dtype == np.uint16 for s in ss.labels)
    assert all(set(np.unique(s.data)) <= {0, 1} for s in ss.labels)
    # one the ground truth holds would wrap in a uint16 sample, so it raises
    held = LabelVolume(gt.geometry, np.where(gt.data == 1, 70000, 0).astype(np.int64))
    big = StructureRegistry(((0, "bg"), (70000, "box")), background_id=0)
    with pytest.raises(ValidationError, match="70000"):
        sample_mc(held, big, noise, with_probs=False)


def test_noise_spec_validation():
    with pytest.raises(ValidationError):
        NoiseSpec(n_samples=1)
    with pytest.raises(ValidationError):
        NoiseSpec(n_samples=3, default_flip_prob=0.5)
    with pytest.raises(ValidationError):
        NoiseSpec(n_samples=3, flip_probs=((1, -0.1),))
    with pytest.raises(ValidationError):
        NoiseSpec(n_samples=3, erosion_dilation_radius=-1)
    assert NoiseSpec(n_samples=3, flip_probs=((1, 0.2),)).flip_prob(1) == 0.2
    assert NoiseSpec(n_samples=3, flip_probs=((1, 0.2),)).flip_prob(2) == 0.0


def test_mean_sample_dice_decreases_with_severity():
    # averaged over 20 sampler seeds, per-sample Dice against the ground
    # truth must fall strictly as the flip probability rises
    spec = box_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    means = []
    for f in (0.02, 0.1, 0.2, 0.35):
        vals = []
        for seed in range(20):
            ss = sample_mc(gt, reg, NoiseSpec(n_samples=3, default_flip_prob=f, seed=seed),
                           with_probs=False)
            vals.extend(dice_score(s, gt, 1) for s in ss.labels)
        means.append(float(np.mean(vals)))
    assert all(a > b for a, b in zip(means, means[1:])), means


@settings(max_examples=12, deadline=None)
@given(st.floats(0.0, 0.45), st.integers(0, 2**31 - 1))
def test_soft_probs_argmax_invariant(flip, seed):
    spec = box_phantom(dims=14, edges=(6.0, 6.0, 4.0))
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    ss = sample_mc(gt, reg, NoiseSpec(n_samples=2, default_flip_prob=flip, seed=seed))
    ids = np.asarray(reg.ids)
    for labels, probs in zip(ss.labels, ss.probs, strict=True):
        assert np.array_equal(ids[np.argmax(probs.maps, axis=0)], labels.data)


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 5)] * 3), n_ids=st.integers(2, 5),
       flip=st.floats(0.0, 0.45), uniform=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(dims=(4, 5, 3), n_ids=4, flip=0.0, uniform=False, seed=1)  # flip 0: exact one-hot
@example(dims=(4, 5, 3), n_ids=4, flip=0.3, uniform=True, seed=1)  # no boundary voxel
def test_soft_probs_yields_the_rows_of_the_whole_stack(dims, n_ids, flip, uniform, seed):
    # ids out of order and with gaps, the background anywhere in the registry
    rng = np.random.default_rng(seed)
    ids = [int(i) for i in rng.permutation(12)[:n_ids]]
    reg = StructureRegistry(tuple((i, f"s{i}") for i in ids), background_id=ids[-1])
    data = np.full(dims, ids[0]) if uniform else rng.choice(ids, size=dims)
    noise = NoiseSpec(n_samples=2, default_flip_prob=flip, flip_probs=((ids[0], flip / 3),))
    want = oracles.soft_probs_oracle(
        data, reg.ids, {lid: noise.flip_prob(lid) / 2.0 for lid, _ in reg.foreground})
    got = list(soft_probs(LabelVolume(VoxelGeometry(dims, (1.0, 1.0, 1.0)),
                                      data.astype(np.uint8)), reg, noise))
    assert len(got) == len(ids)
    for k, m in enumerate(got):
        assert m.dtype == np.float64 and m.shape == dims and not m.flags.writeable
        assert m.tobytes() == want[k].tobytes()


def test_soft_probs_holds_at_most_two_maps_at_once():
    # eight boxes and the background: the whole stack would be nine maps
    geom = VoxelGeometry((64, 64, 64), (1.0, 1.0, 1.0))
    shapes = tuple(ShapeSpec(k + 1, "box", (10.5 + 18 * (k & 1), 10.5 + 18 * (k >> 1 & 1),
                                            10.5 + 18 * (k >> 2)), (8.0, 8.0, 8.0))
                   for k in range(8))
    spec = PhantomSpec(geometry=geom, shapes=shapes)
    reg = registry_for_phantom(spec)
    sample = make_phantom(spec)
    noise = NoiseSpec(n_samples=2, default_flip_prob=0.2)
    tracemalloc.start()
    try:  # each map is dropped once the next is taken
        n = sum(1 for _ in soft_probs(sample, reg, noise))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == len(reg.ids) == 9
    assert peak < 3 * geom.n_voxels * 8, peak / (geom.n_voxels * 8)


# -- the bundled study in docs/ ---------------------------------------------------


def test_bundled_phantom_shape_inventory():
    spec = bundled_phantom()
    gt = make_phantom(spec)
    present = np.unique(gt.data)
    assert present.tolist() == list(range(9))
    # uniform sizes: every structure is exactly width^2 * height voxels
    for lid in range(1, 9):
        assert int((gt.data == lid).sum()) == 12 * 12 * 6


def test_contact_pairs_touch_with_expected_patch():
    gt = make_phantom(bundled_phantom())
    for k in range(4):
        lo, hi = 2 * k + 1, 2 * k + 2
        # the upper box starts on the slice above the lower one's last,
        # shifted by 2 voxels in x and y
        z_top = int(np.flatnonzero((gt.data == lo).any(axis=(0, 1)))[-1])
        contact = (gt.data[:, :, z_top] == lo) & (gt.data[:, :, z_top + 1] == hi)
        assert int(contact.sum()) == (12 - 2) ** 2
    # pairs never touch each other: labels of different pairs are never
    # 6-adjacent
    pair_of = np.zeros(9, dtype=int)
    for lid in range(1, 9):
        pair_of[lid] = (lid - 1) // 2 + 1
    pmap = pair_of[gt.data]
    for axis in range(3):
        a = [slice(None)] * 3
        b = [slice(None)] * 3
        a[axis] = slice(None, -1)
        b[axis] = slice(1, None)
        pa, pb = pmap[tuple(a)], pmap[tuple(b)]
        both = (pa > 0) & (pb > 0)
        assert np.all(pa[both] == pb[both])


def test_bundled_noise_seeds_and_severities():
    scans = bundled_scans()
    assert len(scans) == 13
    for k, (scan_id, noise) in enumerate(scans):
        assert scan_id == f"scan_{k:02d}" and noise.seed == 1000 + k
        assert noise.n_samples == 15 and noise.default_flip_prob == 0.0
        assert noise.erosion_dilation_radius == 0
        ids = [lid for lid, _ in noise.flip_probs]
        assert ids == list(range(1, 9))
        for _, f in noise.flip_probs:
            assert 0.02 <= f <= 0.35
        # pair members share a baseline severity up to the jitter
        for j in range(4):
            assert abs(noise.flip_probs[2 * j][1] - noise.flip_probs[2 * j + 1][1]) <= 0.02 + 1e-12


# -- cohort simulator -----------------------------------------------------------


def test_make_cohort_basics():
    table, beta = make_cohort(30, seed=4)
    assert table.n == 30
    assert np.array_equal(beta, [0.0, 0.0, 0.0, 1.0])
    assert len(set(table.site)) <= 3
    assert np.all((table.cv >= 0.05) & (table.cv <= 0.8))
    # mc_dice is linked to cv through d = 1 - cv / (1 + cv)
    assert np.allclose(table.mc_dice, 1.0 - table.cv / (1.0 + table.cv))


def test_make_cohort_deterministic():
    a, _ = make_cohort(25, seed=9)
    b, _ = make_cohort(25, seed=9)
    assert np.array_equal(a.volume, b.volume)
    assert a.site == b.site


def test_make_cohort_planted_effect_recoverable():
    from segqc.stats import wls_fit

    table, beta = make_cohort(200, effect=(1.0, 0.05, 0.3, 2.0), noise_scale=0.3, seed=1)
    res = wls_fit(table)
    k = res.columns.index("dx")
    assert abs(res.beta[k] - 2.0) < 0.2
    assert res.p[k] < 1e-6


def test_make_cohort_validation():
    with pytest.raises(ValidationError):
        make_cohort(30, noise_link="bogus")
    with pytest.raises(ValidationError):
        make_cohort(30, effect=(1.0, 2.0))
    with pytest.raises(ValidationError):
        make_cohort(5)
    with pytest.raises(ValidationError):
        make_cohort(30, n_sites=0)


def test_make_cohort_single_site_drops_column():
    table, _ = make_cohort(20, n_sites=1, seed=2)
    assert table.site is None
