"""Phantom construction, MC sampler, and cohort simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segqc.metrics import consensus_segmentation, dice_score
from segqc.synth import (
    CONTACT_PAIR_ANCHORS,
    NoiseSpec,
    PhantomSpec,
    ShapeSpec,
    ValidationError,
    contact_pair_phantom,
    graded_severities,
    make_cohort,
    make_phantom,
    registry_for_phantom,
    sample_mc,
)
from segqc.volumes import VoxelGeometry, validate_sample_set


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
    for s in ss.samples:
        assert np.array_equal(s.labels.data, gt.data)
        # probability maps are exact one-hot
        assert set(np.unique(s.probs.maps)) == {0.0, 1.0}
    assert np.array_equal(consensus_segmentation(ss).data, gt.data)


def test_sampler_is_deterministic():
    spec = box_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    noise = NoiseSpec(n_samples=3, default_flip_prob=0.25, seed=42)
    a = sample_mc(gt, reg, noise)
    b = sample_mc(gt, reg, noise)
    for sa, sb in zip(a.samples, b.samples):
        assert np.array_equal(sa.labels.data, sb.labels.data)
        assert np.array_equal(sa.probs.maps, sb.probs.maps)


def test_sample_streams_stable_under_sample_count():
    # drawing more samples must not change earlier ones
    spec = box_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    few = sample_mc(gt, reg, NoiseSpec(n_samples=3, default_flip_prob=0.3, seed=11),
                    with_probs=False)
    many = sample_mc(gt, reg, NoiseSpec(n_samples=8, default_flip_prob=0.3, seed=11),
                     with_probs=False)
    for sa, sb in zip(few.samples, many.samples):
        assert np.array_equal(sa.labels.data, sb.labels.data)


def test_noise_actually_perturbs():
    spec = box_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    ss = sample_mc(gt, reg, NoiseSpec(n_samples=4, default_flip_prob=0.3, seed=3),
                   with_probs=False)
    assert any(not np.array_equal(s.labels.data, gt.data) for s in ss.samples)


def test_prob_argmax_matches_labels_under_noise():
    spec = contact_pair_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    ss = sample_mc(gt, reg, NoiseSpec(n_samples=3, default_flip_prob=0.3, seed=5))
    ids = np.asarray(reg.ids)
    for s in ss.samples:
        assert np.array_equal(ids[np.argmax(s.probs.maps, axis=0)], s.labels.data)
        # per-voxel probabilities sum to one
        assert not s.probs.violations()


def test_sampled_labels_and_probs_pass_validation():
    # labels and probability maps of one sample must agree (argmax rule)
    spec = contact_pair_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    ss = sample_mc(gt, reg, NoiseSpec(n_samples=3, default_flip_prob=0.3, seed=5),
                   with_probs=True)
    assert ss.kind == "both"
    assert validate_sample_set(ss) == []


def test_label_only_sampling():
    spec = box_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    ss = sample_mc(gt, reg, NoiseSpec(n_samples=3, default_flip_prob=0.2, seed=1),
                   with_probs=False)
    assert all(s.probs is None for s in ss.samples)
    assert all(s.kind == "labels" for s in ss.samples)


def test_erosion_dilation_changes_volume_by_shells():
    spec = box_phantom()
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)
    base = int((gt.data == 1).sum())
    ss = sample_mc(gt, reg, NoiseSpec(n_samples=6, erosion_dilation_radius=1, seed=2),
                   with_probs=False)
    vols = {int((s.labels.data == 1).sum()) for s in ss.samples}
    # every sample is a one-step 6-connected erosion (8x8x4) or dilation
    # (base plus one face shell: 600 + 2*100 + 4*60) of the 10x10x6 box
    assert vols <= {8 * 8 * 4, 600 + 440}
    assert len(vols) == 2  # both coin outcomes appear across 6 samples
    assert base not in vols


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
    assert all(s.labels.data.dtype == np.uint16 for s in ss.samples)
    assert all(set(np.unique(s.labels.data)) <= {0, 1} for s in ss.samples)
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
            vals.extend(dice_score(s.labels, gt, 1) for s in ss.samples)
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
    for s in ss.samples:
        assert np.array_equal(ids[np.argmax(s.probs.maps, axis=0)], s.labels.data)


# -- paired-box study fixtures ---------------------------------------------------


def test_contact_pair_phantom_shape_inventory():
    spec = contact_pair_phantom()
    gt = make_phantom(spec)
    present = np.unique(gt.data)
    assert present.tolist() == list(range(9))
    # uniform sizes: every structure is exactly width^2 * height voxels
    for lid in range(1, 9):
        assert int((gt.data == lid).sum()) == 12 * 12 * 6


def test_contact_pairs_touch_with_expected_patch():
    spec = contact_pair_phantom(width=12, height=6, shift=2)
    gt = make_phantom(spec)
    for k, (ax, ay, az) in enumerate(CONTACT_PAIR_ANCHORS):
        lo, hi = 2 * k + 1, 2 * k + 2
        z_top = az + 6 - 1  # last slice of the lower box
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


def test_graded_severities_reproducible_and_bounded():
    a = graded_severities()
    b = graded_severities()
    assert a == b
    assert len(a) == 13
    for scan in a:
        ids = [lid for lid, _ in scan]
        assert ids == list(range(1, 9))
        for _, f in scan:
            assert 0.02 <= f <= 0.35
        # pair members share a baseline severity up to the jitter
        for k in range(4):
            assert abs(scan[2 * k][1] - scan[2 * k + 1][1]) <= 0.02 + 1e-12


def test_graded_severities_prefix_stable():
    # per-scan substreams: asking for fewer scans yields a prefix
    assert graded_severities(n_scans=5) == graded_severities(n_scans=13)[:5]


def test_graded_severities_validation():
    with pytest.raises(ValidationError):
        graded_severities(low=0.3, high=0.2)
    with pytest.raises(ValidationError):
        graded_severities(high=0.5)


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
