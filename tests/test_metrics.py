"""Uncertainty, consensus, and agreement metrics against hand values and
independent oracles."""

import math
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

import oracles
from segqc import metrics, volumes
from segqc.metrics import (
    consensus_segmentation,
    dice_score,
    structure_report,
    structure_uncertainty,
    voxel_uncertainty,
)
from segqc.volumes import (
    LabelVolume,
    McSampleSet,
    ProbMapStack,
    StructureRegistry,
    ValidationError,
    VoxelGeometry,
)

REG = StructureRegistry(
    entries=((0, "background"), (1, "left"), (2, "right")), background_id=0
)


def geom(*dims):
    return VoxelGeometry(dims or (3, 3, 3), (1.0, 1.0, 1.0))


def label_set(arrays, registry=REG):
    g = VoxelGeometry(np.asarray(arrays[0]).shape, (1.0, 1.0, 1.0))
    labels = tuple(LabelVolume(g, np.asarray(a, dtype=np.int64)) for a in arrays)
    return McSampleSet(geometry=g, registry=registry, labels=labels)


def prob_set(stacks, registry=REG):
    g = VoxelGeometry(np.asarray(stacks[0]).shape[1:], (1.0, 1.0, 1.0))
    probs = tuple(
        ProbMapStack(geometry=g, label_ids=registry.ids, maps=np.asarray(s)) for s in stacks
    )
    return McSampleSet(geometry=g, registry=registry, probs=probs)


def random_prob_stacks(rng, n_samples=3, n_labels=3, dims=(4, 4, 4)):
    """Dirichlet per voxel: valid stacks with full-support probabilities."""
    stacks = []
    for _ in range(n_samples):
        flat = rng.dirichlet(np.ones(n_labels), size=int(np.prod(dims)))
        stacks.append(flat.T.reshape(n_labels, *dims))
    return stacks


# -- voxel uncertainty -------------------------------------------------------


def test_uncertainty_is_summed_over_samples_not_averaged():
    # one voxel, two labels at p=0.5 in both samples: the sum over two
    # samples is 2*ln2; an entropy-of-mean or per-sample average would
    # give ln2 instead
    stack = np.zeros((3, 1, 1, 1))
    stack[0] = 0.5
    stack[1] = 0.5
    ss = prob_set([stack, stack])
    u = voxel_uncertainty(ss)[0, 0, 0]
    assert u == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    u_norm = voxel_uncertainty(ss, normalize=True)[0, 0, 0]
    assert u_norm == pytest.approx(math.log(2.0), abs=1e-12)


def test_uncertainty_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    stacks = random_prob_stacks(rng, n_samples=4, dims=(3, 4, 2))
    ss = prob_set(stacks)
    got = voxel_uncertainty(ss)
    want = oracles.entropy_map_oracle(stacks)
    assert np.max(np.abs(got - want)) < 1e-12
    # the map itself, read-only on the set's grid, and the report's own
    assert got.dtype == np.float64 and got.shape == ss.geometry.dims
    assert not got.flags.writeable
    assert structure_report(ss).uncertainty is got


def test_uncertainty_zero_for_label_sets():
    ss = label_set([np.zeros((3, 3, 3)), np.ones((3, 3, 3))])
    assert np.all(voxel_uncertainty(ss) == 0.0)


def test_uncertainty_needs_two_samples():
    stack = np.zeros((3, 2, 2, 2))
    stack[0] = 1.0
    g = geom(2, 2, 2)
    ss = McSampleSet(
        geometry=g, registry=REG,
        probs=(ProbMapStack(geometry=g, label_ids=REG.ids, maps=stack),),
    )
    with pytest.raises(ValidationError, match="N >= 2"):
        voxel_uncertainty(ss)


def test_structure_uncertainty_bound():
    rng = np.random.default_rng(7)
    stacks = random_prob_stacks(rng, n_samples=5)
    ss = prob_set(stacks)
    for lid in (0, 1, 2):
        u = structure_uncertainty(ss, lid)
        assert np.all(u >= 0.0)
        assert np.all(u <= 5.0 / math.e + 1e-12)


# -- consensus ---------------------------------------------------------------


def test_consensus_majority_vote_tie_lowest_id():
    a = np.full((1, 1, 1), 1)
    b = np.full((1, 1, 1), 2)
    ss = label_set([a, b])  # 1 vs 1 tie
    assert consensus_segmentation(ss).data[0, 0, 0] == 1
    ss = label_set([a, b, b])
    assert consensus_segmentation(ss).data[0, 0, 0] == 2


def test_consensus_vote_counts_past_255_samples():
    one = np.full((1, 1, 1), 1)
    two = np.full((1, 1, 1), 2)

    def vote(n_one, n_two):
        return consensus_segmentation(label_set([one] * n_one + [two] * n_two)).data[0, 0, 0]

    assert vote(128, 128) == 1  # tie: lowest id
    assert vote(128, 129) == 2
    assert vote(1, 256) == 2  # 256 votes wrap an 8-bit counter to 0


def test_consensus_probability_mean_argmax():
    # sample A says label 1 with 0.9, sample B says label 2 with 0.6:
    # mean favors label 1 (0.45 + 0.2/2 ...), computed explicitly below
    sa = np.zeros((3, 1, 1, 1))
    sa[1] = 0.9
    sa[0] = 0.1
    sb = np.zeros((3, 1, 1, 1))
    sb[2] = 0.6
    sb[0] = 0.4
    ss = prob_set([sa, sb])
    # means: bg 0.25, label1 0.45, label2 0.30
    assert consensus_segmentation(ss).data[0, 0, 0] == 1


def test_consensus_of_identical_labels_is_identity():
    rng = np.random.default_rng(3)
    data = rng.integers(0, 3, size=(4, 4, 4))
    ss = label_set([data, data, data])
    assert np.array_equal(consensus_segmentation(ss).data, data)


# -- per-structure metrics ---------------------------------------------------


def two_sample_volumes(c1, c2):
    """Two samples with c1 and c2 voxels of label 1 on a 4x4x4 grid."""
    a = np.zeros((4, 4, 4), dtype=np.int64)
    a.reshape(-1)[:c1] = 1
    b = np.zeros((4, 4, 4), dtype=np.int64)
    b.reshape(-1)[:c2] = 1
    return a, b


def test_sample_structure_volumes_counts():
    # 5 and 9 voxels of 8 mm^3 each
    a, b = two_sample_volumes(5, 9)
    g = VoxelGeometry((4, 4, 4), (2.0, 2.0, 2.0))
    ss = McSampleSet(
        geometry=g, registry=REG,
        labels=(LabelVolume(g, a), LabelVolume(g, b)),
    )
    s1 = structure_report(ss).by_id(1)
    assert s1.mean_volume == 7.0 * 8.0
    assert s1.std_volume == pytest.approx(math.sqrt(8.0) * 8.0, rel=1e-15)


def test_cv_hand_value():
    arrays = []
    for c in (9, 10, 11):
        a = np.zeros((4, 4, 4), dtype=np.int64)
        a.reshape(-1)[:c] = 1
        arrays.append(a)
    cv = structure_report(label_set(arrays)).by_id(1).cv
    # volumes 9, 10, 11: mean 10, sd(ddof=1) = 1
    assert cv == pytest.approx(0.1, abs=1e-15)
    assert cv == pytest.approx(oracles.cv_oracle(arrays, 1), abs=1e-15)


def test_cv_absent_structure_is_none():
    a = np.zeros((3, 3, 3), dtype=np.int64)
    assert structure_report(label_set([a, a])).by_id(2).cv is None


def mc_dice(arrays, label_id):
    return structure_report(label_set(arrays)).by_id(label_id).mc_dice


def test_mc_dice_hand_values():
    a = np.zeros((4, 4, 4), dtype=np.int64)
    a.reshape(-1)[:4] = 1
    b = np.zeros((4, 4, 4), dtype=np.int64)
    b.reshape(-1)[[0, 1, 2, 5, 6, 7]] = 1  # intersection 3, sizes 4 and 6
    assert mc_dice([a, b], 1) == pytest.approx(2 * 3 / (4 + 6), abs=1e-15)


def test_mc_dice_empty_conventions():
    empty = np.zeros((3, 3, 3), dtype=np.int64)
    one = empty.copy()
    one[0, 0, 0] = 1
    # label 2 absent everywhere: absent-flag
    assert mc_dice([empty, empty], 2) is None
    # present in one sample, empty in the other: that pair scores 0
    assert mc_dice([one, empty], 1) == 0.0
    # both empty pairs score 1 when the structure exists in a third sample
    # pairs: (one,empty)=0, (one,empty)=0, (empty,empty)=1
    assert mc_dice([one, empty, empty], 1) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_mean_structure_uncertainty_two_voxel_mean():
    # structure 1 wins the consensus on two voxels with p = 0.6 and 0.8;
    # structure 2 holds a third voxel with certainty
    sa = np.zeros((3, 1, 3, 1))
    sa[0, 0, :2, 0] = (0.4, 0.2)
    sa[1, 0, :2, 0] = (0.6, 0.8)
    sa[2, 0, 2, 0] = 1.0
    rep = structure_report(prob_set([sa, sa]))

    def h(p):  # two samples, two nonzero terms
        return -2.0 * (p * math.log(p) + (1.0 - p) * math.log(1.0 - p))

    assert rep.by_id(1).mean_uncertainty == pytest.approx((h(0.6) + h(0.8)) / 2, rel=1e-12)
    assert rep.by_id(2).mean_uncertainty == 0.0


def test_mean_structure_uncertainty_absent_is_none():
    sa = np.zeros((3, 2, 2, 2))
    sa[0] = 1.0
    assert structure_report(prob_set([sa, sa])).by_id(1).mean_uncertainty is None


# -- dice against reference --------------------------------------------------


def test_dice_hand_values():
    g = geom(4, 4, 4)
    a = np.zeros((4, 4, 4), dtype=np.int64)
    a.reshape(-1)[:4] = 1
    b = np.zeros((4, 4, 4), dtype=np.int64)
    b.reshape(-1)[[0, 1, 2, 5, 6, 7]] = 1
    assert dice_score(LabelVolume(g, a), LabelVolume(g, b), 1) == pytest.approx(0.6)
    assert dice_score(LabelVolume(g, a), LabelVolume(g, a), 1) == 1.0
    # disjoint masks
    c = np.zeros((4, 4, 4), dtype=np.int64)
    c.reshape(-1)[10:15] = 1
    assert dice_score(LabelVolume(g, a), LabelVolume(g, c), 1) == 0.0
    # both empty
    z = np.zeros((4, 4, 4), dtype=np.int64)
    assert dice_score(LabelVolume(g, z), LabelVolume(g, z), 1) == 1.0


def test_dice_geometry_mismatch():
    a = LabelVolume(geom(3, 3, 3), np.zeros((3, 3, 3), dtype=np.int64))
    b = LabelVolume(geom(3, 3, 4), np.zeros((3, 3, 4), dtype=np.int64))
    with pytest.raises(ValidationError):
        dice_score(a, b, 1)


# -- full report -------------------------------------------------------------


def test_report_fields_and_gt():
    rng = np.random.default_rng(11)
    arrays = [rng.integers(0, 3, size=(5, 5, 5)) for _ in range(4)]
    ss = label_set(arrays)
    gt = LabelVolume(geom(5, 5, 5), arrays[0])
    rep = structure_report(ss, gt=gt, scan_id="s1", dataset="d")
    assert rep.n_samples == 4 and rep.scan_id == "s1" and rep.dataset == "d"
    assert {s.label_id for s in rep.structures} == {1, 2}
    for s in rep.structures:
        assert s.gt_dice is not None
        assert s.mc_dice == pytest.approx(
            oracles.mc_dice_oracle(arrays, s.label_id), abs=1e-12
        )
        assert s.cv == pytest.approx(oracles.cv_oracle(arrays, s.label_id), abs=1e-12)
    no_gt = structure_report(ss)
    assert all(s.gt_dice is None for s in no_gt.structures)
    assert no_gt.by_id(1).name == "left"
    with pytest.raises(KeyError):
        no_gt.by_id(9)


def test_report_gt_geometry_mismatch():
    ss = label_set([np.zeros((3, 3, 3)), np.zeros((3, 3, 3))])
    gt = LabelVolume(geom(3, 3, 4), np.zeros((3, 3, 4), dtype=np.int64))
    with pytest.raises(ValidationError, match="geometry"):
        structure_report(ss, gt=gt)


def test_report_absent_structure_flags():
    a = np.zeros((3, 3, 3), dtype=np.int64)
    a[0, 0, 0] = 1  # label 2 never appears
    ss = label_set([a, a])
    rep = structure_report(ss)
    s2 = rep.by_id(2)
    assert s2.cv is None and s2.mc_dice is None and s2.mean_uncertainty is None
    assert s2.mean_volume == 0.0
    # a label-only uncertainty map is zero, normalized or not, and the
    # report summarises it without building it
    for normalize in (False, True):
        rep = structure_report(ss, normalize=normalize)
        assert rep.by_id(1).mean_uncertainty == 0.0
        assert rep.uncertainty is None
        assert (rep.uncertainty_min, rep.uncertainty_mean, rep.uncertainty_max) == (0.0,) * 3


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_report_invariant_under_sample_order(seed, n):
    # reversing the samples permutes float reduction order, so equality
    # holds to rounding, not bit-exactly
    rng = np.random.default_rng(seed)
    arrays = [rng.integers(0, 3, size=(4, 4, 4)) for _ in range(n)]
    rep_a = structure_report(label_set(arrays))
    rep_b = structure_report(label_set(arrays[::-1]))
    for sa, sb in zip(rep_a.structures, rep_b.structures):
        assert sa.cv == pytest.approx(sb.cv, rel=1e-12)
        assert sa.mc_dice == pytest.approx(sb.mc_dice, rel=1e-12)
        assert sa.mean_volume == pytest.approx(sb.mean_volume, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_onehot_prob_route_matches_label_route(seed):
    """A label set and its one-hot probability lift agree on every metric
    except uncertainty, which is exactly zero for indicators either way."""
    rng = np.random.default_rng(seed)
    arrays = [rng.integers(0, 3, size=(4, 4, 4)) for _ in range(3)]
    ss_lab = label_set(arrays)
    ss_prob = prob_set([oracles.onehot_maps_oracle(a, REG.ids) for a in arrays])
    assert np.array_equal(
        consensus_segmentation(ss_lab).data, consensus_segmentation(ss_prob).data
    )
    rep_lab, rep_prob = structure_report(ss_lab), structure_report(ss_prob)
    for lid in (1, 2):
        assert rep_lab.by_id(lid).cv == rep_prob.by_id(lid).cv
        assert rep_lab.by_id(lid).mc_dice == rep_prob.by_id(lid).mc_dice
    assert np.all(voxel_uncertainty(ss_prob) == 0.0)


# non-contiguous ids listed out of id order: registry position, label id
# and tie order all differ
SPARSE_REG = StructureRegistry(
    entries=((0, "background"), (9, "a"), (2, "b"), (5, "c")), background_id=0
)


def check_report_against_oracles(arrays, rep):
    n = len(arrays)
    for s in rep.structures:
        sizes = [int(np.count_nonzero(a == s.label_id)) for a in arrays]
        assert s.mean_volume == sum(sizes) / n
        assert s.cv == pytest.approx(oracles.cv_oracle(arrays, s.label_id), rel=1e-12)
        assert s.mc_dice == oracles.mc_dice_oracle(arrays, s.label_id)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 4), st.booleans(),
       st.sampled_from([(4, 4, 4), (5, 4, 4), (3, 5, 7)]))
def test_counting_pass_matches_oracles(seed, n, n_labels, identical, dims):
    # 80 and 105 voxels: bit planes that end inside a 64-bit word
    rng = np.random.default_rng(seed)
    ids = np.array(SPARSE_REG.ids)[rng.permutation(4)[:n_labels]]
    arrays = [ids[rng.integers(0, n_labels, size=dims)] for _ in range(n)]
    if identical:  # no voxel disagrees
        arrays = [arrays[0]] * n
    ss = label_set(arrays, SPARSE_REG)
    want = oracles.majority_vote_oracle(arrays)
    assert np.array_equal(consensus_segmentation(ss).data, want)
    rep = structure_report(ss)
    assert np.array_equal(rep.consensus.data, want)
    check_report_against_oracles(arrays, rep)


def pair_counts_oracle(arrays, registry):
    """inter[i, j, k]: voxels where samples i and j both carry id k."""
    return np.array([[[np.count_nonzero((a == lid) & (b == lid)) for lid in registry.ids]
                      for b in arrays] for a in arrays])


def consensus_counts_oracle(consensus, gt, registry):
    """Voxels of each registry id in the consensus, in gt, and in both."""
    return np.array([[np.count_nonzero(consensus == lid) for lid in registry.ids],
                     [np.count_nonzero(gt == lid) for lid in registry.ids],
                     [np.count_nonzero((consensus == lid) & (gt == lid))
                      for lid in registry.ids]])


@pytest.mark.parametrize("threads", ["1", "2", "4"])
@pytest.mark.parametrize("planes", [1, 5, 7])
def test_counting_pass_is_the_same_for_any_chunking(monkeypatch, threads, planes):
    # z-slabs of 1, 5 or 7 planes of 2 x 2 voxels: the last slab of 5 or 7
    # is short. Threads write disjoint slabs of one vote array; more threads
    # than cores and a short switch interval would expose a lost write
    dims = (2, 2, 16)
    ids = np.array(SPARSE_REG.ids)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        # rows are x-fastest flat volumes, in which a slab is a contiguous run
        flats = ids[rng.integers(0, len(ids), size=(n, 64))]
        flats[:, :28] = flats[0, :28]  # whole slabs with no disagreement voxel
        flats[0, 36:60], flats[1, 36:60] = ids[1], ids[2]  # a run across slab ends
        arrays = [f.reshape(dims, order="F") for f in flats]
        # the ground truth is the last sample, one voxel shifted, so it
        # agrees with the consensus at some voxels and not at others
        gt = LabelVolume(geom(*dims), np.roll(flats[-1], 1).reshape(dims, order="F"))
        whole_inter, whole_counts, whole_cons = metrics._count_labels(
            label_set(arrays, SPARSE_REG), gt)
        assert len(volumes._slabs(dims)) == 1
        interval = sys.getswitchinterval()
        with monkeypatch.context() as m:
            m.setattr(volumes, "_SLAB", 4 * planes)
            m.setenv("SEGQC_THREADS", threads)
            sys.setswitchinterval(1e-6)
            try:
                inter, counts, consensus = metrics._count_labels(
                    label_set(arrays, SPARSE_REG), gt)
                no_gt_counts = metrics._count_labels(label_set(arrays, SPARSE_REG))[1]
            finally:
                sys.setswitchinterval(interval)
        assert np.array_equal(inter, whole_inter)
        assert np.array_equal(inter, pair_counts_oracle(arrays, SPARSE_REG))
        vote = consensus.data
        assert vote.dtype == whole_cons.data.dtype == np.uint16
        assert np.array_equal(vote, whole_cons.data)
        assert np.array_equal(vote, oracles.majority_vote_oracle(arrays))
        want = consensus_counts_oracle(vote, gt.data, SPARSE_REG)
        assert 0 < want[2].sum() < want[0].sum()
        assert np.array_equal(counts, whole_counts)
        assert np.array_equal(counts, want)
        assert np.array_equal(no_gt_counts[0], want[0])
        assert not no_gt_counts[1:].any()


# SPARSE_REG plus an id past uint16, so a uint32 set votes in int64
FAR_REG = StructureRegistry(entries=SPARSE_REG.entries + ((70_000, "far"),), background_id=0)


@pytest.mark.parametrize("dtype, registry",
                         [(np.uint8, SPARSE_REG), (np.uint16, SPARSE_REG), (np.uint32, FAR_REG)])
@pytest.mark.parametrize("n", [2, 3, 15])
def test_bit_plane_counts_at_word_boundaries(dtype, registry, n):
    # one slab whose disagreement voxels number 0, 1, and either side of
    # one and two 64-bit words, so a plane's last, padded word and both
    # triangles of the pair counts reach the result
    dims = (8, 8, 4)
    assert len(volumes._slabs(dims)) == 1
    ids = np.array(registry.ids)
    g = geom(*dims)
    rng = np.random.default_rng(n)
    for d in (0, 1, 63, 64, 65, 129):
        flats = np.repeat(ids[rng.integers(0, len(ids), 256)][None], n, axis=0)
        where = rng.choice(256, d, replace=False)
        pick = rng.integers(0, len(ids), (n, d))
        pick[1] = (pick[0] + rng.integers(1, len(ids), d)) % len(ids)  # 0 and 1 differ
        # every other voxel is a tie: the top two labels (of three, for odd
        # N) on as many samples each, the higher id on sample 0
        order = np.argsort(ids)
        pick[:, ::2] = np.array([order[-1], order[0]] * (n // 2) + [order[1]] * (n % 2))[:, None]
        flats[:, where] = ids[pick]
        assert np.count_nonzero((flats != flats[0]).any(axis=0)) == d
        arrays = [f.astype(dtype).reshape(dims, order="F") for f in flats]
        ss = McSampleSet(geometry=g, registry=registry,
                         labels=tuple(LabelVolume(g, a) for a in arrays))
        gt = LabelVolume(g, np.roll(arrays[-1], 1))
        inter, counts, consensus = metrics._count_labels(ss, gt)
        assert np.array_equal(inter, pair_counts_oracle(arrays, registry))
        vote = consensus.data
        assert np.array_equal(vote, oracles.majority_vote_oracle(arrays))
        want = consensus_counts_oracle(vote, gt.data, registry)
        assert np.array_equal(counts, want)
        no_gt_inter, no_gt_counts, no_gt_consensus = metrics._count_labels(ss)
        assert np.array_equal(no_gt_inter, inter)
        assert np.array_equal(no_gt_consensus.data, vote)
        assert np.array_equal(no_gt_counts[0], want[0]) and not no_gt_counts[1:].any()


def test_counting_pass_counts_the_map_consensus():
    # voxel 0: samples B and C carry label 2, so the vote is 2, but A is
    # sure of label 1 and the mean probability favors it (0.57 > 0.27);
    # voxel 1 is background in every sample
    maps = {"A": (0.0, 1.0, 0.0), "B": (0.25, 0.35, 0.4), "C": (0.25, 0.35, 0.4)}
    stacks = []
    for voxel0 in maps.values():
        stack = np.zeros((3, 2, 1, 1))
        stack[:, 0, 0, 0] = voxel0
        stack[0, 1, 0, 0] = 1.0
        stacks.append(stack)
    ss = prob_set(stacks)
    labels = [ss.sample_labels(i) for i in range(ss.n)]
    assert oracles.majority_vote_oracle(labels)[0, 0, 0] == 2
    gt = LabelVolume(ss.geometry, np.array([1, 2]).reshape(2, 1, 1))
    inter, counts, consensus = metrics._count_labels(ss, gt)
    assert np.array_equal(consensus.data, consensus_segmentation(ss).data)
    assert consensus.data[0, 0, 0] == 1
    assert np.array_equal(counts, [[1, 1, 0], [0, 1, 1], [0, 1, 0]])
    assert np.array_equal(inter, pair_counts_oracle(labels, REG))
    rep = structure_report(ss, gt=gt)
    assert rep.by_id(1).consensus_volume == 1.0
    assert rep.by_id(2).consensus_volume == 0.0
    assert rep.by_id(1).gt_dice == 1.0
    assert rep.by_id(2).gt_dice == 0.0


def test_report_memory_bounded_for_sparse_registry():
    # one id of 1e6: per-label arrays are sized by the registry, not the id
    reg = StructureRegistry(
        entries=((0, "background"), (1, "left"), (1_000_000, "far")), background_id=0
    )
    rng = np.random.default_rng(8)
    ids = np.array(reg.ids)
    arrays = [ids[rng.integers(0, 3, size=(4, 4, 4))] for _ in range(15)]
    ss = label_set(arrays, reg)
    tracemalloc.start()
    try:
        rep = structure_report(ss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    check_report_against_oracles(arrays, rep)
    assert np.array_equal(rep.consensus.data, oracles.majority_vote_oracle(arrays))


def test_writeable_fortran_labels_keep_their_layout():
    # a writeable volume is copied in its own layout: F-ordered samples stay
    # F-ordered, so each z-slab of the counting pass flattens to a view
    rng = np.random.default_rng(21)
    arrays = [np.asfortranarray(rng.integers(0, 3, (6, 5, 4))) for _ in range(4)]
    twins = [a.copy(order="F") for a in arrays]
    for t in twins:
        t.flags.writeable = False
    ss, twin = label_set(arrays), label_set(twins)
    for vol, a in zip(ss.labels, arrays):
        assert vol.data.flags.f_contiguous and not vol.data.flags.c_contiguous
        assert not np.shares_memory(vol.data, a)
    assert all(vol.data is t for vol, t in zip(twin.labels, twins))
    gt = LabelVolume(ss.geometry, arrays[0])
    assert structure_report(ss, gt) == structure_report(twin, gt)
    assert np.array_equal(structure_report(ss).consensus.data,
                          structure_report(twin).consensus.data)


def test_unused_large_id_keeps_the_vote_narrow():
    # uint8 samples cannot hold the id 1e6, so the vote stays uint16; an
    # int64 vote buffer at 128^3 (one counting chunk) costs 16 MiB
    # two boxes, each sample relabelling a random 30% of the voxels
    rng = np.random.default_rng(9)
    base = np.zeros((128, 128, 128), dtype=np.uint8)
    base[20:100, 20:60] = 1
    base[20:100, 60:110] = 2
    arrays = []
    for _ in range(3):
        a = base.copy()
        flip = rng.random(a.shape) < 0.3
        a[flip] = rng.integers(0, 3, int(flip.sum()), dtype=np.uint8)
        arrays.append(a)
    sparse = StructureRegistry(entries=REG.entries + ((1_000_000, "far"),), background_id=0)
    g = geom(128, 128, 128)
    ss = McSampleSet(geometry=g, registry=sparse,
                     labels=tuple(LabelVolume(g, a) for a in arrays))
    assert not ss.violations  # validated before the measurement
    tracemalloc.start()
    try:
        rep = structure_report(ss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 42 * 2**20, peak / 2**20
    assert rep.consensus.data.dtype == np.uint16
    plain = structure_report(label_set(arrays, REG))
    assert np.array_equal(rep.consensus.data, plain.consensus.data)
    assert rep.structures[:2] == plain.structures
    assert rep.by_id(1_000_000).consensus_volume == 0.0


def parallel_workers(monkeypatch, *modules) -> list[int]:
    """The ``workers`` of every ``_parallel`` call made through ``modules``."""
    seen, real = [], volumes._parallel

    def spy(fn, items, workers):
        seen.append(workers)
        return real(fn, items, workers)

    for module in modules:
        monkeypatch.setattr(module, "_parallel", spy)
    return seen


def test_parallel_runs_on_the_caller_and_workers_minus_one_pool_threads(monkeypatch):
    # the first `workers` items each hold their thread at a barrier, so the
    # call passes it only if that many threads share the work: the calling
    # thread and workers - 1 of a pool given one task each
    pools = []
    real = volumes.ThreadPoolExecutor

    class Pool(real):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            pools.append([max_workers, 0])

        def submit(self, *args, **kwargs):
            pools[-1][1] += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(volumes, "ThreadPoolExecutor", Pool)
    caller, baseline = threading.get_ident(), threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            pools.clear()
            met, ran_on = threading.Barrier(workers, timeout=60), []

            def square(x):
                if x < workers:
                    met.wait()
                ran_on.append(threading.get_ident())
                return x * x

            assert volumes._parallel(square, range(50), workers) == [x * x for x in range(50)]
            assert len(set(ran_on)) == workers and caller in ran_on
            assert pools == ([] if workers == 1 else [[workers - 1, workers - 1]])
            assert threading.active_count() == baseline

        class Boom(Exception):
            pass

        for on_caller in (True, False):
            met = threading.Barrier(2, timeout=60)

            def fail(x):
                if x < 2:
                    met.wait()  # both threads hold an item, so both have work
                if (threading.get_ident() == caller) == on_caller:
                    raise Boom
                return x

            with pytest.raises(Boom):
                volumes._parallel(fail, range(20), 2)
            assert threading.active_count() == baseline

        # once an item raises no thread starts another: each may finish the
        # item it holds and at most take one more before the items run out
        workers, started = 2, []

        def fail_one(x):
            started.append(x)
            if x == 1:
                raise Boom
            time.sleep(0.001)
            return x

        with pytest.raises(Boom):
            volumes._parallel(fail_one, range(40), workers)
        assert len(started) - started.index(1) - 1 <= workers
        assert threading.active_count() == baseline
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("env, workers", [(None, 2), ("3", 3), ("64", 16), ("1", 1)])
def test_counting_pool_size(monkeypatch, env, workers):
    # each counting thread holds its own slab buffers, so without
    # SEGQC_THREADS the pass asks for two threads whatever the CPU count,
    # and never for more than the slabs, here 16 of one plane each; the
    # calling thread is one of them
    seen = parallel_workers(monkeypatch, metrics)
    monkeypatch.setattr(volumes, "_SLAB", 16)
    monkeypatch.setattr(volumes.os, "cpu_count", lambda: 64)
    if env is None:
        monkeypatch.delenv("SEGQC_THREADS", raising=False)
    else:
        monkeypatch.setenv("SEGQC_THREADS", env)
    arrays = [np.full((4, 4, 16), lid) for lid in (2, 9, 2)]
    inter, counts, consensus = metrics._count_labels(label_set(arrays, SPARSE_REG))
    assert seen == [workers]
    assert np.array_equal(consensus.data, arrays[0])


# -- the one pass over probability maps ----------------------------------------


def loop_entropy(stacks):
    """Sample-major entropy loop over a float64 copy of every map."""
    values = np.zeros(stacks[0].shape[1:], dtype=np.float64)
    for maps in stacks:
        for k in range(maps.shape[0]):
            p = maps[k].astype(np.float64, copy=False)
            values -= xlogy(p, p)
    np.maximum(values, 0.0, out=values)
    return values


def loop_mean_argmax(stacks, ids):
    """Structure-major mean over samples, argmax in ascending-id order."""
    dims = stacks[0].shape[1:]
    best_val = np.full(dims, -np.inf, dtype=np.float64)
    best_id = np.zeros(dims, dtype=np.int64)
    for k in sorted(range(len(ids)), key=lambda k: ids[k]):
        acc = np.zeros(dims, dtype=np.float64)
        for maps in stacks:
            acc += maps[k]
        acc /= len(stacks)
        better = acc > best_val
        best_val[better] = acc[better]
        best_id[better] = ids[k]
    return best_id


def np_argmax_labels(maps, ids):
    order = np.argsort(ids, kind="stable")
    return np.asarray(ids, dtype=np.int64)[order][np.argmax(maps[order], axis=0)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(2, 5),
       st.sampled_from([np.float32, np.float64]), st.booleans())
def test_prob_pass_is_bit_identical_to_per_structure_loops(seed, n, k, dtype, fortran):
    rng = np.random.default_rng(seed)
    # distinct ids in random order, so registry order and id order differ
    ids = tuple(int(i) for i in rng.choice(12, size=k, replace=False))
    reg = StructureRegistry(tuple((i, f"s{i}") for i in ids), background_id=ids[0])
    dims = (3, 4, 5)
    v = int(np.prod(dims))
    stacks = []
    for _ in range(n):
        soft = rng.dirichlet(np.ones(k), size=v).T
        # small integer weights give exact ties within and across samples
        w = rng.integers(1, 3, size=(k, v)).astype(np.float64)
        # one-hot voxels (p in {0, 1}) add exact zero entropy terms
        onehot = np.eye(k)[rng.integers(0, k, size=v)].T
        kind = rng.integers(0, 3, size=v)
        flat = np.where(kind == 0, soft, np.where(kind == 1, w / w.sum(axis=0), onehot))
        stack = flat.reshape((k,) + dims).astype(dtype)
        if fortran:  # x fastest, the layout of maps decoded from files
            stack = np.asfortranarray(stack)
        stack.flags.writeable = False  # kept as it is, not copied
        stacks.append(stack)
    ss = prob_set(stacks, reg)

    unc = voxel_uncertainty(ss)
    assert np.array_equal(unc, loop_entropy(stacks))
    assert unc.flags.c_contiguous  # whole-map reductions keep their order
    assert np.array_equal(voxel_uncertainty(ss, normalize=True),
                          loop_entropy(stacks) / n)
    assert np.array_equal(consensus_segmentation(ss).data, loop_mean_argmax(stacks, ids))
    for i, maps in enumerate(stacks):
        want = np_argmax_labels(maps, ids)
        assert np.array_equal(ss.sample_labels(i), want)
        assert np.array_equal(volumes._argmax_labels(maps, ids), want)
        assert ss.prob_pass.checks[i] == tuple(ss.probs[i].violations())


def test_prob_pass_loads_each_sample_once():
    # a sample's K files may be decoded in parallel, each through load_map,
    # so loads are counted per (sample, k): every map exactly once, and
    # every map of a sample before any of the next sample's
    loads = []

    class CountingStack(ProbMapStack):
        def load_map(self, k, out=None):
            loads.append((id(self), k))
            return super().load_map(k, out)

    rng = np.random.default_rng(3)
    g = geom(4, 4, 4)
    ss = McSampleSet(geometry=g, registry=REG, probs=tuple(
        CountingStack(geometry=g, label_ids=REG.ids, maps=s)
        for s in random_prob_stacks(rng, n_samples=4)
    ))
    rep = structure_report(ss, normalize=True)
    consensus_segmentation(ss)
    voxel_uncertainty(ss)
    want = [(id(s), k) for s in ss.probs for k in range(len(REG.ids))]
    assert sorted(loads) == sorted(want)
    assert [sample for sample, _ in loads] == [sample for sample, _ in want]
    assert np.array_equal(rep.consensus.data, consensus_segmentation(ss).data)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_prob_pass_holds_one_sample_of_maps(monkeypatch, threads):
    # a sample's maps are freed before the next sample's are decoded, and
    # the buffers they may be decoded into are K, one per structure, reused
    # by every sample and freed before the consensus is taken
    refs, alive, outs, bufs, at_consensus = [], [], [], [], []

    class TrackingStack(ProbMapStack):
        def load_map(self, k, out=None):
            alive.append(sum(r() is not None for r in refs))
            outs.append((k, id(out)))
            bufs.append(weakref.ref(out))
            m = np.array(super().load_map(k, out))  # owned, as a decoded file is
            refs.append(weakref.ref(m))
            return m

    real_argmax = volumes._argmax_labels

    def argmax(maps, label_ids, out=None):
        if out is None:  # the consensus; each slab's argmax writes into ``best``
            at_consensus.append(sum(b() is not None for b in bufs))
        return real_argmax(maps, label_ids, out)

    monkeypatch.setattr(volumes, "_argmax_labels", argmax)
    monkeypatch.setenv("SEGQC_THREADS", threads)
    g = geom(4, 4, 4)
    stacks = random_prob_stacks(np.random.default_rng(6), n_samples=4)
    ss = McSampleSet(geometry=g, registry=REG, probs=tuple(
        TrackingStack(geometry=g, label_ids=REG.ids, maps=s) for s in stacks))
    assert not ss.violations
    assert len(alive) == 4 * 3 and max(alive) < 3
    assert len(set(outs)) == len({buf for _, buf in outs}) == 3
    assert at_consensus == [0]


def slabbed_pass(probs, registry, threads, labels=None):
    """The probability pass of a fresh set of ``probs`` (and ``labels``) in
    z-slabs of two planes of the 3 x 4 grid, on ``threads`` threads, with a
    short switch interval that would expose a lost write."""
    g = probs[0].geometry
    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(volumes, "_SLAB", 24)
        m.setenv("SEGQC_THREADS", threads)
        sys.setswitchinterval(1e-6)
        try:
            return McSampleSet(g, registry, labels, probs).prob_pass
        finally:
            sys.setswitchinterval(interval)


def assert_same_pass(got, want):
    assert got.checks == want.checks
    assert got.mismatches == want.mismatches
    for a, b in zip(got.labels, want.labels):
        assert (a is None and b is None) or (a.dtype == b.dtype and np.array_equal(a, b))
    for a, b in ((got.entropy, want.entropy), (got.consensus, want.consensus)):
        assert (a is None and b is None) or (a.dtype == b.dtype and np.array_equal(a, b))


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fortran", [False, True])
def test_prob_pass_is_the_same_for_any_slabbing(threads, dtype, fortran):
    # 7 planes in slabs of 2: the last slab is one plane deep
    dims = (3, 4, 7)
    assert volumes._SLAB >= int(np.prod(dims))  # one slab unpatched
    rng = np.random.default_rng(11)
    ids = (4, 0, 9)
    reg = StructureRegistry(tuple((i, f"s{i}") for i in ids), background_id=0)
    stacks = []
    for stack in random_prob_stacks(rng, n_samples=4, dims=dims):
        stack[:, 0, 0, :] = np.eye(3)[rng.integers(0, 3, size=7)].T  # exact zero terms
        stack = stack.astype(dtype)
        stacks.append(np.asfortranarray(stack) if fortran else stack)
    probs = tuple(ProbMapStack(geom(*dims), ids, s) for s in stacks)
    got = slabbed_pass(probs, reg, threads)
    assert_same_pass(got, prob_set(stacks, reg).prob_pass)
    assert np.array_equal(got.entropy, loop_entropy(stacks))
    assert np.array_equal(got.consensus, loop_mean_argmax(stacks, ids))
    for maps, labels in zip(stacks, got.labels):
        assert np.array_equal(labels, np_argmax_labels(maps, ids))
    assert not any(got.checks)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_prob_pass_finds_faults_in_the_last_slab(threads):
    # each fault sits in the last plane only, the last slab of its own;
    # the messages are the stack's own single-slab ones
    dims = (3, 4, 7)
    rng = np.random.default_rng(12)
    stacks = random_prob_stacks(rng, n_samples=5, dims=dims)
    stacks[1][2, 1, 2, 6] = np.nan
    stacks[2][:, 0, 3, 6] = (-0.25, 1.25, 0.0)  # sums to 1, out of range
    stacks[3][:, 2, 1, 6] *= 1.001  # in range, sums to 1.001
    stacks[4][0, 1, 1, 6] = np.inf
    probs = tuple(ProbMapStack(geom(*dims), REG.ids, s) for s in stacks)
    got = slabbed_pass(probs, REG, threads)
    assert_same_pass(got, prob_set(stacks).prob_pass)
    assert got.checks == tuple(tuple(s.violations()) for s in probs)
    assert got.checks[0] == ()
    assert got.checks[1] == got.checks[4] == ("probability maps contain non-finite values",)
    assert got.checks[2] == ("probability values outside [0, 1] (range -0.25..1.25)",)
    assert len(got.checks[3]) == 1 and "deviate from 1 by up to 0.001" in got.checks[3][0]
    assert got.entropy is None and got.consensus is None


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_prob_pass_counts_mismatches_in_later_slabs(threads):
    # labels that differ from the argmax only in the last two slabs
    dims = (3, 4, 7)
    rng = np.random.default_rng(13)
    stacks = random_prob_stacks(rng, n_samples=3, dims=dims)
    ids = np.array(REG.ids)
    vols = []
    for i, stack in enumerate(stacks):
        labels = ids[np.argmax(stack, axis=0)]
        labels[:, :, 4 + i % 3:] = (labels[:, :, 4 + i % 3:] + 1) % 3  # 12 voxels a plane
        vols.append(LabelVolume(geom(*dims), labels))
    probs = tuple(ProbMapStack(geom(*dims), REG.ids, stack) for stack in stacks)
    got = slabbed_pass(probs, REG, threads, labels=vols)
    assert got.mismatches == (36, 24, 12)
    assert_same_pass(got, McSampleSet(geom(*dims), REG, vols, probs).prob_pass)


@pytest.mark.parametrize("env, slab, workers", [
    (None, 16, 2), ("3", 16, 3), ("64", 16, 4), ("1", 16, 1), ("2", 1 << 17, 1)])
def test_prob_pass_pool_size(monkeypatch, env, slab, workers):
    # a sample is decoded, then folded, by SEGQC_THREADS threads (two when
    # unset, whatever the CPU count), the calling thread included, and by
    # no more than it has slabs: here 4 of one plane each, or one
    seen = parallel_workers(monkeypatch, volumes)
    monkeypatch.setattr(volumes, "_SLAB", slab)
    monkeypatch.setattr(volumes.os, "cpu_count", lambda: 64)
    if env is None:
        monkeypatch.delenv("SEGQC_THREADS", raising=False)
    else:
        monkeypatch.setenv("SEGQC_THREADS", env)
    stacks = random_prob_stacks(np.random.default_rng(4), n_samples=3)
    assert not prob_set(stacks).violations
    assert seen == [workers, workers] * 3
    assert not label_set([np.zeros((4, 4, 4), dtype=int)] * 2).violations
    assert len(seen) == 6  # validating a label-only set runs no pass


def test_both_passes_split_a_set_into_the_same_slabs(monkeypatch):
    # the counting pass walks the probability pass's z-slabs, here 4 of one
    # plane: each sample's fold and the count get the same list of slabs
    seen, real = [], volumes._parallel

    def spy(fn, items, workers):
        seen.append(list(items))
        return real(fn, items, workers)

    for module in (metrics, volumes):
        monkeypatch.setattr(module, "_parallel", spy)
    monkeypatch.setattr(volumes, "_SLAB", 16)
    slabs = [slice(z, z + 1) for z in range(4)]
    structure_report(prob_set(random_prob_stacks(np.random.default_rng(8), n_samples=3)))
    # per sample, its 3 maps decoded, then folded; last, the count
    assert seen == [[0, 1, 2], slabs] * 3 + [slabs]
    seen.clear()
    structure_report(label_set([np.zeros((4, 4, 4), dtype=int)] * 2))
    assert seen == [slabs]


def test_no_thread_outlives_a_report():
    # both passes shut their pools down before they return
    baseline = threading.active_count()
    rng = np.random.default_rng(5)
    structure_report(prob_set(random_prob_stacks(rng, n_samples=3)))
    assert threading.active_count() == baseline
    structure_report(label_set([rng.integers(0, 3, size=(4, 4, 4)) for _ in range(3)]))
    assert threading.active_count() == baseline
