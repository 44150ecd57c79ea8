"""Uncertainty, consensus, and agreement metrics against hand values and
independent oracles."""

import math
import sys
import tracemalloc

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
    McSample,
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
    samples = tuple(
        McSample(labels=LabelVolume(g, np.asarray(a, dtype=np.int64))) for a in arrays
    )
    return McSampleSet(geometry=g, registry=registry, samples=samples)


def prob_set(stacks, registry=REG):
    g = VoxelGeometry(np.asarray(stacks[0]).shape[1:], (1.0, 1.0, 1.0))
    samples = tuple(
        McSample(probs=ProbMapStack(geometry=g, label_ids=registry.ids, maps=np.asarray(s)))
        for s in stacks
    )
    return McSampleSet(geometry=g, registry=registry, samples=samples)


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
    u = voxel_uncertainty(ss).values[0, 0, 0]
    assert u == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    u_norm = voxel_uncertainty(ss, normalize=True).values[0, 0, 0]
    assert u_norm == pytest.approx(math.log(2.0), abs=1e-12)


def test_uncertainty_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    stacks = random_prob_stacks(rng, n_samples=4, dims=(3, 4, 2))
    ss = prob_set(stacks)
    got = voxel_uncertainty(ss).values
    want = oracles.entropy_map_oracle(stacks)
    assert np.max(np.abs(got - want)) < 1e-12


def test_uncertainty_zero_for_label_sets():
    ss = label_set([np.zeros((3, 3, 3)), np.ones((3, 3, 3))])
    assert np.all(voxel_uncertainty(ss).values == 0.0)


def test_uncertainty_needs_two_samples():
    stack = np.zeros((3, 2, 2, 2))
    stack[0] = 1.0
    g = geom(2, 2, 2)
    ss = McSampleSet(
        geometry=g, registry=REG,
        samples=(McSample(probs=ProbMapStack(geometry=g, label_ids=REG.ids, maps=stack)),),
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
        samples=(McSample(labels=LabelVolume(g, a)), McSample(labels=LabelVolume(g, b))),
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
    assert np.all(voxel_uncertainty(ss_prob).values == 0.0)


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
@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 4), st.booleans())
def test_counting_pass_matches_oracles(seed, n, n_labels, identical):
    rng = np.random.default_rng(seed)
    ids = np.array(SPARSE_REG.ids)[rng.permutation(4)[:n_labels]]
    arrays = [ids[rng.integers(0, n_labels, size=(4, 4, 4))] for _ in range(n)]
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
@pytest.mark.parametrize("chunk", [1, 5, 7])
def test_counting_pass_is_the_same_for_any_chunking(monkeypatch, threads, chunk):
    # threads write disjoint slices of one vote array; more threads than
    # cores and a short switch interval would expose a lost write
    dims = (4, 4, 4)
    ids = np.array(SPARSE_REG.ids)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        # rows are x-fastest flat volumes, the order the pass chunks
        flats = ids[rng.integers(0, len(ids), size=(n, 64))]
        flats[:, :12] = flats[0, :12]  # whole chunks with no disagreement voxel
        flats[0, 20:40], flats[1, 20:40] = ids[1], ids[2]  # a run across chunk ends
        arrays = [f.reshape(dims, order="F") for f in flats]
        # the ground truth is the last sample, one voxel shifted, so it
        # agrees with the consensus at some voxels and not at others
        gt = LabelVolume(geom(*dims), np.roll(flats[-1], 1).reshape(dims, order="F"))
        whole_inter, whole_counts, whole_cons = metrics._count_labels(
            label_set(arrays, SPARSE_REG), gt)
        assert metrics._CHUNK >= 64  # one chunk
        interval = sys.getswitchinterval()
        with monkeypatch.context() as m:
            m.setattr(metrics, "_CHUNK", chunk)
            m.setattr(metrics, "_SLICE", 2)
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
                     samples=tuple(McSample(labels=LabelVolume(g, a)) for a in arrays))
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


@pytest.mark.parametrize("env, workers", [(None, 2), ("3", 3), ("64", 16), ("1", 1)])
def test_counting_pool_size(monkeypatch, env, workers):
    # each counting thread holds its own chunk buffers, so without
    # SEGQC_THREADS the pool stays at two threads whatever the CPU count,
    # and it never exceeds the chunk count; one thread is a pool of one
    seen = []
    real = metrics.ThreadPoolExecutor

    def pool(max_workers):
        seen.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(metrics, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(metrics, "_CHUNK", 4)
    monkeypatch.setattr(metrics.os, "cpu_count", lambda: 64)
    if env is None:
        monkeypatch.delenv("SEGQC_THREADS", raising=False)
    else:
        monkeypatch.setenv("SEGQC_THREADS", env)
    arrays = [np.full((4, 4, 4), lid) for lid in (2, 9, 2)]
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

    unc = voxel_uncertainty(ss).values
    assert np.array_equal(unc, loop_entropy(stacks))
    assert unc.flags.c_contiguous  # whole-map reductions keep their order
    assert np.array_equal(voxel_uncertainty(ss, normalize=True).values,
                          loop_entropy(stacks) / n)
    assert np.array_equal(consensus_segmentation(ss).data, loop_mean_argmax(stacks, ids))
    for i, maps in enumerate(stacks):
        want = np_argmax_labels(maps, ids)
        assert np.array_equal(ss.sample_labels(i), want)
        assert np.array_equal(volumes._argmax_labels(maps, ids), want)
        assert ss.prob_pass.checks[i] == tuple(ss.samples[i].probs.violations())


def test_prob_pass_loads_each_sample_once():
    loads = []

    class CountingStack(ProbMapStack):
        def load_maps(self):
            loads.append(id(self))
            return super().load_maps()

    rng = np.random.default_rng(3)
    g = geom(4, 4, 4)
    ss = McSampleSet(geometry=g, registry=REG, samples=tuple(
        McSample(probs=CountingStack(geometry=g, label_ids=REG.ids, maps=s))
        for s in random_prob_stacks(rng, n_samples=4)
    ))
    rep = structure_report(ss, normalize=True)
    consensus_segmentation(ss)
    voxel_uncertainty(ss)
    assert loads == [id(s.probs) for s in ss.samples]
    assert np.array_equal(rep.consensus.data, consensus_segmentation(ss).data)
