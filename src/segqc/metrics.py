"""Uncertainty and agreement metrics over MC segmentation sample sets.

Implements the voxel-wise uncertainty map (per-structure entropy terms
summed over samples and structures), consensus segmentation, Dice
overlap, and :func:`structure_report`, the only source of the three
structure-wise uncertainty measures:

* volume CV       -- coefficient of variation of a structure's volume
                     across samples (sample std over mean).
* mc_dice         -- mean pairwise Dice agreement of a structure across
                     all unordered sample pairs.
* mean uncertainty -- mean of the voxel-wise uncertainty map over the
                     voxels the consensus assigns to a structure.

One counting pass over the samples' labels yields every integer count
behind them (per-sample, pairwise, consensus and ground-truth label
counts) and is the one place that makes a consensus: it fills the
majority vote of a label-only set and, for a set with maps, takes the
argmax of the mean map. Where samples disagree it holds each label as
one bit plane per sample, so a pair's count is a popcount of two planes
ANDed together. The entropy map and the mean map's argmax come from the
sample set's one pass over its probability maps
(:attr:`~segqc.volumes.McSampleSet.prob_pass`), which loads each
sample's maps once and never holds them all. Both passes split a volume
into the same z-slabs of whole planes (:func:`~segqc.volumes._slabs`) and
run them on up to ``SEGQC_THREADS`` threads (default: 2) with the
calling thread counted as one of them (:func:`~segqc.volumes._parallel`);
the probability pass first decodes each sample's maps. Counts add
exactly, each voxel's vote is its own and every float operation is per
voxel, so neither the slab size nor the thread count changes a result.

All functions are pure and deterministic: floating-point reductions run
in a fixed order (ascending sample index, registry order over structures),
so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .volumes import (
    _UINT16_MAX,
    LabelVolume,
    McSampleSet,
    StructureRegistry,
    ValidationError,
    _parallel,
    _release,
    _slabs,
    _special,
    _thread_cap,
    require_valid,
)


@dataclass(frozen=True)
class StructureMetrics:
    """All per-structure quantities for one scan.

    ``None`` marks a metric that is undefined because its defining voxel
    or sample set is empty (the absent-flag), never silently zero.
    """

    label_id: int
    name: str
    mean_volume: float
    std_volume: float
    cv: float | None
    mc_dice: float | None
    mean_uncertainty: float | None
    consensus_volume: float
    gt_dice: float | None = None


# short name -> StructureMetrics attribute, in the row order of correlate's output
STRUCTURE_METRICS = {"mc_dice": "mc_dice", "cv": "cv", "mean_unc": "mean_uncertainty"}


@dataclass(frozen=True)
class StructureReport:
    """Per-structure metrics for one scan plus a voxel-uncertainty summary.

    A report made by :func:`structure_report` also carries the consensus
    and the voxel uncertainty map it was computed from, so callers that
    write them need not recompute either; ``uncertainty`` is None for a
    label-only set, whose map is all zero. A report read from JSON has
    neither.
    """

    structures: tuple[StructureMetrics, ...]
    n_samples: int
    uncertainty_min: float
    uncertainty_mean: float
    uncertainty_max: float
    normalized_uncertainty: bool = False
    scan_id: str = ""
    dataset: str = ""
    consensus: LabelVolume | None = field(default=None, repr=False, compare=False)
    uncertainty: np.ndarray | None = field(default=None, repr=False, compare=False)

    def by_id(self, label_id: int) -> StructureMetrics:
        for s in self.structures:
            if s.label_id == label_id:
                return s
        raise KeyError(f"no structure with label id {label_id} in report")


def _registry_counts(values: np.ndarray, registry: StructureRegistry) -> np.ndarray:
    """Voxels of each registry label among the 1-D ``values``, by registry
    position; ``values`` is at most one slab, so np.bincount's intp copy is small."""
    return np.bincount(values, minlength=registry.max_id + 1)[list(registry.ids)]


def _count_slab(labels: list[np.ndarray], registry: StructureRegistry, cons: np.ndarray,
                gt: np.ndarray | None, vote: bool, z: slice) -> tuple:
    """Counting pass over the z-slab ``[:, :, z]`` of the 3-D ``labels``.

    Returns its partials of ``_count_labels``' ``inter`` and ``counts``,
    first writing its majority labels into the slab of ``cons`` when
    ``vote``, whose counts add its disagreement voxels' to the agreement
    voxels' instead of recounting the slab. Each slab is flattened
    x-fastest: a view, not a copy, of an F-ordered volume, as files give
    and the vote's buffer is.

    The disagreement voxels are counted one label at a time, as bit
    planes: each sample's plane holds one bit a voxel, set where it
    carries the label, padded with zero bits to whole 64-bit words. A
    pair's intersection is the popcount of the AND of its two planes, and
    a voxel's vote for the label is the number of planes with its bit set.
    Last, the slab's mapped pages of every sample and ``gt`` are released.
    """
    n = len(labels)
    parts = [arr[:, :, z].reshape(-1, order="F") for arr in labels]
    base = parts[0]
    agree = np.ones(base.shape, dtype=bool)
    for arr in parts[1:]:
        agree &= arr == base
    base_counts = _registry_counts(base[agree], registry)
    dis = np.flatnonzero(~agree)
    del agree
    stacked = np.stack([arr[dis] for arr in parts])
    present = range(int(stacked.min()), int(stacked.max()) + 1) if dis.size else range(0)
    out = cons[:, :, z].reshape(-1, order="F")
    best = np.zeros(dis.size, out.dtype)
    best_votes = np.zeros(dis.size, np.min_scalar_type(n))
    inter = np.zeros((n, n, len(registry.ids)), dtype=np.int64)
    planes = np.empty(stacked.shape, dtype=bool)
    # eight voxels a byte, zero-padded to whole 64-bit words
    packed = np.zeros((n, -(-dis.size // 64) * 8), dtype=np.uint8)
    words = packed.view(np.uint64)
    for lid, k in sorted((lid, k) for k, lid in enumerate(registry.ids)):
        if lid not in present:
            continue
        np.equal(stacked, lid, out=planes)
        if not planes.any():
            continue
        if vote:
            # ascending ids and a strictly larger vote keep the lowest id on ties
            votes = planes.sum(0, dtype=best_votes.dtype)
            best[votes > best_votes] = lid
            np.maximum(best_votes, votes, out=best_votes)
        packed[:, :-(-dis.size // 8)] = np.packbits(planes, axis=1)
        for i in range(n):  # row by row: no N x N x words temporary
            inter[i, i:, k] = np.bitwise_count(words[i] & words[i:]).sum(-1)
    upper = np.triu_indices(n, 1)
    inter[upper[::-1]] = inter[upper]
    inter += base_counts
    if vote:
        out[...] = base
        out[dis] = best
    # free the slab's planes first, so a thread's peak stays its label loop's
    del stacked, planes, packed, words, dis, best_votes
    counts = np.zeros((3, len(registry.ids)), dtype=np.int64)
    counts[0] = (base_counts + _registry_counts(best, registry) if vote
                 else _registry_counts(out, registry))
    if gt is not None:
        truth = gt[:, :, z].reshape(-1, order="F")
        counts[1] = _registry_counts(truth, registry)
        counts[2] = _registry_counts(out[out == truth], registry)
    for arr in (*labels, gt):
        _release(arr, z)
    return inter, counts


def _count_labels(sample_set: McSampleSet, gt: LabelVolume | None = None) -> tuple:
    """The one counting pass behind every structure metric and consensus.

    Returns ``inter``, of shape (N, N, K) with K the registry length: the
    voxels where samples i and j both carry the label at registry position
    k, so the diagonal holds each sample's own label counts. ``counts``,
    of shape (3, K), holds the label counts of the consensus, of ``gt`` and
    of the voxels where the two agree (zero rows without ``gt``). Last
    comes the consensus as a read-only :class:`LabelVolume`, stored as
    uint16 whenever every id fits: for a set with maps, the argmax of the
    mean map from the set's probability pass; for a label-only set, the
    per-voxel majority label, ties to the lowest id, which this pass fills.

    Voxels where all samples agree are counted once and credited to every
    sample and pair, so only disagreement voxels are touched per label.
    There each label is one bit plane per sample (:func:`_count_slab`),
    which feeds both every pair's intersections and, for a label-only set,
    the vote. The arithmetic is pure integer counting and matches a
    per-voxel enumeration exactly.

    The pass runs in the probability pass's z-slabs (:func:`_slabs`) on up
    to ``SEGQC_THREADS`` threads, two when it is unset whatever the CPU
    count, since each holds its own slab buffers (up to 5.9 MiB at N = 15).
    Each slab's counts are a partial sum of integers and its votes depend
    only on its own voxels, so the sum of the partials, taken in slab
    order, and the vote are the same for any slab size and thread count.
    """
    labels = [vol.data for vol in sample_set.labels]
    registry = sample_set.registry
    vote = sample_set.probs is None
    # the vote is always some sample's label, so no wider than the samples
    top = min(registry.max_id, max(np.iinfo(a.dtype).max for a in labels))
    dtype = np.uint16 if top <= _UINT16_MAX else np.int64
    cons = np.empty(labels[0].shape, dtype, order="F") if vote else sample_set.prob_pass.consensus
    slabs = _slabs(cons.shape)
    count = partial(_count_slab, labels, registry, cons, None if gt is None else gt.data, vote)
    inter, counts = map(sum, zip(*_parallel(count, slabs, min(_thread_cap(2), len(slabs)))))
    if cons.dtype != np.uint16 and cons.max(initial=0) <= _UINT16_MAX:
        cons = cons.astype(np.uint16)
    cons.flags.writeable = False  # never written again: LabelVolume keeps it
    return inter, counts, LabelVolume(geometry=sample_set.geometry, data=cons)


def voxel_uncertainty(sample_set: McSampleSet, normalize: bool = False) -> np.ndarray:
    """Voxel-wise uncertainty map from the per-sample probability maps, as
    a read-only float64 array on the set's dims.

    Per structure the contribution is the sum over samples of -p*ln(p)
    (natural log, with 0*ln(0) = 0); the map is the sum over all registry
    structures, background included. It is read from the set's memoised
    pass over its maps. Label-only sets are treated through their
    indicator maps, whose terms all vanish, so they yield an exactly zero
    map without materializing the one-hot stacks.

    With ``normalize`` the map is divided by the sample count, making
    values comparable across sets of different size; off by default.
    """
    require_valid(sample_set)
    if sample_set.probs is None:
        values = np.zeros(sample_set.geometry.dims, dtype=np.float64)
    else:
        values = sample_set.prob_pass.entropy  # read-only: shared, not copied
    if normalize:
        values = values / sample_set.n
    values.flags.writeable = False  # handed over whole: no defensive copy
    return values


def structure_uncertainty(sample_set: McSampleSet, label_id: int) -> np.ndarray:
    """Single-structure uncertainty volume: sum over samples of -p*ln(p).

    Bounded by N/e per voxel (each term peaks at 1/e when p = 1/e).
    """
    require_valid(sample_set)
    if label_id not in sample_set.registry:
        raise ValidationError(f"label id {label_id} not in registry")
    values = np.zeros(sample_set.geometry.dims, dtype=np.float64)
    if sample_set.probs is None:
        return values
    xlogy = _special("xlogy")
    k = sample_set.registry.ids.index(label_id)
    for stack in sample_set.probs:
        p = stack.load_map(k)
        values -= xlogy(p, p, dtype=np.float64)
    return values


def consensus_segmentation(sample_set: McSampleSet) -> LabelVolume:
    """Final segmentation: argmax of the MC-mean probability map.

    For label-only sets this reduces to a per-voxel majority vote. Ties
    go to the lowest label id, which is deterministic and independent of
    sample order. It is the consensus of the counting pass
    (:func:`_count_labels`), which reads the mean map's argmax from the
    set's memoised pass over its maps, or fills the vote itself.
    """
    require_valid(sample_set)
    return _count_labels(sample_set)[2]


def _pair_dice(size_a: int, size_b: int, inter: int) -> float:
    # Both masks empty: perfect agreement on absence. Exactly one empty:
    # no overlap is possible, score 0.
    if size_a == 0 and size_b == 0:
        return 1.0
    if size_a == 0 or size_b == 0:
        return 0.0
    return 2.0 * inter / (size_a + size_b)


def dice_score(seg: LabelVolume, reference: LabelVolume, label_id: int) -> float:
    """Dice overlap of one label between two volumes on the same grid.

    2*|A & B| / (|A| + |B|); both masks empty gives 1, exactly one empty
    gives 0. Volumes on two grids are refused with both grids named.
    """
    if seg.geometry != reference.geometry:
        raise ValidationError(f"geometry mismatch: {seg.geometry} vs {reference.geometry}")
    a = seg.data == label_id
    b = reference.data == label_id
    size_a = int(np.count_nonzero(a))
    size_b = int(np.count_nonzero(b))
    inter = int(np.count_nonzero(a & b))
    return _pair_dice(size_a, size_b, inter)


def structure_report(
    sample_set: McSampleSet,
    gt: LabelVolume | None = None,
    normalize: bool = False,
    scan_id: str = "",
    dataset: str = "",
) -> StructureReport:
    """Full per-scan report: consensus, uncertainty map summary, and all
    per-structure metrics; Dice against ground truth when one is given.

    CV and MC Dice follow each sample's labels and are None when the
    structure is absent from every sample; an MC Dice pair scores 1 when
    both masks are empty and 0 when exactly one is. Mean uncertainty is
    None when the consensus has no voxel of the structure.

    The consensus and uncertainty map are returned on the report as
    ``consensus`` and ``uncertainty``. A label-only set has an all-zero
    map, so its summary is 0.0 and ``uncertainty`` is None; call
    :func:`voxel_uncertainty` for the map itself.
    """
    require_valid(sample_set)
    registry, geometry = sample_set.registry, sample_set.geometry
    if gt is not None:
        if gt.geometry != geometry:
            raise ValidationError(
                f"ground-truth {gt.geometry} do not match sample set geometry {geometry}")
        unknown = gt.check_labels(registry)
        if unknown:
            raise ValidationError(f"ground-truth label ids {unknown} not in registry")

    inter, (cons_counts, gt_counts, agree_counts), consensus = _count_labels(sample_set, gt)
    label_only = sample_set.probs is None
    # the uncertainty map of a label-only set is all zero; not built
    unc = None if label_only else voxel_uncertainty(sample_set, normalize=normalize)
    vox = geometry.voxel_volume

    # a label-only set's structure means are zero and need no masks;
    # otherwise the per-structure masks select from the C-ordered map, and
    # matching its layout keeps that selection a sequential scan
    cons_c = None if label_only else np.ascontiguousarray(consensus.data)
    n = sample_set.n
    rows = []
    for k, (label_id, name) in enumerate(registry.entries):
        if label_id == registry.background_id:
            continue
        sizes = inter[:, :, k].diagonal()
        vols = sizes * vox
        mean_v = float(vols.mean())
        std_v = float(vols.std(ddof=1))
        if mean_v == 0.0:
            cv = None
            pair_mean = None
        else:
            cv = std_v / mean_v
            scores = [
                _pair_dice(int(sizes[i]), int(sizes[j]), int(inter[i, j, k]))
                for i in range(n)
                for j in range(i + 1, n)
            ]
            pair_mean = sum(scores) / len(scores)
        if not cons_counts[k]:
            mean_unc = None
        elif label_only:
            mean_unc = 0.0
        else:
            mean_unc = float(unc[cons_c == label_id].mean())
        rows.append(StructureMetrics(
            label_id=label_id,
            name=name,
            mean_volume=mean_v,
            std_volume=std_v,
            cv=cv,
            mc_dice=pair_mean,
            mean_uncertainty=mean_unc,
            consensus_volume=float(cons_counts[k]) * vox,
            gt_dice=(
                _pair_dice(int(cons_counts[k]), int(gt_counts[k]), int(agree_counts[k]))
                if gt is not None
                else None
            ),
        ))

    # one zero voxel has the min, mean and max of an all-zero map
    values = np.zeros(1) if label_only else unc
    return StructureReport(
        structures=tuple(rows),
        n_samples=n,
        uncertainty_min=float(values.min()),
        uncertainty_mean=float(values.mean()),
        uncertainty_max=float(values.max()),
        normalized_uncertainty=normalize,
        scan_id=scan_id,
        dataset=dataset,
        consensus=consensus,
        uncertainty=unc,
    )
