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
counts) and the majority vote that is the consensus of label-only sets.
It runs in fixed chunks of contiguous voxels on a pool of ``SEGQC_THREADS``
threads (default: 2); counts add exactly and each voxel's vote is its
own, so neither the chunk size nor the thread count can change a result.
The entropy map
and the mean-probability consensus come from the sample set's one pass
over its probability maps (:attr:`~segqc.volumes.McSampleSet.prob_pass`),
which loads each sample's maps once and never holds them all.

All functions are pure and deterministic: floating-point reductions run
in a fixed order (ascending sample index, registry order over structures),
so repeated runs are bit-identical.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import xlogy

from .volumes import (
    _UINT16_MAX,
    LabelVolume,
    McSampleSet,
    StructureRegistry,
    ValidationError,
    VoxelGeometry,
    _read_only,
    require_valid,
)

# Voxels per chunk of the counting pass: its masks, disagreement stack and
# vote counters stay near the CPU cache, np.bincount's intp copies at 16 MB.
# A chunk counts its consensus and ground truth in _SLICEs: copies of 2 MB.
_CHUNK = 1 << 21
_SLICE = 1 << 18

# Threads of the counting pass when SEGQC_THREADS is unset. Each holds its
# own chunk buffers, about 30 MB at N = 15, so the default stays small
# whatever the host's CPU count.
_COUNT_THREADS = 2


def _thread_cap(default: int) -> int:
    """Worker threads allowed by SEGQC_THREADS, ``default`` when unset."""
    raw = os.environ.get("SEGQC_THREADS", "")
    if not raw:
        return default
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(f"SEGQC_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValidationError(f"SEGQC_THREADS must be >= 1, got {n}")
    return n


@dataclass(frozen=True)
class UncertaintyVolume:
    """Per-voxel uncertainty: non-negative, finite, zero where all samples
    are unanimous one-hot."""

    geometry: VoxelGeometry
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != self.geometry.dims:
            raise ValidationError(
                f"uncertainty shape {arr.shape} does not match dims {self.geometry.dims}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("uncertainty values must be finite")
        if arr.size and float(arr.min()) < 0.0:
            raise ValidationError("uncertainty values must be non-negative")
        object.__setattr__(self, "values", _read_only(arr))


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
    uncertainty: UncertaintyVolume | None = field(default=None, repr=False, compare=False)

    def by_id(self, label_id: int) -> StructureMetrics:
        for s in self.structures:
            if s.label_id == label_id:
                return s
        raise KeyError(f"no structure with label id {label_id} in report")


def _registry_counts(values: np.ndarray, registry: StructureRegistry,
                     step: int = _CHUNK) -> np.ndarray:
    """Voxels of each registry label among ``values``, by registry position,
    counted in ``step`` slices to keep np.bincount's intp copy small."""
    ids = list(registry.ids)
    counts = np.zeros(len(ids), dtype=np.int64)
    for start in range(0, values.size, step):
        counts += np.bincount(values[start:start + step], minlength=registry.max_id + 1)[ids]
    return counts


def _count_chunk(flats: list[np.ndarray], registry: StructureRegistry, rank: np.ndarray,
                 cons: np.ndarray, gt: np.ndarray | None, by_rank: np.ndarray | None,
                 start: int) -> tuple:
    """Counting pass over voxels ``start:start + _CHUNK`` of ``flats``.

    Returns its partials of ``_count_labels``' ``inter`` and ``counts``,
    first writing its majority labels into ``cons`` when ``by_rank`` is
    given. ``rank`` maps each label id to its rank among the registry ids
    in ascending order, and ``by_rank`` maps a rank back to its id.
    """
    n = len(flats)
    vote = by_rank is not None
    parts = [arr[start:start + _CHUNK] for arr in flats]
    base = parts[0]
    agree = np.ones(base.shape, dtype=bool)
    for arr in parts[1:]:
        agree &= arr == base
    base_counts = _registry_counts(base[agree], registry)
    dis = np.flatnonzero(~agree)
    del agree
    # disagreement labels as ranks: equal and ordered like the labels, but
    # K values wide, so every pair count is a K-long bincount whatever the
    # largest id, and the compares below touch one byte a voxel for K <= 256
    stacked = np.stack([rank[arr[dis]] for arr in parts])
    order = rank[list(registry.ids)]

    votes = np.ones(stacked.shape, dtype=np.min_scalar_type(n)) if vote else None
    inter = np.empty((n, n, len(order)), dtype=np.int64)
    for i in range(n):
        inter[i, i] = base_counts + np.bincount(stacked[i], minlength=len(order))[order]
        for j in range(i + 1, n):
            eq = stacked[i] == stacked[j]
            if vote:
                votes[i] += eq
                votes[j] += eq
            inter[i, j] = inter[j, i] = (
                base_counts + np.bincount(stacked[i][eq], minlength=len(order))[order])

    out = cons[start:start + _CHUNK]
    if vote:
        # samples sharing a label share its vote count, so the most-voted
        # sample's label is the majority; ascending samples with strict
        # comparisons keep the lowest id on ties
        best, best_votes = stacked[0].copy(), votes[0].copy()
        for i in range(1, n):
            better = (votes[i] > best_votes) | ((votes[i] == best_votes) & (stacked[i] < best))
            best[better] = stacked[i][better]
            best_votes[better] = votes[i][better]
        out[...] = base
        out[dis] = by_rank[best]
    # free the pair buffers first, so a thread's peak stays its pair loop's
    del stacked, votes, dis
    counts = np.zeros((3, len(order)), dtype=np.int64)
    counts[0] = _registry_counts(out, registry, _SLICE)
    if gt is not None:
        truth = gt[start:start + _CHUNK]
        counts[1] = _registry_counts(truth, registry, _SLICE)
        counts[2] = _registry_counts(out[out == truth], registry, _SLICE)
    return inter, counts


def _count_labels(sample_set: McSampleSet, gt: LabelVolume | None = None) -> tuple:
    """The one counting pass behind every structure metric.

    Returns ``inter``, of shape (N, N, K) with K the registry length: the
    voxels where samples i and j both carry the label at registry position
    k, so the diagonal holds each sample's own label counts. ``counts``,
    of shape (3, K), holds the label counts of the consensus, of ``gt`` and
    of the voxels where the two agree (zero rows without ``gt``). Last
    comes the consensus: :func:`consensus_segmentation` for a set with
    maps, else the per-voxel majority label, ties to the lowest id.

    Voxels where all samples agree are counted once and credited to every
    sample and pair, so only disagreement voxels are touched per pair. One
    equality mask per pair feeds both that pair's intersections and, for a
    label-only set, the vote counter, where ``votes[i]`` is the number of
    samples carrying sample i's label, itself included. The arithmetic is
    pure integer counting and matches a per-voxel enumeration exactly.

    The pass runs in chunks of ``_CHUNK`` contiguous voxels (x-fastest) on
    a pool of up to ``SEGQC_THREADS`` threads. Each chunk's counts are a
    partial sum of integers and its votes depend only on its own voxels,
    so the sum of the partials, taken in chunk order, and the vote are the
    same for any chunk size and any thread count.
    """
    # x-fastest like LabelVolume.flat: a view, not a copy, of volumes read
    # from NIfTI files
    flats = [sample_set.sample_labels(i).reshape(-1, order="F") for i in range(sample_set.n)]
    registry = sample_set.registry
    vote = sample_set.kind == "labels"
    consensus = None if vote else consensus_segmentation(sample_set)
    # the vote is always some sample's label, so no wider than the samples
    top = min(registry.max_id, max(np.iinfo(f.dtype).max for f in flats))
    dtype = np.uint16 if top <= _UINT16_MAX else np.int64
    cons = np.empty(flats[0].size, dtype) if vote else consensus.flat
    ids = sorted(registry.ids)  # a valid set's labels are all registry ids
    rank = np.zeros(registry.max_id + 1, dtype=np.min_scalar_type(len(ids) - 1))
    rank[ids] = np.arange(len(ids))
    # in the vote's dtype; an id past it is on no sample, so no vote picks it
    by_rank = np.minimum(ids, top).astype(dtype) if vote else None
    starts = range(0, cons.size, _CHUNK)
    count = partial(_count_chunk, flats, registry, rank, cons,
                    None if gt is None else gt.flat, by_rank)
    with ThreadPoolExecutor(max_workers=min(_thread_cap(_COUNT_THREADS), len(starts))) as pool:
        inter, counts = map(sum, zip(*pool.map(count, starts)))
    if vote:
        cons.flags.writeable = False
        consensus = _consensus_volume(sample_set.geometry,
                                      cons.reshape(sample_set.geometry.dims, order="F"))
    return inter, counts, consensus


def _consensus_volume(geometry: VoxelGeometry, data: np.ndarray) -> LabelVolume:
    """Consensus labels stored as uint16 whenever every id fits."""
    if data.dtype != np.uint16 and data.max(initial=0) <= _UINT16_MAX:
        data = data.astype(np.uint16)
    data.flags.writeable = False  # never written again: LabelVolume keeps it
    return LabelVolume(geometry=geometry, data=data)


def voxel_uncertainty(sample_set: McSampleSet, normalize: bool = False) -> UncertaintyVolume:
    """Voxel-wise uncertainty map from the per-sample probability maps.

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
    if sample_set.kind == "labels":
        values = np.zeros(sample_set.geometry.dims, dtype=np.float64)
    else:
        values = sample_set.prob_pass.entropy  # read-only: shared, not copied
    if normalize:
        values = values / sample_set.n
    values.flags.writeable = False  # handed over whole: no defensive copy
    return UncertaintyVolume(geometry=sample_set.geometry, values=values)


def structure_uncertainty(sample_set: McSampleSet, label_id: int) -> np.ndarray:
    """Single-structure uncertainty volume: sum over samples of -p*ln(p).

    Bounded by N/e per voxel (each term peaks at 1/e when p = 1/e).
    """
    require_valid(sample_set)
    if label_id not in sample_set.registry:
        raise ValidationError(f"label id {label_id} not in registry")
    values = np.zeros(sample_set.geometry.dims, dtype=np.float64)
    if sample_set.kind == "labels":
        return values
    k = sample_set.registry.ids.index(label_id)
    for s in sample_set.samples:
        p = s.probs.load_map(k)
        values -= xlogy(p, p, dtype=np.float64)
    np.maximum(values, 0.0, out=values)
    return values


def consensus_segmentation(sample_set: McSampleSet) -> LabelVolume:
    """Final segmentation: argmax of the MC-mean probability map.

    For label-only sets this reduces to a per-voxel majority vote. Ties
    go to the lowest label id, which is deterministic and independent of
    sample order. The mean map is read from the set's memoised pass over
    its maps.
    """
    require_valid(sample_set)
    if sample_set.kind == "labels":
        return _count_labels(sample_set)[2]
    return _consensus_volume(sample_set.geometry, sample_set.prob_pass.consensus)


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
    gives 0.
    """
    if seg.geometry != reference.geometry:
        raise ValidationError(
            f"geometry mismatch: {seg.geometry.dims} vs {reference.geometry.dims}"
        )
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

    CV and MC Dice follow each sample's labels (argmax labels for
    probability-only sets) and are None when the structure is absent from
    every sample; an MC Dice pair scores 1 when both masks are empty and 0
    when exactly one is. Mean uncertainty is None when the consensus has
    no voxel of the structure.

    The consensus and uncertainty map are returned on the report as
    ``consensus`` and ``uncertainty``. A label-only set has an all-zero
    map, so its summary is 0.0 and ``uncertainty`` is None; call
    :func:`voxel_uncertainty` for the map itself.
    """
    require_valid(sample_set)
    registry = sample_set.registry
    if gt is not None:
        if gt.geometry != sample_set.geometry:
            raise ValidationError("ground-truth geometry does not match the sample set")
        unknown = gt.check_labels(registry)
        if unknown:
            raise ValidationError(f"ground-truth label ids {unknown} not in registry")

    inter, (cons_counts, gt_counts, agree_counts), consensus = _count_labels(sample_set, gt)
    label_only = sample_set.kind == "labels"
    # the uncertainty map of a label-only set is all zero; not built
    unc = None if label_only else voxel_uncertainty(sample_set, normalize=normalize)
    vox = sample_set.geometry.voxel_volume

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
            mean_unc = float(unc.values[cons_c == label_id].mean())
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
    values = np.zeros(1) if label_only else unc.values
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
