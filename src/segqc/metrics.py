"""Uncertainty and agreement metrics over MC segmentation sample sets.

Implements the voxel-wise uncertainty map (per-structure entropy terms
summed over samples and structures), three structure-wise uncertainty
measures, consensus segmentation, and Dice overlap:

* volume CV       -- coefficient of variation of a structure's volume
                     across samples (sample std over mean).
* mc_dice         -- mean pairwise Dice agreement of a structure across
                     all unordered sample pairs.
* mean uncertainty -- mean of the voxel-wise uncertainty map over the
                     voxels the consensus assigns to a structure.

All functions are pure and deterministic: floating-point reductions run
in a fixed order (ascending sample index, registry order over structures),
so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from .volumes import (
    LabelVolume,
    McSampleSet,
    StructureRegistry,
    ValidationError,
    VoxelGeometry,
    _read_only,
    require_valid,
)

# Dense per-label counting arrays are sized max_id + 1; anything beyond
# this is almost certainly a corrupt registry, not a real label table.
_MAX_DENSE_LABEL = 1 << 20


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
    write them need not recompute either; a report read back from JSON
    has neither.
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


def _check_dense_ids(registry: StructureRegistry) -> int:
    max_id = registry.max_id
    if max_id > _MAX_DENSE_LABEL:
        raise ValidationError(f"registry label ids too large for dense counting ({max_id})")
    return max_id


def _flat_labels(sample_set: McSampleSet) -> list[np.ndarray]:
    # x-fastest like LabelVolume.flat: a view, not a copy, of volumes read
    # from NIfTI files
    return [sample_set.sample_labels(i).reshape(-1, order="F") for i in range(sample_set.n)]


def _present_labels(stacked: np.ndarray) -> list[int]:
    """Ascending distinct values of a non-negative integer stack.

    One bincount per row: a bincount of the whole stack would first make
    an intp copy of all of it.
    """
    seen = np.zeros(int(stacked.max()) + 1, dtype=bool)
    for row in stacked:
        seen |= np.bincount(row, minlength=seen.size) > 0
    return np.flatnonzero(seen).tolist()


def voxel_uncertainty(sample_set: McSampleSet, normalize: bool = False) -> UncertaintyVolume:
    """Voxel-wise uncertainty map from the per-sample probability maps.

    Per structure the contribution is the sum over samples of -p*ln(p)
    (natural log, with 0*ln(0) = 0); the map is the sum over all registry
    structures, background included. Label-only sets are treated through
    their indicator maps, whose terms all vanish, so they yield an exactly
    zero map without materializing the one-hot stacks.

    With ``normalize`` the map is divided by the sample count, making
    values comparable across sets of different size; off by default.
    """
    require_valid(sample_set)
    if sample_set.n < 2:
        raise ValidationError(f"need N >= 2 samples, got {sample_set.n}")
    dims = sample_set.geometry.dims
    values = np.zeros(dims, dtype=np.float64)
    if sample_set.kind != "labels":
        for i in range(sample_set.n):
            maps = sample_set.samples[i].probs.maps
            for k in range(maps.shape[0]):
                p = maps[k].astype(np.float64, copy=False)
                values -= xlogy(p, p)
        # -p*ln(p) is non-negative for p in [0, 1]; clip float dust at 0
        np.maximum(values, 0.0, out=values)
    if normalize:
        values /= sample_set.n
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
    for i in range(sample_set.n):
        p = sample_set.samples[i].probs.maps[k].astype(np.float64, copy=False)
        values -= xlogy(p, p)
    np.maximum(values, 0.0, out=values)
    return values


def _majority_vote(flat_labels: list[np.ndarray]) -> np.ndarray:
    """Per-voxel most frequent label; ties resolved to the lowest label id."""
    base = flat_labels[0]
    agree = np.ones(base.shape, dtype=bool)
    for arr in flat_labels[1:]:
        agree &= arr == base
    out = base.astype(np.int64, copy=True)
    dis = np.flatnonzero(~agree)
    if dis.size:
        stacked = np.stack([arr[dis] for arr in flat_labels])
        best_count = np.zeros(dis.size, dtype=np.int32)
        best_label = np.zeros(dis.size, dtype=np.int64)
        for lab in _present_labels(stacked):  # ascending, so strict > keeps lowest id
            cnt = (stacked == lab).sum(axis=0, dtype=np.int32)
            better = cnt > best_count
            best_count[better] = cnt[better]
            best_label[better] = lab
        out[dis] = best_label
    return out


def consensus_segmentation(sample_set: McSampleSet) -> LabelVolume:
    """Final segmentation: argmax of the MC-mean probability map.

    For label-only sets this reduces to a per-voxel majority vote. Ties
    go to the lowest label id, which is deterministic and independent of
    sample order.
    """
    require_valid(sample_set)
    registry = sample_set.registry
    _check_dense_ids(registry)
    dims = sample_set.geometry.dims
    if sample_set.kind == "labels":
        flat = _majority_vote(_flat_labels(sample_set))
        data = flat.reshape(dims, order="F")
    else:
        # Stream per structure in ascending-id order; strict > keeps the
        # lowest id on exact ties. Mean over samples in ascending order.
        order = sorted(range(len(registry.ids)), key=lambda k: registry.ids[k])
        best_val = np.full(dims, -np.inf, dtype=np.float64)
        best_id = np.zeros(dims, dtype=np.int64)
        for k in order:
            acc = np.zeros(dims, dtype=np.float64)
            for i in range(sample_set.n):
                acc += sample_set.samples[i].probs.maps[k]
            acc /= sample_set.n
            better = acc > best_val
            best_val[better] = acc[better]
            best_id[better] = registry.ids[k]
        data = best_id
    if data.max(initial=0) <= np.iinfo(np.uint16).max:
        data = data.astype(np.uint16)
        data.flags.writeable = False  # a fresh array: LabelVolume keeps it
    return LabelVolume(geometry=sample_set.geometry, data=data)


def sample_structure_volumes(sample_set: McSampleSet) -> np.ndarray:
    """Per-sample volume of every registry id, in mm^3.

    Returns an (N, max_id + 1) array indexed by label id; entries for ids
    not in the registry are zero. Volumes come from each sample's own
    labels (argmax labels for probability-only sets).
    """
    require_valid(sample_set)
    max_id = _check_dense_ids(sample_set.registry)
    vox = sample_set.geometry.voxel_volume
    out = np.zeros((sample_set.n, max_id + 1), dtype=np.float64)
    for i, flat in enumerate(_flat_labels(sample_set)):
        out[i] = np.bincount(flat, minlength=max_id + 1) * vox
    return out


def cv_volume(sample_set: McSampleSet, label_id: int) -> float | None:
    """Coefficient of variation of a structure's volume across samples.

    Sample standard deviation (N-1 divisor) over the mean. Returns None
    when the structure is absent from every sample (zero mean volume).
    """
    require_valid(sample_set)
    if label_id not in sample_set.registry:
        raise ValidationError(f"label id {label_id} not in registry")
    vox = sample_set.geometry.voxel_volume
    vols = np.array(
        [np.count_nonzero(lab == label_id) * vox for lab in _flat_labels(sample_set)]
    )
    mean = float(vols.mean())
    if mean == 0.0:
        return None
    return float(vols.std(ddof=1) / mean)


def _pair_dice(size_a: int, size_b: int, inter: int) -> float:
    # Both masks empty: perfect agreement on absence. Exactly one empty:
    # no overlap is possible, score 0.
    if size_a == 0 and size_b == 0:
        return 1.0
    if size_a == 0 or size_b == 0:
        return 0.0
    return 2.0 * inter / (size_a + size_b)


def mc_dice(sample_set: McSampleSet, label_id: int) -> float | None:
    """Mean Dice agreement of one structure over all unordered sample pairs.

    A pair where both masks are empty scores 1, a pair with exactly one
    empty mask scores 0. Returns None when the structure is absent from
    every sample. Invariant under permutation of the samples.
    """
    require_valid(sample_set)
    if sample_set.n < 2:
        raise ValidationError(f"need N >= 2 samples, got {sample_set.n}")
    if label_id not in sample_set.registry:
        raise ValidationError(f"label id {label_id} not in registry")
    masks = [lab == label_id for lab in _flat_labels(sample_set)]
    sizes = [int(np.count_nonzero(m)) for m in masks]
    if not any(sizes):
        return None
    scores = []
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            inter = int(np.count_nonzero(masks[i] & masks[j]))
            scores.append(_pair_dice(sizes[i], sizes[j], inter))
    return sum(scores) / len(scores)


def mean_structure_uncertainty(
    sample_set: McSampleSet,
    consensus: LabelVolume,
    uncertainty: UncertaintyVolume,
    label_id: int,
) -> float | None:
    """Mean voxel uncertainty over the voxels the consensus labels as the
    structure; None when the consensus contains no such voxel."""
    if consensus.geometry != sample_set.geometry:
        raise ValidationError("consensus geometry does not match the sample set")
    if uncertainty.geometry != sample_set.geometry:
        raise ValidationError("uncertainty geometry does not match the sample set")
    if label_id not in sample_set.registry:
        raise ValidationError(f"label id {label_id} not in registry")
    mask = consensus.data == label_id
    if not mask.any():
        return None
    return float(uncertainty.values[mask].mean())


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


def _pairwise_structure_counts(
    flat_labels: list[np.ndarray], max_id: int
) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Shared counting pass behind the per-scan report.

    Returns per-sample label counts of shape (N, max_id + 1) and, for each
    label present anywhere, (sizes over samples, pairwise intersection
    matrix). Voxels where all samples agree are counted once and credited
    to every sample and pair, so only disagreement voxels are touched per
    pair; the arithmetic is pure integer counting and matches a naive
    pairwise enumeration exactly.
    """
    n = len(flat_labels)
    base = flat_labels[0]
    agree = np.ones(base.shape, dtype=bool)
    for arr in flat_labels[1:]:
        agree &= arr == base
    base_counts = np.bincount(base[agree], minlength=max_id + 1).astype(np.int64)
    dis = np.flatnonzero(~agree)
    counts = np.empty((n, max_id + 1), dtype=np.int64)
    if dis.size:
        stacked = np.stack([arr[dis] for arr in flat_labels])
        for i in range(n):
            counts[i] = base_counts + np.bincount(stacked[i], minlength=max_id + 1)
    else:
        stacked = None
        for i in range(n):
            counts[i] = base_counts
    # labels on any disagreement voxel: where some row's own bincount is nonzero
    present = np.flatnonzero((counts != base_counts).any(axis=0))

    per_label: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    seen = set(present.tolist())
    for lab in sorted(set(int(v) for v in np.flatnonzero(base_counts)) | seen):
        inter = np.full((n, n), base_counts[lab], dtype=np.int64)
        if stacked is not None and lab in seen:
            eq = stacked == lab
            cols = eq.any(axis=0)
            sub = eq[:, cols]
            for i in range(n):
                for j in range(i + 1, n):
                    both = int(np.count_nonzero(sub[i] & sub[j]))
                    inter[i, j] += both
                    inter[j, i] += both
        per_label[lab] = (counts[:, lab].copy(), inter)
    return counts, per_label


def structure_report(
    sample_set: McSampleSet,
    gt: LabelVolume | None = None,
    normalize: bool = False,
    scan_id: str = "",
    dataset: str = "",
) -> StructureReport:
    """Full per-scan report: consensus, uncertainty map summary, and all
    per-structure metrics; Dice against ground truth when one is given.

    The consensus and uncertainty map are returned on the report as
    ``consensus`` and ``uncertainty``.
    """
    require_valid(sample_set)
    if sample_set.n < 2:
        raise ValidationError(f"need N >= 2 samples, got {sample_set.n}")
    registry = sample_set.registry
    max_id = _check_dense_ids(registry)
    if gt is not None:
        if gt.geometry != sample_set.geometry:
            raise ValidationError("ground-truth geometry does not match the sample set")
        unknown = gt.check_labels(registry)
        if unknown:
            raise ValidationError(f"ground-truth label ids {unknown} not in registry")

    consensus = consensus_segmentation(sample_set)
    unc = voxel_uncertainty(sample_set, normalize=normalize)
    flats = _flat_labels(sample_set)
    counts, per_label = _pairwise_structure_counts(flats, max_id)
    vox = sample_set.geometry.voxel_volume

    cons_flat = consensus.flat
    cons_counts = np.bincount(cons_flat, minlength=max_id + 1)
    if gt is not None:
        gt_flat = gt.flat
        gt_counts = np.bincount(gt_flat, minlength=max_id + 1)
        match = cons_flat == gt_flat
        inter_counts = np.bincount(cons_flat[match], minlength=max_id + 1)

    # the per-structure masks select from the C-ordered uncertainty map;
    # matching its layout keeps that selection a sequential scan
    cons_c = np.ascontiguousarray(consensus.data)
    n = sample_set.n
    rows = []
    for label_id, name in registry.foreground:
        vols = counts[:, label_id] * vox
        mean_v = float(vols.mean())
        std_v = float(vols.std(ddof=1))
        if mean_v == 0.0:
            cv = None
            pair_mean = None
        else:
            cv = std_v / mean_v
            sizes, inter = per_label.get(label_id, (np.zeros(n, dtype=np.int64), None))
            scores = []
            for i in range(n):
                for j in range(i + 1, n):
                    both = int(inter[i, j]) if inter is not None else 0
                    scores.append(_pair_dice(int(sizes[i]), int(sizes[j]), both))
            pair_mean = sum(scores) / len(scores)
        if cons_counts[label_id]:
            mean_unc = float(unc.values[cons_c == label_id].mean())
        else:
            mean_unc = None
        row = StructureMetrics(
            label_id=label_id,
            name=name,
            mean_volume=mean_v,
            std_volume=std_v,
            cv=cv,
            mc_dice=pair_mean,
            mean_uncertainty=mean_unc,
            consensus_volume=float(cons_counts[label_id]) * vox,
            gt_dice=(
                _pair_dice(
                    int(cons_counts[label_id]),
                    int(gt_counts[label_id]),
                    int(inter_counts[label_id]),
                )
                if gt is not None
                else None
            ),
        )
        rows.append(row)

    return StructureReport(
        structures=tuple(rows),
        n_samples=n,
        uncertainty_min=float(unc.values.min()),
        uncertainty_mean=float(unc.values.mean()),
        uncertainty_max=float(unc.values.max()),
        normalized_uncertainty=normalize,
        scan_id=scan_id,
        dataset=dataset,
        consensus=consensus,
        uncertainty=unc,
    )
