"""Domain types for label volumes, structure registries, and MC sample sets.

All types are immutable after construction. Construction checks each
part on its own (shapes, dtypes, registry ids); the rules that relate
the parts of a sample set are :func:`validate_sample_set`'s, which lists
every violation instead of stopping at the first. Because a set and all
its parts are immutable, that report is computed once and memoised
(:attr:`McSampleSet.violations`): :func:`segqc.io.read_sample_set`
raises it when a set is read, and metric operations refuse to run on an
invalid set. So is the one pass over its probability maps that both
validation and the metrics read (:attr:`McSampleSet.prob_pass`): each
sample's maps are loaded once, in ascending sample order, and folded
into float64 sums, so no (N, K, x, y, z) stack is ever held.

Voxel data is stored as 3-D numpy arrays indexed ``[x, y, z]``; the flat
(serialized) order is x-fastest, matching the on-disk layout used by the
io module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.special import xlogy

# Tolerance on per-voxel probability sums: generous enough for float32
# sums over a few dozen maps, far below any real segmentation difference.
PROB_SUM_TOL = 1e-4
_UINT16_MAX = np.iinfo(np.uint16).max
# Per-label counts are dense arrays of max_id + 1 entries; an id beyond
# this is a corrupt registry, not a real label table.
_MAX_LABEL_ID = 1 << 20


class ValidationError(ValueError):
    """An input violates a structural invariant."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself if no writeable alias of its memory can exist, else a
    read-only private copy.

    An array is kept when it and every array it views are read-only and
    the memory underneath is either owned by one of them or an immutable
    ``bytes`` object (a decoded file). Anything else -- a writeable array,
    a view of one, or foreign memory such as a ``bytearray`` -- is copied.
    """
    base = arr
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            break
        base = base.base
    else:
        if base is None or isinstance(base, bytes):
            return arr
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class VoxelGeometry:
    """Grid shape and physical voxel size of a volume.

    dims    -- voxels per axis (x, y, z)
    spacing -- millimetres per voxel along each axis
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        if len(self.dims) != 3 or len(self.spacing) != 3:
            raise ValidationError("geometry needs exactly 3 dims and 3 spacings")
        if any(d < 1 for d in self.dims):
            raise ValidationError(f"all dims must be >= 1, got {self.dims}")
        if any(not np.isfinite(s) or s <= 0 for s in self.spacing):
            raise ValidationError(f"all spacings must be positive and finite, got {self.spacing}")

    @property
    def n_voxels(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def voxel_volume(self) -> float:
        """Volume of one voxel in mm^3."""
        return self.spacing[0] * self.spacing[1] * self.spacing[2]


@dataclass(frozen=True)
class StructureRegistry:
    """Ordered map of label ids to structure names.

    The background label is a registry entry like any other but is excluded
    from all structure-wise metrics.
    """

    entries: tuple[tuple[int, str], ...]
    background_id: int

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple((int(i), str(n)) for i, n in self.entries)
        )
        ids = [i for i, _ in self.entries]
        names = [n for _, n in self.entries]
        if any(i < 0 for i in ids):
            raise ValidationError("label ids must be non-negative")
        if max(ids, default=0) > _MAX_LABEL_ID:
            raise ValidationError(f"label id {max(ids)} exceeds the maximum {_MAX_LABEL_ID}")
        if len(set(ids)) != len(ids):
            raise ValidationError("label ids must be unique")
        if len(set(names)) != len(names):
            raise ValidationError("structure names must be unique")
        if self.background_id not in ids:
            raise ValidationError(f"background id {self.background_id} missing from entries")
        if len(ids) < 2:
            raise ValidationError("registry needs at least one non-background structure")

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    @property
    def foreground(self) -> tuple[tuple[int, str], ...]:
        """Entries excluding background, in registry order."""
        return tuple((i, n) for i, n in self.entries if i != self.background_id)

    @property
    def max_id(self) -> int:
        return max(self.ids)

    def name_of(self, label_id: int) -> str:
        for i, n in self.entries:
            if i == label_id:
                return n
        raise KeyError(f"label id {label_id} not in registry")

    def __contains__(self, label_id: int) -> bool:
        return label_id in self.ids


@dataclass(frozen=True)
class LabelVolume:
    """Dense 3-D map of integer label ids."""

    geometry: VoxelGeometry
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.data)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValidationError(f"label data must be integer, got dtype {arr.dtype}")
        if arr.shape != self.geometry.dims:
            raise ValidationError(
                f"label data shape {arr.shape} does not match dims {self.geometry.dims}"
            )
        object.__setattr__(self, "data", _read_only(arr))

    @property
    def flat(self) -> np.ndarray:
        """Label ids in serialized (x-fastest) order."""
        return self.data.reshape(-1, order="F")

    def check_labels(self, registry: StructureRegistry) -> list[int]:
        """Label ids present in the volume but absent from the registry, sorted.

        A min/max test settles the common case; when the registry has gaps
        inside the volume's value range, a lookup table over that range
        tests every voxel. ``np.unique`` only runs to name unknown ids once
        some are known to exist.
        """
        lo, hi = int(self.data.min()), int(self.data.max())
        if lo >= 0 and hi <= registry.max_id:
            known = np.zeros(hi + 1, dtype=bool)
            known[[i for i in registry.ids if i <= hi]] = True
            if known[lo:].all():
                return []
            if hi < self.data.size and known[self.data].all():
                return []
        ids = set(registry.ids)
        return [int(v) for v in np.unique(self.data) if int(v) not in ids]


@dataclass(frozen=True)
class ProbMapStack:
    """Per-structure probability volumes for one MC sample.

    ``maps[k]`` is the probability volume for ``label_ids[k]``; the stack
    covers every registry entry, background included. Per voxel the maps
    are expected to sum to 1 within PROB_SUM_TOL -- checked by
    :meth:`violations`, not at construction.
    """

    geometry: VoxelGeometry
    label_ids: tuple[int, ...]
    maps: np.ndarray = field(repr=False)  # shape (n_labels, *dims)

    def __post_init__(self):
        arr = np.asarray(self.maps)
        if arr.ndim != 4 or arr.shape[0] != len(self.label_ids):
            raise ValidationError(
                f"expected maps of shape (n_labels, x, y, z), got {arr.shape} "
                f"for {len(self.label_ids)} labels"
            )
        if arr.shape[1:] != self.geometry.dims:
            raise ValidationError(
                f"map shape {arr.shape[1:]} does not match dims {self.geometry.dims}"
            )
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
            arr.flags.writeable = False
        object.__setattr__(self, "maps", _read_only(arr))
        object.__setattr__(self, "label_ids", tuple(int(i) for i in self.label_ids))

    def load_map(self, k: int) -> np.ndarray:
        """The map of ``label_ids[k]``.

        A stack backed by files (see :func:`segqc.io.read_sample_set`)
        decodes that one file on every call and keeps nothing.
        """
        return self.maps[k]

    def load_maps(self) -> Sequence[np.ndarray]:
        """The K maps of :meth:`load_map`, in ``label_ids`` order."""
        return [self.load_map(k) for k in range(len(self.label_ids))]

    def violations(self) -> list[str]:
        """Rule violations in this stack; empty list means valid."""
        return _map_checks(self.load_maps())


def _map_checks(maps: Sequence[np.ndarray]) -> list[str]:
    """Normalisation messages for one sample's maps, visited once each.

    Each map's min and max propagate NaN and reach any infinity, so they
    settle finiteness too. The per-voxel sum adds the maps in list order
    into float64, the order of a sum over the stack's first axis.
    """
    bounds = [(float(m.min()), float(m.max())) for m in maps]
    if not np.isfinite(bounds).all():
        return ["probability maps contain non-finite values"]
    lo = min(b[0] for b in bounds)
    hi = max(b[1] for b in bounds)
    out = []
    if lo < 0.0 or hi > 1.0:
        out.append(f"probability values outside [0, 1] (range {lo:g}..{hi:g})")
    total = np.zeros_like(maps[0], dtype=np.float64)
    for m in maps:
        total += m
    total -= 1.0
    err = float(np.abs(total).max())
    if err > PROB_SUM_TOL:
        out.append(
            f"per-voxel probability sums deviate from 1 by up to {err:g} "
            f"(tolerance {PROB_SUM_TOL:g})"
        )
    return out


def _argmax_labels(maps: Sequence[np.ndarray], label_ids: Sequence[int]) -> np.ndarray:
    """Label id of the largest map per voxel, ties to the lowest id.

    A running maximum over the maps in ascending-id order with strict
    ``>``, so the first maximum -- the lowest id -- is kept without any
    (K, x, y, z) temporary. Ids are uint16 when they all fit, else int64.
    """
    order = sorted(range(len(label_ids)), key=label_ids.__getitem__)
    fits = 0 <= min(label_ids) and max(label_ids) <= _UINT16_MAX
    best = np.array(maps[order[0]], dtype=np.result_type(*(m.dtype for m in maps)), order="K")
    ids = np.full_like(best, label_ids[order[0]], dtype=np.uint16 if fits else np.int64)
    for k in order[1:]:
        better = maps[k] > best
        np.copyto(best, maps[k], where=better)
        np.copyto(ids, label_ids[k], where=better)
    return ids


@dataclass(frozen=True)
class McSample:
    """One MC segmentation sample: labels, probability maps, or both."""

    labels: LabelVolume | None = None
    probs: ProbMapStack | None = None

    def __post_init__(self):
        if self.labels is None and self.probs is None:
            raise ValidationError("a sample needs labels, probability maps, or both")

    @property
    def kind(self) -> str:
        if self.labels is not None and self.probs is not None:
            return "both"
        return "labels" if self.labels is not None else "probs"


@dataclass(frozen=True)
class McSampleSet:
    """Ordered collection of MC samples sharing one grid and registry."""

    geometry: VoxelGeometry
    registry: StructureRegistry
    samples: tuple[McSample, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise ValidationError("sample set must contain at least one sample")

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def kind(self) -> str:
        return self.samples[0].kind

    def sample_labels(self, i: int) -> np.ndarray:
        """Label array for sample ``i`` (argmax of its maps if label-free)."""
        s = self.samples[i]
        if s.labels is not None:
            return s.labels.data
        return self.prob_pass.labels[i]

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """The :func:`validate_sample_set` report, computed on first use."""
        return tuple(validate_sample_set(self))

    @cached_property
    def prob_pass(self) -> ProbPass:
        """The one pass over the probability maps, computed on first use."""
        return _prob_pass(self)


@dataclass(frozen=True)
class ProbPass:
    """Everything read from a sample set's probability maps in one pass.

    checks     -- per sample, its stack's normalisation messages
    mismatches -- per sample, the voxels where its labels differ from the
                  argmax of its maps (0 unless both sit on the set's grid)
    labels     -- per sample, the argmax labels of a probability-only
                  sample, else None
    entropy    -- sum over samples, then structures in registry order, of
                  -p*ln(p), clipped at 0; C-order float64
    consensus  -- argmax of the per-structure mean over samples, ties to
                  the lowest id

    ``entropy`` and ``consensus`` are None unless every sample carries
    well-formed maps for the registry on the set's grid; a set without
    them is invalid, so no metric reads them.
    """

    checks: tuple[tuple[str, ...], ...]
    mismatches: tuple[int, ...]
    labels: tuple[np.ndarray | None, ...] = field(repr=False)
    entropy: np.ndarray | None = field(repr=False)
    consensus: np.ndarray | None = field(repr=False)


def _prob_pass(sample_set: McSampleSet) -> ProbPass:
    """Load each sample's maps once, in ascending sample order, and fold
    them into float64 sums.

    Per voxel the additions run in the order of a per-structure loop
    over samples (the mean) and of a per-sample loop over structures (the
    entropy), and widening float32 to float64 is exact, so the results
    are bit-identical to summing a float64 copy of the whole set. Memory
    is K + 2 float64 volumes plus one sample's maps.
    """
    geometry = sample_set.geometry
    ids = sample_set.registry.ids
    fold = all(s.probs is not None and s.probs.geometry == geometry
               and s.probs.label_ids == ids for s in sample_set.samples)
    entropy, sums = None, None
    checks, mismatches, labels = [], [], []
    for s in sample_set.samples:
        msgs, differ, own = (), 0, None
        if s.probs is not None:
            maps = s.probs.load_maps()
            msgs = tuple(_map_checks(maps))
            best = _argmax_labels(maps, s.probs.label_ids)
            if s.labels is None:
                best.flags.writeable = False
                own = best
            elif s.labels.geometry == geometry and s.probs.geometry == geometry:
                differ = int(np.count_nonzero(s.labels.data != best))
            fold = fold and not msgs
            if fold:
                if entropy is None:
                    entropy = np.zeros_like(maps[0], dtype=np.float64)
                    sums = [np.zeros_like(m, dtype=np.float64) for m in maps]
                for k, m in enumerate(maps):
                    entropy -= xlogy(m, m, dtype=np.float64)
                    sums[k] += m
            del maps, best  # freed before the next sample is decoded
        checks.append(msgs)
        mismatches.append(differ)
        labels.append(own)

    consensus = None
    if not fold:
        entropy = None
    else:
        # -p*ln(p) is non-negative for p in [0, 1]; clip float dust at 0.
        # C order, like a fresh array: reductions over the whole map then
        # visit voxels in the same order whatever layout the files had
        np.maximum(entropy, 0.0, out=entropy)
        entropy = np.ascontiguousarray(entropy)
        entropy.flags.writeable = False
        for acc in sums:
            acc /= sample_set.n
        consensus = _argmax_labels(sums, ids)
        consensus.flags.writeable = False
    return ProbPass(tuple(checks), tuple(mismatches), tuple(labels), entropy, consensus)


@dataclass(frozen=True)
class Violation:
    """One broken rule found while validating a sample set."""

    rule: str
    message: str
    sample_index: int | None = None

    def __str__(self) -> str:
        where = "set" if self.sample_index is None else f"sample {self.sample_index}"
        return f"[{self.rule}] {where}: {self.message}"


def validate_sample_set(sample_set: McSampleSet) -> list[Violation]:
    """Check every sample-set invariant; returns one Violation per breach.

    Pure and side-effect free: repeated calls on the same set yield the
    same report. An empty report means the set is safe for all metric
    operations. The probability maps are read (:attr:`McSampleSet.prob_pass`)
    only when every label volume passes: a bad one makes the set invalid
    whatever the maps hold, so its file is refused without decoding them.
    """
    out: list[Violation] = []
    if sample_set.n < 2:
        out.append(Violation("sample_count", f"need N >= 2 samples, got {sample_set.n}"))

    kinds = {s.kind for s in sample_set.samples}
    if len(kinds) > 1:
        out.append(
            Violation("sample_kind", f"mixed sample kinds {sorted(kinds)}; must be homogeneous")
        )

    n_set_faults = len(out)
    for i, s in enumerate(sample_set.samples):
        if s.labels is None:
            continue
        if s.labels.geometry != sample_set.geometry:
            out.append(
                Violation(
                    "geometry",
                    f"label dims {s.labels.geometry.dims} spacing "
                    f"{s.labels.geometry.spacing} do not match set geometry "
                    f"{sample_set.geometry.dims} {sample_set.geometry.spacing}",
                    i,
                )
            )
        else:
            unknown = s.labels.check_labels(sample_set.registry)
            if unknown:
                out.append(Violation("labels", f"label ids {unknown} not in registry", i))

    registry_ids = tuple(sample_set.registry.ids)
    prob_pass = sample_set.prob_pass if len(out) == n_set_faults else None
    for i, s in enumerate(sample_set.samples):
        if s.probs is not None:
            if s.probs.geometry != sample_set.geometry:
                out.append(
                    Violation(
                        "geometry",
                        f"probability map dims {s.probs.geometry.dims} do not match "
                        f"set geometry {sample_set.geometry.dims}",
                        i,
                    )
                )
            if s.probs.label_ids != registry_ids:
                out.append(
                    Violation(
                        "prob_labels",
                        "probability stack labels do not match the registry "
                        f"({s.probs.label_ids} vs {registry_ids})",
                        i,
                    )
                )
        if prob_pass is None:
            continue
        for msg in prob_pass.checks[i]:
            out.append(Violation("prob_normalization", msg, i))
        # consensus follows the maps while CV and MC Dice follow the
        # labels, so the two must describe the same segmentation
        differ = prob_pass.mismatches[i]
        if differ:
            out.append(Violation(
                "label_prob_mismatch",
                f"labels differ from the argmax of the probability maps "
                f"at {differ} voxels",
                i,
            ))
    return out


def require_valid(sample_set: McSampleSet) -> None:
    """Raise ValidationError with the full report if the set is invalid.

    Uses the set's memoised report, so only the first call validates.
    """
    report = sample_set.violations
    if report:
        raise ValidationError("; ".join(str(v) for v in report))
