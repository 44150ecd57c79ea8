"""Domain types for label volumes, structure registries, and MC sample sets.

All types are immutable after construction. Construction checks each
part on its own (shapes, dtypes, registry ids) and a sample set's shape:
N label volumes, optionally N probability stacks paired with them by
position. The rules that relate the parts of a set are
:func:`validate_sample_set`'s, which lists every violation instead of
stopping at the first and checks the set's structure before it reads
any map. Because a set and all its parts are immutable, that report is
computed once and memoised (:attr:`McSampleSet.violations`):
:func:`segqc.io.read_sample_set` raises it when a set is read, and
metric operations refuse to run on an invalid set. So is the one pass over its probability maps that both
validation and the metrics read (:attr:`McSampleSet.prob_pass`): each
sample's maps are loaded once, in ascending sample order, into K reused
buffers and folded into float64 sums, so no (N, K, x, y, z) stack is
ever held. A sample's maps are decoded, and folded in z-slabs, by up to
``SEGQC_THREADS`` threads (default: 2), the calling thread included;
every float operation is per voxel, so no thread count changes a result.

Voxel data is stored as 3-D numpy arrays indexed ``[x, y, z]``; the flat
(serialized) order is x-fastest, matching the on-disk layout used by the
io module. A label volume mapped from a plain .nii has its pages released
by each pass that has read them (:func:`_release`).
"""

from __future__ import annotations

import os
import sys
import types
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Sequence

import numpy as np

# Tolerance on per-voxel probability sums: generous enough for float32
# sums over a few dozen maps, far below any real segmentation difference.
PROB_SUM_TOL = 1e-4
_UINT16_MAX = np.iinfo(np.uint16).max
# Per-label counts are dense arrays of max_id + 1 entries; an id beyond
# this is a corrupt registry, not a real label table.
_MAX_LABEL_ID = 1 << 20
# Voxels per z-slab of every pass over voxels (the counting pass and the
# probability pass), rounded down to whole x-y planes (at least one): a
# slab's temporaries stay near the CPU cache, and a small volume is one slab.
_SLAB = 1 << 17
# A map slab less than 1 / _HARD_SHARE soft takes the entropy of its soft voxels alone
_HARD_SHARE = 4


class ValidationError(ValueError):
    """An input violates a structural invariant."""


def _slabs(dims: Sequence[int]) -> list[slice]:
    """The z-slabs ``[:, :, z]`` of whole x-y planes, about ``_SLAB`` voxels
    each, that split every pass over a volume of ``dims``."""
    depth = max(1, _SLAB // (dims[0] * dims[1]))
    return [slice(z, z + depth) for z in range(0, dims[2], depth)]


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


def _special(name: str):
    """scipy's ufunc ``name`` from ``scipy.special._ufuncs``, imported under a placeholder
    package: the real one loads an array-API layer segqc never uses, and gets the same ufuncs
    if imported later. The first call edits ``sys.modules``: make it before any pool."""
    special = sys.modules.get("scipy.special") or sys.modules.get("scipy.special._ufuncs")
    if special is None:
        import scipy  # only __path__ is read: its __getattr__ imports scipy.special
        sys.modules["scipy.special"] = stub = types.ModuleType("scipy.special")
        stub.__path__ = [os.path.join(p, "special") for p in scipy.__path__]
        try:
            from scipy.special import _ufuncs as special
        except ImportError:  # another layout: the package's own import, below
            pass
        finally:
            del sys.modules["scipy.special"]
    if special is None:
        import scipy.special as special
    return getattr(special, name)


_PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")  # bytes


def _require_memory(need: int, what: str) -> int:
    """Refuse ``what``, which needs ``need`` bytes, beyond physical memory or
    this process's soft address-space limit, whichever is smaller; returns
    that smaller number of bytes."""
    import resource  # read here, not at import, so startup loads nothing new

    limit, name = _PHYSICAL_MEMORY, "physical memory"
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY and soft < limit:
        limit, name = soft, f"the address-space limit of {soft / 2**30:.3g} GiB"
    if need > limit:
        raise ValidationError(f"{what} need at least {need / 2**30:.3g} GiB, more than {name}")
    return limit


def _frozen_base(arr: np.ndarray | None) -> object:
    """What holds ``arr``'s memory if no writeable alias of it can exist: a
    read-only array owning it, with every array between read-only, a ``bytes``
    or an ``ACCESS_READ`` map (a plain .nii). Else None: a writeable array, a
    view of one, or foreign memory such as a ``bytearray`` or any other map."""
    base = arr
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        if base.base is None:
            return base
        base = base.base
    if isinstance(base, memoryview):
        import mmap  # here, not at import, so startup loads nothing new
        if isinstance(base.obj, mmap.mmap) and memoryview(base.obj).readonly:
            return base.obj  # the map's own buffer is read-only under ACCESS_READ alone
    return base if isinstance(base, bytes) else None


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` if :func:`_frozen_base` finds its memory, else a read-only copy."""
    if _frozen_base(arr) is None:
        arr = arr.copy(order="K")
        arr.flags.writeable = False
    return arr


def _release(arr: np.ndarray | None, z: slice = slice(None)) -> None:
    """Hand back to the kernel the whole pages of ``arr[:, :, z]`` in the
    ``ACCESS_READ`` file map under ``arr``: they refault from the page cache
    with the same bytes, on any thread. Other memory, which ``MADV_DONTNEED``
    would zero, is left alone, as is a map where ``mmap`` has no ``madvise``."""
    if hasattr(base := _frozen_base(arr), "madvise"):  # only a map has it
        import mmap  # here, not at import, so startup loads nothing new
        lo, hi = (b - np.frombuffer(base, np.uint8).ctypes.data
                  for b in np.lib.array_utils.byte_bounds(arr[:, :, z]))
        lo -= lo % mmap.PAGESIZE
        base.madvise(mmap.MADV_DONTNEED, lo, hi - lo)  # the map clips the tail


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

    def __str__(self) -> str:
        """The one spelling of a grid in messages: ``dims (x, y, z) spacing (a, b, c)``."""
        return f"dims {self.dims} spacing {self.spacing}"

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

    def __contains__(self, label_id: int) -> bool:
        return label_id in self.ids


@dataclass(frozen=True, eq=False)
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

    def check_labels(self, registry: StructureRegistry) -> list[int]:
        """Label ids present in the volume but absent from the registry, sorted.

        A min/max test settles the common case; when the registry has gaps
        inside the volume's value range, a lookup table over that range
        tests every voxel. ``np.unique`` only runs to name unknown ids once
        some are known to exist. Mapped pages are released after (:func:`_release`).
        """
        try:
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
        finally:
            _release(self.data)


@dataclass(frozen=True, eq=False)
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

    def load_map(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """The map of ``label_ids[k]``.

        A stack backed by files (see :func:`segqc.io.read_sample_set`)
        decodes that one file on every call, into ``out`` where it fits
        (see :func:`segqc.nifti.read_nifti`); an in-memory one ignores it.
        """
        return self.maps[k]

    def violations(self) -> list[str]:
        """Rule violations in this stack; empty list means valid."""
        maps = [self.load_map(k) for k in range(len(self.label_ids))]
        bounds, err, _ = _fold_slab(maps, slice(None))
        return _check_messages(bounds, err)


def _fold_slab(maps: Sequence[np.ndarray], z: slice, label_ids: Sequence[int] = (),
               truth: np.ndarray | None = None, entropy: np.ndarray | None = None,
               sums: Sequence[np.ndarray] = ()) -> tuple:
    """The probability pass over the z-slab ``[:, :, z]`` of one sample's maps.

    Returns each map's (min, max) as a (K, 2) array, the largest per-voxel
    deviation of the maps' sum from 1 (NaN unless every bound is finite)
    and the voxels where ``truth`` differs from the slab's argmax labels
    of ``label_ids`` (0 without ``truth``). The minima and maxima
    propagate NaN and reach any infinity, so they settle finiteness too.
    The per-voxel sum adds the maps in list order into float64, the order
    of a sum over the stack's first axis. With ``entropy``, each map's
    -p*ln(p) is taken from its slab and the map added into the slab of
    ``sums[k]``: only at its voxels in (0, 1) when those are few (see
    ``_HARD_SHARE``). That is exact, as the term is +0.0 at p = 0 and 1
    and ``x - (+0.0)`` is ``x``, -0.0 included; any other p fails the
    checks, which drop the entropy. Last, ``truth``'s slab is released
    (:func:`_release`).
    """
    part = [m[:, :, z] for m in maps]
    bounds = np.array([(m.min(), m.max()) for m in part])
    err = np.nan
    if np.isfinite(bounds).all():
        total = np.zeros_like(part[0], dtype=np.float64)
        for m in part:
            total += m
        total -= 1.0
        err = np.abs(total).max()
    differ = 0
    if truth is not None:
        differ = int(np.count_nonzero(truth[:, :, z] != _argmax_labels(part, label_ids)))
    if entropy is not None:
        xlogy = _special("xlogy")  # first loaded by _prob_pass, before its pool
        out = entropy[:, :, z]
        for m, (lo, hi), acc in zip(part, bounds, sums):
            mm, oo = (m.T, out.T) if m.flags.f_contiguous else (m, out)  # in memory order
            soft = None if 0 < lo and hi < 1 else (mm > 0) & (mm < 1)  # None: every voxel
            if soft is not None and _HARD_SHARE * np.count_nonzero(soft) < soft.size:
                p = mm.flat[at := np.flatnonzero(soft)]
                oo.flat[at] -= xlogy(p, p, dtype=np.float64)
            else:
                out -= xlogy(m, m, dtype=np.float64)
            acc = acc[:, :, z]
            acc += m
    _release(truth, z)
    return bounds, err, differ


def _check_messages(bounds: np.ndarray, err: float) -> list[str]:
    """Normalisation messages from :func:`_fold_slab`'s map bounds, of any
    shape ending in (min, max), and its largest sum error."""
    if not np.isfinite(bounds).all():
        return ["probability maps contain non-finite values"]
    lo, hi = float(np.min(bounds[..., 0])), float(np.max(bounds[..., 1]))
    out = []
    if lo < 0.0 or hi > 1.0:
        out.append(f"probability values outside [0, 1] (range {lo:g}..{hi:g})")
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
    (K, x, y, z) temporary. The ids are uint16 when every id fits, else
    int64.
    """
    order = sorted(range(len(label_ids)), key=label_ids.__getitem__)
    best = np.array(maps[order[0]], dtype=np.result_type(*(m.dtype for m in maps)), order="K")
    fits = 0 <= min(label_ids) and max(label_ids) <= _UINT16_MAX
    out = np.full_like(best, label_ids[order[0]], dtype=np.uint16 if fits else np.int64)
    for k in order[1:]:
        better = maps[k] > best
        np.copyto(best, maps[k], where=better)
        np.copyto(out, label_ids[k], where=better)
    return out


@dataclass(frozen=True, eq=False)
class McSampleSet:
    """N MC samples of one scan on one grid and registry.

    ``labels`` holds each sample's label volume and ``probs``, when given,
    its probability maps: ``labels[i]`` and ``probs[i]`` are sample ``i``,
    so the two tuples must be equally long.
    """

    geometry: VoxelGeometry
    registry: StructureRegistry
    labels: tuple[LabelVolume, ...]
    probs: tuple[ProbMapStack, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.probs is not None:
            object.__setattr__(self, "probs", tuple(self.probs))
            if len(self.probs) != self.n:
                raise ValidationError(f"got {len(self.probs)} probability stacks for "
                                      f"{self.n} label volumes")
        if not self.n:
            raise ValidationError("sample set must contain at least one sample")

    @property
    def n(self) -> int:
        return len(self.labels)

    def sample_labels(self, i: int) -> np.ndarray:
        """Label array of sample ``i``; ``perfbench/spans.py`` reads it by name."""
        return self.labels[i].data

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """The :func:`validate_sample_set` report, computed on first use."""
        return tuple(validate_sample_set(self))

    @cached_property
    def prob_pass(self) -> ProbPass:
        """The one pass over the probability maps, computed on first use;
        :func:`validate_sample_set` reads it once the set's structure holds."""
        return _prob_pass(self)


@dataclass(frozen=True, eq=False)
class ProbPass:
    """Everything read from a sample set's probability maps in one pass.

    checks     -- per sample, its stack's normalisation messages
    mismatches -- per sample, the voxels where its labels differ from the
                  argmax of its maps
    entropy    -- sum over samples, then structures in registry order, of
                  -p*ln(p); C-order float64
    consensus  -- argmax of the per-structure mean over samples, ties to
                  the lowest id

    ``entropy`` and ``consensus`` are None unless every sample's maps
    pass their checks; a set without them is invalid, so no metric reads
    them. Only a set with maps has a pass.
    """

    checks: tuple[tuple[str, ...], ...]
    mismatches: tuple[int, ...]
    entropy: np.ndarray | None = field(repr=False)
    consensus: np.ndarray | None = field(repr=False)


def _prob_pass(sample_set: McSampleSet) -> ProbPass:
    """Load each sample's maps once, in ascending sample order, and fold
    them into float64 sums.

    The set must have maps and a valid structure, as
    :func:`validate_sample_set` checks before it runs this pass: every
    stack on the set's grid, with the registry's ids in its order, and
    each label volume on that grid.

    Per voxel the additions run in the order of a per-structure loop
    over samples (the mean) and of a per-sample loop over structures (the
    entropy), and widening float32 to float64 is exact, so the results
    are bit-identical to summing a float64 copy of the whole set. Memory
    is K + 2 float64 volumes plus K float32 buffers, which every sample's
    maps are decoded into, freed before the consensus is taken.

    Each sample's K files are decoded, then its maps folded in the z-slabs
    of :func:`_slabs` (:func:`_fold_slab`), by :func:`_parallel` on up to
    ``SEGQC_THREADS`` threads (default: 2) and never more than its slabs.
    Slabs write disjoint parts of the sums, and their map bounds, sum
    errors and mismatch counts combine exactly (min and max, max, integer
    sum), so no slab size or thread count changes a result.
    A sample that fails its checks turns the fold off, which drops the
    terms it added.
    """
    ids = sample_set.registry.ids
    _special("xlogy")  # loaded on this thread, never first on a pool's
    slabs = _slabs(sample_set.geometry.dims)
    workers = min(_thread_cap(2), len(slabs))
    entropy, sums, fold = None, [], True
    checks, mismatches = [], []
    bufs = [np.empty(sample_set.geometry.dims, dtype=np.float32, order="F") for _ in ids]
    for stack, vol in zip(sample_set.probs, sample_set.labels):
        maps = _parallel(lambda k: stack.load_map(k, bufs[k]), range(len(ids)), workers)
        if entropy is None:
            entropy = np.zeros_like(maps[0], dtype=np.float64)
            sums = [np.zeros_like(m, dtype=np.float64) for m in maps]
        parts = _parallel(partial(
            _fold_slab, maps, label_ids=stack.label_ids, truth=vol.data,
            entropy=entropy if fold else None, sums=sums), slabs, workers)
        del maps  # freed before the next sample is decoded
        bounds, errs, differs = zip(*parts)
        msgs = tuple(_check_messages(np.array(bounds), np.max(errs)))
        checks.append(msgs)
        mismatches.append(sum(differs))
        fold = fold and not msgs
    del bufs

    consensus = None
    if not fold:
        entropy = None
    else:
        # C order, like a fresh array: reductions over the whole map then
        # visit voxels in the same order whatever layout the files had
        entropy = np.ascontiguousarray(entropy)
        entropy.flags.writeable = False
        for acc in sums:
            acc /= sample_set.n
        consensus = _argmax_labels(sums, ids)
        consensus.flags.writeable = False
    return ProbPass(tuple(checks), tuple(mismatches), entropy, consensus)


def _parallel(fn, items, workers: int) -> list:
    """``fn`` over the sequence ``items``, in order: the one thread runner.
    ``workers`` threads, the calling one and ``workers - 1`` of a pool shut
    down before this returns, each take the next item when free. Callers
    pass at most ``SEGQC_THREADS``, so the calling thread counts as one of
    them and one worker starts no thread. An exception on any thread
    propagates, and once one is raised no thread starts another item."""
    todo = iter(enumerate(items))  # each next() is one call, atomic under the GIL

    def drain() -> list[tuple]:
        try:
            return [(i, fn(item)) for i, item in todo]
        finally:  # after an error, the items left are taken so that no thread runs them
            deque(todo, maxlen=0)

    if workers < 2:
        return [r for _, r in drain()]
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        done = drain() + [r for h in helpers for r in h.result()]
    return [r for _, r in sorted(done, key=lambda d: d[0])]


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
    operations. The structure is checked first: N >= 2, and each label
    volume's and each probability stack's grid and ids. The probability
    maps are read (:attr:`McSampleSet.prob_pass`) only when all of that
    holds, so a set with a structural fault is refused without decoding
    any map, and its report lists no map message. A grid fault names both
    grids, each spelled by :class:`VoxelGeometry`'s ``str``.
    """
    out: list[Violation] = []
    geometry, registry = sample_set.geometry, sample_set.registry
    if sample_set.n < 2:
        out.append(Violation("sample_count", f"need N >= 2 samples, got {sample_set.n}"))
    for i, vol in enumerate(sample_set.labels):
        if vol.geometry != geometry:
            out.append(Violation(
                "geometry", f"label {vol.geometry} do not match set geometry {geometry}", i))
        elif unknown := vol.check_labels(registry):
            out.append(Violation("labels", f"label ids {unknown} not in registry", i))
    for i, stack in enumerate(sample_set.probs or ()):
        if stack.geometry != geometry:
            out.append(Violation("geometry", f"probability map {stack.geometry} do not match "
                                 f"set geometry {geometry}", i))
        if stack.label_ids != registry.ids:
            out.append(Violation("prob_labels", "probability stack labels do not match the "
                                 f"registry ({stack.label_ids} vs {registry.ids})", i))
    if out or sample_set.probs is None:
        return out

    prob_pass = sample_set.prob_pass
    for i in range(sample_set.n):
        for msg in prob_pass.checks[i]:
            out.append(Violation("prob_normalization", msg, i))
        # consensus follows the maps while CV and MC Dice follow the
        # labels, so the two must describe the same segmentation
        if differ := prob_pass.mismatches[i]:
            out.append(Violation("label_prob_mismatch", "labels differ from the argmax of the "
                                 f"probability maps at {differ} voxels", i))
    return out


def require_valid(sample_set: McSampleSet) -> None:
    """Raise ValidationError with the full report if the set is invalid.

    Uses the set's memoised report, so only the first call validates.
    """
    report = sample_set.violations
    if report:
        raise ValidationError("; ".join(str(v) for v in report))
