"""Domain types for label volumes, structure registries, and MC sample sets.

All types are immutable after construction. Construction checks each
part on its own (shapes, dtypes, registry ids) and a sample set's shape:
N label volumes, optionally N probability stacks paired with them by
position, each map of a stack an array or the path of its file. The
rules that relate the parts of a set are :func:`validate_sample_set`'s,
which lists every violation instead of stopping at the first and checks
the set's structure before it reads any map. Because a set and all its
parts are immutable, that report is computed once and memoised
(:attr:`McSampleSet.violations`): :func:`segqc.io.read_sample_set`
raises it when a set is read, and metric operations refuse to run on an
invalid set. So is the one pass over its probability maps that both
validation and the metrics read (:attr:`McSampleSet.prob_pass`): every
map file's header is checked first, then each map is read once, a z-slab
at a time, and each slab of every sample folded, in ascending sample
order, into float64 slab sums whose argmax is that slab of the consensus,
so no whole map, let alone an (N, K, x, y, z) stack, is ever held. The
slabs are read and folded by up to ``SEGQC_THREADS`` threads (default:
2), the calling thread included; every float operation is per voxel, so
no thread count changes a result.

Voxel data is stored as 3-D numpy arrays indexed ``[x, y, z]``; the flat
(serialized) order is x-fastest, matching the on-disk layout used by the
io module. A label volume read from a plain .nii maps the file, but no
pass reads that map: each reads its z-slabs from the file by positional
reads into buffers it owns (:meth:`LabelVolume._slab`), so a call holds
none of the N volumes' pages.
"""

from __future__ import annotations

import os
import sys
import threading
import types
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
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

    @cached_property  # the passes read it per slab: computed once, kept out of the fields
    def ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    @property
    def foreground(self) -> tuple[tuple[int, str], ...]:
        """Entries excluding background, in registry order."""
        return tuple((i, n) for i, n in self.entries if i != self.background_id)

    @cached_property
    def max_id(self) -> int:
        return max(self.ids)

    def __contains__(self, label_id: int) -> bool:
        return label_id in self.ids


class _MappedFile:
    """The plain .nii whose bytes a read-only array ``data`` maps: its name,
    a descriptor of it, closed once this object is collected, and the byte
    offset of ``data`` in it."""

    def __init__(self, name, fd: int, offset: int, data: np.ndarray):
        self.name, self.offset, self.data, self.fd = name, offset, data, os.dup(fd)
        weakref.finalize(self, os.close, self.fd)

    def __reduce__(self):  # a descriptor means nothing in another process: unpickles as None
        return type(None), ()

    def read(self, z: slice) -> np.ndarray:
        """``data[:, :, z]`` read from the file into a fresh Fortran-order
        array by one positional read, which touches no page of the map. A
        file cut short since it was mapped (a regular file reads short only
        at its end) raises an OSError naming it, where reading the map would
        end the process with SIGBUS."""
        nx, ny, nz = self.data.shape
        z0, z1, _ = z.indices(nz)
        flat = np.empty(nx * ny * (z1 - z0), self.data.dtype)
        at = self.offset + flat.itemsize * nx * ny * z0
        if (got := os.preadv(self.fd, [flat], at)) < flat.nbytes:
            raise OSError(f"{self.name}: read {got} of {flat.nbytes} bytes at offset {at}: "
                          "the file is shorter than when it was read")
        return flat.reshape((nx, ny, z1 - z0), order="F")


@dataclass(frozen=True, eq=False)
class LabelVolume:
    """Dense 3-D map of integer label ids.

    A volume read from a file (:func:`segqc.nifti.read_label_nifti`) keeps
    the file's orientation fields and, when ``data`` maps a plain .nii, the
    file, which its passes read their slabs from (:meth:`_slab`).
    """

    geometry: VoxelGeometry
    data: np.ndarray = field(repr=False)
    _orientation: object = field(default=None, repr=False, kw_only=True)
    _file: _MappedFile | None = field(default=None, repr=False, kw_only=True)

    def __post_init__(self):
        arr = np.asarray(self.data)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValidationError(f"label data must be integer, got dtype {arr.dtype}")
        if arr.shape != self.geometry.dims:
            raise ValidationError(
                f"label data shape {arr.shape} does not match dims {self.geometry.dims}"
            )
        object.__setattr__(self, "data", _read_only(arr))
        if self._file is not None and self._file.data is not self.data:
            object.__setattr__(self, "_file", None)  # a file that holds other data is not read

    def _slab(self, z: slice) -> np.ndarray:
        """``data[:, :, z]``: read from the mapped file into a fresh array
        (:meth:`_MappedFile.read`), so no pass faults a page of the map in;
        for any other volume, a view."""
        return self.data[:, :, z] if self._file is None else self._file.read(z)

    def check_labels(self, registry: StructureRegistry) -> list[int]:
        """Label ids present in the volume but absent from the registry, sorted.

        The volume is read one z-slab at a time (:func:`_slabs`,
        :meth:`_slab`). A slab's min/max settles the common case; when the
        registry has gaps inside that range, a lookup table over the
        registry's ids tests every voxel. ``np.unique`` only runs to name
        the unknown ids of a slab known to hold some.
        """
        ids, top = set(registry.ids), registry.max_id
        known = np.zeros(top + 1, dtype=bool)
        known[list(ids)] = True
        unknown = set()
        for z in _slabs(self.geometry.dims):
            part = self._slab(z)
            lo, hi = int(part.min()), int(part.max())
            if not (0 <= lo and hi <= top and (known[lo:hi + 1].all() or known[part].all())):
                unknown.update(v for v in map(int, np.unique(part)) if v not in ids)
        return sorted(unknown)


@dataclass(frozen=True, eq=False)
class ProbMapStack:
    """Per-structure probability maps for one MC sample.

    ``maps[k]``, the map of ``label_ids[k]``, is a read-only 3-D array on
    ``geometry`` (a (K, x, y, z) array counts as K arrays) or the path of a
    NIfTI file that :meth:`load_map` decodes whole, and the probability
    pass a z-slab at a time (:meth:`_open`), on every call, so a stack of
    files holds none of its maps between uses. A map keeps its dtype, bool,
    integer or float: the passes widen each term to float64. The maps cover
    every registry entry, background included, and per voxel should sum to 1
    within PROB_SUM_TOL: checked by :meth:`violations`, not at construction.
    ``owner``, the sample's label file, is named in the count, dtype and grid
    errors.
    """

    geometry: VoxelGeometry
    label_ids: tuple[int, ...]
    maps: tuple[np.ndarray | str | os.PathLike, ...] = field(repr=False)
    owner: str | os.PathLike = field(default="the stack", repr=False, kw_only=True)

    def __post_init__(self):
        maps = []
        for m in self.maps:
            if not isinstance(m, (str, os.PathLike)):
                if (m := np.asarray(m)).shape != self.geometry.dims:
                    raise ValidationError(
                        f"map shape {m.shape} does not match dims {self.geometry.dims}")
                if m.dtype.kind not in "biuf":
                    raise ValidationError(f"{self.owner}: probability map dtype {m.dtype} "
                                          "is not bool, integer or float")
                m = _read_only(m)
            maps.append(m)
        if len(maps) != len(self.label_ids):
            raise ValidationError(
                f"{self.owner}: {len(maps)} probability maps for {len(self.label_ids)} labels")
        object.__setattr__(self, "maps", tuple(maps))
        object.__setattr__(self, "label_ids", tuple(int(i) for i in self.label_ids))

    def load_map(self, k: int) -> np.ndarray:
        """The map of ``label_ids[k]``: its array, or its file decoded whole
        (:func:`segqc.nifti.read_nifti`), in the dtype the file stores. A
        file on another grid raises, naming both grids."""
        if isinstance(src := self.maps[k], np.ndarray):
            return src
        from .nifti import read_nifti  # here: segqc.nifti imports this module
        return self._on_grid(src, read_nifti(src)).data

    def _open(self) -> list:
        """Each map as the probability pass reads it, a z-slab at a time:
        its array, or its file opened with its header read and checked
        (:class:`segqc.nifti._MapStream`). A file on another grid raises,
        naming both grids, before any payload is read."""
        from .nifti import _MapStream  # here: segqc.nifti imports this module
        return [src if isinstance(src, np.ndarray) else self._on_grid(src, _MapStream(src))
                for src in self.maps]

    def _on_grid(self, src, read):
        """``read``, what was read from the file ``src``, if it is on the stack's grid."""
        if read.geometry != self.geometry:
            raise ValidationError(
                f"{src}: map {read.geometry} do not match {self.owner} geometry {self.geometry}")
        return read

    def violations(self) -> list[str]:
        """Rule violations in this stack; empty list means valid."""
        maps = [self.load_map(k) for k in range(len(self.label_ids))]
        bounds, err, _ = _fold_slab(maps)
        return _check_messages(bounds, err)


def _fold_slab(part: Sequence[np.ndarray], label_ids: Sequence[int] = (),
               truth: np.ndarray | None = None, entropy: np.ndarray | None = None,
               sums: Sequence[np.ndarray] = ()) -> tuple:
    """The probability pass over one z-slab of one sample's maps, ``part[k]``
    the slab of map k.

    Returns each map's (min, max) as a (K, 2) array, the largest per-voxel
    deviation of the maps' sum from 1 (NaN unless every bound is finite)
    and the voxels where ``truth``, the slab of the sample's labels,
    differs from the slab's argmax labels of ``label_ids`` (0 without
    ``truth``). The minima and maxima
    propagate NaN and reach any infinity, so they settle finiteness too.
    The per-voxel sum starts from the first map widened to float64 and
    adds the others in list order, the order of a sum over the stack's
    first axis. With ``entropy``, each map's -p*ln(p) is taken from its
    slab into the slab ``entropy``, and the map added into the slab
    ``sums[k]``: only at its
    voxels in (0, 1) when those are few (see ``_HARD_SHARE``). That is
    exact, as the term is +0.0 at p = 0 and 1 and ``x - (+0.0)`` is
    ``x``, -0.0 included; any other p fails the checks, which drop the
    entropy, and a slab with a non-finite value is not folded at all, so
    no infinities of opposite signs meet in a sum.
    """
    bounds = np.array([(m.min(), m.max()) for m in part])
    err = np.nan
    if np.isfinite(bounds).all():
        total = part[0].astype(np.float64)
        for m in part[1:]:
            total += m
        total -= 1.0
        err = np.abs(total).max()
    differ = 0
    if truth is not None:
        differ = int(np.count_nonzero(truth != _argmax_labels(part, label_ids)))
    if entropy is not None and np.isfinite(err):
        xlogy = _special("xlogy")  # first loaded by _prob_pass, before its pool
        for m, (lo, hi), acc in zip(part, bounds, sums):
            mm, oo = (m.T, entropy.T) if m.flags.f_contiguous else (m, entropy)  # in memory order
            soft = None if 0 < lo and hi < 1 else (mm > 0) & (mm < 1)  # None: every voxel
            if soft is not None and _HARD_SHARE * np.count_nonzero(soft) < soft.size:
                p = mm.flat[at := np.flatnonzero(soft)]
                oo.flat[at] -= xlogy(p, p, dtype=np.float64)
            else:
                entropy -= xlogy(m, m, dtype=np.float64)
            acc += m
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
    them. Only a set with maps has a pass. The two volumes are the only
    whole volumes it makes: everything else is taken a z-slab at a time.
    """

    checks: tuple[tuple[str, ...], ...]
    mismatches: tuple[int, ...]
    entropy: np.ndarray | None = field(repr=False)
    consensus: np.ndarray | None = field(repr=False)


def _prob_pass(sample_set: McSampleSet) -> ProbPass:
    """Read every map once, a z-slab at a time, and fold each slab of every
    sample into float64 sums, then take that slab's consensus.

    The set must have maps and a valid structure, as
    :func:`validate_sample_set` checks before it runs this pass: every
    stack on the set's grid, with the registry's ids in its order, and
    each label volume on that grid. First every map file is opened and its
    header checked (:meth:`ProbMapStack._open`), so a file on another grid
    is refused before any payload is read.

    Then :func:`_parallel`, on up to ``SEGQC_THREADS`` threads (default:
    2) and never more than the z-slabs of :func:`_slabs`, gives each
    worker the next slab. The worker reads that slab of each sample's K
    maps, in ascending sample order, into its own K buffers; folds them
    (:func:`_fold_slab`) into its own slab of the entropy and K slabs of
    float64 sums; and once the last sample is folded, writes the entropy
    and the argmax of the mean (:func:`_argmax_labels`) into that slab of
    the two whole volumes. A map file is read in z order: a worker waits
    for the slab before its own to be read from it, and is let go, to
    return nothing, when another worker fails, whose error then
    propagates. Memory is the entropy map and the consensus, plus per
    worker K slabs of stored map values and K + 1 float64 slabs.

    Per voxel the additions run in the order of a per-structure loop
    over samples (the mean) and of a per-sample loop over structures (the
    entropy), and widening a map's values to float64 is exact, so the
    results are bit-identical to summing a float64 copy of the whole set.
    Slabs write disjoint parts of both volumes, and their map bounds, sum
    errors and mismatch counts combine exactly (min and max, max, integer
    sum), so no slab size or thread count changes a result. Every sample
    is folded; if any fails its checks, the entropy and the consensus are
    dropped at the end, unread.
    """
    ids, n, dims = sample_set.registry.ids, sample_set.n, sample_set.geometry.dims
    sources = [stack._open() for stack in sample_set.probs]  # every header before any payload
    _special("xlogy")  # loaded on this thread, never first on a pool's
    slabs = _slabs(dims)
    # C order, like a fresh array: reductions over the whole map then
    # visit voxels in the same order whatever layout the files had
    entropy = np.empty(dims)
    fits = 0 <= min(ids) and max(ids) <= _UINT16_MAX
    consensus = np.empty(dims, dtype=np.uint16 if fits else np.int64, order="F")
    turn, failed = threading.Condition(), []
    scratch = threading.local()  # a worker's buffers, kept for every slab it takes
    size = dims[0] * dims[1] * len(range(dims[2])[slabs[0]])  # voxels of the deepest slab

    def read(src, z: slice, buf: np.ndarray) -> np.ndarray:
        if isinstance(src, np.ndarray):
            return src[:, :, z]
        with turn:
            turn.wait_for(lambda: failed or src.planes == z.start)
            if failed:
                raise _Released
        try:
            return src.read(z, buf)
        finally:
            with turn:
                turn.notify_all()

    def fold(z: slice) -> list[tuple] | None:
        try:
            if not hasattr(scratch, "bufs"):
                scratch.bufs = [np.empty(4 * size, np.uint8) for _ in ids]  # 4: nifti's widest
                scratch.f64 = [np.empty(size) for _ in range(len(ids) + 1)]
            shape = (dims[0], dims[1], len(range(dims[2])[z]))
            ent, *sums = (a[:np.prod(shape)].reshape(shape, order="F") for a in scratch.f64)
            for a in (ent, *sums):
                a.fill(0.0)
            parts = [_fold_slab([read(src, z, buf) for src, buf in zip(maps, scratch.bufs)],
                                ids, vol._slab(z), ent, sums)
                     for maps, vol in zip(sources, sample_set.labels)]
        except _Released:
            return None
        except BaseException:  # lets go of every worker waiting for a stream, and re-raises
            with turn:
                failed.append(True)
                turn.notify_all()
            raise
        entropy[:, :, z] = ent
        for acc in sums:
            acc /= n
        consensus[:, :, z] = _argmax_labels(sums, ids)
        return parts

    per_slab = _parallel(fold, slabs, min(_thread_cap(2), len(slabs)))
    checks, mismatches = [], []
    for i in range(n):
        bounds, errs, differs = zip(*(parts[i] for parts in per_slab))
        checks.append(tuple(_check_messages(np.array(bounds), np.max(errs))))
        mismatches.append(sum(differs))
    if any(checks):
        return ProbPass(tuple(checks), tuple(mismatches), None, None)
    entropy.flags.writeable = False
    consensus.flags.writeable = False
    return ProbPass(tuple(checks), tuple(mismatches), entropy, consensus)


class _Released(Exception):
    """A worker of the probability pass let go from a wait: another failed."""


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
