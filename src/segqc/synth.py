"""Synthetic phantoms and a controllable Monte Carlo segmentation oracle.

Phantoms are analytic labelmaps (ellipsoids and boxes on a background),
so every downstream quantity has a known ground truth. The sampler
perturbs a phantom into N plausible segmentation samples with two knobs:

* per-structure boundary flips: each ground-truth boundary voxel of
  structure s (and each background/other voxel touching s) flips with
  probability f_s,
* a per-sample, per-structure erosion-or-dilation of fixed radius,
  chosen by coin flip.

Higher flip probability means noisier samples, lower agreement, and lower
Dice against the phantom, which is what makes the oracle useful for
validating uncertainty/accuracy correlations end to end.

Samples carry both hard labels and a softened probability map whose
boundary confidence mirrors the flip probability (sigma = f_s / 2), so
voxel entropy is informative while argmax still reproduces the labels
exactly. With every flip probability at zero the sampler returns exact
one-hot copies of the phantom.

Randomness is split into independent substreams keyed by
(seed, sample index, structure id), so adding samples or structures
never perturbs the draws of existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .stats import CohortTable
from .volumes import (
    LabelVolume,
    McSampleSet,
    ProbMapStack,
    StructureRegistry,
    ValidationError,
    VoxelGeometry,
    _UINT16_MAX,
)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ShapeSpec:
    """One analytic structure.

    ``kind`` is "sphere" (axis-aligned ellipsoid; ``size`` holds the three
    semi-axes) or "box" (axis-aligned cuboid; ``size`` holds the three full
    edge lengths). ``center`` and ``size`` are in voxel units; a voxel
    belongs to the shape when its integer center does.
    """

    label_id: int
    kind: str
    center: tuple[float, float, float]
    size: tuple[float, float, float]

    def __post_init__(self):
        if self.kind not in ("sphere", "box"):
            raise ValidationError(f"unknown shape kind {self.kind!r}")
        if self.label_id < 0:
            raise ValidationError("shape label_id must be >= 0")
        center = tuple(float(c) for c in self.center)
        size = tuple(float(s) for s in self.size)
        if len(center) != 3 or len(size) != 3:
            raise ValidationError("center and size must have 3 components")
        if min(size) <= 0:
            raise ValidationError(f"shape {self.label_id}: size components must be > 0")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "size", size)

    def _extent(self) -> tuple[float, float, float]:
        if self.kind == "sphere":
            return self.size
        return tuple(s / 2.0 for s in self.size)


@dataclass(frozen=True)
class PhantomSpec:
    """Geometry plus an ordered list of shapes; earlier shapes win overlaps."""

    geometry: VoxelGeometry
    shapes: tuple[ShapeSpec, ...]
    background_id: int = 0

    def __post_init__(self):
        shapes = tuple(self.shapes)
        if not shapes:
            raise ValidationError("phantom needs at least one shape")
        # repeated label ids are allowed: a structure may consist of
        # several disjoint parts
        if self.background_id in {s.label_id for s in shapes}:
            raise ValidationError(f"background id {self.background_id} reused by a shape")
        object.__setattr__(self, "shapes", shapes)

    @property
    def label_ids(self) -> tuple[int, ...]:
        """Distinct structure ids in first-appearance order."""
        seen: dict[int, None] = {}
        for s in self.shapes:
            seen.setdefault(s.label_id, None)
        return tuple(seen)


@dataclass(frozen=True)
class NoiseSpec:
    """Perturbation strengths for the Monte Carlo sampler.

    ``flip_probs`` maps structure id to its boundary flip probability;
    structures not listed use ``default_flip_prob``. One
    ``erosion_dilation_radius`` (in 6-connected steps, 0 disables) applies
    to every structure.
    """

    n_samples: int
    flip_probs: tuple[tuple[int, float], ...] = ()
    default_flip_prob: float = 0.0
    erosion_dilation_radius: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValidationError("need at least 2 samples")
        if self.erosion_dilation_radius < 0:
            raise ValidationError("erosion_dilation_radius must be >= 0")
        pairs = tuple((int(lid), float(p)) for lid, p in dict(self.flip_probs).items())
        for lid, p in pairs + ((-1, self.default_flip_prob),):
            if not 0.0 <= p < 0.5:
                raise ValidationError(
                    f"flip probability {p} out of range [0, 0.5) for structure {lid}"
                )
        object.__setattr__(self, "flip_probs", pairs)

    def flip_prob(self, label_id: int) -> float:
        for lid, p in self.flip_probs:
            if lid == label_id:
                return p
        return float(self.default_flip_prob)


def _label_dtype(ids) -> np.dtype:
    """Smallest unsigned dtype holding every label id; ids outside the
    uint16 range of label volumes raise instead of wrapping."""
    lo, hi = min(ids), max(ids)
    if lo < 0 or hi > _UINT16_MAX:
        raise ValidationError(
            f"label id {lo if lo < 0 else hi} is outside 0..{_UINT16_MAX}, "
            "the range of label volumes"
        )
    return np.dtype(np.uint8 if hi <= np.iinfo(np.uint8).max else np.uint16)


def make_phantom(spec: PhantomSpec) -> LabelVolume:
    """Rasterize the phantom; shapes extending past the volume and label
    ids outside 0..65535 raise."""
    dims = spec.geometry.dims
    dtype = _label_dtype([spec.background_id, *spec.label_ids])
    for shape in spec.shapes:
        for axis in range(3):
            ext = shape._extent()[axis]
            lo = shape.center[axis] - ext
            hi = shape.center[axis] + ext
            if lo < -0.5 or hi > dims[axis] - 0.5:
                raise ValidationError(
                    f"shape {shape.label_id} exceeds volume bounds on axis {axis}: "
                    f"[{lo:.2f}, {hi:.2f}] vs [-0.5, {dims[axis] - 0.5}]"
                )
    x, y, z = np.ogrid[: dims[0], : dims[1], : dims[2]]
    data = np.full(dims, spec.background_id, dtype=dtype)
    for shape in reversed(spec.shapes):  # painted last, an earlier shape wins an overlap
        cx, cy, cz = shape.center
        if shape.kind == "sphere":
            ax, ay, az = shape.size
            inside = ((x - cx) / ax) ** 2 + ((y - cy) / ay) ** 2 + ((z - cz) / az) ** 2 <= 1.0
        else:
            ex, ey, ez = (s / 2.0 for s in shape.size)
            inside = (np.abs(x - cx) <= ex) & (np.abs(y - cy) <= ey) & (np.abs(z - cz) <= ez)
        data[inside] = shape.label_id
    data.flags.writeable = False  # so LabelVolume keeps it instead of copying it
    return LabelVolume(spec.geometry, data)


def registry_for_phantom(spec: PhantomSpec) -> StructureRegistry:
    """Registry with one generically named entry per distinct structure id."""
    entries = [(spec.background_id, "background")]
    entries += [(lid, f"structure_{lid}") for lid in spec.label_ids]
    return StructureRegistry(entries=tuple(entries), background_id=spec.background_id)


def _stream(seed: int, sample_index: int, label_id: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed & _MASK64, sample_index, label_id))
    )


def _faces(volume: np.ndarray, **pad) -> tuple[np.ndarray, list[np.ndarray]]:
    """``volume`` padded by one voxel with ``np.pad``'s keywords ``pad``: its
    core, and the views of the six face neighbours, -x, +x, -y, +y, -z, +z."""
    padded = np.pad(volume, 1, **pad)
    core = (slice(1, -1),) * 3
    return padded[core], [padded[core[:axis] + (s,) + core[axis + 1:]]
                          for axis in range(3) for s in (slice(None, -2), slice(2, None))]


def _grow(mask: np.ndarray, steps: int, outside: bool = False) -> np.ndarray:
    """``mask`` dilated by ``steps`` 6-connected steps, voxels beyond the
    volume counting as ``outside``; ``~_grow(~mask, r, True)`` erodes by r
    with the outside not in the mask. No mask changes past ``sum(dims)``
    steps, or once a step adds nothing, so the loop stops there."""
    core, faces = _faces(mask, constant_values=outside)
    for _ in range(min(steps, sum(mask.shape))):
        grown = core.copy()
        for face in faces:
            grown |= face
        if np.array_equal(grown, core):
            break
        core[...] = grown
    return core


def _dominant_other_neighbor(data: np.ndarray, idx: np.ndarray, background_id: int) -> np.ndarray:
    """Most frequent 6-neighbor label differing from each voxel's own.

    Ties break to the lowest label; a voxel with no differing neighbor
    (possible at the volume edge) maps to the background.
    """
    coords = np.unravel_index(idx, data.shape)
    core, faces = _faces(data, mode="edge")  # beyond the edge, a voxel is its own neighbour
    own = core[coords]
    neigh = np.stack([face[coords] for face in faces]).astype(np.int64)
    cand = np.where(neigh != own[None, :], neigh, -1)
    counts = (cand[:, None, :] == cand[None, :, :]).sum(axis=1)
    # rank by count, then by low label id; invalid slots rank below all
    big = int(data.max()) + 2
    score = np.where(cand >= 0, counts * big + (big - 1 - cand), -1)
    best = np.argmax(score, axis=0)
    result = cand[best, np.arange(idx.size)]
    return np.where(result < 0, background_id, result)


def soft_probs(
    sample: LabelVolume,
    registry: StructureRegistry,
    noise: NoiseSpec,
) -> Iterator[np.ndarray]:
    """One-hot maps with boundary voxels softened by sigma = flip_prob / 2.

    The maps :func:`sample_mc` gives a sample, made from its labels alone,
    so a caller can draw label-only samples and make each sample's maps
    when it needs them. They are yielded one at a time, in registry order,
    each a fresh read-only float64 array, so a caller that drops each map
    before it takes the next holds at most two. A boundary voxel keeps
    1 - sigma on its own label and moves sigma to its dominant differing
    neighbor, with sigma the larger of the two structures' values
    (background contributes none). Argmax of the maps is the labels.
    """
    labels = sample.data
    core, faces = _faces(labels, mode="edge")
    boundary = np.zeros(labels.shape, dtype=bool)
    for face in faces:
        boundary |= face != core
    idx = np.flatnonzero(boundary)
    del core, faces, boundary

    sigma_of = np.zeros(registry.max_id + 1)
    for lid, _ in registry.foreground:
        sigma_of[lid] = noise.flip_prob(lid) / 2.0
    flat = labels.reshape(-1)
    own = flat[idx]
    other = _dominant_other_neighbor(labels, idx, registry.background_id)
    sigma = np.maximum(sigma_of[own], sigma_of[other])
    for lid in registry.ids:
        m = np.zeros(labels.shape)
        np.equal(flat, lid, out=(mf := m.reshape(-1)))
        at = own == lid
        mf[idx[at]] = 1.0 - sigma[at]
        at = other == lid
        mf[idx[at]] += sigma[at]
        m.flags.writeable = False  # so ProbMapStack keeps it instead of copying it
        yield m


def sample_mc(
    gt: LabelVolume,
    registry: StructureRegistry,
    noise: NoiseSpec,
    with_probs: bool = True,
) -> McSampleSet:
    """Draw N perturbed segmentation samples from a ground-truth labelmap.

    Each sample starts from the ground truth, flips boundary voxels per
    structure (inward flips go to the dominant differing neighbor, outward
    flips claim the adjacent voxel), then erodes or dilates each structure
    by the configured radius at a fair coin. With ``with_probs`` the set
    also carries the maps :func:`soft_probs` makes of each sample's
    labels; otherwise it is label-only. The ground truth's ids and the
    background must lie in 0..65535; registry ids the ground truth does
    not use may be larger.
    """
    unknown = gt.check_labels(registry)
    if unknown:
        raise ValidationError(f"ground truth contains unregistered labels: {unknown}")
    bg = registry.background_id
    # samples hold only the ground truth's ids and the background; their
    # dtype follows the registry, whose unused ids may pass the uint16 range
    # (a uint16 volume compares unequal to every such id)
    dtype = _label_dtype([bg, int(gt.data.max()), min(registry.max_id, _UINT16_MAX)])

    # flip candidate sets depend only on the ground truth: compute once
    flip_sets = {}
    for lid, _ in registry.foreground:
        f = noise.flip_prob(lid)
        mask = gt.data == lid
        if f == 0.0 or not mask.any():
            continue
        inner_idx = np.flatnonzero(mask & _grow(~mask, 1))  # the volume edge is no boundary
        outer_idx = np.flatnonzero(_grow(mask, 1) & ~mask)
        inner_target = _dominant_other_neighbor(gt.data, inner_idx, bg)
        flip_sets[lid] = (f, inner_idx, inner_target, outer_idx)

    samples = []
    for i in range(noise.n_samples):
        vol = gt.data.astype(dtype, order="C")  # a sample's one copy; flat views it
        flat = vol.reshape(-1)
        written = np.zeros(flat.size, dtype=bool)
        for lid, _ in registry.foreground:
            rng = _stream(noise.seed, i, lid)
            if lid in flip_sets:
                f, inner_idx, inner_target, outer_idx = flip_sets[lid]
                u_in = rng.random(inner_idx.size)
                u_out = rng.random(outer_idx.size)
                take = (u_in < f) & ~written[inner_idx]
                flat[inner_idx[take]] = inner_target[take]
                written[inner_idx[take]] = True
                take = (u_out < f) & ~written[outer_idx]
                flat[outer_idx[take]] = lid
                written[outer_idx[take]] = True
            if noise.erosion_dilation_radius > 0:
                r = noise.erosion_dilation_radius
                mask = vol == lid
                if mask.any():
                    if rng.integers(2) == 0:
                        vol[mask & _grow(~mask, r, outside=True)] = bg
                    else:
                        vol[_grow(mask, r) & (vol == bg)] = lid
        vol.flags.writeable = False  # so LabelVolume keeps it instead of copying it
        samples.append(LabelVolume(gt.geometry, vol))
    probs = [ProbMapStack(gt.geometry, registry.ids, tuple(soft_probs(s, registry, noise)))
             for s in samples] if with_probs else None
    return McSampleSet(geometry=gt.geometry, registry=registry, labels=samples, probs=probs)


def make_cohort(
    n_subjects: int,
    effect: Sequence[float] = (0.0, 0.0, 0.0, 1.0),
    noise_link: str = "cv_scaled",
    noise_scale: float = 1.0,
    n_sites: int = 3,
    seed: int = 0,
) -> tuple[CohortTable, np.ndarray]:
    """Simulate a cohort with a planted diagnosis effect on volume.

    ``effect`` gives the true [intercept, age, sex, dx] coefficients.
    With ``noise_link="cv_scaled"`` each subject's volume noise standard
    deviation is noise_scale * cv, so reliability-weighted fits have a
    real advantage; with "none" the noise is homoscedastic and the cv
    column is decorative. The subject's mc_dice is linked to the same
    reliability via d = 1 - cv / (1 + cv). Returns the cohort table and
    the true coefficient vector.
    """
    if noise_link not in ("cv_scaled", "none"):
        raise ValidationError(f"unknown noise link {noise_link!r}")
    beta = np.asarray(effect, dtype=np.float64)
    if beta.shape != (4,):
        raise ValidationError("effect must have 4 entries: intercept, age, sex, dx")
    if n_sites < 1:
        raise ValidationError("need at least one site")
    p = 4 + (n_sites - 1)
    if n_subjects < p + 2:
        raise ValidationError(f"need at least {p + 2} subjects for {n_sites} sites")
    rng = np.random.default_rng(seed & _MASK64)
    age = rng.uniform(20.0, 90.0, n_subjects)
    sex = rng.integers(0, 2, n_subjects).astype(np.float64)
    dx = rng.integers(0, 2, n_subjects).astype(np.float64)
    site_idx = rng.integers(0, n_sites, n_subjects)
    cv = rng.uniform(0.05, 0.8, n_subjects)
    eps = rng.standard_normal(n_subjects)
    if noise_link == "cv_scaled":
        noise = noise_scale * cv * eps
    else:
        noise = noise_scale * eps
    site_shift = rng.normal(0.0, 0.25, n_sites)
    site_shift[0] = 0.0
    volume = beta[0] + beta[1] * age + beta[2] * sex + beta[3] * dx
    volume = volume + site_shift[site_idx] + noise
    site_names = tuple(f"site_{chr(ord('a') + int(k))}" for k in site_idx)
    table = CohortTable(
        subject_ids=tuple(f"sub-{i:04d}" for i in range(n_subjects)),
        age=age,
        sex=sex,
        dx=dx,
        volume=volume,
        site=site_names if n_sites > 1 else None,
        cv=cv,
        mc_dice=1.0 - cv / (1.0 + cv),
    )
    return table, beta

