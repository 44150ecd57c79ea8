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
from typing import Sequence

import numpy as np
from scipy import ndimage

from .stats import CohortTable
from .volumes import (
    LabelVolume,
    McSample,
    McSampleSet,
    ProbMapStack,
    StructureRegistry,
    ValidationError,
    VoxelGeometry,
    _UINT16_MAX,
)

_MASK64 = (1 << 64) - 1

# 6-connected structuring element: faces only, matching the neighborhood
# used for boundary detection.
_STRUCT6 = ndimage.generate_binary_structure(3, 1)


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


def _label_dtype(ids) -> type:
    """Smallest unsigned dtype holding every label id; ids outside the
    uint16 range of label volumes raise instead of wrapping."""
    lo, hi = min(ids), max(ids)
    if lo < 0 or hi > _UINT16_MAX:
        raise ValidationError(
            f"label id {lo if lo < 0 else hi} is outside 0..{_UINT16_MAX}, "
            "the range of label volumes"
        )
    return np.uint8 if hi <= np.iinfo(np.uint8).max else np.uint16


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
    data = np.full(dims, spec.background_id, dtype=np.int64)
    unwritten = np.ones(dims, dtype=bool)
    for shape in spec.shapes:
        cx, cy, cz = shape.center
        if shape.kind == "sphere":
            ax, ay, az = shape.size
            inside = ((x - cx) / ax) ** 2 + ((y - cy) / ay) ** 2 + ((z - cz) / az) ** 2 <= 1.0
        else:
            ex, ey, ez = (s / 2.0 for s in shape.size)
            inside = (np.abs(x - cx) <= ex) & (np.abs(y - cy) <= ey) & (np.abs(z - cz) <= ez)
        sel = inside & unwritten
        data[sel] = shape.label_id
        unwritten[sel] = False
    return LabelVolume(spec.geometry, data.astype(dtype))


def registry_for_phantom(spec: PhantomSpec) -> StructureRegistry:
    """Registry with one generically named entry per distinct structure id."""
    entries = [(spec.background_id, "background")]
    entries += [(lid, f"structure_{lid}") for lid in spec.label_ids]
    return StructureRegistry(entries=tuple(entries), background_id=spec.background_id)


def _stream(seed: int, sample_index: int, label_id: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed & _MASK64, sample_index, label_id))
    )


def _dominant_other_neighbor(data: np.ndarray, idx: np.ndarray, background_id: int) -> np.ndarray:
    """Most frequent 6-neighbor label differing from each voxel's own.

    Ties break to the lowest label; a voxel with no differing neighbor
    (possible at the volume edge) maps to the background.
    """
    dims = data.shape
    own = data.reshape(-1)[idx]
    coords = np.unravel_index(idx, dims)
    neigh = np.empty((6, idx.size), dtype=np.int64)
    k = 0
    for axis in range(3):
        for delta in (-1, 1):
            cc = [c for c in coords]
            cc[axis] = np.clip(coords[axis] + delta, 0, dims[axis] - 1)
            neigh[k] = data[tuple(cc)]
            k += 1
    cand = np.where(neigh != own[None, :], neigh, -1)
    counts = (cand[:, None, :] == cand[None, :, :]).sum(axis=1)
    # rank by count, then by low label id; invalid slots rank below all
    big = int(data.max()) + 2
    score = np.where(cand >= 0, counts * big + (big - 1 - cand), -1)
    best = np.argmax(score, axis=0)
    result = cand[best, np.arange(idx.size)]
    return np.where(result < 0, background_id, result)


def _soft_probs(
    labels: np.ndarray,
    geometry: VoxelGeometry,
    registry: StructureRegistry,
    noise: NoiseSpec,
) -> ProbMapStack:
    """One-hot maps with boundary voxels softened by sigma = flip_prob / 2.

    A boundary voxel keeps 1 - sigma on its own label and moves sigma to
    its dominant differing neighbor, with sigma the larger of the two
    structures' values (background contributes none). Argmax of the
    result always reproduces ``labels``.
    """
    boundary = np.zeros(labels.shape, dtype=bool)
    for axis in range(3):
        sl_a = [slice(None)] * 3
        sl_b = [slice(None)] * 3
        sl_a[axis] = slice(None, -1)
        sl_b[axis] = slice(1, None)
        diff = labels[tuple(sl_a)] != labels[tuple(sl_b)]
        boundary[tuple(sl_a)] |= diff
        boundary[tuple(sl_b)] |= diff
    idx = np.flatnonzero(boundary.reshape(-1))

    sigma_of = np.zeros(int(labels.max()) + 1)
    for lid, _ in registry.foreground:
        if lid <= labels.max():
            sigma_of[lid] = noise.flip_prob(lid) / 2.0

    ids = registry.ids
    pos_of = {lid: i for i, lid in enumerate(ids)}
    maps = np.zeros((len(ids), labels.size), dtype=np.float64)
    flat = labels.reshape(-1)
    for i, lid in enumerate(ids):
        maps[i] = flat == lid
    if idx.size:
        own = flat[idx]
        other = _dominant_other_neighbor(labels, idx, registry.background_id)
        sigma = np.maximum(sigma_of[own], sigma_of[other])
        own_pos = np.asarray([pos_of[int(l)] for l in own])
        other_pos = np.asarray([pos_of[int(l)] for l in other])
        maps[own_pos, idx] = 1.0 - sigma
        maps[other_pos, idx] += sigma
    return ProbMapStack(geometry, ids, maps.reshape((len(ids),) + labels.shape))


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
    by the configured radius at a fair coin. With ``with_probs`` each
    sample also carries a boundary-softened probability map; otherwise
    samples are label-only. The ground truth's ids and the background must
    lie in 0..65535; registry ids the ground truth does not use may be larger.
    """
    unknown = gt.check_labels(registry)
    if unknown:
        raise ValidationError(f"ground truth contains unregistered labels: {unknown}")
    gt_data = gt.data.astype(np.int64)
    bg = registry.background_id
    # samples hold only the ground truth's ids and the background; their
    # dtype follows the registry, whose unused ids may pass the uint16 range
    dtype = _label_dtype([bg, int(gt_data.max()), min(registry.max_id, _UINT16_MAX)])

    # flip candidate sets depend only on the ground truth: compute once
    flip_sets = {}
    for lid, _ in registry.foreground:
        f = noise.flip_prob(lid)
        mask = gt_data == lid
        if f == 0.0 or not mask.any():
            continue
        # border_value=1: the volume edge is not a structure boundary
        inner = mask & ~ndimage.binary_erosion(mask, _STRUCT6, border_value=1)
        outer = ndimage.binary_dilation(mask, _STRUCT6) & ~mask
        inner_idx = np.flatnonzero(inner.reshape(-1))
        outer_idx = np.flatnonzero(outer.reshape(-1))
        inner_target = _dominant_other_neighbor(gt_data, inner_idx, bg)
        flip_sets[lid] = (f, inner_idx, inner_target, outer_idx)

    samples = []
    for i in range(noise.n_samples):
        vol = gt_data.copy()
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
                        keep = ndimage.binary_erosion(mask, _STRUCT6, iterations=r)
                        vol[mask & ~keep] = bg
                    else:
                        grown = ndimage.binary_dilation(mask, _STRUCT6, iterations=r)
                        vol[grown & (vol == bg)] = lid
        label_vol = LabelVolume(gt.geometry, vol.astype(dtype))
        if with_probs:
            probs = _soft_probs(vol, gt.geometry, registry, noise)
            samples.append(McSample(labels=label_vol, probs=probs))
        else:
            samples.append(McSample(labels=label_vol))
    return McSampleSet(geometry=gt.geometry, registry=registry, samples=tuple(samples))


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


# ---------------------------------------------------------------------------
# Graded-noise study fixtures.
#
# The correlation study needs structure metrics that respond smoothly to
# noise severity. Majority-vote consensus over N samples denoises any
# isolated structure whose flip probability stays below 0.5, which makes
# Dice-vs-severity a flat line with a cliff. Placing structures in
# touching pairs stacks two flip channels at the shared interface
# (q = f_s + (1 - f_s) f_t crosses the consensus transition), giving a
# graded response. Uniform structure sizes keep CV free of the
# sqrt(surface)/volume nuisance term, and pair-shared severities put all
# metrics on one latent driver.

CONTACT_PAIR_ANCHORS = ((4, 4, 6), (4, 28, 26), (28, 4, 26), (28, 28, 6))


def contact_pair_phantom(
    dims: int = 48,
    width: int = 12,
    height: int = 6,
    shift: int = 2,
) -> PhantomSpec:
    """Four pairs of touching boxes with uniform size and a diagonal offset.

    Each pair stacks two width x width x height boxes along z; the upper
    box is shifted by ``shift`` voxels in x and y so the contact patch is
    (width - shift)^2 and both members expose free faces to background.
    Labels are 1..8; members of pair k are 2k+1 and 2k+2.
    """
    shapes = []
    lid = 1
    for ax, ay, az in CONTACT_PAIR_ANCHORS:
        for ox, oy, oz in ((0, 0, 0), (shift, shift, height)):
            x0, y0, z0 = ax + ox, ay + oy, az + oz
            center = (
                (2 * x0 + width - 1) / 2,
                (2 * y0 + width - 1) / 2,
                (2 * z0 + height - 1) / 2,
            )
            extent = (float(width - 1), float(width - 1), float(height - 1))
            shapes.append(ShapeSpec(lid, "box", center, extent))
            lid += 1
    geometry = VoxelGeometry((dims, dims, dims), (1.0, 1.0, 1.0))
    return PhantomSpec(geometry=geometry, shapes=tuple(shapes))


def graded_severities(
    n_scans: int = 13,
    n_pairs: int = 4,
    low: float = 0.02,
    high: float = 0.35,
    pair_jitter: float = 0.01,
    seed: int = 555,
) -> tuple[tuple[tuple[int, float], ...], ...]:
    """Per-scan flip probabilities for the paired-box phantom.

    Members of a pair share a baseline severity (neighboring structures
    see the same local image quality) plus a small independent jitter:
    base ~ U[low + j, high - j], member = clip(base + U[-j, j], low, high).
    Scan s draws from the substream SeedSequence((seed, s)), so the table
    is reproducible and extending n_scans never changes earlier scans.
    """
    if not 0.0 <= low < high < 0.5:
        raise ValidationError(f"need 0 <= low < high < 0.5, got [{low}, {high}]")
    table = []
    for scan in range(n_scans):
        rng = np.random.default_rng(np.random.SeedSequence((seed & _MASK64, scan)))
        probs = []
        for pair in range(n_pairs):
            base = rng.uniform(low + pair_jitter, high - pair_jitter)
            for member in range(2):
                f = float(np.clip(base + rng.uniform(-pair_jitter, pair_jitter), low, high))
                probs.append((2 * pair + member + 1, f))
        table.append(tuple(probs))
    return tuple(table)
