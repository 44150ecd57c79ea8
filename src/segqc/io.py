"""Table, registry, report, and config serialization.

Everything here is strict and deterministic: JSON uses shortest
round-trip float formatting (the json module's repr-based default),
CSV parsing names the offending line and column, and readers ignore
unknown JSON fields so report schemas can grow without breaking old
consumers. Volume I/O lives in :mod:`segqc.nifti`; this module adds the
structured-text side plus the metric heat-map writer.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import re
import sys
from array import array
from pathlib import Path
from typing import Sequence

import numpy as np

from .metrics import STRUCTURE_METRICS, StructureMetrics, StructureReport
from .nifti import OrientationInfo, _atomic, _check_orientation, read_label_nifti, write_nifti
from .stats import CohortTable
from .synth import NoiseSpec, PhantomSpec, ShapeSpec
from .volumes import (
    LabelVolume,
    McSampleSet,
    ProbMapStack,
    StructureRegistry,
    ValidationError,
    VoxelGeometry,
)

REPORT_SCHEMA_VERSION = "1"

COHORT_REQUIRED = ("subject_id", "age", "sex", "dx", "volume")
COHORT_OPTIONAL = ("site", "cv", "mc_dice")

# phantom dims and spacing go into the NIfTI-1 header's int16 dim and
# float32 pixdim fields
_MAX_DIM = np.iinfo(np.int16).max
_MAX_SPACING = float(np.finfo(np.float32).max)


def _load_json(path: str | Path) -> object:
    # OSError propagates: missing/unreadable files are I/O errors, not format errors
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not valid UTF-8: {exc}") from exc
    # ValueError also covers an integer past the int-to-str digit limit;
    # RecursionError is nesting deeper than the decoder can follow
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


_REQUIRED = object()
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string", dict: "a JSON object", list: "a JSON array"}


def _typed(value: object, kind, where: str | Path, path: str):
    """``value`` read as ``kind``: the one typing rule of every JSON input.

    ``kind`` is bool, int, float, str, dict or list, or ``[kind]`` for an
    array of that kind. true and false are booleans only, never numbers;
    an int is a number with no fractional part (15, or 15.0 as float-based
    writers emit it); a float is any finite number, returned as a float;
    a string is a JSON string only, so a number is never a name or a path
    and a numeric string never a number, and holds no NUL, which no file
    name and no CSV cell can carry. Anything else raises a
    ValidationError naming the file ``where`` and the ``path`` inside it.
    """
    if isinstance(kind, list):
        items = _typed(value, list, where, path)
        return [_typed(v, kind[0], where, f"{path}[{i}]") for i, v in enumerate(items)]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    # the comparison is exact for ints and false for NaN, so integers too
    # large for a float are refused along with NaN and the infinities
    if kind is float and number and abs(value) <= sys.float_info.max:
        return float(value)
    if kind is str and isinstance(value, str) and "\0" in value:
        raise ValidationError(f"{where}: {path} must not contain a NUL character")
    if kind in (bool, str, dict, list) and isinstance(value, kind):
        return value
    shown = json.dumps(value, ensure_ascii=False, default=repr)
    if len(shown) > 60:  # an array or a long number where a scalar belongs
        shown = shown[:56] + " ..."
    raise ValidationError(
        f"{f'{where}: {path}' if path else where} must be {_KIND_NAMES[kind]}, got {shown}"
    )


def _field(doc: dict, key: str, kind, where: str | Path, path: str = "",
           default=_REQUIRED):
    """Member ``key`` of the JSON object ``doc`` at ``path``, read by
    :func:`_typed`. A missing key takes ``default`` and is an error when
    there is none; null counts as missing only where the default is None.
    """
    if key not in doc or (doc[key] is None and default is None):
        if default is _REQUIRED:
            raise ValidationError(
                f"{where}: {f'{path}: ' if path else ''}missing required field \"{key}\""
            )
        return default
    return _typed(doc[key], kind, where, f"{path}.{key}" if path else key)


def _dump_json(obj: object, path: str | Path) -> None:
    with _atomic(path) as tmp:
        tmp.write_text(json.dumps(obj, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


# -- structure registry ------------------------------------------------------


def read_registry(path: str | Path) -> StructureRegistry:
    """Registry JSON: {"background": id, "structures": [{"id", "name"}, ...]}.

    The background entry itself may be listed under "structures"; if not,
    it is added with the name "background".
    """
    doc = _typed(_load_json(path), dict, path, "")
    background = _field(doc, "background", int, path)
    entries = []
    for k, item in enumerate(_field(doc, "structures", [dict], path)):
        at = f"structures[{k}]"
        entries.append((_field(item, "id", int, path, at), _field(item, "name", str, path, at)))
    if background not in [i for i, _ in entries]:
        entries.insert(0, (background, "background"))
    return StructureRegistry(entries=tuple(entries), background_id=background)


def write_registry(registry: StructureRegistry, path: str | Path) -> None:
    doc = {
        "background": registry.background_id,
        "structures": [{"id": i, "name": n} for i, n in registry.entries],
    }
    _dump_json(doc, path)


# -- cohort CSV --------------------------------------------------------------


def _cell_value(cell: str, line: int, column: str, path) -> float:
    """A numeric cell by the per-cell rule: empty is NaN in an optional column."""
    cell = cell.strip()
    if cell == "" and column in ("cv", "mc_dice"):
        return math.nan
    if cell == "":
        raise ValidationError(f"{path}: line {line}, column {column}: required value is empty")
    try:
        return float(cell)
    except ValueError:
        raise ValidationError(
            f"{path}: line {line}, column {column}: cannot parse {cell!r} as a number"
        ) from None


def read_cohort_csv(path: str | Path) -> CohortTable:
    """Cohort CSV with header subject_id, age, sex, dx, site?, volume, cv?, mc_dice?.

    UTF-8, with or without a leading byte order mark; '.' decimal
    separator. Optional numeric cells may be empty (missing weight);
    required cells may not. Any unparsable numeric cell is an error
    naming its line number and column. Only CR and LF end a line: other
    Unicode line separators are ordinary characters in a cell. The file is
    streamed, its numbers converted _COHORT_BLOCK rows at a time, so memory
    follows the table, not the file; errors still come in file order.
    """
    path = Path(path)
    try:
        # newline=None: CR and CRLF read as LF, in quoted cells too, and nothing else
        with open(path, encoding="utf-8-sig") as fh:
            return _parse_cohort(csv.reader(fh), path)
    except UnicodeDecodeError as exc:
        try:  # decoded whole, the error gives the offset in the file, not in a read buffer
            path.read_bytes().decode("utf-8-sig")
        except UnicodeDecodeError as whole:
            exc = whole
        raise ValidationError(f"{path} is not valid UTF-8: {exc}") from exc


_COHORT_BLOCK = 4096  # rows whose numeric cells are converted together


def _parse_cohort(reader, path: Path) -> CohortTable:
    header: list[str] = []
    block: list[list[str]] = []  # data rows not yet converted
    lines = array("q")  # the last physical line of each row in block
    cols: dict[str, list] = {}  # per column, its strings or its converted blocks
    sites: dict[str, str] = {}  # one str object per distinct site

    def flush() -> None:
        if not block:
            return
        cells = dict(zip(header, zip(*block)))
        numeric = [h for h in header if h not in ("subject_id", "site")]
        cols["subject_id"] += map(str.strip, cells["subject_id"])
        if "site" in cells:
            cols["site"] += (sites.setdefault(s, s) for s in map(str.strip, cells["site"]))
        try:  # float strips the same whitespace as str.strip
            parts = [np.fromiter(map(float, cells[h]), np.float64, len(block)) for h in numeric]
        except ValueError:  # the per-cell rule, row by row, so the first bad cell is named
            at = [(header.index(h), h) for h in numeric]
            parts = np.array([[_cell_value(row[k], line, h, path) for k, h in at]
                              for row, line in zip(block, lines)]).T
        for h, part in zip(numeric, parts):
            cols[h].append(part)
        block.clear()
        del lines[:]

    try:
        first = next(reader, None)
        if first is None:
            raise ValidationError(f"{path}: empty file, expected a header row")
        header = [h.strip() for h in first]
        for col in COHORT_REQUIRED:
            if col not in header:
                raise ValidationError(f"{path}: header is missing required column {col}")
        unknown = [h for h in header if h not in COHORT_REQUIRED + COHORT_OPTIONAL]
        if unknown:
            raise ValidationError(f"{path}: unknown columns {unknown}")
        if len(set(header)) != len(header):
            raise ValidationError(f"{path}: duplicate columns in header")
        cols.update((h, []) for h in header)
        for row in reader:
            if not "".join(row).strip():
                continue  # blank line
            if len(row) != len(header):
                flush()
                raise ValidationError(f"{path}: line {reader.line_num}: expected "
                                      f"{len(header)} fields, got {len(row)}")
            block.append(row)
            lines.append(reader.line_num)
            if len(block) == _COHORT_BLOCK:
                flush()
    except csv.Error as exc:  # an oversized field, say
        flush()
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
    flush()
    if not cols["subject_id"]:
        raise ValidationError(f"{path}: no data rows")
    ids, site = cols.pop("subject_id"), cols.pop("site", None)
    return CohortTable(subject_ids=tuple(ids), site=None if site is None else tuple(site),
                       **{h: np.concatenate(parts) for h, parts in cols.items()})


# -- metric report JSON ------------------------------------------------------


def report_to_dict(report: StructureReport) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scan_id": report.scan_id,
        "dataset": report.dataset,
        "n_samples": report.n_samples,
        "normalized_uncertainty": report.normalized_uncertainty,
        "uncertainty": {
            "min": report.uncertainty_min,
            "mean": report.uncertainty_mean,
            "max": report.uncertainty_max,
        },
        # StructureMetrics' field order is the JSON key order
        "structures": [dataclasses.asdict(s) for s in report.structures],
    }


def write_report(report: StructureReport, path: str | Path) -> None:
    _dump_json(report_to_dict(report), path)


def report_from_dict(doc: dict, where: str = "report") -> StructureReport:
    doc = _typed(doc, dict, where, "")
    version = doc.get("schema_version")
    if version != REPORT_SCHEMA_VERSION:
        raise ValidationError(
            f"{where}: schema_version {version!r} unsupported, expected "
            f"{REPORT_SCHEMA_VERSION!r}"
        )
    unc = _field(doc, "uncertainty", dict, where)
    structures = []
    for k, s in enumerate(_field(doc, "structures", [dict], where)):
        at = f"structures[{k}]"
        structures.append(StructureMetrics(
            label_id=_field(s, "label_id", int, where, at),
            name=_field(s, "name", str, where, at),
            mean_volume=_field(s, "mean_volume", float, where, at),
            std_volume=_field(s, "std_volume", float, where, at),
            cv=_field(s, "cv", float, where, at, None),
            mc_dice=_field(s, "mc_dice", float, where, at, None),
            mean_uncertainty=_field(s, "mean_uncertainty", float, where, at, None),
            consensus_volume=_field(s, "consensus_volume", float, where, at),
            gt_dice=_field(s, "gt_dice", float, where, at, None),
        ))
    return StructureReport(
        structures=tuple(structures),
        n_samples=_field(doc, "n_samples", int, where),
        uncertainty_min=_field(unc, "min", float, where, "uncertainty"),
        uncertainty_mean=_field(unc, "mean", float, where, "uncertainty"),
        uncertainty_max=_field(unc, "max", float, where, "uncertainty"),
        normalized_uncertainty=_field(doc, "normalized_uncertainty", bool, where,
                                      default=False),
        scan_id=_field(doc, "scan_id", str, where, default=""),
        dataset=_field(doc, "dataset", str, where, default=""),
    )


def read_report(path: str | Path) -> StructureReport:
    return report_from_dict(_load_json(path), where=str(path))


# -- heat map ----------------------------------------------------------------


def write_heatmap_volume(
    consensus: LabelVolume,
    report: StructureReport,
    metric: str,
    path: str | Path,
    orientation: OrientationInfo | None = None,
) -> None:
    """Float32 volume where each voxel carries its consensus structure's metric.

    Background and absent-flagged structures map to 0 (an absent structure
    has no consensus voxels anyway). ``orientation`` goes into the header.
    """
    if metric not in STRUCTURE_METRICS:
        raise ValidationError(f"metric must be one of {tuple(STRUCTURE_METRICS)}, got {metric!r}")
    lut = np.zeros(int(consensus.data.max()) + 1, dtype=np.float32)
    for s in report.structures:
        value = getattr(s, STRUCTURE_METRICS[metric])
        if s.label_id < lut.size and value is not None:
            lut[s.label_id] = value
    heat = lut[consensus.data]
    write_nifti(path, heat, consensus.geometry, orientation)


# -- phantom / noise configs -------------------------------------------------


def read_phantom_json(path: str | Path) -> PhantomSpec:
    """Phantom JSON: dims, spacing?, background?, shapes[{label, kind, center, size}]."""
    doc = _typed(_load_json(path), dict, path, "")
    dims = _field(doc, "dims", [int], path)
    if not all(1 <= d <= _MAX_DIM for d in dims):
        raise ValidationError(f"{path}: dims must each be in 1..{_MAX_DIM}, got {dims}")
    spacing = _field(doc, "spacing", [float], path, default=[1.0, 1.0, 1.0])
    # a spacing that rounds to 0 would write a file segqc then refuses
    if not all(s <= _MAX_SPACING and np.float32(s) != 0 for s in spacing):
        raise ValidationError(f"{path}: spacing must each fit a float32 pixdim, nonzero "
                              f"and at most {_MAX_SPACING:g}, got {spacing}")
    shapes = []
    for k, s in enumerate(_field(doc, "shapes", [dict], path)):
        at = f"shapes[{k}]"
        shapes.append(ShapeSpec(
            label_id=_field(s, "label", int, path, at),
            kind=_field(s, "kind", str, path, at),
            center=tuple(_field(s, "center", [float], path, at)),
            size=tuple(_field(s, "size", [float], path, at)),
        ))
    return PhantomSpec(geometry=VoxelGeometry(tuple(dims), tuple(spacing)),
                       shapes=tuple(shapes),
                       background_id=_field(doc, "background", int, path, default=0))


def _noise_fields(doc: dict, where: str | Path, path: str = "") -> dict:
    """The :class:`NoiseSpec` fields set in ``doc``, each typed at ``path``."""
    out = {key: _field(doc, key, kind, where, path)
           for key, kind in (("n_samples", int), ("default_flip_prob", float),
                             ("erosion_dilation_radius", int), ("seed", int)) if key in doc}
    if "flip_probs" in doc:
        flips = _field(doc, "flip_probs", dict, where, path)
        at = f"{path}.flip_probs" if path else "flip_probs"
        for key in flips:
            # one spelling per id, so no two keys can name the same structure
            if not re.fullmatch("0|[1-9][0-9]*", key):
                raise ValidationError(
                    f"{where}: {at} key {key!r} must be a label id in plain decimal"
                )
        out["flip_probs"] = tuple((int(key), _field(flips, key, float, where, at))
                                  for key in flips)
    return out


def _noise_spec(fields: dict, where: str | Path, path: str = "") -> NoiseSpec:
    _field(fields, "n_samples", int, where, path)  # the one required field
    return NoiseSpec(**fields)


def read_noise_json(path: str | Path) -> tuple[tuple[str, NoiseSpec], ...]:
    """Noise JSON, single-scan or multi-scan.

    Single scan: {"n_samples", "flip_probs": {"label": p, ...}, ...} with
    scan id "". Multi scan: {"scans": [{"scan_id", "seed", "flip_probs"},
    ...]} plus top-level defaults the scan entries inherit, typed where
    they stand. A scan id names the scan's output directory, so it must
    be one path component.
    """
    doc = _typed(_load_json(path), dict, path, "")
    if "scans" not in doc:
        return (("", _noise_spec(_noise_fields(doc, path), path)),)
    scans = _field(doc, "scans", [dict], path)
    if not scans:
        raise ValidationError(f"{path}: \"scans\" must be a non-empty JSON array")
    base = _noise_fields(doc, path)
    base_id = _field(doc, "scan_id", str, path, default=None)
    out = []
    for k, entry in enumerate(scans):
        at = f"scans[{k}]"
        scan_id = _field(entry, "scan_id", str, path, at,
                         default=f"scan_{k:02d}" if base_id is None else base_id)
        if scan_id in ("", ".", "..") or set(scan_id) & {"/", os.sep, os.altsep}:
            raise ValidationError(f"{path}: {at}.scan_id must be one path component, "
                                  f"got {scan_id!r}")
        out.append((scan_id, _noise_spec({**base, **_noise_fields(entry, path, at)}, path, at)))
    ids = [sid for sid, _ in out]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{path}: duplicate scan_id values")
    return tuple(out)


# -- sample sets from volume files -------------------------------------------


def read_sample_set(
    label_paths: Sequence[str | Path],
    registry: StructureRegistry,
    prob_paths: Sequence[Sequence[str | Path]] | None = None,
) -> McSampleSet:
    """Assemble and validate a sample set from per-sample label files.

    ``prob_paths``, when given, lists one probability volume per registry
    entry (in registry order) for each sample, which becomes the sample's
    :class:`ProbMapStack` of file paths on the set's grid (the first label
    file's), so voxel uncertainty reflects the stored soft predictions;
    each map keeps the dtype its file stores. The label files are decoded
    first, and one that declares another orientation than the first
    sample's is refused, naming both files and both orientations (see
    :func:`segqc.nifti._check_orientation`); then the set's memoised
    :func:`validate_sample_set` report is taken.
    It checks the set's structure (N >= 2, each label file's grid and
    ids) before the maps, so a structural fault is refused before any
    probability file is decoded; otherwise its pass over the maps
    (:attr:`McSampleSet.prob_pass`) checks every probability file's
    header, then reads each file once, a z-slab at a time. Any violation
    raises one ValidationError listing them all, each sample's prefixed
    with its label file; a probability file that is missing or on another
    grid than the set's raises when its header is read, naming both grids.
    """
    if prob_paths is not None and len(prob_paths) != len(label_paths):
        raise ValidationError(
            f"got {len(prob_paths)} probability entries for {len(label_paths)} samples"
        )
    labels, probs = [], None if prob_paths is None else []
    for i, p in enumerate(label_paths):
        labels.append(read_label_nifti(p))
        _check_orientation(p, labels[i], label_paths[0], labels[0])
        if probs is not None:
            probs.append(ProbMapStack(labels[0].geometry, registry.ids, prob_paths[i], owner=p))
    sample_set = McSampleSet(geometry=labels[0].geometry if labels else None,
                             registry=registry, labels=labels, probs=probs)
    if sample_set.violations:
        raise ValidationError("; ".join(
            str(v) if v.sample_index is None else f"{label_paths[v.sample_index]}: {v}"
            for v in sample_set.violations
        ))
    return sample_set


# -- scan manifests ----------------------------------------------------------


def write_scan_manifest(
    path: str | Path,
    samples: Sequence[str],
    gt: str | None = None,
    registry: str | None = None,
    probs: Sequence[Sequence[str]] | None = None,
    extra: dict | None = None,
) -> None:
    """Manifest JSON listing one scan's files, with paths relative to itself."""
    doc: dict = {"schema_version": REPORT_SCHEMA_VERSION, "samples": list(samples)}
    if gt is not None:
        doc["gt"] = gt
    if registry is not None:
        doc["registry"] = registry
    if probs is not None:
        doc["probs"] = [list(per_sample) for per_sample in probs]
    if extra:
        doc.update(extra)
    _dump_json(doc, path)


def read_scan_manifest(path: str | Path) -> dict:
    """Manifest as a dict with "samples"/"gt"/"registry"/"probs" resolved
    to absolute paths against the manifest's own directory."""
    doc = _typed(_load_json(path), dict, path, "")
    samples = _field(doc, "samples", [str], path)
    if not samples:
        raise ValidationError(f"{path}: manifest needs a non-empty \"samples\" array")
    root = Path(path).resolve().parent

    def resolve(p: str) -> str:
        q = Path(p)
        return str(q if q.is_absolute() else root / q)

    out = dict(doc)
    out["samples"] = [resolve(p) for p in samples]
    for key in ("gt", "registry"):
        if (value := _field(doc, key, str, path, default=None)) is not None:
            out[key] = resolve(value)
    if (probs := _field(doc, "probs", [[str]], path, default=None)) is not None:
        if len(probs) != len(samples):
            raise ValidationError(
                f"{path}: \"probs\" must list one array of paths per sample"
            )
        out["probs"] = [[resolve(p) for p in per_sample] for per_sample in probs]
    return out
