"""Output checks of the benchmark, independent of segqc's own code paths.

Each check returns a list of problems; an empty list means the output is
correct. Expected values come from closed forms or from a direct
re-implementation over the stored files (read with :mod:`niftilite`),
never from ``segqc`` functions:

* a9_labels: a closed-form z-slab oracle built from the slab bounds;
* prob_maps: entropy recomputed with ``scipy.special.entr`` over the
  stored probability maps, majority of the mean maps, per-label masks;
* paper_studies: Pearson r recomputed with ``numpy.corrcoef`` from the
  report JSON files, the (+, -, -) sign pattern, and the ``none``-mode
  diagnosis effect from ``numpy.linalg.lstsq``.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.special import entr

import niftilite

REL_TOL = 1e-9


def _close(a, b, rel=REL_TOL, abs_tol=1e-12) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


def load_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _pair_dice(size_a: float, size_b: float, inter: float) -> float:
    if size_a == 0 and size_b == 0:
        return 1.0
    if size_a == 0 or size_b == 0:
        return 0.0
    return 2.0 * inter / (size_a + size_b)


def compare_report(doc: dict, expected: dict) -> list[str]:
    """Compare a report JSON document with expected per-structure values."""
    problems = []
    if doc.get("n_samples") != expected["n_samples"]:
        problems.append(f"n_samples {doc.get('n_samples')} != {expected['n_samples']}")
    for key in ("min", "mean", "max"):
        got = doc.get("uncertainty", {}).get(key)
        if not _close(got, expected["uncertainty"][key]):
            problems.append(f"uncertainty.{key} {got} != {expected['uncertainty'][key]}")
    rows = {s.get("label_id"): s for s in doc.get("structures", [])}
    if sorted(rows) != sorted(expected["structures"]):
        return problems + [f"structures {sorted(rows)} != {sorted(expected['structures'])}"]
    for lid, want in expected["structures"].items():
        for key, value in want.items():
            if not _close(rows[lid].get(key), value):
                problems.append(f"label {lid} {key}: {rows[lid].get(key)} != {value}")
    return problems


# -- a9_labels ---------------------------------------------------------------


def _slab_planes(bounds: list[int], dims: int) -> list[int]:
    """Label of every z-plane of one slab volume."""
    out, label = [], 0
    for z in range(dims):
        while label < len(bounds) and z >= bounds[label]:
            label += 1
        out.append(label)
    return out


def a9_expected(meta: dict) -> dict:
    """Report values of the z-slab scan in closed form.

    Label k of a volume with interfaces b covers the z-planes
    [b[k-1], b[k]); every plane holds dims**2 voxels of unit volume.
    """
    dims, n_labels = meta["dims"], meta["n_labels"]
    area = dims * dims
    edges = [[0, *b, dims] for b in meta["sample_bounds"]]
    n = len(edges)
    planes = [_slab_planes(b, dims) for b in meta["sample_bounds"]]
    gt = _slab_planes(meta["gt_bounds"], dims)
    consensus = []
    for z in range(dims):
        votes = [p[z] for p in planes]
        consensus.append(min(set(votes), key=lambda lab: (-votes.count(lab), lab)))
    structures = {}
    for k in range(1, n_labels):
        lo = [e[k] for e in edges]
        hi = [e[k + 1] for e in edges]
        vols = [(hi[i] - lo[i]) * area for i in range(n)]
        mean = sum(vols) / n
        std = math.sqrt(sum((v - mean) ** 2 for v in vols) / (n - 1))
        dice = [
            _pair_dice(vols[i], vols[j], max(0, min(hi[i], hi[j]) - max(lo[i], lo[j])) * area)
            for i, j in combinations(range(n), 2)
        ]
        cons = consensus.count(k) * area
        both = sum(1 for z in range(dims) if consensus[z] == k and gt[z] == k) * area
        structures[k] = {
            "mean_volume": mean, "std_volume": std, "cv": std / mean,
            "mc_dice": sum(dice) / len(dice),
            "mean_uncertainty": 0.0 if cons else None,
            "consensus_volume": float(cons),
            "gt_dice": _pair_dice(cons, gt.count(k) * area, both),
        }
    return {"n_samples": n, "uncertainty": {"min": 0.0, "mean": 0.0, "max": 0.0},
            "structures": structures}


# -- prob_maps ---------------------------------------------------------------


def prob_expected(scan: Path) -> dict:
    """Report values, uncertainty map and consensus from the stored files."""
    manifest = load_json(scan / "manifest.json")
    registry = load_json(scan / manifest["registry"])
    ids = [registry["background"]] + [
        s["id"] for s in registry["structures"] if s["id"] != registry["background"]
    ]
    labels = [niftilite.read(scan / name) for name in manifest["samples"]]
    gt = niftilite.read(scan / manifest["gt"])
    n = len(labels)
    unc = np.zeros(gt.shape)
    mean_prob = np.zeros((len(ids),) + gt.shape)
    for i, per_sample in enumerate(manifest["probs"]):
        for k, name in enumerate(per_sample):
            p = niftilite.read(scan / name).astype(np.float64)
            unc += entr(p)
            mean_prob[k] += p
    mean_prob /= n
    order = np.argsort(ids, kind="stable")  # ties go to the lowest label id
    consensus = np.asarray(ids)[order][np.argmax(mean_prob[order], axis=0)]

    structures = {}
    for lid in ids[1:]:
        masks = [lab == lid for lab in labels]
        vols = np.array([m.sum() for m in masks], dtype=np.float64)
        mean = float(vols.mean())
        dice = [_pair_dice(vols[i], vols[j], np.count_nonzero(masks[i] & masks[j]))
                for i, j in combinations(range(n), 2)]
        cons = consensus == lid
        gt_mask = gt == lid
        structures[lid] = {
            "mean_volume": mean, "std_volume": float(vols.std(ddof=1)),
            "cv": float(vols.std(ddof=1)) / mean if mean else None,
            "mc_dice": sum(dice) / len(dice) if mean else None,
            "mean_uncertainty": float(unc[cons].mean()) if cons.any() else None,
            "consensus_volume": float(cons.sum()),
            "gt_dice": _pair_dice(cons.sum(), gt_mask.sum(), np.count_nonzero(cons & gt_mask)),
        }
    return {"n_samples": n,
            "uncertainty": {"min": float(unc.min()), "mean": float(unc.mean()),
                            "max": float(unc.max())},
            "structures": structures, "unc": unc, "consensus": consensus}


def check_prob_outputs(outputs: dict, expected: dict) -> list[str]:
    """Report, uncertainty volume and mc_dice heat map of one metrics call."""
    doc = load_json(outputs["report"])
    problems = compare_report(doc, expected)
    unc = niftilite.read(outputs["unc"])
    want = expected["unc"].astype(np.float32)
    if unc.shape != want.shape or not np.allclose(unc, want, rtol=1e-6, atol=1e-6):
        problems.append("uncertainty volume differs from the entropy of the stored maps")
    lut = np.zeros(int(expected["consensus"].max()) + 1, dtype=np.float32)
    for s in doc.get("structures", []):
        if s.get("mc_dice") is not None:
            lut[s["label_id"]] = s["mc_dice"]
    if not np.array_equal(niftilite.read(outputs["heat"]), lut[expected["consensus"]]):
        problems.append("heat map differs from report mc_dice painted on the consensus")
    return problems


# -- paper_studies -----------------------------------------------------------


def check_simulate(sim: Path, meta: dict) -> list[str]:
    """Every scan directory lists its samples and probability maps, all on disk."""
    problems = []
    scans = load_json(sim / "dataset.json")["scans"]
    if scans != meta["scan_ids"]:
        problems.append(f"scans {scans} != {meta['scan_ids']}")
    for sid in meta["scan_ids"]:
        manifest = load_json(sim / sid / "manifest.json")
        files = list(manifest["samples"]) + [q for per in manifest["probs"] for q in per]
        if len(manifest["samples"]) != meta["n_samples"]:
            problems.append(f"{sid}: {len(manifest['samples'])} samples")
        missing = [f for f in files if not (sim / sid / f).is_file()]
        if missing:
            problems.append(f"{sid}: {len(missing)} listed files missing")
    return problems


def check_study_report(path: Path, n_samples: int) -> list[str]:
    """Range and completeness checks of one bundled-study report."""
    doc = load_json(path)
    problems = []
    if doc.get("n_samples") != n_samples:
        problems.append(f"n_samples {doc.get('n_samples')} != {n_samples}")
    u = doc.get("uncertainty", {})
    if not 0.0 <= u.get("min", -1) <= u.get("mean", -1) <= u.get("max", -1):
        problems.append(f"uncertainty summary out of order: {u}")
    if [s.get("label_id") for s in doc.get("structures", [])] != list(range(1, 9)):
        problems.append("report does not list structures 1..8")
    for s in doc.get("structures", []):
        ok = (s.get("gt_dice") is not None and 0.0 <= s["gt_dice"] <= 1.0
              and (s.get("mc_dice") is None or 0.0 <= s["mc_dice"] <= 1.0)
              and (s.get("cv") is None or s["cv"] >= 0.0))
        if not ok:
            problems.append(f"label {s.get('label_id')}: values out of range")
    return problems


def check_correlate(reports: Path, csv_path: Path) -> list[str]:
    """Pooled r per metric recomputed with numpy.corrcoef, and its sign."""
    records = []
    for path in sorted(reports.glob("*.json")):
        for s in load_json(path)["structures"]:
            if not (s["cv"] is None and s["mc_dice"] is None and s["mean_uncertainty"] is None):
                records.append(s)
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = {r["metric"]: r for r in csv.DictReader(fh)}
    problems = []
    for metric, key, sign in (("mc_dice", "mc_dice", 1), ("cv", "cv", -1),
                              ("mean_unc", "mean_uncertainty", -1)):
        pairs = [(s[key], s["gt_dice"]) for s in records if s[key] is not None]
        want = float(np.corrcoef(np.array(pairs).T)[0, 1])
        row = rows.get(metric)
        if row is None:
            problems.append(f"correlation row {metric} missing")
            continue
        got = float(row["r"])
        if not _close(got, want, rel=1e-9) or int(row["n_used"]) != len(pairs):
            problems.append(f"r({metric}) {got} (n {row['n_used']}) != {want} (n {len(pairs)})")
        if got * sign <= 0:
            problems.append(f"r({metric}) = {got:+.4f} has the wrong sign")
    return problems


def group_expected(cohort: Path) -> float:
    """Diagnosis effect of the unweighted fit on z-scored volume and age."""
    with open(cohort, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    col = {k: np.array([float(r[k]) for r in rows]) for k in ("age", "sex", "dx", "volume")}
    z = {k: (col[k] - col[k].mean()) / col[k].std(ddof=1) for k in ("age", "volume")}
    sites = np.array([r["site"] for r in rows])
    dummies = [(sites == level).astype(float) for level in sorted(set(sites))[1:]]
    X = np.column_stack([np.ones(len(rows)), z["age"], col["sex"], col["dx"], *dummies])
    beta = np.linalg.lstsq(X, z["volume"], rcond=None)[0]
    return float(beta[3])


def check_group(csv_path: Path, beta_none: float) -> list[str]:
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = {r["mode"]: r for r in csv.DictReader(fh)}
    problems = []
    if sorted(rows) != sorted(("none", "inv_cv", "inv_one_minus_dice", "huber")):
        problems.append(f"group modes {sorted(rows)}")
    if "none" in rows and not _close(float(rows["none"]["beta_d"]), beta_none, rel=1e-8):
        problems.append(f"none-mode beta_d {rows['none']['beta_d']} != lstsq {beta_none}")
    if not all(math.isfinite(float(r["beta_d"])) for r in rows.values()):
        problems.append("non-finite beta_d")
    return problems
