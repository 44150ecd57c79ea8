"""Seeded inputs and CLI call sequences of the three benchmark workloads.

Each workload is a closed loop with one client: a *pass* is a fixed
sequence of ``segqc`` CLI calls, and the next call starts only when the
previous one has exited. Inputs are generated once per (workload, scale,
seed) by :func:`generate`, outside every timed region, and cached on disk;
the program only ever sees the generated files.

Scales: ``full`` is the benchmark proper, ``smoke`` is a tiny version of
every workload with the same calls and checks, for the benchmark's own
tests.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import niftilite

WORKLOADS = ("a9_labels", "prob_maps", "paper_studies")

# a9_labels: the A9 acceptance scan -- z-slab labels whose interfaces
# jitter by one voxel per sample
A9 = {
    "full": {"dims": 256, "n_labels": 34, "n_samples": 15},
    "smoke": {"dims": 24, "n_labels": 8, "n_samples": 4},
}
# prob_maps: the bundled paired-box phantom scaled by `factor`
PROB = {
    "full": {"factor": 2.0, "n_samples": 15},
    "smoke": {"factor": 0.5, "n_samples": 4},
}
# paper_studies: the bundled study in docs/ plus a synthetic cohort
STUDY = {
    "full": {"n_scans": 13, "n_samples": 15, "cohort_rows": 300_000},
    "smoke": {"n_scans": 4, "n_samples": 6, "cohort_rows": 2_000},
}
CONTACT_PAIR_ANCHORS = ((4, 4, 6), (4, 28, 26), (28, 4, 26), (28, 28, 6))


@dataclass
class Call:
    """One CLI invocation of a pass: its kind (the subcommand) and argv."""

    kind: str
    argv: list[str]
    outputs: dict[str, Path] = field(default_factory=dict)


def _slab_bounds(n_labels: int, dims: int, n_samples: int, seed: int):
    """Interface planes of the ground truth and of each sample."""
    base = np.linspace(0, dims, n_labels + 1)[1:-1].astype(np.int64)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 9)))
    samples = [np.sort(base + rng.integers(-1, 2, base.size)) for _ in range(n_samples)]
    return base, samples


def _slab_volume(bounds: np.ndarray, dims: int) -> np.ndarray:
    lut = np.searchsorted(bounds, np.arange(dims), side="right").astype(np.uint8)
    return np.broadcast_to(lut[None, None, :], (dims, dims, dims))


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _gen_a9(out: Path, p: dict, seed: int) -> dict:
    dims, n_labels = p["dims"], p["n_labels"]
    base, samples = _slab_bounds(n_labels, dims, p["n_samples"], seed)
    niftilite.write(out / "gt.nii", _slab_volume(base, dims))
    names = []
    for i, bounds in enumerate(samples):
        names.append(f"sample_{i:03d}.nii")
        niftilite.write(out / names[-1], _slab_volume(bounds, dims))
    _write_json(out / "registry.json", {
        "background": 0,
        "structures": [{"id": i, "name": f"slab_{i:02d}"} for i in range(1, n_labels)],
    })
    _write_json(out / "manifest.json", {
        "schema_version": "1", "samples": names,
        "gt": "gt.nii", "registry": "registry.json",
    })
    return {"gt_bounds": base.tolist(), "sample_bounds": [b.tolist() for b in samples],
            "dims": dims, "n_labels": n_labels}


def _pair_boxes(factor: float) -> list[tuple[int, tuple[int, int, int], tuple[int, int, int]]]:
    """(label, low corner, edge lengths) of the four touching box pairs."""
    width, height, shift = int(12 * factor), int(6 * factor), int(2 * factor)
    boxes, lid = [], 1
    for anchor in CONTACT_PAIR_ANCHORS:
        ax, ay, az = (int(a * factor) for a in anchor)
        for ox, oy, oz in ((0, 0, 0), (shift, shift, height)):
            boxes.append((lid, (ax + ox, ay + oy, az + oz), (width, width, height)))
            lid += 1
    return boxes


def _simulate(root: Path, phantom: Path, noise: Path, out: Path) -> None:
    cmd = [sys.executable, "-m", "segqc.cli", "simulate", "--phantom", str(phantom),
           "--noise", str(noise), "--out", str(out), "--with-probs"]
    subprocess.run(cmd, check=True, env=program_env(root), stdout=subprocess.DEVNULL,
                   timeout=150)


def _gen_prob(root: Path, out: Path, p: dict, seed: int) -> dict:
    dims = int(48 * p["factor"])
    shapes = [
        {"label": lid, "kind": "box",
         "center": [lo[a] + (edge[a] - 1) / 2 for a in range(3)],
         "size": [float(edge[a] - 1) for a in range(3)]}
        for lid, lo, edge in _pair_boxes(p["factor"])
    ]
    _write_json(out / "phantom.json", {"dims": [dims] * 3, "spacing": [1.0] * 3,
                                       "background": 0, "shapes": shapes})
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    flips = {str(lid): float(f) for lid, f in zip(range(1, 9), rng.uniform(0.05, 0.3, 8))}
    _write_json(out / "noise.json", {"n_samples": p["n_samples"], "flip_probs": flips,
                                     "seed": 5000 + seed})
    _simulate(root, out / "phantom.json", out / "noise.json", out / "scan")
    return {"dims": dims}


def _gen_study(root: Path, out: Path, p: dict, seed: int) -> dict:
    sys.path.insert(0, str(root / "src"))
    from segqc.synth import make_cohort

    noise = json.loads((root / "docs" / "graded_noise.json").read_text(encoding="utf-8"))
    noise["scans"] = noise["scans"][: p["n_scans"]]
    noise["n_samples"] = p["n_samples"]
    _write_json(out / "noise.json", noise)
    shutil.copyfile(root / "docs" / "paired_boxes_phantom.json", out / "phantom.json")

    table, _ = make_cohort(p["cohort_rows"], seed=seed)
    with open(out / "cohort.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["subject_id", "age", "sex", "dx", "site", "volume", "cv", "mc_dice"])
        for i in range(table.n):
            w.writerow([table.subject_ids[i], repr(float(table.age[i])),
                        repr(float(table.sex[i])), repr(float(table.dx[i])), table.site[i],
                        repr(float(table.volume[i])), repr(float(table.cv[i])),
                        repr(float(table.mc_dice[i]))])
    # scan k of the study samples with seed base + k; seed 0 is the bundled study
    return {"sim_seed": 1000 + 13 * seed, "scan_ids": [s["scan_id"] for s in noise["scans"]],
            "n_samples": p["n_samples"]}


def program_env(root: Path) -> dict:
    """Environment of every program call: the checkout's sources, a thread
    cap no higher than the CPU count, and bytecode caching left on so every
    call starts the way an installed program does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["SEGQC_THREADS"] = str(min(2, os.cpu_count() or 1))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def generate(root: Path, work: Path, workload: str, scale: str, seed: int) -> tuple[Path, dict]:
    """Inputs of one (workload, scale, seed), made once and cached.

    Only the most recent seed of each workload and scale is kept, which
    bounds the disk the cache takes (the A9 samples alone are ~252 MB).
    """
    key = f"{workload}-{scale}"
    inputs = work / f"{key}-seed{seed}"
    stamp = inputs / "inputs.json"
    if stamp.is_file():
        return inputs, json.loads(stamp.read_text(encoding="utf-8"))
    for old in work.glob(f"{key}-seed*"):
        shutil.rmtree(old)
    inputs.mkdir(parents=True)
    if workload == "a9_labels":
        meta = _gen_a9(inputs, A9[scale], seed)
    elif workload == "prob_maps":
        meta = _gen_prob(root, inputs, PROB[scale], seed)
    else:
        meta = _gen_study(root, inputs, STUDY[scale], seed)
    files = [f for f in inputs.rglob("*") if f.is_file()]
    for f in files:  # write back now, not while a timed call runs
        with open(f, "rb") as fh:
            os.fsync(fh.fileno())
    meta["input_bytes"] = sum(f.stat().st_size for f in files)
    _write_json(stamp, meta)
    return inputs, meta


def pass_calls(workload: str, inputs: Path, meta: dict, out: Path) -> list[Call]:
    """The CLI calls of one pass, writing every output under ``out``."""
    if workload == "a9_labels":
        report = out / "report.json"
        return [Call("metrics", ["metrics", "--manifest", str(inputs / "manifest.json"),
                                 "--out", str(report)], {"report": report})]
    if workload == "prob_maps":
        o = {"report": out / "report.json", "unc": out / "uncertainty.nii",
             "heat": out / "heatmap.nii"}
        return [Call("metrics", [
            "metrics", "--manifest", str(inputs / "scan" / "manifest.json"),
            "--out", str(o["report"]), "--uncertainty-out", str(o["unc"]),
            "--heatmap-out", str(o["heat"])], o)]
    sim = out / "sim"
    (out / "reports").mkdir(parents=True, exist_ok=True)
    calls = [Call("simulate", [
        "simulate", "--phantom", str(inputs / "phantom.json"),
        "--noise", str(inputs / "noise.json"), "--out", str(sim),
        "--seed", str(meta["sim_seed"]), "--with-probs"], {"sim": sim})]
    for sid in meta["scan_ids"]:
        report = out / "reports" / f"{sid}.json"
        calls.append(Call("metrics", [
            "metrics", "--manifest", str(sim / sid / "manifest.json"),
            "--out", str(report), "--scan-id", sid], {"report": report}))
    calls.append(Call("correlate", ["correlate", str(out / "reports"),
                                    "--out", str(out / "corr.csv")],
                      {"reports": out / "reports", "csv": out / "corr.csv"}))
    calls.append(Call("group", ["group", str(inputs / "cohort.csv"),
                                "--out", str(out / "group.csv")],
                      {"csv": out / "group.csv"}))
    return calls
