#!/usr/bin/env python3
"""Golden-output gate: the bundled study and the benchmark inputs, hashed.

    python3 scripts/golden.py [--write]

Runs the sources of the checkout it sits in, each CLI call a fresh
``python -m segqc.cli`` process, in a temporary directory that is removed
afterwards. The calls, made once with ``SEGQC_THREADS=1`` and once with
``SEGQC_THREADS=2``:

- the bundled study of ``docs/``: ``simulate --with-probs --seed 1000``,
  ``metrics --gt --uncertainty-out --heatmap-out`` on each of its 13
  scans, and ``correlate --out`` over the 13 reports;
- ``metrics --uncertainty-out --heatmap-out --normalize-entropy`` and
  ``consensus`` on the seed-0 ``a9_labels`` and ``prob_maps`` inputs of
  the benchmark;
- ``group --out`` on the seed-0 ``paper_studies`` cohort.

The benchmark inputs are made once, at full scale, by
``perfbench/workloads.generate`` (which runs this checkout's ``simulate``
for ``prob_maps``). Every input tree, output file and stdout is hashed
with SHA-256: a ``.nii.gz`` by its decoded bytes, which do not depend on
the zlib build, a tree by the paths and digests of its files, and stdout
with the output and temporary directories replaced by ``<out>`` and ``<tmp>``. The two thread counts
must give the same digests, and those must equal ``GOLDEN.json`` beside
this script; the exit code is 1, listing what differs, when they do not.
``--write`` records ``GOLDEN.json`` instead, with the Python, numpy, scipy
and zlib versions, since the entropy's bits come from libm through scipy.
A full run takes a few minutes and under 1 GB of temporary disk.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"
GOLDEN = Path(__file__).resolve().parent / "GOLDEN.json"
THREADS = (1, 2)
STUDY_SEED = 1000
SIM = "study_simulate/sim"  # the simulated study, hashed as one tree
WORKLOADS = ("a9_labels", "prob_maps", "paper_studies")


def versions() -> dict:
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "zlib": zlib.ZLIB_RUNTIME_VERSION}


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".gz"):
        data = gzip.decompress(data)
    return hashlib.sha256(data).hexdigest()


def tree_digest(root: Path) -> str:
    """One digest of every file under ``root``: its relative path and :func:`digest`."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(f"{p.relative_to(root).as_posix()} {digest(p)}\n".encode())
    return h.hexdigest()


def make_inputs(tmp: Path) -> dict[str, Path]:
    """The seed-0 full-scale input directory of each benchmark workload."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return {w: workloads.generate(ROOT, tmp / "inputs", w, "full", 0)[0] for w in WORKLOADS}


def calls(inputs: dict[str, Path], out: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every call, in order; each writes under ``out / name``,
    and the study's reports go to ``out / "study_reports"``."""
    sim, reports = out / SIM, out / "study_reports"
    todo = [("study_simulate", [
        "simulate", "--phantom", str(DOCS / "paired_boxes_phantom.json"),
        "--noise", str(DOCS / "graded_noise.json"), "--out", str(sim),
        "--seed", str(STUDY_SEED), "--with-probs"])]
    scans = json.loads((DOCS / "graded_noise.json").read_text(encoding="utf-8"))["scans"]
    for scan in scans:
        sid = scan["scan_id"]
        d = out / f"study_metrics_{sid}"
        todo.append((d.name, [
            "metrics", "--manifest", str(sim / sid / "manifest.json"),
            "--gt", str(sim / "gt.nii"), "--out", str(reports / f"{sid}.json"),
            "--uncertainty-out", str(d / "uncertainty.nii"),
            "--heatmap-out", str(d / "heatmap.nii"), "--scan-id", sid]))
    todo.append(("study_correlate", ["correlate", str(reports),
                                     "--out", str(out / "study_correlate" / "corr.csv")]))
    for w, manifest in (("a9_labels", inputs["a9_labels"] / "manifest.json"),
                        ("prob_maps", inputs["prob_maps"] / "scan" / "manifest.json")):
        d = out / f"{w}_metrics"
        todo.append((d.name, [
            "metrics", "--manifest", str(manifest), "--out", str(d / "report.json"),
            "--uncertainty-out", str(d / "uncertainty.nii"),
            "--heatmap-out", str(d / "heatmap.nii"), "--normalize-entropy"]))
        d = out / f"{w}_consensus"
        todo.append((d.name, ["consensus", "--manifest", str(manifest),
                              "--out", str(d / "consensus.nii")]))
    d = out / "paper_studies_group"
    todo.append((d.name, ["group", str(inputs["paper_studies"] / "cohort.csv"),
                          "--out", str(d / "group.csv")]))
    return todo


def run_calls(tmp: Path, inputs: dict[str, Path], threads: int) -> dict[str, str]:
    """Digests of every stdout of :func:`calls`, as ``name/stdout``, and of every
    file they write, by its path under their output directory; the simulated
    tree is one entry."""
    out = tmp / f"threads_{threads}"
    (out / "study_reports").mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "SEGQC_THREADS": str(threads)}
    digests = {}
    for name, argv in calls(inputs, out):
        (out / name).mkdir(exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "segqc.cli", *argv], env=env,
                              capture_output=True, text=True)
        if proc.returncode:
            sys.exit(f"{name} exited {proc.returncode} at SEGQC_THREADS={threads}:\n"
                     f"{proc.stderr}")
        text = proc.stdout.replace(str(out), "<out>").replace(str(tmp), "<tmp>")
        digests[f"{name}/stdout"] = hashlib.sha256(text.encode()).hexdigest()
    digests[f"{SIM}/tree"] = tree_digest(out / SIM)
    for p in sorted(out.rglob("*")):
        if p.is_file() and out / SIM not in p.parents:
            digests[p.relative_to(out).as_posix()] = digest(p)
    return digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help=f"record {GOLDEN.name}")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="segqc-golden-") as name:
        tmp = Path(name)
        inputs = make_inputs(tmp)
        got = {f"inputs/{w}/tree": tree_digest(d) for w, d in inputs.items()}
        runs = [run_calls(tmp, inputs, t) for t in THREADS]
    split = sorted(k for k in runs[0].keys() | runs[1].keys() if runs[0].get(k) != runs[1].get(k))
    if split:
        print(f"outputs depend on SEGQC_THREADS: {split}", file=sys.stderr)
        return 1
    got.update(runs[0])
    if args.write:
        GOLDEN.write_text(json.dumps({"versions": versions(), "digests": got}, indent=2) + "\n",
                          encoding="utf-8")
        print(f"wrote {len(got)} digests -> {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    want = golden["digests"]
    changed = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    if changed:
        note = ("" if golden["versions"] == versions() else
                f" (recorded under {golden['versions']}, run under {versions()})")
        print(f"outputs differ from {GOLDEN.name}{note}: {changed}", file=sys.stderr)
        return 1
    print(f"{len(got)} digests match {GOLDEN.name} at SEGQC_THREADS {THREADS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
