"""Golden outputs: the SHA-256 of every file and stdout of a fixed list of
CLI calls, compared with ``golden.json``.

Three scans of the bundled study (``docs/``) are simulated with
probability maps once, beside a small fully soft set (:func:`soft_set`:
a seeded softmax of random logits, soft at every voxel like the maps of
MC dropout, which the bundled maps are not). Then each call of
:func:`calls` runs in process, once with ``SEGQC_THREADS=1`` and once
with ``SEGQC_THREADS=2``, and both runs must give the recorded digests. A ``.nii.gz`` is hashed by its
decoded bytes (header and payload), which do not depend on the zlib
build; every other file by its bytes. The output directory is
replaced by ``<out>`` in stdout.

The entropy's bits come from libm (through scipy's ``xlogy``), so a
mismatch under other Python, numpy or scipy versions than the recorded
ones may be the platform's; the failure message says when they differ.
After a change that moves outputs on purpose, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from segqc.cli import main as cli_main

HERE = Path(__file__).resolve().parent
DOCS = HERE.parent / "docs"
GOLDEN = HERE / "golden.json"
N_SCANS = 3
THREADS = (1, 2)
SOFT_DIMS, SOFT_N, SOFT_K, SOFT_SEED = (20, 20, 20), 4, 5, 25


def versions() -> dict:
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


def simulate(root: Path) -> Path:
    """The first ``N_SCANS`` scans of the bundled study, with maps, under ``root``."""
    noise = json.loads((DOCS / "graded_noise.json").read_text(encoding="utf-8"))
    noise["scans"] = noise["scans"][:N_SCANS]
    (root / "noise.json").write_text(json.dumps(noise), encoding="utf-8")
    sim = root / "sim"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["simulate", "--phantom", str(DOCS / "paired_boxes_phantom.json"),
                         "--noise", str(root / "noise.json"), "--out", str(sim),
                         "--with-probs"])
    assert code == 0
    return sim


def soft_set(sim: Path) -> None:
    """Under ``sim / "soft"``: ``SOFT_N`` samples of ``SOFT_K`` float32
    ``.nii.gz`` maps on ``SOFT_DIMS``, a seeded softmax of random logits,
    each sample's labels their argmax, and its manifest and registry."""
    from segqc.io import write_registry, write_scan_manifest
    from segqc.nifti import write_nifti
    from segqc.volumes import StructureRegistry, VoxelGeometry

    d = sim / "soft"
    d.mkdir()
    rng = np.random.default_rng(SOFT_SEED)
    geom = VoxelGeometry(SOFT_DIMS, (1.0, 1.0, 1.0))
    write_registry(StructureRegistry(tuple((k, f"s{k}") for k in range(SOFT_K)), 0),
                   d / "registry.json")
    samples, probs = [], []
    for i in range(SOFT_N):
        logits = rng.normal(size=(SOFT_K, *SOFT_DIMS))
        e = np.exp(logits - logits.max(axis=0))
        maps = (e / e.sum(axis=0)).astype(np.float32)
        samples.append(f"sample_{i}.nii.gz")
        write_nifti(d / samples[-1], np.argmax(maps, axis=0).astype(np.uint8), geom)
        probs.append([f"prob_{i}_{k}.nii.gz" for k in range(SOFT_K)])
        for k, name in enumerate(probs[-1]):
            write_nifti(d / name, maps[k], geom)
    write_scan_manifest(d / "manifest.json", samples, registry="registry.json", probs=probs)


def calls(sim: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every checked call; each writes only under ``out / name``."""
    scans = [f"scan_{k:02d}" for k in range(N_SCANS)]
    registry = str(sim / "registry.json")
    todo = []
    for s in scans:
        d = out / f"metrics_maps_{s}"
        todo.append((d.name, [
            "metrics", "--manifest", str(sim / s / "manifest.json"), "--gt", str(sim / "gt.nii"),
            "--out", str(d / "report.json"), "--uncertainty-out", str(d / "uncertainty.nii"),
            "--heatmap-out", str(d / "heatmap.nii"), "--scan-id", s, "--dataset", "bundled"]))
    for s in scans:
        d = out / f"metrics_labels_{s}"
        todo.append((d.name, ["metrics", str(sim / s), "--registry", registry,
                              "--out", str(d / "report.json")]))
    for suffix in (".nii", ".nii.gz"):
        d = out / f"consensus{suffix.replace('.', '_')}"
        todo.append((d.name, ["consensus", "--manifest", str(sim / scans[0] / "manifest.json"),
                              "--out", str(d / f"consensus{suffix}")]))
    for suffix in (".nii", ".nii.gz"):  # directory mode: the label-only set
        d = out / f"consensus_labels{suffix.replace('.', '_')}"
        todo.append((d.name, ["consensus", str(sim / scans[0]), "--registry", registry,
                              "--out", str(d / f"consensus{suffix}")]))
    d = out / "metrics_soft"
    todo.append((d.name, ["metrics", "--manifest", str(sim / "soft" / "manifest.json"),
                          "--out", str(d / "report.json"),
                          "--uncertainty-out", str(d / "uncertainty.nii.gz")]))
    return todo


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".gz"):
        data = gzip.decompress(data)
    return hashlib.sha256(data).hexdigest()


def run_calls(root: Path, sim: Path, threads: int) -> dict[str, str]:
    """Digests of every output and stdout of :func:`calls`, by ``call/file`` name."""
    out = root / f"threads_{threads}"
    digests = {}
    old = os.environ.get("SEGQC_THREADS")
    os.environ["SEGQC_THREADS"] = str(threads)
    try:
        for name, argv in calls(sim, out):
            (out / name).mkdir(parents=True)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv)
            assert code == 0, f"{name} exited {code}"
            text = buf.getvalue().replace(str(out), "<out>")
            digests[f"{name}/stdout"] = hashlib.sha256(text.encode()).hexdigest()
            for p in sorted((out / name).iterdir()):
                digests[f"{name}/{p.name}"] = digest(p)
    finally:
        if old is None:
            del os.environ["SEGQC_THREADS"]
        else:
            os.environ["SEGQC_THREADS"] = old
    return digests


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    sim = simulate(root)
    soft_set(sim)
    return root, sim


@pytest.mark.parametrize("threads", THREADS)
def test_outputs_match_golden(study, threads):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_calls(*study, threads)
    want = golden["digests"]
    changed = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    note = ("" if golden["versions"] == versions() else
            f" (recorded under {golden['versions']}, run under {versions()})")
    assert not changed, f"outputs differ from {GOLDEN.name}{note}: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        sim = simulate(root)
        soft_set(sim)
        runs = [run_calls(root, sim, t) for t in THREADS]
    assert all(r == runs[0] for r in runs), "outputs depend on SEGQC_THREADS"
    GOLDEN.write_text(json.dumps({"versions": versions(), "digests": runs[0]}, indent=2) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(runs[0])} digests -> {GOLDEN}")
