"""Golden outputs: the SHA-256 of every file and stdout of a fixed list of
CLI calls, compared with ``golden.json``.

Three scans of the bundled study (``docs/``) are simulated with
probability maps, and the simulated tree must give the recorded digest
(:func:`tree_digest`) at ``SEGQC_THREADS`` 1 and 2. So must a second
tree, two scans simulated with ``erosion_dilation_radius`` 2 (the
bundled study's is 0). Beside the first tree go a
small fully soft set (:func:`soft_set`: a seeded softmax of random
logits, soft at every voxel like the maps of MC dropout, which the
bundled maps are not) and a set of two slabs (:func:`slab_set`; every
other input fits in one) and a set of tied maps and tied votes
(:func:`tie_set`; no other input holds a tie). Then each call of
:func:`calls` runs in
process, once with ``SEGQC_THREADS=1`` and once with
``SEGQC_THREADS=2``, and both runs must give the recorded digests. A
``.nii.gz`` is hashed by its decoded bytes (header and payload), which
do not depend on the zlib build; every other file by its bytes. The
output directory is replaced by ``<out>`` in stdout.

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
RADIUS_SCANS, RADIUS = 2, 2
THREADS = (1, 2)
SOFT_DIMS, SOFT_N, SOFT_K, SOFT_SEED = (20, 20, 20), 4, 5, 25
SLAB_DIMS, SLAB_N, SLAB_K, SLAB_SEED = (64, 64, 48), 3, 4, 7
TIE_DIMS, TIE_VOTES, TIE_SEED = (6, 5, 4), 4, 3


def versions() -> dict:
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


def simulate(root: Path, n_scans: int = N_SCANS, radius: int = 0) -> Path:
    """The first ``n_scans`` scans of the bundled study, with maps and
    ``erosion_dilation_radius`` ``radius``, under ``root``."""
    noise = json.loads((DOCS / "graded_noise.json").read_text(encoding="utf-8"))
    noise["scans"] = noise["scans"][:n_scans]
    noise["erosion_dilation_radius"] = radius
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


def slab_set(sim: Path) -> None:
    """Under ``sim / "slabs"``: ``SLAB_N`` samples on ``SLAB_DIMS``, which
    :func:`segqc.volumes._slabs` splits into two slabs, so that with two
    threads both voxel passes start a pool and release mapped label pages
    a slab at a time. Plain ``.nii`` labels (their maps' argmax), the
    ground truth ``gt.nii``, and ``SLAB_K`` float32 ``.nii.gz`` maps per
    sample: a seeded softmax of one shared field plus per-sample noise,
    soft in the first slab and one-hot at nine in ten voxels of the second,
    so that both of the pass's entropy branches run."""
    from segqc.io import write_registry, write_scan_manifest
    from segqc.nifti import write_nifti
    from segqc.volumes import StructureRegistry, VoxelGeometry, _slabs

    d = sim / "slabs"
    d.mkdir()
    slabs = _slabs(SLAB_DIMS)
    assert len(slabs) == 2
    rng = np.random.default_rng(SLAB_SEED)
    geom = VoxelGeometry(SLAB_DIMS, (1.0, 1.0, 1.2))
    write_registry(StructureRegistry(tuple((k, f"s{k}") for k in range(SLAB_K)), 0),
                   d / "registry.json")
    field = rng.normal(size=(SLAB_K, *SLAB_DIMS))
    write_nifti(d / "gt.nii", np.argmax(field, axis=0).astype(np.uint8), geom)
    hard = np.zeros(SLAB_DIMS, dtype=bool)
    hard[:, :, slabs[1]] = rng.random(hard[:, :, slabs[1]].shape) < 0.9
    samples, probs = [], []
    for i in range(SLAB_N):
        logits = field + 0.5 * rng.normal(size=field.shape)
        e = np.exp(logits - logits.max(axis=0))
        onehot = np.moveaxis(np.eye(SLAB_K)[np.argmax(logits, axis=0)], -1, 0)
        maps = np.where(hard, onehot, e / e.sum(axis=0)).astype(np.float32)
        samples.append(f"sample_{i}.nii")
        write_nifti(d / samples[-1], np.argmax(maps, axis=0).astype(np.uint8), geom)
        probs.append([f"prob_{i}_{k}.nii.gz" for k in range(SLAB_K)])
        for k, name in enumerate(probs[-1]):
            write_nifti(d / name, maps[k], geom)
    write_scan_manifest(d / "manifest.json", samples, registry="registry.json", probs=probs)


def tie_set(sim: Path) -> None:
    """Under ``sim / "ties"``, on ``TIE_DIMS`` with ids 0, 1 and 2: two
    samples of float32 ``.nii.gz`` maps (``manifest.json``) in which each
    voxel is a tie or not, picked at random: one-hot in both samples; one-hot
    on another label in each, so the mean map ties; or 0.5 on two labels in
    both, so each sample's maps tie too. Each sample's labels are its argmax,
    ties to the lowest id. Beside them ``TIE_VOTES`` label files
    (``votes.json``, no maps): at each voxel two labels, each of half the
    samples, or one label of all. Every tie must go to the lowest id."""
    from segqc.io import write_registry, write_scan_manifest
    from segqc.nifti import write_nifti
    from segqc.volumes import StructureRegistry, VoxelGeometry

    d = sim / "ties"
    d.mkdir()
    rng = np.random.default_rng(TIE_SEED)
    geom = VoxelGeometry(TIE_DIMS, (1.0, 1.0, 1.0))
    write_registry(StructureRegistry(((0, "bg"), (1, "a"), (2, "b")), 0), d / "registry.json")
    first, second = rng.integers(0, 3, TIE_DIMS), rng.integers(0, 3, TIE_DIMS)
    pair = np.stack([first, (first + 1 + (second % 2)) % 3])  # two distinct labels a voxel
    kind = rng.integers(0, 3, TIE_DIMS)  # 0: agree, 1: mean-map tie, 2: tie in each sample
    samples, probs = [], []
    for i in range(2):
        maps = np.zeros((3, *TIE_DIMS), dtype=np.float32)
        hot = np.where(kind == 1, pair[i], pair[0])
        np.put_along_axis(maps, hot[None], 1.0, axis=0)
        halves = np.zeros_like(maps)
        for label in pair:
            np.put_along_axis(halves, label[None], 0.5, axis=0)
        maps = np.where(kind == 2, halves, maps)
        samples.append(f"sample_{i}.nii")
        write_nifti(d / samples[-1], np.argmax(maps, axis=0).astype(np.uint8), geom)
        probs.append([f"prob_{i}_{k}.nii.gz" for k in range(3)])
        for k, name in enumerate(probs[-1]):
            write_nifti(d / name, maps[k], geom)
    write_scan_manifest(d / "manifest.json", samples, registry="registry.json", probs=probs)
    tied = rng.random(TIE_DIMS) < 0.5
    votes = []
    for i in range(TIE_VOTES):
        votes.append(f"vote_{i}.nii")
        write_nifti(d / votes[-1], np.where(tied, pair[i % 2], pair[0]).astype(np.uint8), geom)
    write_scan_manifest(d / "votes.json", votes, registry="registry.json")


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
    slabs = sim / "slabs"
    d = out / "metrics_slabs"
    todo.append((d.name, ["metrics", "--manifest", str(slabs / "manifest.json"),
                          "--gt", str(slabs / "gt.nii"), "--out", str(d / "report.json"),
                          "--uncertainty-out", str(d / "uncertainty.nii"),
                          "--heatmap-out", str(d / "heatmap.nii")]))
    d = out / "consensus_slabs"
    todo.append((d.name, ["consensus", "--manifest", str(slabs / "manifest.json"),
                          "--out", str(d / "consensus.nii")]))
    ties = sim / "ties"
    d = out / "metrics_ties"
    todo.append((d.name, ["metrics", "--manifest", str(ties / "manifest.json"),
                          "--out", str(d / "report.json"),
                          "--uncertainty-out", str(d / "uncertainty.nii")]))
    for name in ("manifest", "votes"):
        d = out / f"consensus_ties_{name}"
        todo.append((d.name, ["consensus", "--manifest", str(ties / f"{name}.json"),
                              "--out", str(d / "consensus.nii")]))
    return todo


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
    slab_set(sim)
    tie_set(sim)
    return root, sim


@pytest.mark.parametrize("threads", THREADS)
def test_simulated_tree_matches_golden(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("SEGQC_THREADS", str(threads))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert tree_digest(simulate(tmp_path)) == golden["simulate"]


@pytest.mark.parametrize("threads", THREADS)
def test_simulated_tree_with_radius_matches_golden(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("SEGQC_THREADS", str(threads))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert tree_digest(simulate(tmp_path, RADIUS_SCANS, RADIUS)) == golden["simulate_radius"]


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
        tree = tree_digest(sim)
        soft_set(sim)
        slab_set(sim)
        tie_set(sim)
        runs = [run_calls(root, sim, t) for t in THREADS]
        (root / "radius").mkdir()
        radius_tree = tree_digest(simulate(root / "radius", RADIUS_SCANS, RADIUS))
    assert all(r == runs[0] for r in runs), "outputs depend on SEGQC_THREADS"
    GOLDEN.write_text(json.dumps({"versions": versions(), "simulate": tree,
                                  "simulate_radius": radius_tree, "digests": runs[0]},
                                 indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(runs[0])} digests -> {GOLDEN}")
