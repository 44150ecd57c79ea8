"""End-to-end command line behavior, run in process."""

import csv
import gzip
import json
import os
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from segqc import cli, metrics, volumes
from segqc.cli import main as cli_main
from segqc.io import read_noise_json, read_phantom_json, read_report, write_registry
from segqc.nifti import OrientationInfo, read_nifti, write_nifti
from segqc.stats import CohortTable, correlate_uncertainty_accuracy
from segqc.synth import make_phantom, registry_for_phantom, sample_mc
from segqc.volumes import StructureRegistry, VoxelGeometry
from bundled import DOCS
from test_io import mutated, write_cohort_csv
from test_metrics import parallel_workers


@pytest.fixture()
def configs(tmp_path):
    """Small phantom and noise configs plus an output root."""
    phantom = tmp_path / "phantom.json"
    phantom.write_text(json.dumps({
        "dims": [20, 20, 20],
        "shapes": [
            {"label": 1, "kind": "box", "center": [6.5, 9.5, 9.5], "size": [8, 8, 8]},
            {"label": 2, "kind": "box", "center": [14.5, 9.5, 9.5], "size": [5, 5, 5]},
        ],
    }))
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"n_samples": 4, "default_flip_prob": 0.15, "seed": 3}))
    return tmp_path, phantom, noise


def run(argv):
    return cli_main([str(a) for a in argv])


def no_temp_litter(root):
    return not [p for p in root.rglob(".tmp-*")]


# -- simulate ------------------------------------------------------------------


def test_simulate_single_scan_layout(configs, capsys):
    root, phantom, noise = configs
    out = root / "sim"
    assert run(["simulate", "--phantom", phantom, "--noise", noise, "--out", out]) == 0
    assert (out / "gt.nii").exists()
    assert (out / "registry.json").exists()
    assert (out / "manifest.json").exists()
    assert sorted(p.name for p in out.glob("sample_*.nii")) == [
        f"sample_{i:03d}.nii" for i in range(4)
    ]
    assert "wrote" in capsys.readouterr().out
    assert no_temp_litter(out)


def test_simulate_is_deterministic(configs):
    root, phantom, noise = configs
    a, b = root / "a", root / "b"
    run(["simulate", "--phantom", phantom, "--noise", noise, "--out", a])
    run(["simulate", "--phantom", phantom, "--noise", noise, "--out", b])
    for pa in sorted(a.rglob("*")):
        if pa.is_file():
            pb = b / pa.relative_to(a)
            assert pb.exists()
            assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_simulate_seed_flag_changes_samples(configs):
    root, phantom, noise = configs
    a, b = root / "a", root / "b"
    run(["simulate", "--phantom", phantom, "--noise", noise, "--out", a])
    run(["simulate", "--phantom", phantom, "--noise", noise, "--out", b,
         "--seed", "999"])
    assert (a / "gt.nii").read_bytes() == (b / "gt.nii").read_bytes()
    assert (a / "sample_000.nii").read_bytes() != (b / "sample_000.nii").read_bytes()


def test_simulate_takes_a_radius_past_any_mask(configs):
    # no erosion or dilation changes a mask past sum(dims) steps: a radius
    # of 10**13 gives what 10**9 gives, and overflows no C int on its way
    root, phantom, noise = configs
    phantom.write_text(json.dumps({"dims": [12, 12, 12], "shapes": [
        {"label": 1, "kind": "box", "center": [4.5, 5.5, 5.5], "size": [4, 6, 6]},
        {"label": 2, "kind": "box", "center": [8.5, 5.5, 5.5], "size": [3, 6, 6]}]}))
    samples = []
    for radius in (10**9, 10**13):
        noise.write_text(json.dumps({"n_samples": 4, "default_flip_prob": 0.2,
                                     "erosion_dilation_radius": radius, "seed": 3}))
        out = root / f"r{radius}"
        t0 = time.perf_counter()
        assert run(["simulate", "--phantom", phantom, "--noise", noise, "--out", out]) == 0
        assert time.perf_counter() - t0 < 10
        samples.append([p.read_bytes() for p in sorted(out.glob("sample_*.nii"))])
    assert len(samples[0]) == 4 and samples[1] == samples[0]


def test_simulate_refuses_label_ids_beyond_uint16(configs, capsys):
    root, phantom, noise = configs
    doc = json.loads(phantom.read_text())
    doc["shapes"][1]["label"] = 70000  # would wrap to 4464 in a uint16 volume
    phantom.write_text(json.dumps(doc))
    out = root / "sim"
    assert run(["simulate", "--phantom", phantom, "--noise", noise, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "70000" in err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("scan_id", ["../escaped", "..", "a/b", "", None])
def test_simulate_keeps_scans_inside_out(configs, capsys, scan_id):
    root, phantom, _ = configs
    noise = root / "multi.json"
    noise.write_text(json.dumps({"n_samples": 3, "scans": [{"scan_id": scan_id, "seed": 1}]}))
    before = sorted(root.iterdir())
    out = root / "out"
    assert run(["simulate", "--phantom", phantom, "--noise", noise, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "scans[0].scan_id" in err
    assert [p for p in sorted(root.iterdir()) if p != out] == before
    assert not (root / "escaped").exists() and not (out / "None").exists()


@pytest.mark.parametrize("scan_id", ["gt.nii", "registry.json", "dataset.json"])
def test_simulate_refuses_a_scan_id_naming_its_own_files(configs, capsys, scan_id):
    root, phantom, _ = configs
    noise = root / "multi.json"
    noise.write_text(json.dumps({"n_samples": 3, "scans": [{"scan_id": scan_id},
                                                           {"scan_id": "b"}]}))
    out = root / "out"
    assert run(["simulate", "--phantom", phantom, "--noise", noise, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(scan_id) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("dims", [[40000, 2, 2], [100000, 100000, 100000], [8, 0, 8]])
def test_simulate_refuses_dims_beyond_the_nifti_header(configs, capsys, dims):
    root, phantom, noise = configs
    doc = json.loads(phantom.read_text())
    doc["dims"] = dims
    phantom.write_text(json.dumps(doc))
    out = root / "sim"
    assert run(["simulate", "--phantom", phantom, "--noise", noise, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {phantom}: dims must each be in 1..32767")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("spacing", [[1e39, 1, 1], [1, 1e-50, 1]])
def test_simulate_refuses_spacing_beyond_the_nifti_header(configs, capsys, spacing):
    # pixdim is float32: a finite double past its maximum cannot be
    # written, and one that rounds to 0 would be refused when read back
    root, phantom, noise = configs
    doc = json.loads(phantom.read_text())
    doc["spacing"] = spacing
    phantom.write_text(json.dumps(doc))
    out = root / "sim"
    assert run(["simulate", "--phantom", phantom, "--noise", noise, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {phantom}: spacing must each fit a float32 pixdim")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("dims, n_samples", [([32767, 32767, 32767], 4), ([100, 100, 100], 10**9)])
def test_simulate_refuses_a_scan_beyond_physical_memory(configs, capsys, dims, n_samples):
    # one scan needs at least N label volumes of its grid and the sampler's masks
    root, phantom, noise = configs
    doc = json.loads(phantom.read_text())
    doc["dims"] = dims
    phantom.write_text(json.dumps(doc))
    noise.write_text(json.dumps({"n_samples": n_samples}))
    out = root / "sim"
    assert run(["simulate", "--phantom", phantom, "--noise", noise, "--out", out,
                "--with-probs"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: dims {dims} with n_samples {n_samples} need at least ")
    assert "more than physical memory" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_runs_no_more_scans_at_once_than_memory_holds(configs, monkeypatch):
    # 3 scans on 3 threads, with memory for 2.5 scans: 2 run at once, and
    # they write what one thread writes
    root, phantom, _ = configs
    noise = root / "multi.json"
    noise.write_text(json.dumps({"n_samples": 3, "default_flip_prob": 0.2,
                                 "scans": [{"scan_id": f"s{k}", "seed": k} for k in range(3)]}))
    needs, real = [], cli._require_memory

    def require_memory(need, what):
        needs.append(need)
        return real(need, what)

    monkeypatch.setattr(cli, "_require_memory", require_memory)
    calls = parallel_workers(monkeypatch, cli)
    trees = {}
    for threads in (1, 3):
        monkeypatch.setenv("SEGQC_THREADS", str(threads))
        out = root / f"threads_{threads}"
        assert run(["simulate", "--phantom", phantom, "--noise", noise, "--out", out,
                    "--with-probs"]) == 0
        trees[threads] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                          if p.is_file()}
        monkeypatch.setattr(volumes, "_PHYSICAL_MEMORY", int(2.5 * needs[0]))
    assert calls == [1, 2]
    assert trees[1] == trees[3]


@pytest.mark.parametrize("with_probs", [False, True])
def test_simulate_budgets_what_one_scan_holds(tmp_path, monkeypatch, with_probs):
    # a box and a sphere on 64^3, N = 4, with flips and a radius: the peak
    # of writing the scan stays within the need simulate budgets for it
    import tracemalloc

    phantom, noise = tmp_path / "phantom.json", tmp_path / "noise.json"
    phantom.write_text(json.dumps({"dims": [64, 64, 64], "shapes": [
        {"label": 1, "kind": "box", "center": [64 / 3, 64 / 3, 32], "size": [64 / 3, 64 / 3, 32]},
        {"label": 2, "kind": "sphere", "center": [128 / 3, 128 / 3, 32],
         "size": [12.8, 12.8, 16]}]}))
    noise.write_text(json.dumps({"n_samples": 4, "default_flip_prob": 0.2,
                                 "erosion_dilation_radius": 1, "seed": 3}))
    needs, peaks = [], []
    require_memory, write_one_scan = cli._require_memory, cli._write_one_scan

    def budgeted(need, what):
        needs.append(need)
        return require_memory(need, what)

    def traced(*args):
        tracemalloc.start()
        try:
            write_one_scan(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_require_memory", budgeted)
    monkeypatch.setattr(cli, "_write_one_scan", traced)
    argv = ["simulate", "--phantom", phantom, "--noise", noise, "--out", tmp_path / "sim"]
    assert run(argv + ["--with-probs"] * with_probs) == 0
    assert len(needs) == len(peaks) == 1
    assert peaks[0] <= needs[0], (peaks[0] / 64**3, needs[0] / 64**3)


def test_simulate_multi_scan_layout(configs):
    root, phantom, _ = configs
    noise = root / "multi.json"
    noise.write_text(json.dumps({
        "n_samples": 3,
        "scans": [{"scan_id": f"scan_{k}", "seed": k, "default_flip_prob": 0.1}
                  for k in range(3)],
    }))
    out = root / "multi"
    assert run(["simulate", "--phantom", phantom, "--noise", noise, "--out", out]) == 0
    assert (out / "gt.nii").exists() and (out / "dataset.json").exists()
    for k in range(3):
        scan = out / f"scan_{k}"
        assert (scan / "manifest.json").exists()
        assert len(list(scan.glob("sample_*.nii"))) == 3
    doc = json.loads((out / "dataset.json").read_text())
    assert doc["scans"] == ["scan_0", "scan_1", "scan_2"]


def test_simulate_with_probs_writes_stacks(configs):
    root, phantom, noise = configs
    out = root / "sim"
    assert run(["simulate", "--phantom", phantom, "--noise", noise, "--out", out,
                "--with-probs"]) == 0
    # one stack per sample per registry entry (background + 2 structures)
    assert len(list(out.glob("prob_*_label_*.nii.gz"))) == 4 * 3
    man = json.loads((out / "manifest.json").read_text())
    assert len(man["probs"]) == 4 and len(man["probs"][0]) == 3
    # the maps are made one sample at a time, and are sample_mc's maps
    spec = read_phantom_json(phantom)
    registry = registry_for_phantom(spec)
    want = sample_mc(make_phantom(spec), registry, read_noise_json(noise)[0][1])
    for i, stack in enumerate(want.probs):
        for k, lid in enumerate(registry.ids):
            got = read_nifti(out / f"prob_{i:03d}_label_{lid}.nii.gz").data
            assert got.dtype == np.float32
            assert np.array_equal(got, stack.maps[k].astype(np.float32))


# -- metrics / consensus ---------------------------------------------------------


@pytest.fixture()
def sim_dir(configs):
    root, phantom, noise = configs
    out = root / "sim"
    run(["simulate", "--phantom", phantom, "--noise", noise, "--out", out])
    return out


def test_metrics_from_directory(sim_dir, capsys):
    report_path = sim_dir / "report.json"
    code = run(["metrics", sim_dir, "--registry", sim_dir / "registry.json",
                "--gt", sim_dir / "gt.nii", "--out", report_path,
                "--scan-id", "demo"])
    assert code == 0
    rep = read_report(report_path)
    assert rep.scan_id == "demo"
    assert rep.n_samples == 4
    assert {s.label_id for s in rep.structures} == {1, 2}
    assert all(s.gt_dice is not None for s in rep.structures)
    out = capsys.readouterr().out
    assert "structure_1" in out and "gt_dice" in out
    # a bad ground truth is refused with its file named
    bad_gt = sim_dir.parent / "bad_gt.nii"
    one, far = (1.0, 1.0, 1.0), (1.0, 1.0, 2.5)
    for dims, spacing, label, fault in [
            ((20, 20, 20), one, 9, "not in registry"),
            ((20, 20, 21), one, 0, "geometry"),
            # the dims agree, so only the spacings tell the two grids apart
            ((20, 20, 20), far, 0, "ground-truth dims (20, 20, 20) spacing (1.0, 1.0, 2.5) "
                                   "do not match sample set geometry dims (20, 20, 20) "
                                   "spacing (1.0, 1.0, 1.0)")]:
        write_nifti(bad_gt, np.full(dims, label, dtype=np.uint8), VoxelGeometry(dims, spacing))
        assert run(["metrics", sim_dir, "--registry", sim_dir / "registry.json",
                    "--gt", bad_gt, "--out", report_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{bad_gt}: " in err and fault in err


@pytest.mark.parametrize("key, at", [("samples", "samples[1]"), ("gt", "gt"),
                                     ("registry", "registry")])
def test_metrics_refuses_a_nul_in_a_manifest_path(sim_dir, capsys, key, at):
    doc = json.loads((sim_dir / "manifest.json").read_text())
    if key == "samples":
        doc["samples"][1] += "\0.nii"
    else:
        doc[key] += "\0"
    bad = sim_dir / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["metrics", "--manifest", bad, "--out", sim_dir / "r.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {at} must not contain a NUL character")
    assert not (sim_dir / "r.json").exists()


def _spoil(path, fault):
    """Rewrite a NIfTI file with one fault, keeping its gzip wrapping."""
    raw = path.read_bytes()
    gz = raw[:2] == b"\x1f\x8b"
    body = bytearray(gzip.decompress(raw) if gz else raw)
    if fault == "corrupt_gzip":
        path.write_bytes(raw[:-12] + bytes(12))
        return
    if fault == "pixdim_zero":
        struct.pack_into("<f", body, 80, 0.0)
    elif fault == "scaled_labels":
        struct.pack_into("<f", body, 112, 2.0)  # scl_slope
    elif fault == "truncated":
        body = body[:len(body) // 2]
    path.write_bytes(gzip.compress(bytes(body)) if gz else bytes(body))


def test_metrics_refuses_a_volume_beyond_physical_memory(sim_dir, capsys, monkeypatch):
    # a gzip bomb: 16 MiB of zeros in a small stream, against 8 MiB of memory
    dims = (256, 256, 256)
    bomb = sim_dir / "sample_001.nii"
    header = bytearray(bomb.read_bytes()[:352])
    struct.pack_into("<3h", header, 42, *dims)
    bomb.write_bytes(gzip.compress(bytes(header) + bytes(int(np.prod(dims))), compresslevel=1))
    assert len(bomb.read_bytes()) < 2**20
    monkeypatch.setattr("segqc.volumes._PHYSICAL_MEMORY", 8 * 2**20)
    assert run(["metrics", sim_dir, "--registry", sim_dir / "registry.json",
                "--out", sim_dir / "r.json"]) == 1
    err = capsys.readouterr().err
    # inflating holds the data, the header twice and six 64 KiB chunks:
    # 256**3 + 2 * 352 + 6 * 2**16 bytes
    assert err.startswith(f"error: {bomb}: dims [256, 256, 256] need at least 0.016 GiB")
    assert "more than physical memory" in err and "Traceback" not in err
    assert not (sim_dir / "r.json").exists()


def test_consensus_refuses_a_gzip_offset_beyond_physical_memory(sim_dir, capsys, monkeypatch):
    # a valid .nii.gz whose data starts 64 MiB in: inflating it would hold
    # those bytes twice, against 16 MiB of memory
    raw = bytearray((sim_dir / "sample_001.nii").read_bytes())
    offset = 64 * 2**20
    struct.pack_into("<f", raw, 108, float(offset))
    far = sim_dir / "far.nii.gz"
    far.write_bytes(gzip.compress(bytes(raw[:352]) + bytes(offset - 352) + bytes(raw[352:]),
                                  compresslevel=1))
    monkeypatch.setattr("segqc.volumes._PHYSICAL_MEMORY", 16 * 2**20)
    assert run(["consensus", sim_dir / "sample_000.nii", far,
                "--registry", sim_dir / "registry.json", "--out", sim_dir / "c.nii"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {far}: dims [20, 20, 20] need at least 0.125 GiB")
    assert "more than physical memory" in err and "Traceback" not in err
    assert not (sim_dir / "c.nii").exists()


_LIMITED_CLI = """
import resource, sys
limit = 3 * 2**29  # 1.5 GiB of address space, set in this child process only
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from segqc.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _limited_consensus(tmp_path, offset_mib):
    """``segqc consensus`` of a 4^3 .nii and a .nii.gz whose data starts
    ``offset_mib`` MiB in, in a child process with 1.5 GiB of address space;
    returns the finished process and the .nii.gz."""
    data = np.zeros((4, 4, 4), dtype=np.uint8)
    data[1:3, 1:3, 1:3] = 1
    small = tmp_path / "small.nii"
    write_nifti(small, data, VoxelGeometry((4, 4, 4), (1.0, 1.0, 1.0)))
    header = bytearray(small.read_bytes()[:352])
    struct.pack_into("<f", header, 108, float(offset_mib * 2**20))
    block = 16 * 2**20
    zeros = gzip.compress(bytes(block))  # concatenated members read as one stream
    far = tmp_path / "far.nii.gz"
    far.write_bytes(gzip.compress(bytes(header) + bytes(block - 352))
                    + zeros * (offset_mib // 16 - 1) + gzip.compress(data.tobytes(order="F")))
    registry = tmp_path / "registry.json"
    write_registry(StructureRegistry(entries=((0, "bg"), (1, "box")), background_id=0), registry)
    return _limited_cli("consensus", small, far, "--registry", registry,
                        "--out", tmp_path / "c.nii"), far


def _limited_cli(*argv):
    """``segqc *argv`` run in a child process with 1.5 GiB of address space."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", _LIMITED_CLI, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_consensus_refuses_a_read_beyond_the_address_space_limit(tmp_path):
    # a .nii.gz whose data starts 1 GiB in fits in physical memory, but not in
    # a process limited to 1.5 GiB of address space
    proc, far = _limited_consensus(tmp_path, 1024)
    assert proc.returncode == 1, proc.stderr[-500:]
    # inflating holds the bytes before the data twice
    assert proc.stderr == (f"error: {far}: dims [4, 4, 4] need at least 2 GiB, "
                           "more than the address-space limit of 1.5 GiB\n")
    assert not (tmp_path / "c.nii").exists()


def test_consensus_names_a_read_that_runs_out_of_address_space(tmp_path):
    # at 720 MiB in, the read's need (1.41 GiB) is under the 1.5 GiB limit,
    # but the interpreter already holds part of it, so the read runs out
    proc, far = _limited_consensus(tmp_path, 720)
    assert proc.returncode == 1, proc.stderr[-500:]
    assert proc.stderr == (f"error: {far}: dims [4, 4, 4] need at least 1.41 GiB, "
                           "more than this process has left\n")
    assert not (tmp_path / "c.nii").exists()


def test_consensus_names_a_plain_read_that_runs_out_of_address_space(tmp_path):
    # a sparse .nii of 1024 x 1024 x 1400 uint8 voxels: its 1.37 GiB is under the
    # 1.5 GiB limit, but the interpreter already holds part of it, so mapping it
    # fails, which must read as a validation error and not an i/o error
    path = tmp_path / "big.nii"
    write_nifti(path, np.zeros((4, 4, 4), np.uint8), VoxelGeometry((4, 4, 4), (1.0, 1.0, 1.0)))
    with open(path, "r+b") as fh:
        fh.seek(40)
        fh.write(struct.pack("<8h", 3, 1024, 1024, 1400, 1, 1, 1, 1))
        fh.truncate(352 + 1024 * 1024 * 1400)
    registry = tmp_path / "registry.json"
    write_registry(StructureRegistry(entries=((0, "bg"), (1, "box")), background_id=0), registry)
    proc = _limited_cli("consensus", path, path, "--registry", registry,
                        "--out", tmp_path / "c.nii")
    assert proc.returncode == 1, proc.stderr[-500:]
    assert proc.stderr == (f"error: {path}: dims [1024, 1024, 1400] need at least 1.37 GiB, "
                           "more than this process has left\n")
    assert not (tmp_path / "c.nii").exists()


def test_consensus_written_over_its_own_input(sim_dir, capsys):
    # a plain input is mapped, not copied; the output replaces it by a rename,
    # so the mapped file is never changed in place under the running call
    samples = sorted(sim_dir.glob("sample_*.nii"))
    argv = ["consensus", *samples, "--registry", sim_dir / "registry.json", "--out"]
    assert run([*argv, sim_dir / "c.nii"]) == 0
    printed = capsys.readouterr().out
    assert run([*argv, samples[0]]) == 0
    assert capsys.readouterr().out == printed.replace(str(sim_dir / "c.nii"), str(samples[0]))
    assert samples[0].read_bytes() == (sim_dir / "c.nii").read_bytes()
    assert no_temp_litter(sim_dir)


def test_out_of_memory_is_one_error_line(configs, monkeypatch, capsys):
    root, phantom, noise = configs
    assert run(["simulate", "--phantom", phantom, "--noise", noise, "--out", root / "sim"]) == 0
    capsys.readouterr()

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "structure_report", exhausted)
    assert run(["metrics", "--manifest", root / "sim" / "manifest.json",
                "--out", root / "r.json"]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: no detail given\n"
    assert not (root / "r.json").exists()

@pytest.mark.parametrize("target, fault", [
    ("sample", "pixdim_zero"), ("sample", "truncated"), ("sample", "scaled_labels"),
    ("map", "pixdim_zero"), ("map", "truncated"), ("map", "corrupt_gzip"),
    ("gt", "pixdim_zero"), ("gt", "truncated"), ("gt", "scaled_labels"),
])
def test_metrics_errors_name_the_bad_file_once(configs, capsys, target, fault):
    root, phantom, noise = configs
    sim = root / "sim"
    assert run(["simulate", "--phantom", phantom, "--noise", noise, "--out", sim,
                "--with-probs"]) == 0
    bad = {"sample": sim / "sample_001.nii", "map": sim / "prob_002_label_1.nii.gz",
           "gt": sim / "gt.nii"}[target].resolve()
    _spoil(bad, fault)
    capsys.readouterr()
    assert run(["metrics", "--manifest", sim / "manifest.json", "--out", sim / "r.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count(str(bad)) == 1, err
    assert not (sim / "r.json").exists()


def test_metrics_from_manifest_matches_directory(sim_dir):
    a, b = sim_dir / "a.json", sim_dir / "b.json"
    run(["metrics", sim_dir, "--registry", sim_dir / "registry.json",
         "--gt", sim_dir / "gt.nii", "--out", a])
    run(["metrics", "--manifest", sim_dir / "manifest.json", "--out", b])
    ra, rb = read_report(a), read_report(b)
    assert ra.structures == rb.structures


def test_metrics_side_outputs(configs):
    # probability stacks give the voxel uncertainty something to measure;
    # label-only samples yield an exactly-zero map by design
    root, phantom, noise = configs
    sim = root / "sim"
    run(["simulate", "--phantom", phantom, "--noise", noise, "--out", sim,
         "--with-probs"])
    unc_path = sim / "unc.nii.gz"
    heat_path = sim / "heat.nii.gz"
    code = run(["metrics", "--manifest", sim / "manifest.json",
                "--out", sim / "r.json",
                "--uncertainty-out", unc_path,
                "--heatmap-out", heat_path, "--heatmap-metric", "cv"])
    assert code == 0
    unc = read_nifti(unc_path)
    assert unc.data.dtype == np.float32
    assert unc.data.min() >= 0.0 and unc.data.max() > 0.0
    heat = read_nifti(heat_path)
    rep = read_report(sim / "r.json")
    consensus_cv = {s.label_id: s.cv for s in rep.structures}
    # heat volume paints each consensus structure with its cv
    got = set(np.unique(heat.data))
    assert np.float32(consensus_cv[1]) in got
    assert no_temp_litter(sim)


def test_label_only_uncertainty_map_is_built_only_on_request(configs, monkeypatch):
    # the map of a label-only set is all zero: the report summarises it
    # without building it, and --uncertainty-out builds it once
    import segqc.cli as cli
    import segqc.metrics as metrics

    root, phantom, noise = configs
    sim = root / "sim"
    run(["simulate", "--phantom", phantom, "--noise", noise, "--out", sim])
    calls = []
    real = metrics.voxel_uncertainty
    for module in (cli, metrics):
        monkeypatch.setattr(module, "voxel_uncertainty",
                            lambda *a, **k: calls.append(k) or real(*a, **k))
    argv = ["metrics", sim, "--registry", sim / "registry.json", "--normalize-entropy"]
    assert run(argv + ["--out", sim / "a.json"]) == 0
    assert calls == []
    assert run(argv + ["--out", sim / "b.json", "--uncertainty-out", sim / "u.nii"]) == 0
    assert calls == [{"normalize": True}]
    assert (sim / "a.json").read_bytes() == (sim / "b.json").read_bytes()
    unc = read_nifti(sim / "u.nii").data
    assert unc.dtype == np.float32 and unc.shape == (20, 20, 20) and not unc.any()


def test_metrics_side_outputs_reuse_the_report(configs, monkeypatch):
    # one call validates the set once, checks each label volume (N samples
    # and the ground truth) once, and computes the consensus and the
    # uncertainty map once, whatever it writes
    import segqc.metrics as metrics
    import segqc.volumes as volumes

    root, phantom, noise = configs
    sim = root / "sim"
    run(["simulate", "--phantom", phantom, "--noise", noise, "--out", sim,
         "--with-probs"])
    calls = {}
    for module, name in ((volumes, "validate_sample_set"),
                         (volumes.LabelVolume, "check_labels"),
                         (metrics, "_count_labels"),
                         (metrics, "voxel_uncertainty")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    code = run(["metrics", "--manifest", sim / "manifest.json", "--gt", sim / "gt.nii",
                "--out", sim / "r.json", "--uncertainty-out", sim / "unc.nii",
                "--heatmap-out", sim / "heat.nii"])
    assert code == 0
    assert calls == {"validate_sample_set": 1, "check_labels": 4 + 1,
                     "_count_labels": 1, "voxel_uncertainty": 1}
    monkeypatch.undo()

    # the written maps are the ones the library computes for the same set
    from segqc.io import read_registry, read_sample_set, read_scan_manifest
    man = read_scan_manifest(sim / "manifest.json")
    ss = read_sample_set(man["samples"], read_registry(man["registry"]),
                         prob_paths=man["probs"])
    unc = metrics.voxel_uncertainty(ss)
    assert np.array_equal(read_nifti(sim / "unc.nii").data, unc.astype(np.float32))
    consensus = metrics.consensus_segmentation(ss)
    mc_dice = {s.label_id: s.mc_dice for s in read_report(sim / "r.json").structures}
    heat = read_nifti(sim / "heat.nii").data
    for label_id, value in mc_dice.items():
        assert np.all(heat[consensus.data == label_id] == np.float32(value))


def test_output_volumes_keep_the_input_orientation(configs):
    # the consensus, uncertainty and heat-map volumes carry the samples'
    # qform/sform, so they overlay the scan they were computed from
    root, phantom, noise = configs
    sim = root / "sim"
    run(["simulate", "--phantom", phantom, "--noise", noise, "--out", sim,
         "--with-probs"])
    o = OrientationInfo(qform_code=1, sform_code=1, quatern=(0.0, 0.0, 1.0),
                        qoffset=(-20.0, 12.5, 7.0), srow_x=(-1.0, 0.0, 0.0, -20.0),
                        srow_y=(0.0, 1.0, 0.0, 12.5), srow_z=(0.0, 0.0, 1.0, 7.0))
    for path in sim.glob("sample_*.nii"):
        img = read_nifti(path)
        write_nifti(path, img.data, img.geometry, orientation=o)
    outs = {"unc": sim / "unc.nii", "heat": sim / "heat.nii", "cons": sim / "cons.nii.gz"}
    assert run(["metrics", "--manifest", sim / "manifest.json", "--out", sim / "r.json",
                "--uncertainty-out", outs["unc"], "--heatmap-out", outs["heat"]]) == 0
    assert run(["consensus", "--manifest", sim / "manifest.json", "--out", outs["cons"]]) == 0
    for name, path in outs.items():
        assert read_nifti(path).orientation == o, name


@pytest.fixture()
def bundled_scan_00(tmp_path):
    """The bundled study's scan_00 (``simulate --seed 1000`` on the configs in
    docs/), simulated alone: its directory, beside the study's gt.nii."""
    noise = json.loads((DOCS / "graded_noise.json").read_text())
    noise["scans"] = noise["scans"][:1]
    (tmp_path / "noise.json").write_text(json.dumps(noise))
    study = tmp_path / "study"
    assert run(["simulate", "--phantom", DOCS / "paired_boxes_phantom.json", "--noise",
                tmp_path / "noise.json", "--out", study, "--seed", "1000"]) == 0
    return study / "scan_00"


def _sform(path, x_sign):
    """Rewrite ``path`` with an sform of unit spacing whose x axis runs ``x_sign``."""
    img = read_nifti(path)
    nx = img.geometry.dims[0]
    o = OrientationInfo(sform_code=1, srow_x=(x_sign, 0.0, 0.0, 0.0 if x_sign > 0 else nx - 1.0),
                        srow_y=(0.0, 1.0, 0.0, 0.0), srow_z=(0.0, 0.0, 1.0, 0.0))
    write_nifti(path, img.data, img.geometry, orientation=o)
    return o


def test_metrics_refuses_a_ground_truth_declaring_another_orientation(bundled_scan_00, capsys):
    scan = bundled_scan_00
    gt = scan / ".." / "gt.nii"  # as the manifest names it
    flipped = _sform(gt, -1.0)  # x-flipped: the same voxels, mirrored in space
    argv = ["metrics", "--manifest", scan / "manifest.json", "--out", scan / "r.json"]
    # samples that declare no orientation match any: nothing to compare against
    assert run(argv) == 0
    (scan / "r.json").unlink()
    for sample in scan.glob("sample_*.nii"):
        plain = _sform(sample, 1.0)
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    first = scan / "sample_000.nii"
    assert err == (f"error: {gt}: orientation ({flipped}) does not match {first} "
                   f"orientation ({plain})\n")
    assert "srow_x (-1.0, 0.0, 0.0, 47.0)" in err and "srow_x (1.0, 0.0, 0.0, 0.0)" in err
    assert not (scan / "r.json").exists()


@pytest.mark.parametrize("command", ["metrics", "consensus"])
def test_a_sample_declaring_another_orientation_is_refused(bundled_scan_00, capsys, command):
    scan = bundled_scan_00
    for sample in scan.glob("sample_*.nii"):
        plain = _sform(sample, 1.0)
    flipped = _sform(scan / "sample_007.nii", -1.0)
    capsys.readouterr()
    out = scan / ("r.json" if command == "metrics" else "cons.nii")
    assert run([command, "--manifest", scan / "manifest.json", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {scan / 'sample_007.nii'}: orientation ({flipped}) does not match "
                   f"{scan / 'sample_000.nii'} orientation ({plain})\n")
    assert not out.exists()


def test_metrics_ignores_dotfiles_and_prob_stacks(configs):
    root, phantom, noise = configs
    out = root / "sim"
    run(["simulate", "--phantom", phantom, "--noise", noise, "--out", out,
         "--with-probs"])
    (out / ".hidden.nii").write_bytes(b"junk")
    # directory discovery must see exactly the 4 bare sample .nii files,
    # skipping prob_*.nii.gz and dotfiles
    code = run(["metrics", out, "--registry", out / "registry.json",
                "--out", out / "r.json"])
    assert code == 0
    assert read_report(out / "r.json").n_samples == 4


def test_metrics_discovers_regular_files_only(sim_dir):
    # a directory named like a sample is not one
    (sim_dir / "zz.nii").mkdir()
    assert run(["metrics", sim_dir, "--registry", sim_dir / "registry.json",
                "--out", sim_dir / "r.json"]) == 0
    assert read_report(sim_dir / "r.json").n_samples == 4


@pytest.mark.parametrize("in_directory, message", [
    (True, "no .nii files in directory {}"),
    (False, "no samples given: pass files, a directory, or --manifest"),
])
def test_metrics_without_samples_names_what_is_missing(tmp_path, capsys, in_directory, message):
    # an empty directory, and no sample argument at all
    samples = [tmp_path] if in_directory else []
    assert run(["metrics", *samples, "--registry", tmp_path / "registry.json",
                "--out", tmp_path / "r.json"]) == 1
    assert capsys.readouterr().err == f"error: {message.format(tmp_path)}\n"


def test_consensus_zero_noise_equals_gt(configs):
    root, phantom, _ = configs
    noise = root / "clean.json"
    noise.write_text(json.dumps({"n_samples": 3, "seed": 0}))
    out = root / "sim"
    run(["simulate", "--phantom", phantom, "--noise", noise, "--out", out])
    cons = out / "consensus.nii"
    assert run(["consensus", out, "--registry", out / "registry.json",
                "--out", cons]) == 0
    assert np.array_equal(read_nifti(cons).data, read_nifti(out / "gt.nii").data)


def test_normalize_entropy_flag_recorded(sim_dir):
    p = sim_dir / "norm.json"
    run(["metrics", "--manifest", sim_dir / "manifest.json", "--out", p,
         "--normalize-entropy"])
    rep = read_report(p)
    assert rep.normalized_uncertainty
    # per-sample entropy over 3 registry entries is at most ln 3
    assert rep.uncertainty_max <= np.log(3) + 1e-9


# -- correlate -------------------------------------------------------------------


@pytest.fixture()
def report_dir(configs):
    root, phantom, _ = configs
    noise = root / "multi.json"
    noise.write_text(json.dumps({
        "n_samples": 4,
        "scans": [{"scan_id": f"scan_{k}", "seed": 10 + k,
                   "default_flip_prob": 0.05 + 0.07 * k} for k in range(4)],
    }))
    sim = root / "sim"
    # probability stacks make mean structure uncertainty vary across scans
    run(["simulate", "--phantom", phantom, "--noise", noise, "--out", sim,
         "--with-probs"])
    reports = root / "reports"
    reports.mkdir()
    for k in range(4):
        run(["metrics", "--manifest", sim / f"scan_{k}" / "manifest.json",
             "--out", reports / f"scan_{k}.json", "--scan-id", f"scan_{k}"])
    return root, reports


def test_correlate_over_report_directory(report_dir, capsys):
    root, reports = report_dir
    out_csv = root / "corr.csv"
    assert run(["correlate", reports, "--out", out_csv]) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "dataset,metric,r,n_used,n_dropped"
    assert len(lines) == 4  # three metrics, one (default) dataset
    stdout = capsys.readouterr().out
    assert "mean_unc" in stdout and "mc_dice" in stdout
    rows = {line.split(",")[1]: float(line.split(",")[2]) for line in lines[1:]}
    assert set(rows) == {"mean_unc", "cv", "mc_dice"}
    for r in rows.values():
        assert -1.0 <= r <= 1.0


def test_correlate_csv_is_the_library_result(report_dir, capsys):
    root, reports = report_dir
    for k, p in enumerate(sorted(reports.glob("*.json"))):
        doc = json.loads(p.read_text())
        doc["dataset"] = "site_b" if k % 2 else "site_a"
        p.write_text(json.dumps(doc))
    out_csv = root / "corr.csv"
    assert run(["correlate", reports, "--out", out_csv]) == 0
    with open(out_csv, encoding="utf-8", newline="") as fh:
        cli_rows = list(csv.reader(fh))[1:]
    corr, n_absent = correlate_uncertainty_accuracy(
        [read_report(p) for p in sorted(reports.glob("*.json"))])
    assert cli_rows == [[dataset, metric, repr(res.r), str(res.n_used), str(res.n_dropped)]
                        for (dataset, metric), res in corr.items()]
    assert [row[0] for row in cli_rows] == ["site_a"] * 3 + ["site_b"] * 3
    assert f"4 reports, {n_absent} absent-flagged" in capsys.readouterr().out


def test_correlate_skips_dotfiles(report_dir):
    # a report left half-written under a temp name (as _atomic names it)
    # is not a report
    root, reports = report_dir
    assert run(["correlate", reports, "--out", root / "before.csv"]) == 0
    (reports / ".tmp-4242-scan_3.json").write_text('{"schema_version": "1", "struc')
    assert run(["correlate", reports, "--out", root / "after.csv"]) == 0
    assert (root / "after.csv").read_bytes() == (root / "before.csv").read_bytes()


def test_correlate_reads_regular_files_only(report_dir):
    # a directory named like a report is not one
    root, reports = report_dir
    assert run(["correlate", reports, "--out", root / "before.csv"]) == 0
    (reports / "zz.json").mkdir()
    assert run(["correlate", reports, "--out", root / "after.csv"]) == 0
    assert (root / "after.csv").read_bytes() == (root / "before.csv").read_bytes()


def test_correlate_needs_three_reports(report_dir):
    root, reports = report_dir
    few = root / "few"
    few.mkdir()
    for p in sorted(reports.glob("*.json"))[:2]:
        (few / p.name).write_bytes(p.read_bytes())
    assert run(["correlate", few]) == 1


def test_correlate_incomplete_report_is_validation_error(report_dir, capsys):
    _, reports = report_dir
    victim = sorted(reports.glob("*.json"))[0]
    doc = json.loads(victim.read_text())
    del doc["n_samples"]
    victim.write_text(json.dumps(doc))
    assert run(["correlate", reports]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n_samples" in err


def test_correlate_non_utf8_report_is_validation_error(report_dir, capsys):
    _, reports = report_dir
    victim = sorted(reports.glob("*.json"))[0]
    victim.write_bytes(b"\xff\xfe" + victim.read_bytes())
    assert run(["correlate", reports]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and victim.name in err and "UTF-8" in err


@pytest.mark.parametrize("payload", [
    '{"background": 0, "structures": [], "n": ' + "9" * 5000 + "}",  # > 4300 digits
    "[" * 200_000 + "]" * 200_000,
], ids=["oversized-integer", "deep-nesting"])
@pytest.mark.parametrize("command", ["metrics", "correlate"])
def test_unparsable_json_is_validation_error(tmp_path, capsys, payload, command):
    bad = tmp_path / "bad.json"
    bad.write_text(payload, encoding="utf-8")
    if command == "metrics":
        argv = ["metrics", tmp_path / "a.nii", tmp_path / "b.nii", "--registry", bad,
                "--out", tmp_path / "report.json"]
    else:
        argv = ["correlate", bad]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and bad.name in err and "not valid JSON" in err
    assert "Traceback" not in err


def test_correlate_refuses_normalized_and_raw_reports_together(report_dir, capsys):
    root, reports = report_dir
    sim = root / "sim"
    for k in (1, 3):  # half the dataset's reports with the map divided by N
        assert run(["metrics", "--manifest", sim / f"scan_{k}" / "manifest.json",
                    "--out", reports / f"scan_{k}.json", "--scan-id", f"scan_{k}",
                    "--normalize-entropy"]) == 0
    capsys.readouterr()
    assert run(["correlate", reports, "--out", root / "corr.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dataset '': mean uncertainties on different scales")
    assert "--normalize-entropy" in err and "Traceback" not in err
    assert not (root / "corr.csv").exists()


def test_correlate_requires_gt_dice(configs, capsys):
    root, phantom, noise = configs
    sim = root / "sim"
    run(["simulate", "--phantom", phantom, "--noise", noise, "--out", sim])
    reports = root / "reports"
    reports.mkdir()
    for k in range(3):
        # no --gt: reports carry gt_dice null
        run(["metrics", sim, "--registry", sim / "registry.json",
             "--out", reports / f"r{k}.json"])
    assert run(["correlate", reports]) == 1
    assert "gt_dice" in capsys.readouterr().err


def test_correlate_names_the_dataset_and_metric_whose_r_is_undefined(tmp_path, capsys):
    # without maps, every record's mean uncertainty is 0
    sim = tmp_path / "sim"
    assert run(["simulate", "--phantom", DOCS / "paired_boxes_phantom.json",
                "--noise", DOCS / "graded_noise.json", "--out", sim, "--seed", "5"]) == 0
    reports = tmp_path / "reports"
    reports.mkdir()
    for k in range(3):
        assert run(["metrics", "--manifest", sim / f"scan_{k:02d}" / "manifest.json",
                    "--out", reports / f"r{k}.json", "--dataset", "d1"]) == 0
    capsys.readouterr()
    assert run(["correlate", reports]) == 1
    assert capsys.readouterr().err == (
        "error: dataset 'd1', metric mean_unc: constant vector: correlation undefined\n")

# -- group -----------------------------------------------------------------------


@pytest.fixture()
def cohort_csv(tmp_path):
    from segqc.synth import make_cohort

    table, _ = make_cohort(40, seed=21)
    p = tmp_path / "cohort.csv"
    write_cohort_csv(table, p)
    return p


def test_group_runs_all_modes(cohort_csv, tmp_path, capsys):
    out_csv = tmp_path / "group.csv"
    assert run(["group", cohort_csv, "--out", out_csv]) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "mode,beta_d,se_d,p_d,n_used,n_dropped"
    modes = [line.split(",")[0] for line in lines[1:]]
    assert modes == ["none", "inv_cv", "inv_one_minus_dice", "huber"]
    stdout = capsys.readouterr().out
    assert "standardized" in stdout


def test_group_mode_subset_and_raw_scale(cohort_csv, capsys):
    assert run(["group", cohort_csv, "--modes", "none,huber",
                "--no-standardize"]) == 0
    stdout = capsys.readouterr().out
    assert "raw" in stdout
    assert "inv_cv" not in stdout


def test_group_prints_huber_non_convergence_on_stderr(cohort_csv, tmp_path, capsys,
                                                      monkeypatch):
    from segqc import stats

    assert run(["group", cohort_csv, "--out", tmp_path / "a.csv"]) == 0
    converged = capsys.readouterr()
    monkeypatch.setattr(stats, "HUBER_MAX_ITER", 1)
    assert run(["group", cohort_csv, "--out", tmp_path / "b.csv"]) == 0
    stopped = capsys.readouterr()
    assert converged.err == ""
    assert stopped.err == "note: huber: IRLS stopped after 1 iterations without converging\n"
    # only the huber row moves; the note reaches neither stdout nor the CSV
    a, b = (f.read_text().splitlines() for f in (tmp_path / "a.csv", tmp_path / "b.csv"))
    assert a[:-1] == b[:-1] and b[-1].startswith("huber,") and a[-1] != b[-1]
    assert converged.out.splitlines()[:-1] == stopped.out.splitlines()[:-1]
    assert "IRLS" not in stopped.out


def test_group_rejects_unknown_mode(cohort_csv):
    assert run(["group", cohort_csv, "--modes", "ols,bogus"]) == 1


def test_group_needs_a_mode(cohort_csv, tmp_path, capsys):
    out_csv = tmp_path / "group.csv"
    assert run(["group", cohort_csv, "--modes", ",", "--out", out_csv]) == 1
    assert "no group mode" in capsys.readouterr().err
    assert not out_csv.exists()


def test_group_names_the_failing_mode_after_its_warnings(tmp_path, capsys):
    from segqc.synth import make_cohort

    t, _ = make_cohort(20, seed=21)
    cv = np.where(np.arange(t.n) == 0, t.cv, np.nan)  # 19 empty cv cells
    p = tmp_path / "cohort.csv"
    write_cohort_csv(CohortTable(subject_ids=t.subject_ids, age=t.age, sex=t.sex, dx=t.dx,
                                 volume=t.volume, site=t.site, cv=cv, mc_dice=t.mc_dice), p)
    assert run(["group", p, "--modes", "none,inv_cv"]) == 1
    assert capsys.readouterr().err == (
        "warning: dropping 19 cohort rows with absent inv_cv weights\n"
        "error: mode inv_cv: need n - p >= 1 residual degrees of freedom (n=1, p=4)\n")

# -- exit codes and input validation ------------------------------------------------


def test_no_subcommand_prints_help(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_missing_files_exit_2(tmp_path):
    assert run(["group", tmp_path / "nope.csv"]) == 2
    assert run(["metrics", "--manifest", tmp_path / "nope.json",
                "--out", tmp_path / "r.json"]) == 2


def test_metrics_needs_at_least_two_samples(sim_dir, capsys):
    one = sim_dir / "sample_000.nii"
    assert run(["metrics", one, "--registry", sim_dir / "registry.json",
                "--out", sim_dir / "r.json"]) == 1
    assert "2" in capsys.readouterr().err


def test_metrics_requires_registry(sim_dir, capsys):
    assert run(["metrics", sim_dir, "--out", sim_dir / "r.json"]) == 1
    assert "registry" in capsys.readouterr().err


def test_samples_and_manifest_are_exclusive(sim_dir, capsys):
    assert run(["metrics", sim_dir, "--manifest", sim_dir / "manifest.json",
                "--out", sim_dir / "r.json"]) == 1
    assert "not both" in capsys.readouterr().err


def test_bad_heatmap_metric_is_usage_error(sim_dir):
    assert run(["metrics", "--manifest", sim_dir / "manifest.json",
                "--out", sim_dir / "r.json",
                "--heatmap-out", sim_dir / "h.nii",
                "--heatmap-metric", "volume"]) == 1


def test_thread_cap_env_validation(configs, monkeypatch, capsys):
    # the cap is read where a pool is created: on the multi-scan simulate
    # path, in the counting pass behind metrics and, for a set with maps,
    # in the probability pass that validation runs
    root, phantom, single = configs
    noise = root / "multi.json"
    noise.write_text(json.dumps({
        "n_samples": 2,
        "scans": [{"scan_id": f"s{k}", "seed": k} for k in range(2)],
    }))
    for bad in ("zero", "0"):
        monkeypatch.setenv("SEGQC_THREADS", bad)
        assert run(["simulate", "--phantom", phantom, "--noise", noise,
                    "--out", root / "x"]) == 1
        assert capsys.readouterr().err.startswith("error: SEGQC_THREADS must be")
        # refused before --out is made: no gt.nii or registry.json left behind
        assert not (root / "x").exists()
    # a single scan runs on the calling thread and never reads the cap
    assert run(["simulate", "--phantom", phantom, "--noise", single,
                "--out", root / "one"]) == 0
    capsys.readouterr()

    monkeypatch.delenv("SEGQC_THREADS")
    sim = root / "sim"
    run(["simulate", "--phantom", phantom, "--noise", single, "--out", sim])
    capsys.readouterr()
    for bad in ("zero", "0"):
        monkeypatch.setenv("SEGQC_THREADS", bad)
        assert run(["metrics", sim, "--registry", sim / "registry.json",
                    "--gt", sim / "gt.nii", "--out", sim / "r.json"]) == 1
        err = capsys.readouterr().err
        # a bad cap is not blamed on the ground truth
        assert "SEGQC_THREADS" in err and "gt.nii" not in err
    assert not (sim / "r.json").exists()

    monkeypatch.delenv("SEGQC_THREADS")
    probs = root / "probs"
    run(["simulate", "--phantom", phantom, "--noise", single, "--out", probs, "--with-probs"])
    capsys.readouterr()
    for bad in ("zero", "0"):
        monkeypatch.setenv("SEGQC_THREADS", bad)
        assert run(["metrics", "--manifest", probs / "manifest.json",
                    "--out", probs / "r.json"]) == 1
        assert capsys.readouterr().err.startswith("error: SEGQC_THREADS must be")
    assert not (probs / "r.json").exists()


def test_thread_cap_env_accepted(configs, monkeypatch):
    root, phantom, _ = configs
    noise = root / "multi.json"
    noise.write_text(json.dumps({
        "n_samples": 2,
        "scans": [{"scan_id": f"s{k}", "seed": k} for k in range(3)],
    }))
    monkeypatch.setenv("SEGQC_THREADS", "1")
    assert run(["simulate", "--phantom", phantom, "--noise", noise,
                "--out", root / "capped"]) == 0


def test_thread_count_leaves_cli_outputs_unchanged(configs, monkeypatch, capsys):
    # a multi-scan simulate, then metrics and consensus on one scan, at one
    # thread and at three; slabs are small, so every pool has work for
    # three: 3 scans, and 10 slabs of the fold of the maps and of the count
    root, phantom, _ = configs
    noise = root / "multi.json"
    noise.write_text(json.dumps({"n_samples": 3, "default_flip_prob": 0.2,
                                 "scans": [{"scan_id": f"s{k}", "seed": k} for k in range(3)]}))
    monkeypatch.setattr(volumes, "_SLAB", 800)
    calls = parallel_workers(monkeypatch, cli, metrics, volumes)
    outputs = {}
    for threads in (1, 3):
        monkeypatch.setenv("SEGQC_THREADS", str(threads))
        work = root / f"threads_{threads}"
        work.mkdir()
        monkeypatch.chdir(work)  # stdout names relative paths only
        calls.clear()
        scan = Path("sim", "s1", "manifest.json")
        assert run(["simulate", "--phantom", phantom, "--noise", noise, "--out", "sim",
                    "--with-probs"]) == 0
        assert run(["metrics", "--manifest", scan, "--out", "r.json", "--uncertainty-out",
                    "u.nii.gz", "--heatmap-out", "h.nii"]) == 0
        assert run(["consensus", "--manifest", scan, "--out", "c.nii"]) == 0
        # simulate; metrics: the fold of the maps, counting; consensus: the same
        assert calls == [threads] * (1 + 2 + 2)
        outputs[threads] = capsys.readouterr().out, {
            p.relative_to(work): p.read_bytes() for p in work.rglob("*") if p.is_file()}
    assert len(outputs[1][1]) == 3 + 3 * (1 + 3 + 3 * 3) + 4
    assert outputs[1] == outputs[3]


# -- whole-command fuzz: exit 0, 1 or 2 with a message, never a traceback ----------

@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """The bundled configs shrunk to an 8^3 grid, 3 samples and 3 scans, a
    simulated study of them with maps, and a report of each scan."""
    root = tmp_path_factory.mktemp("fuzz")
    phantom = json.loads((DOCS / "paired_boxes_phantom.json").read_text())
    phantom["dims"] = [8, 8, 8]
    for shape in phantom["shapes"]:
        shape["center"] = [c / 6 for c in shape["center"]]
        shape["size"] = [max(2.0, s / 6) for s in shape["size"]]
    noise = json.loads((DOCS / "graded_noise.json").read_text())
    noise["n_samples"] = 3
    noise["scans"] = noise["scans"][:3]
    docs = {"phantom": phantom, "noise": noise}
    for kind, doc in docs.items():
        (root / f"{kind}.json").write_text(json.dumps(doc))
    sim = root / "sim"
    assert run(["simulate", "--phantom", root / "phantom.json", "--noise", root / "noise.json",
                "--out", sim, "--with-probs"]) == 0
    scans = json.loads((sim / "dataset.json").read_text())["scans"]
    docs["manifest"] = json.loads((sim / scans[0] / "manifest.json").read_text())
    docs["registry"] = json.loads((sim / "registry.json").read_text())
    reports = root / "reports"
    reports.mkdir()
    for sid in scans:
        assert run(["metrics", "--manifest", sim / sid / "manifest.json",
                    "--out", reports / f"{sid}.json", "--dataset", "d"]) == 0
    docs["report"] = json.loads((reports / f"{scans[0]}.json").read_text())
    return root, sim / scans[0], docs


def _bounded(kind, doc) -> bool:
    """Whether ``doc`` asks for no more than a small run: an 8^3 grid, 3
    samples, erosion radius 3. Larger asks are sizes, not malformed input."""
    def at_most(value, top):
        return not isinstance(value, (int, float)) or value <= top

    if not isinstance(doc, dict):
        return True
    if kind == "phantom":
        dims = doc.get("dims")
        return not isinstance(dims, list) or all(at_most(d, 8) for d in dims)
    if kind == "noise":
        scans = doc.get("scans") if isinstance(doc.get("scans"), list) else []
        return all(at_most(e.get("n_samples"), 3) and at_most(e.get("erosion_dilation_radius"), 3)
                   for e in [doc, *scans] if isinstance(e, dict))
    return True


@pytest.mark.parametrize("kind", ["phantom", "noise", "manifest", "registry", "report"])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_on_mutated_inputs_exits_with_a_message(fuzz_base, capsys, kind, data):
    root, scan, docs = fuzz_base
    doc = data.draw(mutated(docs[kind]))
    assume(_bounded(kind, doc))
    work = root / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    # the manifest sits beside the scan's files, whose paths it gives relative to itself
    bad = (scan if kind == "manifest" else work) / f"mutated_{kind}.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    argv = {
        "phantom": ["simulate", "--phantom", bad, "--noise", root / "noise.json",
                    "--out", work / "sim", "--with-probs"],
        "noise": ["simulate", "--phantom", root / "phantom.json", "--noise", bad,
                  "--out", work / "sim"],
        "manifest": ["metrics", "--manifest", bad, "--out", work / "r.json",
                     "--uncertainty-out", work / "u.nii", "--heatmap-out", work / "h.nii"],
        "registry": ["metrics", "--manifest", scan / "manifest.json", "--registry", bad,
                     "--out", work / "r.json"],
        "report": ["correlate", work, "--out", work / "c.csv"],
    }[kind]
    if kind == "report":
        for p in sorted((root / "reports").iterdir())[1:]:
            shutil.copy(p, work / p.name)
    capsys.readouterr()
    try:
        code = cli_main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)
    if code:
        assert "error:" in capsys.readouterr().err
