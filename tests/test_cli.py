"""End-to-end command line behavior, run in process."""

import csv
import json

import numpy as np
import pytest

from segqc.cli import main as cli_main
from segqc.io import read_report
from segqc.nifti import OrientationInfo, read_nifti, write_nifti
from segqc.stats import CohortTable, correlate_uncertainty_accuracy
from segqc.io import write_cohort_csv
from segqc.volumes import VoxelGeometry


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
    for dims, label, fault in [((20, 20, 20), 9, "not in registry"),
                               ((20, 20, 21), 0, "geometry")]:
        write_nifti(bad_gt, np.full(dims, label, dtype=np.uint8),
                    VoxelGeometry(dims, (1.0, 1.0, 1.0)))
        assert run(["metrics", sim_dir, "--registry", sim_dir / "registry.json",
                    "--gt", bad_gt, "--out", report_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{bad_gt}: " in err and fault in err


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
                         (metrics, "consensus_segmentation"),
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
                     "consensus_segmentation": 1, "voxel_uncertainty": 1}
    monkeypatch.undo()

    # the written maps are the ones the library computes for the same set
    from segqc.io import read_registry, read_sample_set, read_scan_manifest
    man = read_scan_manifest(sim / "manifest.json")
    ss = read_sample_set(man["samples"], read_registry(man["registry"]),
                         prob_paths=man["probs"])
    unc = metrics.voxel_uncertainty(ss)
    assert np.array_equal(read_nifti(sim / "unc.nii").data, unc.values.astype(np.float32))
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


def test_group_rejects_unknown_mode(cohort_csv):
    assert run(["group", cohort_csv, "--modes", "ols,bogus"]) == 1


def test_group_needs_a_mode(cohort_csv, tmp_path, capsys):
    out_csv = tmp_path / "group.csv"
    assert run(["group", cohort_csv, "--modes", ",", "--out", out_csv]) == 1
    assert "no group mode" in capsys.readouterr().err
    assert not out_csv.exists()


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
    # path and in the counting pass behind metrics
    root, phantom, single = configs
    noise = root / "multi.json"
    noise.write_text(json.dumps({
        "n_samples": 2,
        "scans": [{"scan_id": f"s{k}", "seed": k} for k in range(2)],
    }))
    monkeypatch.setenv("SEGQC_THREADS", "zero")
    assert run(["simulate", "--phantom", phantom, "--noise", noise,
                "--out", root / "x"]) == 1
    assert "SEGQC_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("SEGQC_THREADS", "0")
    assert run(["simulate", "--phantom", phantom, "--noise", noise,
                "--out", root / "x"]) == 1

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
