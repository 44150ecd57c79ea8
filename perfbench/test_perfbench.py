"""Self-tests of the benchmark on the smoke scale of every workload.

    python3 -m pytest perfbench -q

They exercise input generation, the output checks (including that a
corrupted output counts as a failure), the traced run and the output
schema against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import niftilite
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(capsys, *argv) -> dict:
    assert run.main(["--scale", "smoke", "--seconds", "0.1", *argv]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def launcher():
    launcher = run.Launcher()
    yield launcher
    launcher.close()


def _smoke_pass(workload: str, tmp_path: Path, launcher):
    inputs, meta = workloads.generate(ROOT, run.WORK, workload, "smoke", 0)
    checker = run.Checker(workload, inputs, meta)
    env = workloads.program_env(ROOT)
    done = run.run_pass(workload, inputs, meta, tmp_path / "pass", run.cli_cmd, launcher,
                        env, checker)
    calls = workloads.pass_calls(workload, inputs, meta, tmp_path / "pass")
    return done, calls, checker


def test_spec_matches_the_runner():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (_, _, unit) in run.PER_LAYER.items()}
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, capsys):
    res = _result(capsys, "--workload", workload, "--trace", "0")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload,per_sample", [("a9_labels", 4), ("prob_maps", 6)])
def test_traced_run_counts_validation_calls(workload, per_sample, capsys):
    res = _result(capsys, "--workload", workload, "--trace", "1")
    assert res["correct"] and set(res["metrics"]) == set(run.PER_LAYER)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    n = (workloads.A9 if workload == "a9_labels" else workloads.PROB)["smoke"]["n_samples"]
    # label checks: one per file read, per_sample - 1 per sample in the metric
    # passes, and one for the ground truth in structure_report
    assert m["volumes.check_labels.calls"] == per_sample * n + 2
    assert m["nifti.read_nifti.calls"] == (n + 1 if workload == "a9_labels" else 10 * n + 1)
    assert m["metrics.sample_voxels"] > 0 and 0 < m["metrics.disagree_voxel_frac"] < 1


def test_traced_study_reaches_every_layer(capsys):
    res = _result(capsys, "--workload", "paper_studies", "--trace", "1")
    assert res["correct"]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    for name in ("stats.pearson.calls", "stats.wls_fit.calls", "stats.huber_fit.n_iter",
                 "synth.sample_mc.calls", "io.read_cohort_csv.rows",
                 "nifti.write_nifti.bytes_out", "cli.group.self_s"):
        assert m[name] > 0, name
    assert m["stats.pearson.calls"] == 3 and m["stats.wls_fit.calls"] == 3


def _corrupt_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_corrupted_a9_report_is_a_failure(tmp_path, launcher):
    done, calls, checker = _smoke_pass("a9_labels", tmp_path, launcher)
    assert [c["problems"] for c in done["calls"]] == [[]]
    report = calls[0].outputs["report"]
    _corrupt_json(report, lambda d: d["structures"][2].update(mc_dice=0.5))
    assert checker(calls[0])


def test_corrupted_uncertainty_volume_is_a_failure(tmp_path, launcher):
    done, calls, checker = _smoke_pass("prob_maps", tmp_path, launcher)
    assert [c["problems"] for c in done["calls"]] == [[]]
    unc = calls[0].outputs["unc"]
    niftilite.write(unc, niftilite.read(unc) * np.float32(1.01))
    assert checker(calls[0]) == ["uncertainty volume differs from the entropy of the stored maps"]


def test_corrupted_study_outputs_are_failures(tmp_path, launcher):
    done, calls, checker = _smoke_pass("paper_studies", tmp_path, launcher)
    assert all(c["problems"] == [] for c in done["calls"])
    by_kind = {c.kind: c for c in calls}
    corr = by_kind["correlate"].outputs["csv"]
    corr.write_text(corr.read_text(encoding="utf-8").replace(",mc_dice,", ",mc_dice,-"),
                    encoding="utf-8")
    assert checker(by_kind["correlate"])
    group = by_kind["group"].outputs["csv"]
    lines = group.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace("none,", "none,1", 1)
    group.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert checker(by_kind["group"])


def test_nonzero_exit_is_a_failure(tmp_path, launcher):
    inputs, meta = workloads.generate(ROOT, run.WORK, "a9_labels", "smoke", 0)
    checker = run.Checker("a9_labels", inputs, meta)

    def failing(call, result):
        return [sys.executable, "-c", "import sys; sys.exit(3)"]

    done = run.run_pass("a9_labels", inputs, meta, tmp_path / "pass", failing, launcher,
                        workloads.program_env(ROOT), checker)
    assert done["calls"][0]["exit"] == 3 and done["calls"][0]["problems"]


def test_inputs_depend_only_on_the_seed(tmp_path):
    metas = [workloads._gen_a9(_fresh(tmp_path / f"s{k}"), workloads.A9["smoke"], seed)
             for k, seed in enumerate((5, 5, 6))]
    assert metas[0] == metas[1] != metas[2]
    assert (tmp_path / "s0" / "sample_001.nii").read_bytes() == \
        (tmp_path / "s1" / "sample_001.nii").read_bytes()


def _fresh(path: Path) -> Path:
    path.mkdir(parents=True)
    return path


def test_peak_rss_is_the_callee_s_own(tmp_path, launcher):
    ballast = bytearray(300 * 2**20)  # this process now peaks above 300 MB
    ballast[::4096] = b"\1" * len(ballast[::4096])
    code, _, rss = launcher.spawn([sys.executable, "-c", "pass"], {}, tmp_path / "log")
    assert code == 0 and rss < 100


def test_self_time_excludes_children_across_threads():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.05))

    def outer():
        worker = threading.Thread(target=inner)
        worker.start()
        inner()
        worker.join(timeout=5)
        assert not worker.is_alive()
        time.sleep(0.05)

    tracer.wrap("outer", outer)()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2
    assert 0.09 < summary["inner"]["self_s"] < 0.2
    assert 0.04 < summary["outer"]["self_s"] < 0.09


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "a9_labels",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
