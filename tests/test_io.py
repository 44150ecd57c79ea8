"""Registry JSON, cohort CSV, report JSON, configs, manifests, sample sets."""

import copy
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from segqc.io import (
    read_cohort_csv,
    read_noise_json,
    read_phantom_json,
    read_registry,
    read_report,
    read_sample_set,
    read_scan_manifest,
    report_from_dict,
    report_to_dict,
    write_cohort_csv,
    write_heatmap_volume,
    write_phantom_json,
    write_registry,
    write_report,
    write_scan_manifest,
)
from segqc.metrics import StructureMetrics, StructureReport, structure_report
from segqc.nifti import read_nifti, write_nifti
from segqc.stats import CohortTable
from segqc.synth import NoiseSpec, contact_pair_phantom, make_phantom, registry_for_phantom
from segqc.volumes import LabelVolume, StructureRegistry, ValidationError, VoxelGeometry


# -- registry ------------------------------------------------------------------


def test_registry_round_trip(tmp_path):
    reg = StructureRegistry(entries=((0, "background"), (1, "left"), (2, "right")),
                            background_id=0)
    p = tmp_path / "reg.json"
    write_registry(reg, p)
    back = read_registry(p)
    assert back == reg


def test_registry_background_added_when_unlisted(tmp_path):
    p = tmp_path / "reg.json"
    p.write_text(json.dumps({"background": 0,
                             "structures": [{"id": 1, "name": "hippocampus"}]}))
    reg = read_registry(p)
    assert (0, "background") in reg.entries
    assert reg.foreground == ((1, "hippocampus"),)


@pytest.mark.parametrize("doc,needle", [
    ([1, 2], "JSON object"),
    ({"structures": []}, "background"),
    ({"background": "0", "structures": []}, "integer"),
    ({"background": 0, "structures": {}}, "array"),
    ({"background": 0, "structures": [{"id": 1}]}, "name"),
    ({"background": 0, "structures": [{"id": "x", "name": "a"}]}, "integer"),
    ({"background": 0, "structures": [{"id": 1, "name": 2}]}, "string"),
])
def test_registry_validation(tmp_path, doc, needle):
    p = tmp_path / "reg.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=needle):
        read_registry(p)


def test_registry_malformed_json(tmp_path):
    p = tmp_path / "reg.json"
    p.write_text("{not json")
    with pytest.raises(ValidationError):
        read_registry(p)


def test_registry_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        read_registry(tmp_path / "nope.json")


# -- cohort CSV ------------------------------------------------------------------


def cohort_table():
    return CohortTable(
        subject_ids=("sub-01", "sub-02", "sub-03", "sub-04"),
        age=np.array([30.0, 44.5, 60.25, 70.0]),
        sex=np.array([0.0, 1.0, 1.0, 0.0]),
        dx=np.array([0.0, 0.0, 1.0, 1.0]),
        volume=np.array([1.1, 0.9, 1.3, 0.7]),
        site=("a", "a", "b", "b"),
        cv=np.array([0.1, math.nan, 0.3, 0.2]),
        mc_dice=np.array([0.9, 0.8, math.nan, 0.95]),
    )


def test_cohort_csv_round_trip(tmp_path):
    t = cohort_table()
    p = tmp_path / "cohort.csv"
    write_cohort_csv(t, p)
    back = read_cohort_csv(p)
    assert back.subject_ids == t.subject_ids
    assert back.site == t.site
    # repr-based cells reparse to the same doubles
    assert np.array_equal(back.age, t.age)
    assert np.array_equal(back.volume, t.volume)
    assert np.array_equal(np.isnan(back.cv), np.isnan(t.cv))
    assert np.array_equal(back.cv[~np.isnan(back.cv)], t.cv[~np.isnan(t.cv)])


def test_cohort_csv_optional_columns_absent(tmp_path):
    p = tmp_path / "cohort.csv"
    p.write_text("subject_id,age,sex,dx,volume\n"
                 "s1,30,0,1,1.5\n"
                 "s2,40,1,0,1.2\n"
                 "s3,50,0,0,1.0\n")
    t = read_cohort_csv(p)
    assert t.site is None and t.cv is None and t.mc_dice is None
    assert t.n == 3


def test_cohort_csv_blank_lines_skipped(tmp_path):
    p = tmp_path / "cohort.csv"
    p.write_text("subject_id,age,sex,dx,volume\n\ns1,30,0,1,1.5\n   \ns2,40,1,0,1.2\n"
                 "s3,31,1,1,0.9\n")
    assert read_cohort_csv(p).n == 3


def test_cohort_csv_empty_optional_cell_is_nan(tmp_path):
    p = tmp_path / "cohort.csv"
    p.write_text("subject_id,age,sex,dx,volume,cv\ns1,30,0,1,1.5,\n"
                 "s2,40,1,0,1.2,0.3\ns3,33,0,0,1.1,0.2\n")
    t = read_cohort_csv(p)
    assert math.isnan(t.cv[0]) and t.cv[1] == 0.3


@pytest.mark.parametrize("text,needle", [
    ("", "empty file"),
    ("age,sex,dx,volume\n", "subject_id"),
    ("subject_id,age,sex,dx,volume,extra\n", "unknown columns"),
    ("subject_id,age,sex,dx,volume,age\n", "missing required column|duplicate"),
    ("subject_id,age,sex,dx,volume\ns1,30,0,1\n", "expected 5 fields"),
    ("subject_id,age,sex,dx,volume\ns1,,0,1,1.5\n", "line 2, column age"),
    ("subject_id,age,sex,dx,volume\ns1,abc,0,1,1.5\n", "line 2, column age"),
    ("subject_id,age,sex,dx,volume\n", "no data rows"),
])
def test_cohort_csv_validation(tmp_path, text, needle):
    p = tmp_path / "cohort.csv"
    p.write_text(text)
    with pytest.raises(ValidationError, match=needle):
        read_cohort_csv(p)


def test_cohort_csv_unicode_line_separators_stay_in_cells(tmp_path):
    # U+2028 and U+0085 are line breaks to str.splitlines, not to CSV
    p = tmp_path / "cohort.csv"
    p.write_text("subject_id,age,sex,dx,volume\ns\u2028a,30,0,1,1.5\n"
                 "s\x85b,40,1,0,1.2\ns3,31,1,1,0.9\n", encoding="utf-8")
    t = read_cohort_csv(p)
    assert t.subject_ids == ("s\u2028a", "s\x85b", "s3")


def test_cohort_csv_error_names_the_physical_line(tmp_path):
    # a blank line and a quoted cell spanning two lines both count
    p = tmp_path / "cohort.csv"
    p.write_text('subject_id,age,sex,dx,volume\n\n"s\n1",30,0,1,1.5\ns2,x,0,1,1.5\n')
    with pytest.raises(ValidationError, match="line 5, column age"):
        read_cohort_csv(p)


def test_cohort_csv_rejects_non_utf8(tmp_path):
    p = tmp_path / "cohort.csv"
    p.write_bytes("subject_id,age,sex,dx,volume\ns\xe9,30,0,1,1.5\n".encode("latin-1"))
    with pytest.raises(ValidationError, match="UTF-8"):
        read_cohort_csv(p)


def test_cohort_csv_leading_bom_is_ignored(tmp_path):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_cohort_csv(cohort_table(), plain)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a, b = read_cohort_csv(plain), read_cohort_csv(bom)
    assert b.subject_ids == a.subject_ids and b.site == a.site
    for col in ("age", "sex", "dx", "volume", "cv", "mc_dice"):
        assert np.array_equal(getattr(b, col), getattr(a, col), equal_nan=True)


def test_cohort_csv_oversized_field_names_the_line(tmp_path):
    # past the csv module's field size limit (131072 characters)
    p = tmp_path / "cohort.csv"
    p.write_text("subject_id,age,sex,dx,volume\ns1,30,0,1,1.5\n"
                 + "s" * 200_000 + ",31,1,0,1.2\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="line 3: field larger than field limit"):
        read_cohort_csv(p)


# -- report JSON ------------------------------------------------------------------


def sample_report():
    return StructureReport(
        structures=(
            StructureMetrics(label_id=1, name="left", mean_volume=120.5, std_volume=3.2,
                             cv=0.0265, mc_dice=0.91, mean_uncertainty=0.42,
                             consensus_volume=121.0, gt_dice=0.93),
            StructureMetrics(label_id=2, name="right", mean_volume=0.0, std_volume=0.0,
                             cv=None, mc_dice=None, mean_uncertainty=None,
                             consensus_volume=0.0, gt_dice=None),
        ),
        n_samples=12,
        uncertainty_min=0.0,
        uncertainty_mean=0.173,
        uncertainty_max=3.1,
        normalized_uncertainty=False,
        scan_id="scan_03",
        dataset="phantoms",
    )


def test_report_round_trip(tmp_path):
    rep = sample_report()
    p = tmp_path / "report.json"
    write_report(rep, p)
    assert read_report(p) == rep


def test_report_none_serializes_as_null(tmp_path):
    p = tmp_path / "report.json"
    write_report(sample_report(), p)
    doc = json.loads(p.read_text())
    absent = doc["structures"][1]
    assert absent["cv"] is None and absent["mc_dice"] is None
    assert absent["mean_uncertainty"] is None and absent["gt_dice"] is None


def test_report_floats_round_trip_shortest(tmp_path):
    # json emits repr floats: parsing must restore the exact double
    rep = sample_report()
    p = tmp_path / "report.json"
    write_report(rep, p)
    back = read_report(p)
    assert back.structures[0].cv == rep.structures[0].cv
    assert back.uncertainty_mean == rep.uncertainty_mean


def test_report_ignores_unknown_fields():
    doc = report_to_dict(sample_report())
    doc["future_field"] = {"x": 1}
    doc["structures"][0]["another"] = True
    rep = report_from_dict(doc)
    assert rep == sample_report()


def test_report_rejects_wrong_schema_version():
    doc = report_to_dict(sample_report())
    doc["schema_version"] = "2"
    with pytest.raises(ValidationError, match="schema_version"):
        report_from_dict(doc)


def test_report_rejects_non_numeric_optional():
    doc = report_to_dict(sample_report())
    doc["structures"][0]["cv"] = "high"
    with pytest.raises(ValidationError, match="cv"):
        report_from_dict(doc)


def test_report_missing_required_field():
    doc = report_to_dict(sample_report())
    del doc["structures"][0]["mean_volume"]
    with pytest.raises(ValidationError, match="structures\\[0\\]"):
        report_from_dict(doc)


@pytest.mark.parametrize("drop,needle", [
    (("n_samples",), "n_samples"),
    (("uncertainty", "min"), "uncertainty: missing required field \"min\""),
    (("uncertainty", "max"), "max"),
])
def test_report_missing_summary_field_is_named(drop, needle):
    doc = report_to_dict(sample_report())
    target = doc
    for key in drop[:-1]:
        target = target[key]
    del target[drop[-1]]
    with pytest.raises(ValidationError, match=needle):
        report_from_dict(doc)


def test_report_bad_summary_value_is_named():
    doc = report_to_dict(sample_report())
    doc["n_samples"] = "many"
    with pytest.raises(ValidationError, match="n_samples"):
        report_from_dict(doc)


# -- heat map ----------------------------------------------------------------------


def test_heatmap_volume_paints_consensus_labels(tmp_path):
    geom = VoxelGeometry((4, 4, 4), (1.0, 1.0, 1.0))
    data = np.zeros(geom.dims, dtype=np.uint8)
    data[:2] = 1
    data[2:, 2:] = 2
    consensus = LabelVolume(geom, data)
    rep = StructureReport(
        structures=(
            StructureMetrics(1, "a", 31.0, 1.0, cv=0.25, mc_dice=0.9,
                             mean_uncertainty=0.5, consensus_volume=32.0),
            StructureMetrics(2, "b", 16.0, 0.0, cv=None, mc_dice=None,
                             mean_uncertainty=None, consensus_volume=16.0),
        ),
        n_samples=5, uncertainty_min=0.0, uncertainty_mean=0.1, uncertainty_max=1.0,
    )
    p = tmp_path / "heat.nii.gz"
    write_heatmap_volume(consensus, rep, "cv", p)
    heat = read_nifti(p)
    assert heat.data.dtype == np.float32
    assert np.all(heat.data[data == 1] == np.float32(0.25))
    assert np.all(heat.data[data == 2] == 0.0)  # absent-flagged: painted 0
    assert np.all(heat.data[data == 0] == 0.0)
    with pytest.raises(ValidationError, match="metric"):
        write_heatmap_volume(consensus, rep, "dice", tmp_path / "x.nii")


# -- phantom / noise configs --------------------------------------------------------


def test_phantom_json_round_trip(tmp_path):
    spec = contact_pair_phantom()
    p = tmp_path / "phantom.json"
    write_phantom_json(spec, p)
    back = read_phantom_json(p)
    assert back == spec
    assert np.array_equal(make_phantom(back).data, make_phantom(spec).data)


def test_phantom_json_defaults_and_errors(tmp_path):
    p = tmp_path / "phantom.json"
    p.write_text(json.dumps({
        "dims": [8, 8, 8],
        "shapes": [{"label": 1, "kind": "box", "center": [3.5, 3.5, 3.5],
                    "size": [4, 4, 4]}],
    }))
    spec = read_phantom_json(p)
    assert spec.geometry.spacing == (1.0, 1.0, 1.0)
    assert spec.background_id == 0
    p.write_text(json.dumps({"dims": [8, 8, 8], "shapes": [{"kind": "box"}]}))
    with pytest.raises(ValidationError, match="phantom"):
        read_phantom_json(p)


def test_noise_json_single_scan(tmp_path):
    p = tmp_path / "noise.json"
    p.write_text(json.dumps({"n_samples": 6, "flip_probs": {"1": 0.1, "2": 0.3},
                             "seed": 9}))
    scans = read_noise_json(p)
    assert len(scans) == 1
    sid, spec = scans[0]
    assert sid == ""
    assert spec == NoiseSpec(n_samples=6, flip_probs=((1, 0.1), (2, 0.3)), seed=9)


def test_noise_json_multi_scan_inherits_base(tmp_path):
    p = tmp_path / "noise.json"
    p.write_text(json.dumps({
        "n_samples": 4,
        "default_flip_prob": 0.05,
        "scans": [
            {"scan_id": "s0", "seed": 1},
            {"seed": 2, "n_samples": 6},
        ],
    }))
    scans = read_noise_json(p)
    assert [sid for sid, _ in scans] == ["s0", "scan_01"]
    assert scans[0][1].n_samples == 4 and scans[0][1].default_flip_prob == 0.05
    assert scans[1][1].n_samples == 6  # scan entry overrides base


def test_noise_json_duplicate_scan_ids(tmp_path):
    p = tmp_path / "noise.json"
    p.write_text(json.dumps({"n_samples": 4,
                             "scans": [{"scan_id": "a", "seed": 1},
                                       {"scan_id": "a", "seed": 2}]}))
    with pytest.raises(ValidationError, match="duplicate"):
        read_noise_json(p)


def test_noise_json_bad_values(tmp_path):
    p = tmp_path / "noise.json"
    p.write_text(json.dumps({"n_samples": 4, "flip_probs": {"1": "high"}}))
    with pytest.raises(ValidationError, match="noise"):
        read_noise_json(p)
    p.write_text(json.dumps({"scans": []}))
    with pytest.raises(ValidationError, match="scans"):
        read_noise_json(p)


# -- sample sets and manifests ---------------------------------------------------------


def write_sample_files(tmp_path, n=3, noise=0.2):
    from segqc.synth import PhantomSpec, ShapeSpec, sample_mc

    geom = VoxelGeometry((24, 24, 24), (1.0, 1.0, 1.0))
    spec = PhantomSpec(geometry=geom, shapes=(
        ShapeSpec(1, "box", (7.5, 11.5, 11.5), (8.0, 8.0, 8.0)),
        ShapeSpec(2, "box", (16.5, 11.5, 11.5), (6.0, 6.0, 6.0)),
    ))
    gt = make_phantom(spec)
    reg = registry_for_phantom(spec)

    ss = sample_mc(gt, reg, NoiseSpec(n_samples=n, default_flip_prob=noise, seed=1),
                   with_probs=False)
    paths = []
    for i, s in enumerate(ss.samples):
        p = tmp_path / f"sample_{i:03d}.nii"
        write_nifti(p, s.labels)
        paths.append(p)
    gt_path = tmp_path / "gt.nii"
    write_nifti(gt_path, gt)
    return paths, gt_path, reg, ss


def test_read_sample_set_matches_in_memory(tmp_path):
    paths, _, reg, ss = write_sample_files(tmp_path)
    loaded = read_sample_set(paths, reg)
    assert loaded.n == ss.n
    for a, b in zip(loaded.samples, ss.samples):
        assert np.array_equal(a.labels.data, b.labels.data)


def test_read_sample_set_validates_geometry(tmp_path):
    paths, _, reg, _ = write_sample_files(tmp_path)
    odd = tmp_path / "odd.nii"
    write_nifti(odd, np.zeros((4, 4, 4), dtype=np.uint8),
                VoxelGeometry((4, 4, 4), (1.0, 1.0, 1.0)))
    with pytest.raises(ValidationError, match="odd.nii"):
        read_sample_set(paths + [odd], reg)


def test_read_sample_set_validates_labels(tmp_path):
    paths, _, reg, _ = write_sample_files(tmp_path)
    rogue = tmp_path / "rogue.nii"
    data = np.full((24, 24, 24), 77, dtype=np.uint8)
    write_nifti(rogue, data, VoxelGeometry((24, 24, 24), (1.0, 1.0, 1.0)))
    with pytest.raises(ValidationError, match="rogue.nii"):
        read_sample_set(paths + [rogue], reg)


def test_read_sample_set_refuses_float_labels(tmp_path):
    paths, _, reg, _ = write_sample_files(tmp_path)
    fl = tmp_path / "float.nii"
    write_nifti(fl, np.zeros((24, 24, 24), dtype=np.float32),
                VoxelGeometry((24, 24, 24), (1.0, 1.0, 1.0)))
    with pytest.raises(ValidationError, match="float.nii"):
        read_sample_set([fl] + paths[1:], reg)


def write_prob_set(tmp_path, n, k, dims):
    """N float32 Dirichlet stacks of K maps, labels = their argmax, all on disk."""
    rng = np.random.default_rng(11)
    geom = VoxelGeometry(dims, (1.0, 1.0, 1.0))
    reg = StructureRegistry(tuple((i, f"s{i}") for i in range(k)), background_id=0)
    label_paths, prob_paths = [], []
    for i in range(n):
        maps = rng.dirichlet(np.ones(k), size=dims).astype(np.float32)
        p = tmp_path / f"sample_{i:03d}.nii"
        write_nifti(p, np.argmax(maps, axis=-1).astype(np.uint8), geom)
        label_paths.append(p)
        prob_paths.append([])
        for j in range(k):
            q = tmp_path / f"prob_{i:03d}_{j}.nii"
            write_nifti(q, maps[..., j], geom)
            prob_paths[-1].append(q)
    return label_paths, prob_paths, reg


def test_read_sample_set_memory_is_bounded_by_one_sample(tmp_path):
    n, k, dims = 24, 5, (32, 32, 32)
    label_paths, prob_paths, reg = write_prob_set(tmp_path, n, k, dims)
    tracemalloc.start()
    try:
        ss = read_sample_set(label_paths, reg, prob_paths=prob_paths)
        rep = structure_report(ss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_samples == n
    # a float64 copy of every map is n*k*v*8 bytes; float32 ones half that
    assert peak < n * k * int(np.prod(dims)) * 4 / 2


def test_read_sample_set_decodes_probability_files_once(tmp_path, monkeypatch):
    import segqc.io
    import segqc.nifti
    from segqc.cli import main

    n, k = 3, 4
    label_paths, prob_paths, reg = write_prob_set(tmp_path, n, k, (6, 5, 4))
    write_registry(reg, tmp_path / "registry.json")
    write_nifti(tmp_path / "gt.nii", read_nifti(label_paths[0]).data,
                VoxelGeometry((6, 5, 4), (1.0, 1.0, 1.0)))
    write_scan_manifest(tmp_path / "manifest.json", [p.name for p in label_paths],
                        gt="gt.nii", registry="registry.json",
                        probs=[[q.name for q in qs] for qs in prob_paths])
    decoded = []
    real = segqc.nifti.read_nifti

    def counted(path):
        decoded.append(Path(path).name)
        return real(path)

    monkeypatch.setattr(segqc.nifti, "read_nifti", counted)
    monkeypatch.setattr(segqc.io, "read_nifti", counted)
    code = main([
        "metrics", "--manifest", str(tmp_path / "manifest.json"),
        "--out", str(tmp_path / "r.json"), "--uncertainty-out", str(tmp_path / "u.nii"),
        "--heatmap-out", str(tmp_path / "h.nii"),
    ])
    assert code == 0
    assert len(decoded) == n * k + n + 1
    assert sorted(set(decoded)) == sorted(decoded)


def test_probability_file_errors_keep_their_exit_codes(tmp_path, capsys):
    from segqc.cli import main

    label_paths, prob_paths, reg = write_prob_set(tmp_path, 3, 3, (6, 5, 4))
    write_registry(reg, tmp_path / "registry.json")
    write_scan_manifest(tmp_path / "manifest.json", [p.name for p in label_paths],
                        registry="registry.json",
                        probs=[[q.name for q in qs] for qs in prob_paths])
    argv = ["metrics", "--manifest", str(tmp_path / "manifest.json"),
            "--out", str(tmp_path / "r.json")]
    odd = prob_paths[1][2]
    write_nifti(odd, np.full((6, 5, 5), 0.5, dtype=np.float32),
                VoxelGeometry((6, 5, 5), (1.0, 1.0, 1.0)))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and odd.name in err and "geometry" in err
    odd.unlink()
    assert main(argv) == 2
    assert odd.name in capsys.readouterr().err
    # a normalisation error names the file of the sample it is about
    write_nifti(odd, np.full((6, 5, 4), 0.9, dtype=np.float32),
                VoxelGeometry((6, 5, 4), (1.0, 1.0, 1.0)))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "prob_normalization" in err
    assert f"{label_paths[1]}: [prob_normalization] sample 1" in err
    assert not (tmp_path / "r.json").exists()


def test_structure_uncertainty_decodes_one_file_per_sample(tmp_path, monkeypatch):
    import segqc.io
    from scipy.special import xlogy

    from segqc.metrics import structure_uncertainty

    n, k = 3, 4
    label_paths, prob_paths, reg = write_prob_set(tmp_path, n, k, (6, 5, 4))
    ss = read_sample_set(label_paths, reg, prob_paths=prob_paths)
    decoded = []
    real = segqc.io.read_nifti

    def counted(path):
        decoded.append(Path(path))
        return real(path)

    monkeypatch.setattr(segqc.io, "read_nifti", counted)
    got = structure_uncertainty(ss, 2)
    assert decoded == [qs[2] for qs in prob_paths]
    monkeypatch.undo()
    want = np.zeros((6, 5, 4))
    for qs in prob_paths:
        p = read_nifti(qs[2]).data
        want -= xlogy(p, p, dtype=np.float64)
    assert np.array_equal(got, np.maximum(want, 0.0))


@pytest.mark.parametrize("fault", ["geometry", "labels"])
def test_bad_label_file_is_refused_before_any_map_is_decoded(tmp_path, monkeypatch, fault):
    import segqc.io

    n, k = 3, 3
    label_paths, prob_paths, reg = write_prob_set(tmp_path, n, k, (6, 5, 4))
    if fault == "geometry":
        write_nifti(label_paths[1], np.zeros((6, 5, 5), dtype=np.uint8),
                    VoxelGeometry((6, 5, 5), (1.0, 1.0, 1.0)))
    else:
        write_nifti(label_paths[1], np.full((6, 5, 4), 7, dtype=np.uint8),
                    VoxelGeometry((6, 5, 4), (1.0, 1.0, 1.0)))
    decoded = []
    real = segqc.io.read_nifti

    def counted(path):
        decoded.append(Path(path))
        return real(path)

    monkeypatch.setattr(segqc.io, "read_nifti", counted)
    with pytest.raises(ValidationError, match=f"\\[{fault}\\] sample 1") as info:
        read_sample_set(label_paths, reg, prob_paths=prob_paths)
    assert str(label_paths[1]) in str(info.value)
    assert decoded == label_paths


def test_scan_manifest_round_trip_resolves_paths(tmp_path):
    paths, gt_path, reg, _ = write_sample_files(tmp_path)
    from segqc.io import write_registry

    reg_path = tmp_path / "registry.json"
    write_registry(reg, reg_path)
    man = tmp_path / "manifest.json"
    write_scan_manifest(man, samples=[p.name for p in paths], gt=gt_path.name,
                        registry=reg_path.name)
    doc = read_scan_manifest(man)
    assert doc["samples"] == [str(p) for p in paths]
    assert doc["gt"] == str(gt_path)
    assert doc["registry"] == str(reg_path)


def test_scan_manifest_needs_samples(tmp_path):
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps({"schema_version": "1", "samples": []}))
    with pytest.raises(ValidationError, match="samples"):
        read_scan_manifest(man)


def test_scan_manifest_probs_shape_checked(tmp_path):
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps({"schema_version": "1",
                               "samples": ["a.nii", "b.nii"],
                               "probs": [["p.nii"]]}))
    with pytest.raises(ValidationError, match="probs"):
        read_scan_manifest(man)


# -- reader fuzz: success or ValidationError, never anything else ---------------------

DOCS = Path(__file__).resolve().parent.parent / "docs"
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12,
)
FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three nested values deleted or replaced."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while isinstance(node, (dict, list)) and node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
            elif draw(st.booleans()):
                del node[key]
                break
            else:
                node[key] = draw(JSON_VALUES)
                break
    return doc


def valid_docs():
    return {
        "report": (read_report, report_to_dict(sample_report())),
        "manifest": (read_scan_manifest, {
            "schema_version": "1", "samples": ["a.nii", "b.nii"], "gt": "gt.nii",
            "registry": "registry.json", "probs": [["a0.nii", "a1.nii"], ["b0.nii", "b1.nii"]],
        }),
        "registry": (read_registry, {"background": 0, "structures": [
            {"id": 1, "name": "left"}, {"id": 2, "name": "right"}]}),
        "noise": (read_noise_json, json.loads((DOCS / "graded_noise.json").read_text())),
        "phantom": (read_phantom_json,
                    json.loads((DOCS / "paired_boxes_phantom.json").read_text())),
    }


def same_json(written, given):
    """``written`` holds the JSON values of ``given``: numbers compare by
    value (an integer read into a float field, or 15.0 into an integer
    field, is the same JSON number), anything else by type and value.
    Keys ``given`` lacks were filled from defaults and are not compared."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if isinstance(written, dict):
        return isinstance(given, dict) and all(
            same_json(v, given[k]) for k, v in written.items() if k in given)
    if isinstance(written, list):
        return (isinstance(given, list) and len(written) == len(given)
                and all(map(same_json, written, given)))
    if number(written) or number(given):
        return number(written) and number(given) and written == given
    return type(written) is type(given) and written == given


def written_back(kind, value, tmp_path):
    """The JSON that writing a read report or registry produces."""
    if kind == "report":
        return report_to_dict(value)
    out = tmp_path / "written.json"
    write_registry(value, out)
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("kind", sorted(valid_docs()))
@FUZZ
@given(data=st.data())
def test_json_readers_fail_only_with_validation_error(kind, data, tmp_path):
    reader, valid = valid_docs()[kind]
    doc = data.draw(st.one_of(JSON_VALUES, mutated(valid)))
    p = tmp_path / f"{kind}.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    try:
        value = reader(p)
    except ValidationError:
        return
    if kind in ("report", "registry"):
        back = written_back(kind, value, tmp_path)
        if kind == "registry" and len(back["structures"]) == len(doc["structures"]) + 1:
            # the reader lists an unlisted background first, as documented
            assert back["structures"][0] == {"id": doc["background"], "name": "background"}
            del back["structures"][0]
        assert same_json(back, doc), (back, doc)


def test_same_json_compares_types_not_only_values():
    assert same_json({"a": 1.0, "b": [2, "x"], "c": None}, {"a": 1, "b": [2.0, "x"], "c": None})
    assert same_json({"a": 1, "filled": 0}, {"a": 1})
    assert not same_json({"a": 1}, {"a": True})
    assert not same_json({"a": True}, {"a": 1})
    assert not same_json({"a": 1.0}, {"a": "1"})
    assert not same_json({"a": "1"}, {"a": 1})
    assert not same_json({"a": 2}, {"a": 2.9})
    assert not same_json([1, 2], [1])


REPORT_ROW = {"label_id": 1, "name": "a", "mean_volume": 1, "std_volume": 1,
              "consensus_volume": 1}


@pytest.mark.parametrize("reader,doc", [
    (read_phantom_json, {"dims": [math.inf, 8, 8], "shapes": []}),
    (read_phantom_json, {"dims": [8, 8, 8], "spacing": [10**400, 1, 1], "shapes": []}),
    (read_noise_json, {"n_samples": math.inf}),
    (read_noise_json, {"n_samples": 3, "flip_probs": [1]}),
    (read_report, {"structures": [{**REPORT_ROW, "label_id": math.inf}]}),
    (read_report, {"structures": [{**REPORT_ROW, "mean_volume": 10**400}]}),
    (read_report, {"structures": [{**REPORT_ROW, "cv": 10**400}]}),
    (read_scan_manifest, {"samples": ["a.nii"], "probs": [None]}),
], ids=["phantom-inf", "phantom-huge", "noise-inf", "noise-flips-list", "report-inf",
        "report-huge", "report-huge-optional", "manifest-probs-null"])
def test_readers_reject_out_of_range_numbers_and_wrong_containers(tmp_path, reader, doc):
    if reader is read_report:
        doc = {"schema_version": "1", "n_samples": 2,
               "uncertainty": {"min": 0, "mean": 0, "max": 0}, **doc}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValidationError):
        reader(p)


SINGLE_NOISE = {"n_samples": 6, "flip_probs": {"1": 0.1, "2": 0.3}, "seed": 9,
                "default_flip_prob": 0.0, "erosion_dilation_radius": 0}
TYPE_CONFUSED = [
    # (reader kind, path to the value, value, the path the error must name)
    ("registry", ("background",), True, "background"),
    ("registry", ("structures", 0, "id"), "1", "structures[0].id"),
    ("registry", ("structures", 0, "id"), 1.5, "structures[0].id"),
    ("registry", ("structures", 1, "id"), math.nan, "structures[1].id"),
    ("registry", ("structures", 0, "name"), 2, "structures[0].name"),
    ("report", ("n_samples",), 2.9, "n_samples"),
    ("report", ("n_samples",), "12", "n_samples"),
    ("report", ("n_samples",), True, "n_samples"),
    ("report", ("structures", 0, "label_id"), 1.7, "structures[0].label_id"),
    ("report", ("structures", 0, "mean_volume"), True, "structures[0].mean_volume"),
    ("report", ("structures", 0, "std_volume"), "3.2", "structures[0].std_volume"),
    ("report", ("structures", 0, "cv"), math.inf, "structures[0].cv"),
    ("report", ("structures", 0, "gt_dice"), False, "structures[0].gt_dice"),
    ("report", ("uncertainty", "mean"), math.nan, "uncertainty.mean"),
    ("report", ("uncertainty", "max"), -math.inf, "uncertainty.max"),
    ("report", ("structures", 1, "name"), 2, "structures[1].name"),
    ("report", ("scan_id",), 3, "scan_id"),
    ("report", ("dataset",), 1.0, "dataset"),
    ("report", ("normalized_uncertainty",), "false", "normalized_uncertainty"),
    ("report", ("normalized_uncertainty",), 0, "normalized_uncertainty"),
    ("phantom", ("dims", 0), 8.9, "dims[0]"),
    ("phantom", ("dims", 1), True, "dims[1]"),
    ("phantom", ("dims", 2), "8", "dims[2]"),
    ("phantom", ("spacing", 0), math.nan, "spacing[0]"),
    ("phantom", ("spacing", 2), math.inf, "spacing[2]"),
    ("phantom", ("shapes", 2, "center", 1), True, "shapes[2].center[1]"),
    ("phantom", ("shapes", 0, "size", 0), "4", "shapes[0].size[0]"),
    ("phantom", ("shapes", 0, "label"), 1.5, "shapes[0].label"),
    ("phantom", ("shapes", 0, "kind"), 1, "shapes[0].kind"),
    ("phantom", ("background",), False, "background"),
    ("noise", ("n_samples",), 2.9, "n_samples"),
    ("noise", ("n_samples",), "6", "n_samples"),
    ("noise", ("erosion_dilation_radius",), 0.5, "erosion_dilation_radius"),
    ("noise", ("erosion_dilation_radius",), True, "erosion_dilation_radius"),
    ("noise", ("seed",), math.nan, "seed"),
    ("noise", ("default_flip_prob",), math.nan, "default_flip_prob"),
    ("noise", ("default_flip_prob",), True, "default_flip_prob"),
    ("noise", ("flip_probs", "1"), "0.1", "flip_probs.1"),
    ("noise", ("flip_probs",), {"1": 0.1, "01": 0.2}, "flip_probs key '01'"),
    ("noise", ("flip_probs",), {"2": 0.3, "+2": 0.1}, "flip_probs key '+2'"),
    ("noise", ("scans",), [{"scan_id": 7}], "scans[0].scan_id"),
    ("manifest", ("samples", 1), 3, "samples[1]"),
    ("manifest", ("gt",), 1, "gt"),
    ("manifest", ("registry",), True, "registry"),
    ("manifest", ("probs", 0, 1), 2.0, "probs[0][1]"),
]


@pytest.mark.parametrize("kind,at,value,needle", TYPE_CONFUSED,
                         ids=[f"{k}-{n}-{v!r}" for k, _, v, n in TYPE_CONFUSED])
def test_json_readers_refuse_type_confused_values(tmp_path, kind, at, value, needle):
    reader, doc = valid_docs()[kind]
    if kind == "noise":
        doc = copy.deepcopy(SINGLE_NOISE)
    node = doc
    for key in at[:-1]:
        node = node[key]
    node[at[-1]] = value
    p = tmp_path / f"{kind}.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        reader(p)
    assert str(info.value).startswith(f"{p}: {needle}"), str(info.value)


@pytest.mark.parametrize("kind,at,value", [
    ("report", ("n_samples",), 12.0),
    ("report", ("structures", 0, "label_id"), 1.0),
    ("report", ("structures", 0, "consensus_volume"), 121),
    ("registry", ("structures", 0, "id"), 1.0),
    ("phantom", ("dims", 0), 48.0),
    ("noise", ("erosion_dilation_radius",), 0.0),
], ids=["report-n_samples", "report-label_id", "report-consensus_volume", "registry-id",
        "phantom-dims", "noise-radius"])
def test_json_readers_take_whole_numbers_either_way(tmp_path, kind, at, value):
    # 12.0 is the JSON number 12, as float-based writers emit it; an
    # integer is a number for a float field
    reader, doc = valid_docs()[kind]
    if kind == "noise":
        doc = copy.deepcopy(SINGLE_NOISE)
    p = tmp_path / f"{kind}.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    expected = reader(p)
    node = doc
    for key in at[:-1]:
        node = node[key]
    node[at[-1]] = value
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert reader(p) == expected


COHORT_HEADER = b"subject_id,age,sex,dx,site,volume,cv,mc_dice\r\n"


@FUZZ
@given(st.one_of(
    st.binary(max_size=300),
    st.binary(max_size=300).map(lambda b: COHORT_HEADER + b),
    st.text(max_size=300).map(lambda t: COHORT_HEADER + t.encode("utf-8")),
))
def test_cohort_csv_reader_fails_only_with_validation_error(tmp_path, payload):
    p = tmp_path / "cohort.csv"
    p.write_bytes(payload)
    try:
        read_cohort_csv(p)
    except ValidationError:
        pass
