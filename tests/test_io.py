"""Registry JSON, cohort CSV, report JSON, configs, manifests, sample sets."""

import copy
import csv
import gzip
import io
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from bundled import DOCS, bundled_phantom
import segqc.io
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
    write_heatmap_volume,
    write_registry,
    write_report,
    write_scan_manifest,
)
from segqc.metrics import StructureMetrics, StructureReport, dice_score, structure_report
from segqc.nifti import OrientationInfo, read_label_nifti, read_nifti, write_nifti
from segqc.stats import CohortTable
from segqc.synth import NoiseSpec, make_phantom, registry_for_phantom
from segqc.volumes import (
    LabelVolume, McSampleSet, ProbMapStack, StructureRegistry, ValidationError, VoxelGeometry,
    validate_sample_set,
)
from test_nifti import MAP_VARIANTS


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


def write_cohort_csv(table, path):
    """``table`` as a cohort CSV: every column it has, NaN as an empty cell."""
    cols = {"subject_id": table.subject_ids, "age": table.age, "sex": table.sex,
            "dx": table.dx, "site": table.site, "volume": table.volume, "cv": table.cv,
            "mc_dice": table.mc_dice}
    cols = {h: v if h in ("subject_id", "site") else
            ["" if math.isnan(x) else repr(float(x)) for x in v]
            for h, v in cols.items() if v is not None}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        w.writerows(zip(*cols.values()))


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


def same_cohort(a, b):
    if a.subject_ids != b.subject_ids or a.site != b.site:
        return False
    for col in ("age", "sex", "dx", "volume", "cv", "mc_dice"):
        x, y = getattr(a, col), getattr(b, col)
        if (x is None) != (y is None) or (
                x is not None and not np.array_equal(x, y, equal_nan=True)):
            return False
    return True


def read_both(path):
    """The reader's and the oracle's table, or each one's error text."""
    out = []
    for read in (read_cohort_csv, oracles.cohort_csv_oracle):
        try:
            out.append(read(path))
        except ValidationError as exc:
            out.append(str(exc))
    return out


def write_big_cohort(path, n, seed=3):
    from segqc.synth import make_cohort

    table, _ = make_cohort(n, seed=seed)
    write_cohort_csv(table, path)
    return table


def test_cohort_csv_of_many_blocks_matches_the_oracle(tmp_path):
    p = tmp_path / "cohort.csv"
    write_big_cohort(p, 3 * segqc.io._COHORT_BLOCK + 17)
    rows = p.read_text(encoding="utf-8").splitlines()

    def edit(k, col, value):  # row k is on line k + 1
        cells = rows[k].split(",")
        cells[col] = value
        rows[k] = ",".join(cells)

    edit(4500, 6, " ")  # an empty cv: NaN, in the second block
    p.write_text("\n".join(rows[:9] + [" "] + rows[9:]) + "\n", encoding="utf-8")
    got, want = read_both(p)
    assert same_cohort(got, want) and np.isnan(got.cv[4499]) and got.n == len(rows) - 1
    edit(7000, 2, "x")
    edit(6000, 1, "")
    rows[9000] += ","
    # the first error in file order wins, whichever block it falls in
    for fix, error in [(None, "line 6001, column age: required value is empty"),
                       ((6000, 1, "30"), "line 7001, column sex: cannot parse 'x' as a number"),
                       ((7000, 2, "1"), "line 9001: expected 8 fields, got 9")]:
        if fix:
            edit(*fix)
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        got, want = read_both(p)
        assert got == want == f"{p}: {error}"


def test_cohort_csv_memory_follows_the_table_not_the_file(tmp_path):
    p = tmp_path / "cohort.csv"
    table = write_big_cohort(p, 50_000)
    tracemalloc.start()
    try:
        got = read_cohort_csv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.n == table.n
    # read whole and parsed into lists of floats this took 9.5 times the file
    assert peak < 4 * p.stat().st_size


def test_cohort_csv_bad_utf8_after_the_first_block_names_the_file(tmp_path):
    p = tmp_path / "cohort.csv"
    write_big_cohort(p, 2 * segqc.io._COHORT_BLOCK)
    raw = p.read_bytes()
    p.write_bytes(raw + b"s\xff,30,0,1,site_a,1.5,0.1,0.9\n")
    with pytest.raises(ValidationError, match="is not valid UTF-8") as info:
        read_cohort_csv(p)
    assert str(p) in str(info.value)
    assert read_both(p)[0] == read_both(p)[1]  # the offset is the one in the whole file


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


def write_phantom_json(spec, path):
    """``spec`` as the phantom JSON that ``read_phantom_json`` reads."""
    doc = {
        "dims": list(spec.geometry.dims),
        "spacing": list(spec.geometry.spacing),
        "background": spec.background_id,
        "shapes": [
            {"label": s.label_id, "kind": s.kind,
             "center": list(s.center), "size": list(s.size)}
            for s in spec.shapes
        ],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def test_phantom_json_round_trip(tmp_path):
    spec = bundled_phantom()
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


@pytest.mark.parametrize("field,value,needle", [
    ("n_samples", 2.9, ": n_samples must be an integer, got 2.9"),
    ("seed", "7", ": seed must be an integer"),
    ("flip_probs", {"01": 0.1}, ": flip_probs key '01'"),
    ("scan_id", 3, ": scan_id must be a string"),
])
def test_noise_json_names_a_bad_top_level_default_where_it_stands(tmp_path, field, value,
                                                                  needle):
    # the default sits beside "scans", so no scan entry is blamed for it
    p = tmp_path / "noise.json"
    p.write_text(json.dumps({"n_samples": 4, field: value,
                             "scans": [{"scan_id": "a", "n_samples": 3}, {"seed": 2}]}))
    with pytest.raises(ValidationError) as exc:
        read_noise_json(p)
    assert str(exc.value).startswith(f"{p}{needle}")
    assert "scans[" not in str(exc.value)


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
    for i, s in enumerate(ss.labels):
        p = tmp_path / f"sample_{i:03d}.nii"
        write_nifti(p, s)
        paths.append(p)
    gt_path = tmp_path / "gt.nii"
    write_nifti(gt_path, gt)
    return paths, gt_path, reg, ss


def test_read_sample_set_matches_in_memory(tmp_path):
    paths, _, reg, ss = write_sample_files(tmp_path)
    loaded = read_sample_set(paths, reg)
    assert loaded.n == ss.n
    for a, b in zip(loaded.labels, ss.labels):
        assert np.array_equal(a.data, b.data)


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


def write_prob_set(tmp_path, n, k, dims, suffix=".nii"):
    """N float32 Dirichlet stacks of K maps, labels = their argmax, all on
    disk; the maps as ``suffix`` files."""
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
            q = tmp_path / f"prob_{i:03d}_{j}{suffix}"
            write_nifti(q, maps[..., j], geom)
            prob_paths[-1].append(q)
    return label_paths, prob_paths, reg


def test_sample_set_read_from_files_compares_by_identity(tmp_path):
    # a file-backed stack holds paths, not a maps array to compare
    label_paths, prob_paths, reg = write_prob_set(tmp_path, 2, 2, (3, 3, 3))
    ss = read_sample_set(label_paths, reg, prob_paths=prob_paths)
    again = read_sample_set(label_paths, reg, prob_paths=prob_paths)
    for x, y in ((ss, again), (ss.labels[0], again.labels[0]), (ss.probs[0], again.probs[0])):
        assert x == x and x != y
        assert len({x, y, x}) == 2


def test_read_sample_set_names_a_map_file_and_both_grids(tmp_path):
    # the dims agree, so only the spacings tell the two grids apart
    label_paths, prob_paths, reg = write_prob_set(tmp_path, 2, 2, (3, 3, 3))
    q = prob_paths[1][1]
    write_nifti(q, read_nifti(q).data, VoxelGeometry((3, 3, 3), (1.0, 1.0, 2.0)))
    with pytest.raises(ValidationError) as info:
        read_sample_set(label_paths, reg, prob_paths=prob_paths)
    assert str(info.value) == (
        f"{q}: map dims (3, 3, 3) spacing (1.0, 1.0, 2.0) do not match {label_paths[1]} "
        "geometry dims (3, 3, 3) spacing (1.0, 1.0, 1.0)")


def test_read_sample_set_names_the_label_file_of_a_sample_missing_a_map(tmp_path):
    label_paths, prob_paths, reg = write_prob_set(tmp_path, 2, 3, (3, 3, 3))
    with pytest.raises(ValidationError) as info:
        read_sample_set(label_paths, reg, prob_paths=[prob_paths[0], prob_paths[1][:2]])
    assert str(info.value) == f"{label_paths[1]}: 2 probability maps for 3 labels"


def test_read_sample_set_refuses_probability_entries_for_another_sample_count(tmp_path):
    label_paths, prob_paths, reg = write_prob_set(tmp_path, 2, 2, (3, 3, 3))
    with pytest.raises(ValidationError) as info:
        read_sample_set(label_paths, reg, prob_paths=prob_paths[:1])
    assert str(info.value) == "got 1 probability entries for 2 samples"


def test_a_label_file_on_another_grid_is_one_fault_and_no_map_is_decoded(tmp_path, monkeypatch):
    # three label files, the third on 4 x 4 x 5, each with two maps on its
    # own grid: the third label file is the one fault, and no stack on the
    # label file's grid makes a second, about a map no one decoded
    import segqc.nifti

    reg = StructureRegistry(((0, "bg"), (1, "s1")), background_id=0)
    label_paths, prob_paths = [], []
    for i, dims in enumerate([(4, 4, 4), (4, 4, 4), (4, 4, 5)]):
        g = VoxelGeometry(dims, (1.0, 1.0, 1.0))
        label_paths.append(tmp_path / f"sample_{i}.nii")
        write_nifti(label_paths[-1], np.zeros(dims, dtype=np.uint8), g)
        prob_paths.append([tmp_path / f"prob_{i}_{k}.nii.gz" for k in range(2)])
        write_nifti(prob_paths[-1][0], np.ones(dims, dtype=np.float32), g)
        write_nifti(prob_paths[-1][1], np.zeros(dims, dtype=np.float32), g)
    decoded, real = [], segqc.nifti.read_nifti

    def counted(path):
        decoded.append(Path(path))
        return real(path)

    monkeypatch.setattr(segqc.nifti, "read_nifti", counted)
    monkeypatch.setattr(segqc.nifti, "_MapStream", lambda path: decoded.append(Path(path)))
    with pytest.raises(ValidationError) as info:
        read_sample_set(label_paths, reg, prob_paths=prob_paths)
    faults = str(info.value).split("; ")
    assert faults == [f"{label_paths[2]}: [geometry] sample 2: label dims (4, 4, 5) spacing "
                      "(1.0, 1.0, 1.0) do not match set geometry dims (4, 4, 4) spacing "
                      "(1.0, 1.0, 1.0)"]
    assert "probability map" not in str(info.value)
    assert decoded == label_paths


def one_hot_sets(tmp_path):
    """The label files of :func:`write_sample_files` with their one-hot maps
    in several forms, each a sample set: float32, uint8 and int16 files, and
    bool and uint8 arrays."""
    paths, gt_path, reg, ss = write_sample_files(tmp_path)
    sets = {}
    for name, dtype, suffix in (("float32", np.float32, ".nii.gz"), ("uint8", np.uint8, ".nii"),
                                ("int16", np.int16, ".nii.gz")):
        probs = [[tmp_path / f"prob_{i}_{lid}_{name}{suffix}" for lid in reg.ids]
                 for i in range(ss.n)]
        for vol, qs in zip(ss.labels, probs):
            for lid, q in zip(reg.ids, qs):
                write_nifti(q, (vol.data == lid).astype(dtype), vol.geometry)
        sets[f"{name} files"] = read_sample_set(paths, reg, prob_paths=probs)
    for dtype in (bool, np.uint8):
        stacks = [ProbMapStack(ss.geometry, reg.ids, [(vol.data == lid).astype(dtype)
                                                      for lid in reg.ids]) for vol in ss.labels]
        sets[f"{np.dtype(dtype)} arrays"] = McSampleSet(ss.geometry, reg, ss.labels, stacks)
    return sets, read_label_nifti(gt_path)


def test_integer_and_bool_maps_give_the_report_of_float32_maps(tmp_path):
    # maps keep their own dtype: a file of uint8 or int16 maps is decoded as
    # stored, bool and uint8 arrays are kept, and every term is widened in
    # the pass, so each gives the float32 maps' report, bit for bit
    sets, gt = one_hot_sets(tmp_path)
    assert sets["uint8 files"].probs[0].load_map(0).dtype == np.uint8
    assert sets["bool arrays"].probs[0].maps[0].dtype == bool
    want = structure_report(sets.pop("float32 files"), gt=gt)
    for name, ss in sets.items():
        assert ss.violations == (), name
        got = structure_report(ss, gt=gt)
        assert report_to_dict(got) == report_to_dict(want), name
        assert np.array_equal(got.consensus.data, want.consensus.data), name
        assert got.uncertainty.tobytes() == want.uncertainty.tobytes(), name


_SFORM = {"sform_code": 1, "srow_x": (1.0, 0.0, 0.0, 0.0), "srow_y": (0.0, 1.0, 0.0, 0.0),
          "srow_z": (0.0, 0.0, 1.0, 0.0)}


@pytest.mark.parametrize("second, refused", [
    ({}, False),  # declares nothing: matches any orientation
    (_SFORM, False),
    ({**_SFORM, "quatern": (0.0, 0.0, 1.0), "qfac": -1.0}, False),  # qform_code 0: not declared
    ({**_SFORM, "srow_x": (1.0, 0.0, 0.0, float(np.nextafter(np.float32(0), 1)))}, True),
    ({**_SFORM, "srow_x": (-1.0, 0.0, 0.0, 2.0)}, True),  # x flipped
    ({**_SFORM, "sform_code": 2}, True),
    ({**_SFORM, "qform_code": 1}, True),
])
def test_read_sample_set_refuses_a_label_file_declaring_another_orientation(
        tmp_path, second, refused):
    reg = StructureRegistry(((0, "bg"), (1, "s1")), background_id=0)
    data = np.zeros((3, 3, 3), dtype=np.uint8)
    paths = [tmp_path / "s0.nii", tmp_path / "s1.nii", tmp_path / "s2.nii.gz"]
    for path, fields in zip(paths, (_SFORM, _SFORM, second)):
        write_nifti(path, data, VoxelGeometry((3, 3, 3), (1.0, 1.0, 1.0)),
                    OrientationInfo(**fields))
    if not refused:
        assert read_sample_set(paths, reg).n == 3
        return
    with pytest.raises(ValidationError) as info:
        read_sample_set(paths, reg)
    assert str(info.value) == (f"{paths[2]}: orientation ({OrientationInfo(**second)}) does not "
                               f"match {paths[0]} orientation ({OrientationInfo(**_SFORM)})")
    assert "srow_x (1.0, 0.0, 0.0, 0.0)" in str(info.value)


@pytest.mark.parametrize("check", ["label", "prob_map", "ground_truth", "dice", "map_file"])
def test_every_grid_check_names_both_grids(tmp_path, check):
    near = VoxelGeometry((3, 3, 3), (1.0, 1.0, 1.0))
    far = VoxelGeometry((3, 3, 3), (1.0, 1.0, 2.5))
    reg = StructureRegistry(((0, "bg"), (1, "s1")), background_id=0)
    zeros = np.zeros((3, 3, 3), dtype=np.uint8)
    vol, odd = LabelVolume(near, zeros), LabelVolume(far, zeros)
    maps = np.stack([np.ones((3, 3, 3)), np.zeros((3, 3, 3))])
    if check == "label":
        messages = [v.message for v in validate_sample_set(McSampleSet(near, reg, (vol, odd)))]
    elif check == "prob_map":
        stacks = (ProbMapStack(near, reg.ids, maps), ProbMapStack(far, reg.ids, maps))
        messages = [v.message for v in validate_sample_set(
            McSampleSet(near, reg, (vol, vol), stacks))]
    else:
        with pytest.raises(ValidationError) as info:
            if check == "ground_truth":
                structure_report(McSampleSet(near, reg, (vol, vol)), gt=odd)
            elif check == "dice":
                dice_score(vol, odd, 1)
            else:
                label_paths, prob_paths, reg = write_prob_set(tmp_path, 2, 2, near.dims)
                write_nifti(prob_paths[0][0], maps[0].astype(np.float32), far)
                read_sample_set(label_paths, reg, prob_paths=prob_paths)
        messages = [str(info.value)]
    assert len(messages) == 1
    assert "geometry" in messages[0] and str(near) in messages[0] and str(far) in messages[0]


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
    decoded, streamed = [], []
    real, stream = segqc.nifti.read_nifti, segqc.nifti._MapStream

    def counted(path):
        decoded.append(Path(path).name)
        return real(path)

    class Counted(stream):  # the probability pass reads each map file a slab at a time
        def read(self, z, buf):
            streamed.append((Path(self.path).name, z.start))
            return super().read(z, buf)

    monkeypatch.setattr(segqc.nifti, "read_nifti", counted)
    monkeypatch.setattr(segqc.nifti, "_MapStream", Counted)
    monkeypatch.setattr("segqc.volumes._SLAB", 60)  # two planes of 6 x 5: two slabs
    code = main([
        "metrics", "--manifest", str(tmp_path / "manifest.json"),
        "--out", str(tmp_path / "r.json"), "--uncertainty-out", str(tmp_path / "u.nii"),
        "--heatmap-out", str(tmp_path / "h.nii"),
    ])
    assert code == 0
    # the label files and the ground truth decoded whole, once each
    assert sorted(decoded) == sorted([p.name for p in label_paths] + ["gt.nii"])
    names = [q.name for qs in prob_paths for q in qs]
    assert sorted(streamed) == sorted((name, z) for name in names for z in (0, 2))
    for name in names:
        assert [z for q, z in streamed if q == name] == [0, 2]


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


@pytest.mark.parametrize("variant", sorted(MAP_VARIANTS))
def test_probability_pass_decodes_each_file_as_a_one_off_read_does(tmp_path, monkeypatch,
                                                                   capsys, variant):
    # sample 1's map of label 2 stored another way: the pass, which reads
    # each slab into buffers that sample 0's slab filled, gives the report
    # or the error that decoding that file alone gives
    from segqc.cli import main

    monkeypatch.setattr("segqc.volumes._SLAB", 60)  # two planes of 6 x 5: two slabs

    label_paths, prob_paths, reg = write_prob_set(tmp_path, 3, 3, (6, 5, 4), suffix=".nii.gz")
    write_registry(reg, tmp_path / "registry.json")
    write_scan_manifest(tmp_path / "manifest.json", [p.name for p in label_paths],
                        registry="registry.json",
                        probs=[[q.name for q in qs] for qs in prob_paths])
    argv = ["metrics", "--manifest", str(tmp_path / "manifest.json"),
            "--uncertainty-out", str(tmp_path / "u.nii")]
    assert main([*argv, "--out", str(tmp_path / "want.json")]) == 0
    capsys.readouterr()
    q = prob_paths[1][2]
    make, same = MAP_VARIANTS[variant]
    want_u = (tmp_path / "u.nii").read_bytes()
    q.write_bytes(make(gzip.decompress(q.read_bytes())))
    code = main([*argv, "--out", str(tmp_path / "got.json")])
    err = capsys.readouterr().err
    if same:
        assert code == 0, err
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
        assert (tmp_path / "u.nii").read_bytes() == want_u
        return
    stack = ProbMapStack(read_nifti(label_paths[1]).geometry, reg.ids, prob_paths[1],
                         owner=label_paths[1])
    with pytest.raises(ValidationError) as info:
        stack.load_map(2)
    assert code == 1 and err == f"error: {info.value}\n"
    assert not (tmp_path / "got.json").exists()


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("fault", ["truncated", "corrupt", "grid"])
def test_a_bad_map_in_the_last_sample_fails_as_a_whole_read_does(tmp_path, monkeypatch,
                                                                 capsys, threads, fault):
    # the last sample's map of label 1, in a set of four slabs, is cut in
    # half (its stream ends in the second slab), corrupt (its CRC, checked
    # with the last slab) or on another grid: the call exits with the code
    # and the error, naming the file, that reading that file whole gives. A
    # worker waiting for a later slab of the cut file is let go, so no call
    # hangs; and every header is checked before any payload, so a grid
    # fault reads no slab at all
    import threading

    import segqc.nifti
    import segqc.volumes
    from segqc.cli import main

    label_paths, prob_paths, reg = write_prob_set(tmp_path, 3, 3, (6, 5, 8), suffix=".nii.gz")
    write_scan_manifest(tmp_path / "manifest.json", [p.name for p in label_paths],
                        registry="registry.json",
                        probs=[[q.name for q in qs] for qs in prob_paths])
    write_registry(reg, tmp_path / "registry.json")
    bad = prob_paths[-1][1]
    if fault == "grid":
        write_nifti(bad, np.full((6, 5, 9), 0.5, dtype=np.float32),
                    VoxelGeometry((6, 5, 9), (1.0, 1.0, 1.0)))
        stack = ProbMapStack(read_nifti(label_paths[-1]).geometry, reg.ids, prob_paths[-1],
                             owner=label_paths[-1])
        with pytest.raises(ValidationError) as info:
            stack.load_map(1)
    else:
        blob = bad.read_bytes()
        bad.write_bytes(blob[:len(blob) // 2] if fault == "truncated"
                        else MAP_VARIANTS["corrupt_crc"][0](gzip.decompress(blob)))
        with pytest.raises(ValidationError) as info:
            read_nifti(bad)
    assert str(bad) in str(info.value)
    reads, released, real = [], [], segqc.nifti._MapStream.read

    def read(self, z, buf):
        reads.append(z.start)
        if Path(self.path).name == bad.name and z.start:
            time.sleep(0.1)  # the other workers reach their wait for this stream
        return real(self, z, buf)

    class Released(segqc.volumes._Released):
        def __init__(self):
            released.append(threading.current_thread().name)

    monkeypatch.setattr(segqc.nifti._MapStream, "read", read)
    monkeypatch.setattr(segqc.volumes, "_Released", Released)
    monkeypatch.setattr(segqc.volumes, "_SLAB", 60)  # two planes of 6 x 5: four slabs
    monkeypatch.setenv("SEGQC_THREADS", threads)
    done = []
    call = threading.Thread(target=lambda: done.append(main([
        "metrics", "--manifest", str(tmp_path / "manifest.json"),
        "--out", str(tmp_path / "r.json")])), daemon=True)
    call.start()
    call.join(timeout=60)
    assert not call.is_alive(), "the call hangs"
    assert done == [1]
    assert capsys.readouterr().err == f"error: {info.value}\n"
    assert not (tmp_path / "r.json").exists()
    if fault == "grid":
        assert reads == []
    if fault == "truncated" and threads != "1":
        assert released  # a worker was waiting for the cut file's third slab


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_map_streams_hold_no_descriptor_between_slabs(tmp_path, suffix):
    # the labels and the ground truth hold two descriptors each (a plain
    # .nii is mapped, and read through a descriptor of its own); under a
    # limit that leaves fewer spare descriptors than a sample has maps, let
    # alone the set, metrics still runs: a map file is open only while a
    # slab of it is read
    import os
    import subprocess
    import sys

    n, k = 4, 8
    label_paths, prob_paths, reg = write_prob_set(tmp_path, n, k, (6, 5, 8), suffix=suffix)
    write_registry(reg, tmp_path / "registry.json")
    write_nifti(tmp_path / "gt.nii", read_nifti(label_paths[0]).data,
                VoxelGeometry((6, 5, 8), (1.0, 1.0, 1.0)))
    write_scan_manifest(tmp_path / "manifest.json", [p.name for p in label_paths],
                        gt="gt.nii", registry="registry.json",
                        probs=[[q.name for q in qs] for qs in prob_paths])
    spare = 5  # < k: below what even one sample's maps would need open at once
    probe = f"""
import os, resource, sys
import segqc.cli
from segqc.volumes import _special
_special("xlogy")
os.environ["SEGQC_THREADS"] = "2"
resource.setrlimit(resource.RLIMIT_NOFILE, (3 + 2 * {n} + 2 + {spare}, resource.getrlimit(
    resource.RLIMIT_NOFILE)[1]))
sys.exit(segqc.cli.main(sys.argv[1:]))
"""
    src = str(Path(segqc.io.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", probe, "metrics", "--manifest", str(tmp_path / "manifest.json"),
         "--out", str(tmp_path / "r.json"), "--uncertainty-out", str(tmp_path / "u.nii")],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert (tmp_path / "r.json").exists()


def test_prob_pass_memory_does_not_grow_with_n(tmp_path, monkeypatch):
    # traced memory of the pass over N = 4 and N = 8 samples of K = 3 gzip
    # maps in 16 slabs, on two threads: the entropy map and the consensus,
    # each worker's slab scratch (K slabs of stored values, K + 1 float64
    # slabs, and the fold's temporaries: at most three times that in all),
    # and what every open gzip stream keeps between slabs: its inflater's
    # state, measured here on one stream, and at most _GZIP_INPUT bytes of
    # input it has not consumed. Never a whole map: each is 256 KiB, and a
    # sample's three are 768 KiB
    import segqc.nifti
    from segqc.volumes import _special

    k, dims = 3, (32, 32, 64)
    geometry = VoxelGeometry(dims, (1.0, 1.0, 1.0))
    slab = 32 * 32 * 4
    monkeypatch.setattr("segqc.volumes._SLAB", slab)
    monkeypatch.setenv("SEGQC_THREADS", "2")
    volumes = 8 * 32 * 32 * 64 + 2 * 32 * 32 * 64
    scratch = k * 4 * slab + (k + 1) * 8 * slab
    label_paths, prob_paths, reg = write_prob_set(tmp_path, 8, k, dims, suffix=".nii.gz")
    _special("xlogy")
    buf = np.empty(4 * slab, dtype=np.uint8)
    tracemalloc.start()
    try:
        stream = segqc.nifti._MapStream(prob_paths[0][0])
        stream.read(slice(0, 4), buf)
        state = tracemalloc.get_traced_memory()[0] + segqc.nifti._GZIP_INPUT
    finally:
        tracemalloc.stop()
    del stream
    assert state < 96 * 1024
    peaks = {}
    for n in (4, 8):
        ss = McSampleSet(geometry, reg, [read_label_nifti(p) for p in label_paths[:n]],
                         [ProbMapStack(geometry, reg.ids, qs) for qs in prob_paths[:n]])
        tracemalloc.start()
        try:
            assert ss.prob_pass.entropy is not None
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks[n] < volumes + n * k * state + 2 * 3 * scratch, (n, peaks, state)
    assert peaks[8] - peaks[4] < 4 * k * state + scratch, (peaks, state)


def test_structure_uncertainty_decodes_one_file_per_sample(tmp_path, monkeypatch):
    import segqc.nifti
    from scipy.special import xlogy

    from segqc.metrics import structure_uncertainty

    n, k = 3, 4
    label_paths, prob_paths, reg = write_prob_set(tmp_path, n, k, (6, 5, 4))
    ss = read_sample_set(label_paths, reg, prob_paths=prob_paths)
    decoded = []
    real = segqc.nifti.read_nifti

    def counted(path):
        decoded.append(Path(path))
        return real(path)

    monkeypatch.setattr(segqc.nifti, "read_nifti", counted)
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
    import segqc.nifti

    n, k = 3, 3
    label_paths, prob_paths, reg = write_prob_set(tmp_path, n, k, (6, 5, 4))
    if fault == "geometry":
        write_nifti(label_paths[1], np.zeros((6, 5, 5), dtype=np.uint8),
                    VoxelGeometry((6, 5, 5), (1.0, 1.0, 1.0)))
    else:
        write_nifti(label_paths[1], np.full((6, 5, 4), 7, dtype=np.uint8),
                    VoxelGeometry((6, 5, 4), (1.0, 1.0, 1.0)))
    decoded = []
    real = segqc.nifti.read_nifti

    def counted(path):
        decoded.append(Path(path))
        return real(path)

    # label files decode through read_label_nifti; the pass opens probability files as streams
    monkeypatch.setattr(segqc.nifti, "read_nifti", counted)
    monkeypatch.setattr(segqc.nifti, "_MapStream", counted)
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


@pytest.mark.parametrize("kind, at", [
    ("registry", ("structures", 1, "name")),
    ("report", ("structures", 0, "name")),
    ("report", ("scan_id",)),
    ("report", ("dataset",)),
    ("phantom", ("shapes", 0, "kind")),
    ("noise", ("scans", 0, "scan_id")),
    ("manifest", ("samples", 1)),
    ("manifest", ("probs", 1, 0)),
])
def test_json_readers_refuse_a_nul_in_any_string(kind, at, tmp_path):
    reader, doc = valid_docs()[kind]
    node = doc
    for key in at[:-1]:
        node = node[key]
    node[at[-1]] = "a\0b"
    p = tmp_path / f"{kind}.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in at).lstrip(".")
    with pytest.raises(ValidationError) as info:
        reader(p)
    assert str(info.value) == f"{p}: {field} must not contain a NUL character"


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


COHORT_COLUMNS = ("subject_id", "age", "sex", "dx", "site", "volume", "cv", "mc_dice")
PAD = st.sampled_from(["", " ", "\t", "\u2003", "\x1c", " \u00a0 "])
LABEL = st.text(alphabet=list('ab ,"\n\r\u2028\x85'), max_size=5)
NUMBER = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
UNIT = st.floats(0.0, 1.0).map(repr)
GOOD = {"subject_id": LABEL, "site": LABEL, "sex": st.sampled_from(["0", "1", "1.0", "0e0"]),
        "dx": st.sampled_from(["0", "1", "0.0", "1_0e-1"]), "cv": UNIT, "mc_dice": UNIT}
BAD = st.sampled_from(["", "abc", "1.2.3", "--1", "nan", "1e999"])


@st.composite
def cohort_files(draw):
    optional = draw(st.lists(st.sampled_from(COHORT_COLUMNS[4:]), unique=True))
    header = draw(st.permutations(["subject_id", "age", "sex", "dx", "volume", *optional]))
    term = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    out = io.StringIO(newline="")
    w = csv.writer(out, lineterminator=term, quoting=quoting)
    w.writerow(header)
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.integers(0, 19))
        if kind == 0:  # a blank or whitespace-only line
            out.write(draw(st.sampled_from(["", " ", "\t ", ",,", " , "])) + term)
            continue
        row = []
        for h in header:
            good = GOOD.get(h, NUMBER)
            cell = draw(st.one_of(good, good, good, good, good, good, BAD) if kind == 1
                        else good)
            row.append(draw(PAD) + cell + draw(PAD))
        if kind == 2:  # a wrong field count
            row = row[:-1] if draw(st.booleans()) else row + [""]
        w.writerow(row)
    return ("\ufeff" if draw(st.booleans()) else "") + out.getvalue()


@FUZZ
@given(text=cohort_files(), block=st.integers(1, 5))
def test_cohort_csv_reader_matches_the_row_by_row_oracle(tmp_path, monkeypatch, text, block):
    # small blocks, so most files span several of them
    monkeypatch.setattr(segqc.io, "_COHORT_BLOCK", block)
    p = tmp_path / "cohort.csv"
    p.write_bytes(text.encode("utf-8"))
    got, want = read_both(p)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert same_cohort(got, want)
