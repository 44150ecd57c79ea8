"""Acceptance gate: nine numbered criteria, one printed pass/fail line each.

Every test prints "Ax PASS/FAIL <detail>" before asserting, so a bare
``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

import time

import numpy as np
import pytest

import oracles
from segqc.cli import main as cli_main
from segqc.io import write_registry, write_scan_manifest
from segqc.metrics import (
    dice_score,
    structure_report,
    structure_uncertainty,
    voxel_uncertainty,
)
from segqc.nifti import NiftiFormatError, read_nifti, write_nifti
from segqc.stats import (
    CohortTable,
    correlate_uncertainty_accuracy,
    design_matrix,
    huber_fit,
    wls_fit,
)
from segqc.synth import (
    NoiseSpec,
    contact_pair_phantom,
    graded_severities,
    make_cohort,
    make_phantom,
    registry_for_phantom,
    sample_mc,
)
from segqc.volumes import (
    LabelVolume,
    McSample,
    McSampleSet,
    ProbMapStack,
    StructureRegistry,
    VoxelGeometry,
)


def emit(tag, ok, detail):
    print(f"{tag} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


# -- A1: zero-noise fixed point ---------------------------------------------------


def test_a1_zero_noise_fixed_point():
    t0 = time.perf_counter()
    spec = contact_pair_phantom()
    gt = make_phantom(spec)
    registry = registry_for_phantom(spec)
    ss = sample_mc(gt, registry, NoiseSpec(n_samples=6, seed=0))
    report = structure_report(ss, gt=gt)
    exact = all(
        s.cv == 0.0 and s.mc_dice == 1.0 and s.mean_uncertainty == 0.0
        and s.gt_dice == 1.0
        for s in report.structures
    )
    elapsed = time.perf_counter() - t0
    emit("A1", exact and len(report.structures) == 8 and elapsed < 5.0,
         f"zero-noise set: cv=0, mc_dice=1, mean_unc=0, gt_dice=1 exactly for "
         f"{len(report.structures)} structures ({elapsed:.2f}s < 5s)")


# -- A2: correlation sign/strength pattern -------------------------------------------


def test_a2_correlation_pattern():
    t0 = time.perf_counter()
    spec = contact_pair_phantom()
    gt = make_phantom(spec)
    registry = registry_for_phantom(spec)
    reports = []
    for scan, probs in enumerate(graded_severities()):
        noise = NoiseSpec(n_samples=15, flip_probs=probs, seed=1000 + scan)
        ss = sample_mc(gt, registry, noise)
        reports.append(structure_report(ss, gt=gt, scan_id=f"scan_{scan:02d}"))
    corr, n_absent = correlate_uncertainty_accuracy(reports)
    elapsed = time.perf_counter() - t0
    # every scan is in the one dataset "" and no structure is absent
    assert list(corr) == [("", "mc_dice"), ("", "cv"), ("", "mean_unc")] and n_absent == 0
    r_unc, r_cv, r_mcd = corr["", "mean_unc"].r, corr["", "cv"].r, corr["", "mc_dice"].r
    ok = r_mcd >= 0.80 and r_cv <= -0.50 and r_unc <= -0.50 and elapsed < 60.0
    emit("A2", ok,
         f"13 scans x 8 structures, N=15: r(mc_dice,Dice)={r_mcd:+.4f} (need >= +0.80), "
         f"r(cv,Dice)={r_cv:+.4f} (need <= -0.50), "
         f"r(mean_unc,Dice)={r_unc:+.4f} (need <= -0.50) ({elapsed:.1f}s < 60s)")


# -- A3: voxel uncertainty formula and bound ------------------------------------------


def a3_registry(n_labels):
    return StructureRegistry(
        entries=tuple((i, f"s{i}") for i in range(n_labels)), background_id=0
    )


def probs_only_set(stacks, geometry, registry):
    samples = tuple(
        McSample(probs=ProbMapStack(geometry, registry.ids, m)) for m in stacks
    )
    return McSampleSet(geometry=geometry, registry=registry, samples=samples)


def test_a3_entropy_oracle_and_bound():
    rng = np.random.default_rng(33)

    # direct unoptimized evaluation on random stacks
    geom = VoxelGeometry((6, 6, 6), (1.0, 1.0, 1.0))
    reg = a3_registry(4)
    worst = 0.0
    for _ in range(5):
        raw = rng.random((5, 4) + geom.dims)
        stacks = [r / r.sum(axis=0) for r in raw]
        ss = probs_only_set(stacks, geom, reg)
        got = voxel_uncertainty(ss).values
        want = oracles.entropy_map_oracle(stacks)
        worst = max(worst, float(np.max(np.abs(got - want))))
    formula_ok = worst <= 1e-12

    # bound 0 <= U_s(x) <= N/e on a million fuzzed voxels, including
    # voxels planted exactly at the per-sample maximum p = 1/e
    n = 7
    geom_big = VoxelGeometry((100, 100, 100), (1.0, 1.0, 1.0))
    reg2 = a3_registry(2)
    p = rng.random((1000000,))
    p[:2048] = 1.0 / np.e
    p[2048:4096] = 0.0
    p[4096:6144] = 1.0
    stacks = []
    for _ in range(n):
        m = np.empty((2,) + geom_big.dims)
        m[1] = p.reshape(geom_big.dims)
        m[0] = 1.0 - m[1]
        stacks.append(m)
    ss_big = probs_only_set(stacks, geom_big, reg2)
    u_s = structure_uncertainty(ss_big, 1)
    bound = n / np.e
    bound_ok = float(u_s.min()) >= 0.0 and float(u_s.max()) <= bound + 1e-12
    at_peak = float(u_s.reshape(-1)[0])  # planted p = 1/e voxel

    emit("A3", formula_ok and bound_ok,
         f"U(x) matches scalar-loop oracle within {worst:.2e} (need <= 1e-12); "
         f"0 <= U_s <= N/e held on 10^6 voxels (max {u_s.max():.6f} vs bound "
         f"{bound:.6f}, planted-peak voxel {at_peak:.6f})")


# -- A4: reliability weighting recovers the planted effect ------------------------------


def test_a4_weighted_fit_beats_unweighted():
    t0 = time.perf_counter()
    wins = 0
    err_w, err_u = [], []
    for seed in range(100):
        table, beta = make_cohort(60, noise_scale=1.0, seed=seed)
        k_u = wls_fit(table)
        k_w = wls_fit(table, weight_mode="inv_cv")
        eu = abs(k_u.beta[k_u.columns.index("dx")] - beta[3])
        ew = abs(k_w.beta[k_w.columns.index("dx")] - beta[3])
        err_u.append(eu)
        err_w.append(ew)
        wins += ew < eu
    mae_w, mae_u = float(np.mean(err_w)), float(np.mean(err_u))
    elapsed = time.perf_counter() - t0
    ok = wins >= 70 and mae_w < mae_u and elapsed < 30.0
    emit("A4", ok,
         f"inv_cv closer to planted effect in {wins}/100 cohorts (need >= 70); "
         f"MAE {mae_w:.4f} vs {mae_u:.4f} unweighted (need strictly smaller) "
         f"({elapsed:.1f}s < 30s)")


# -- A5: WLS against the normal-equations oracle ----------------------------------------


def test_a5_wls_oracle_and_invariances():
    rng = np.random.default_rng(55)
    worst_beta = 0.0
    for trial in range(50):
        n = int(rng.integers(12, 101))
        with_site = bool(rng.integers(2))  # p = 4 or 6
        age = rng.uniform(20, 90, n)
        sex = rng.integers(0, 2, n).astype(float)
        dx = rng.integers(0, 2, n).astype(float)
        vol = 1.0 + 0.02 * age + 0.4 * sex + dx + rng.normal(0, 0.4, n)
        site = tuple(rng.choice(["a", "b", "c"]) for _ in range(n)) if with_site else None
        table = CohortTable(subject_ids=tuple(f"s{i}" for i in range(n)),
                            age=age, sex=sex, dx=dx, volume=vol, site=site)
        w = rng.uniform(0.1, 9.0, n)
        try:
            res = wls_fit(table, weight_mode="explicit", explicit_weights=w)
        except Exception:
            continue  # a degenerate draw (e.g. constant dx) is not the target here
        X, _ = design_matrix(table)
        want = oracles.wls_oracle(X, w, vol)
        worst_beta = max(worst_beta, float(np.max(np.abs(res.beta - want))))
    beta_ok = worst_beta <= 1e-8

    table, _ = make_cohort(50, seed=5)
    ols = wls_fit(table)
    unit = wls_fit(table, weight_mode="explicit", explicit_weights=np.ones(table.n))
    unit_gap = float(np.max(np.abs(ols.beta - unit.beta)))
    unit_ok = unit_gap <= 1e-10

    w = np.asarray(table.cv)
    a = wls_fit(table, weight_mode="explicit", explicit_weights=w)
    b = wls_fit(table, weight_mode="explicit", explicit_weights=w * 37.5)
    scale_gap = max(
        float(np.max(np.abs(a.beta - b.beta))),
        float(np.max(np.abs(a.se - b.se))),
        float(np.max(np.abs(a.p - b.p))),
    )
    scale_ok = scale_gap <= 1e-9

    emit("A5", beta_ok and unit_ok and scale_ok,
         f"50 random problems: max |beta - oracle| {worst_beta:.2e} (need <= 1e-8); "
         f"unit-weight vs OLS gap {unit_gap:.2e} (need <= 1e-10); "
         f"weight-scale invariance gap {scale_gap:.2e} (need <= 1e-9)")


# -- A6: Huber behavior -----------------------------------------------------------------


def bounded_noise_table(n_pairs=15, seed=12, c=0.05):
    # duplicate covariate rows with +-c noise: the noise is orthogonal to
    # the design, residuals stay at +-c, and the reweight threshold
    # 1.345 * MAD / 0.6745 ~= 2c never trips
    rng = np.random.default_rng(seed)
    age = np.repeat(rng.uniform(20, 90, n_pairs), 2)
    sex = np.repeat(rng.integers(0, 2, n_pairs).astype(float), 2)
    dx = np.repeat(rng.integers(0, 2, n_pairs).astype(float), 2)
    vol = 2.0 + 0.02 * age + 0.4 * sex + dx + np.tile([c, -c], n_pairs)
    n = 2 * n_pairs
    return CohortTable(subject_ids=tuple(f"s{i}" for i in range(n)),
                       age=age, sex=sex, dx=dx, volume=vol)


def test_a6_huber_reduction_and_outlier_resistance():
    t = bounded_noise_table()
    gap = float(np.max(np.abs(wls_fit(t).beta - huber_fit(t).beta)))
    clean_ok = gap <= 1e-8

    rng = np.random.default_rng(6)
    n = 21
    age = rng.uniform(20, 80, n)
    sex = rng.integers(0, 2, n).astype(float)
    dx = np.array([0.0, 1.0] * 10 + [0.0])
    vol = 2.0 + 0.02 * age + 0.3 * sex + 1.0 * dx + rng.normal(0, 0.05, n)
    vol[-1] += 20.0  # one wild dx=0 point
    table = CohortTable(subject_ids=tuple(f"s{i}" for i in range(n)),
                        age=age, sex=sex, dx=dx, volume=vol)
    ols = wls_fit(table)
    hub = huber_fit(table)
    k = ols.columns.index("dx")
    e_ols = abs(ols.beta[k] - 1.0)
    e_hub = abs(hub.beta[k] - 1.0)
    outlier_ok = e_hub < e_ols

    emit("A6", clean_ok and outlier_ok,
         f"outlier-free reduction gap {gap:.2e} (need <= 1e-8); "
         f"20-clean+1-outlier slope error {e_hub:.4f} (huber) vs {e_ols:.4f} (ols), "
         f"need strictly smaller")


# -- A7: Dice and mean pairwise Dice against brute force -----------------------------------


def test_a7_dice_bruteforce():
    rng = np.random.default_rng(77)
    geom = VoxelGeometry((8, 8, 8), (1.0, 1.0, 1.0))
    mismatches = 0
    checked = 0
    for trial in range(100):
        n_labels = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        reg = a3_registry(n_labels)
        arrays = [rng.integers(0, n_labels, geom.dims).astype(np.uint8) for _ in range(n)]
        # bias some trials toward absent structures
        if trial % 7 == 0:
            arrays = [np.where(a == n_labels - 1, 0, a).astype(np.uint8) for a in arrays]
        ss = McSampleSet(
            geometry=geom, registry=reg,
            samples=tuple(McSample(labels=LabelVolume(geom, a)) for a in arrays),
        )
        report = structure_report(ss)
        for lid in range(1, n_labels):
            got = report.by_id(lid).mc_dice
            want = oracles.mc_dice_oracle(arrays, lid)
            checked += 1
            if got != want and not (got is None and want is None):
                mismatches += 1
        got_d = dice_score(LabelVolume(geom, arrays[0]), LabelVolume(geom, arrays[1]), 1)
        want_d = oracles.dice_oracle(arrays[0], arrays[1], 1)
        checked += 1
        mismatches += got_d != want_d
    emit("A7", mismatches == 0,
         f"100 random 8^3 trials, N <= 5: {checked} brute-force comparisons, "
         f"{mismatches} mismatches (need exact match)")


# -- A8: NIfTI round trip and header fuzz ---------------------------------------------------


def test_a8_round_trip_and_header_fuzz(tmp_path):
    geom = VoxelGeometry((7, 6, 5), (1.0, 1.5, 2.0))
    rng = np.random.default_rng(88)
    rt_ok = True
    for dtype in (np.uint8, np.int16, np.uint16, np.float32):
        if np.issubdtype(dtype, np.integer):
            info = np.iinfo(dtype)
            data = rng.integers(max(info.min, -999), min(info.max, 999) + 1,
                                geom.dims).astype(dtype)
        else:
            data = rng.standard_normal(geom.dims).astype(dtype)
        p = tmp_path / f"{np.dtype(dtype).name}.nii"
        write_nifti(p, data, geom)
        back = read_nifti(p)
        rt_ok &= back.data.dtype == np.dtype(dtype) and bool(np.array_equal(back.data, data))

    base_path = tmp_path / "base.nii"
    write_nifti(base_path, rng.integers(0, 200, geom.dims).astype(np.uint8), geom)
    base = bytearray(base_path.read_bytes())

    targeted = [
        lambda b: b.__setitem__(slice(344, 348), b"XXXX"),           # magic
        lambda b: b.__setitem__(slice(70, 72), (999).to_bytes(2, "little")),  # datatype
        lambda b: b.__setitem__(slice(40, 42), (4).to_bytes(2, "little")),    # dim[0]
        lambda b: b.__setitem__(slice(0, 4), (999).to_bytes(4, "little")),    # sizeof_hdr
        lambda b: b.__setitem__(slice(72, 74), (64).to_bytes(2, "little")),   # bitpix
    ]
    must_raise_hits = 0
    crashes = 0
    survived = 0
    raised = 0
    for case in range(1000):
        buf = bytearray(base)
        if case < 250:
            targeted[case % len(targeted)](buf)
        else:
            for _ in range(int(rng.integers(1, 16))):
                buf[int(rng.integers(0, 352))] = int(rng.integers(0, 256))
        p = tmp_path / "fuzz.nii"
        p.write_bytes(bytes(buf))
        try:
            read_nifti(p)
            survived += 1
        except NiftiFormatError:
            raised += 1
            if case < 250:
                must_raise_hits += 1
        except Exception:
            crashes += 1
    fuzz_ok = crashes == 0 and must_raise_hits == 250

    emit("A8", rt_ok and fuzz_ok,
         f"4-dtype round trips bit-exact; 1000-case header fuzz: {raised} format "
         f"errors, {survived} benign reads, {crashes} crashes (need 0), all 250 "
         f"targeted corruptions raised")


# -- A9: metric pipeline runtime at clinical scale -------------------------------------------


def test_a9_pipeline_runtime(tmp_path):
    # 256^3 volumes, N = 15, registry of 34 labels: z-slab volumes whose
    # 33 interfaces jitter by one voxel per sample (fast to build via a
    # searchsorted lookup, heavy enough to exercise the whole pipeline)
    dims = (256, 256, 256)
    geom = VoxelGeometry(dims, (1.0, 1.0, 1.0))
    n_samples = 15
    n_labels = 34
    base_bounds = np.linspace(0, 256, n_labels + 1)[1:-1].astype(np.int64)
    z = np.arange(256)
    rng = np.random.default_rng(99)

    def slab_volume(bounds):
        lut = np.searchsorted(bounds, z, side="right").astype(np.uint8)
        return np.broadcast_to(lut[None, None, :], dims)

    gt_path = tmp_path / "gt.nii"
    write_nifti(gt_path, np.ascontiguousarray(slab_volume(base_bounds)), geom)
    names = []
    for i in range(n_samples):
        jitter = rng.integers(-1, 2, base_bounds.size)
        vol = slab_volume(np.sort(base_bounds + jitter))
        name = f"sample_{i:03d}.nii"
        write_nifti(tmp_path / name, np.ascontiguousarray(vol), geom)
        names.append(name)
    registry = StructureRegistry(
        entries=tuple((i, f"slab_{i:02d}") for i in range(n_labels)), background_id=0
    )
    write_registry(registry, tmp_path / "registry.json")
    write_scan_manifest(tmp_path / "manifest.json", names, gt="gt.nii",
                        registry="registry.json")

    t0 = time.perf_counter()
    code = cli_main(["metrics", "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "report.json")])
    elapsed = time.perf_counter() - t0
    emit("A9", code == 0 and elapsed < 120.0,
         f"cmd_metrics on 256^3, N=15, 34 labels: exit {code}, "
         f"{elapsed:.1f}s (need < 120s)")
