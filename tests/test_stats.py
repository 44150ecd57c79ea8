"""Cohort table, Pearson, WLS, Huber, and p-value machinery."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from segqc import stats
from segqc.metrics import StructureMetrics, StructureReport
from segqc.stats import (
    CohortTable,
    CollinearityError,
    ValidationError,
    correlate_uncertainty_accuracy,
    design_matrix,
    group_analysis,
    huber_fit,
    pearson,
    standardize_table,
    wls_fit,
)


def make_table(n=40, seed=0, with_site=True, cv=True, dice=True, beta=(2.0, 0.02, 0.4, 1.0)):
    rng = np.random.default_rng(seed)
    age = rng.uniform(20, 90, n)
    sex = rng.integers(0, 2, n).astype(float)
    dx = rng.integers(0, 2, n).astype(float)
    cv_col = rng.uniform(0.05, 0.6, n) if cv else None
    vol = beta[0] + beta[1] * age + beta[2] * sex + beta[3] * dx + rng.normal(0, 0.3, n)
    site = tuple(rng.choice(["alpha", "beta", "gamma"]) for _ in range(n)) if with_site else None
    return CohortTable(
        subject_ids=tuple(f"s{i}" for i in range(n)),
        age=age, sex=sex, dx=dx, volume=vol, site=site,
        cv=cv_col, mc_dice=(1 - cv_col / (1 + cv_col)) if dice and cv else None,
    )


# -- CohortTable -------------------------------------------------------------


def test_table_validates_binary_coding():
    with pytest.raises(ValidationError, match="sex"):
        CohortTable(subject_ids=("a", "b", "c"), age=[1, 2, 3], sex=[0, 2, 1],
                    dx=[0, 1, 0], volume=[1, 2, 3])


def test_table_validates_cv_sign():
    with pytest.raises(ValidationError, match="cv"):
        CohortTable(subject_ids=("a", "b", "c"), age=[1, 2, 3], sex=[0, 1, 1],
                    dx=[0, 1, 0], volume=[1, 2, 3], cv=[-0.1, 0.2, 0.3])


def test_table_validates_finiteness():
    with pytest.raises(ValidationError):
        CohortTable(subject_ids=("a", "b", "c"), age=[1, np.inf, 3], sex=[0, 1, 1],
                    dx=[0, 1, 0], volume=[1, 2, 3])


@pytest.mark.parametrize("columns, message", [
    ({"volume": [1, 2]}, "column volume has 2 entries for 3 subjects"),
    ({"mc_dice": [0.5, 1.5, 0.2]}, "mc_dice weights must lie in [0, 1]"),
    ({"site": ("a", "b")}, "site column has 2 entries for 3 subjects"),
])
def test_table_refuses_a_short_column_and_an_out_of_range_dice(columns, message):
    cols = {"age": [1, 2, 3], "sex": [0, 1, 1], "dx": [0, 1, 0], "volume": [1, 2, 3], **columns}
    with pytest.raises(ValidationError) as info:
        CohortTable(subject_ids=("a", "b", "c"), **cols)
    assert str(info.value) == message


def test_table_take_subsets_all_columns():
    t = make_table(10)
    sub = t.take(np.array([1, 3, 5]))
    assert sub.n == 3
    assert sub.subject_ids == (t.subject_ids[1], t.subject_ids[3], t.subject_ids[5])
    assert sub.site == (t.site[1], t.site[3], t.site[5])
    assert np.array_equal(sub.volume, t.volume[[1, 3, 5]])


# -- Pearson -----------------------------------------------------------------


def test_pearson_hand_value():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [1.5, 2.5, 3.5, 10.0]
    r = pearson(x, y)
    # reference from the covariance formula
    xa, ya = np.array(x), np.array(y)
    want = float(((xa - xa.mean()) * (ya - ya.mean())).sum()
                 / np.sqrt(((xa - xa.mean()) ** 2).sum() * ((ya - ya.mean()) ** 2).sum()))
    assert r.r == pytest.approx(want, abs=1e-15)
    assert r.n_used == 4 and r.n_dropped == 0


def test_pearson_drops_missing_pairs():
    r = pearson([1.0, None, 2.0, 3.0, np.nan], [2.0, 5.0, 4.0, 6.0, 7.0])
    assert r.n_used == 3 and r.n_dropped == 2


def test_pearson_rejects_constant_and_tiny_input():
    with pytest.raises(ValidationError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        pearson([1.0, 2.0], [1.0, 2.0])


def test_pearson_refuses_vectors_of_different_lengths():
    with pytest.raises(ValidationError) as info:
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])
    assert str(info.value) == "length mismatch: 3 vs 2"


def test_pearson_perfect_correlation_is_clipped():
    x = np.linspace(0, 1, 50)
    assert abs(pearson(x, 2 * x + 1).r) <= 1.0
    assert pearson(x, -x).r == -1.0


def _report(rows, scan_id):
    structures = tuple(
        StructureMetrics(
            label_id=k + 1, name=f"s{k + 1}", mean_volume=100.0, std_volume=1.0,
            cv=cv, mc_dice=mcd, mean_uncertainty=unc, consensus_volume=100.0,
            gt_dice=gt,
        )
        for k, (unc, cv, mcd, gt) in enumerate(rows)
    )
    return StructureReport(structures=structures, n_samples=5, uncertainty_min=0.0,
                           uncertainty_mean=0.2, uncertainty_max=1.5, scan_id=scan_id)


def test_correlate_uncertainty_accuracy_pools_records():
    # (mean_uncertainty, cv, mc_dice, gt_dice) per structure; pooled over the
    # scans of the one dataset ""
    a = _report([(0.1, 0.05, 0.95, 0.97), (0.3, 0.15, 0.85, 0.90),
                 (0.6, 0.30, 0.70, 0.75)], "scan_a")
    b = _report([(0.9, None, 0.55, 0.60), (1.2, 0.55, 0.40, 0.42)], "scan_b")
    out, n_absent = correlate_uncertainty_accuracy([a, b])
    assert list(out) == [("", "mc_dice"), ("", "cv"), ("", "mean_unc")] and n_absent == 0
    assert out["", "mean_unc"].r < -0.9
    assert out["", "mean_unc"].n_used == 5
    assert out["", "cv"].r < -0.9 and out["", "cv"].n_dropped == 1
    assert out["", "mc_dice"].r > 0.9


def test_correlate_uncertainty_accuracy_refuses_records_without_gt_dice():
    a = _report([(0.1, 0.05, 0.95, 0.97), (0.3, 0.15, 0.85, None)], "scan_a")
    b = _report([(0.9, 0.40, 0.55, 0.60), (1.2, 0.55, 0.40, 0.42)], "scan_b")
    with pytest.raises(ValidationError, match="scan_a lacks gt_dice for s2"):
        correlate_uncertainty_accuracy([a, b])


def test_correlate_uncertainty_accuracy_sets_absent_records_aside():
    # (mean_uncertainty, cv, mc_dice, gt_dice); the last record is absent
    a = _report([(0.1, 0.05, 0.95, 0.97), (0.3, 0.15, 0.85, 0.90),
                 (0.6, 0.30, 0.70, 0.75), (None, None, None, 0.0)], "scan_a")
    out, n_absent = correlate_uncertainty_accuracy([a])
    assert n_absent == 1
    assert all(res.n_used == 3 and res.n_dropped == 0 for res in out.values())


def test_correlate_uncertainty_accuracy_refuses_mixed_uncertainty_scales():
    from dataclasses import replace

    rows = [(0.1, 0.05, 0.95, 0.97), (0.3, 0.15, 0.85, 0.90), (0.6, 0.30, 0.70, 0.75)]
    a, b, c = (_report(rows, f"scan_{k}") for k in "abc")
    normalized = replace(b, normalized_uncertainty=True)
    with pytest.raises(ValidationError, match="dataset '': .*raw, N = 5, but normalized in "
                                              "report scan_b.*--normalize-entropy"):
        correlate_uncertainty_accuracy([a, normalized, c])
    with pytest.raises(ValidationError, match="raw, N = 5, but raw, N = 15 in report scan_b"):
        correlate_uncertainty_accuracy([a, replace(b, n_samples=15), c])
    # normalized reports compare across sample counts, and datasets apart
    correlate_uncertainty_accuracy([replace(r, normalized_uncertainty=True, n_samples=n)
                                    for r, n in ((a, 5), (b, 15), (c, 30))])
    out, _ = correlate_uncertainty_accuracy(
        [a, b, c] + [replace(r, dataset="other", n_samples=15) for r in (a, b, c)])
    assert sorted({dataset for dataset, _ in out}) == ["", "other"]


# -- design matrix and WLS ---------------------------------------------------


def test_design_matrix_columns():
    t = make_table(12)
    X, names = design_matrix(t)
    assert names == ("intercept", "age", "sex", "dx", "site:beta", "site:gamma")
    assert X.shape == (12, 6)
    t2 = make_table(12, with_site=False)
    _, names2 = design_matrix(t2)
    assert names2 == ("intercept", "age", "sex", "dx")


def test_wls_matches_normal_equations_oracle():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(15, 100))
        t = make_table(n, seed=trial)
        w = rng.uniform(0.2, 5.0, n)
        res = wls_fit(t, weight_mode="explicit", explicit_weights=w)
        X, _ = design_matrix(t)
        want = oracles.wls_oracle(X, w, t.volume)
        assert np.max(np.abs(res.beta - want)) < 1e-8


def test_unit_weight_wls_equals_ols():
    t = make_table(30, seed=2)
    a = wls_fit(t, weight_mode="none")
    b = wls_fit(t, weight_mode="explicit", explicit_weights=np.ones(30))
    assert np.max(np.abs(a.beta - b.beta)) < 1e-10
    assert np.max(np.abs(a.se - b.se)) < 1e-10


def test_weight_scale_invariance():
    t = make_table(30, seed=3)
    w = np.random.default_rng(3).uniform(0.5, 2.0, 30)
    a = wls_fit(t, weight_mode="explicit", explicit_weights=w)
    b = wls_fit(t, weight_mode="explicit", explicit_weights=1000.0 * w)
    assert np.max(np.abs(a.beta - b.beta)) < 1e-9
    assert np.max(np.abs(a.se - b.se)) < 1e-9
    assert np.max(np.abs(a.p - b.p)) < 1e-9


def test_collinear_design_names_column():
    n = 20
    rng = np.random.default_rng(1)
    t = CohortTable(
        subject_ids=tuple(f"s{i}" for i in range(n)),
        age=rng.uniform(20, 80, n),
        sex=np.zeros(n),  # constant: collinear with intercept
        dx=rng.integers(0, 2, n).astype(float),
        volume=rng.normal(0, 1, n),
    )
    with pytest.raises(CollinearityError, match="sex"):
        wls_fit(t)


def test_weight_mode_inv_cv_uses_floor():
    n = 12
    rng = np.random.default_rng(4)
    cv = rng.uniform(0.1, 0.5, n)
    cv[0] = 0.0  # floored at 1e-4, not a division by zero
    t = CohortTable(
        subject_ids=tuple(f"s{i}" for i in range(n)),
        age=rng.uniform(20, 80, n), sex=rng.integers(0, 2, n).astype(float),
        dx=rng.integers(0, 2, n).astype(float), volume=rng.normal(0, 1, n), cv=cv,
    )
    res = wls_fit(t, weight_mode="inv_cv")
    assert res.n_used == n and np.all(np.isfinite(res.beta))


def test_nan_weights_dropped_with_warning():
    t = make_table(25, seed=6)
    cv = t.cv.copy()
    cv[[2, 7]] = np.nan
    t2 = CohortTable(subject_ids=t.subject_ids, age=t.age, sex=t.sex, dx=t.dx,
                     volume=t.volume, site=t.site, cv=cv, mc_dice=t.mc_dice)
    with pytest.warns(UserWarning, match="dropping 2"):
        res = wls_fit(t2, weight_mode="inv_cv")
    assert res.n_used == 23 and res.n_dropped == 2


def test_missing_weight_column_is_an_error():
    t = make_table(20, cv=False, dice=False)
    with pytest.raises(ValidationError, match="cv"):
        wls_fit(t, weight_mode="inv_cv")
    with pytest.raises(ValidationError, match="mc_dice"):
        wls_fit(t, weight_mode="inv_one_minus_dice")


@pytest.mark.parametrize("mode, weights, message", [
    ("explicit", None, "weight_mode 'explicit' requires explicit_weights"),
    ("explicit", np.ones(19), "need 20 explicit weights, got (19,)"),
    ("explicit", np.r_[np.ones(19), -1.0], "explicit weights must be finite and >= 0"),
    ("explicit", np.r_[np.ones(19), np.nan], "explicit weights must be finite and >= 0"),
    ("inv_volume", None, f"unknown weight mode 'inv_volume'; expected one of {stats.WEIGHT_MODES}"),
])
def test_wls_fit_refuses_bad_explicit_weights_and_an_unknown_mode(mode, weights, message):
    with pytest.raises(ValidationError) as info:
        wls_fit(make_table(20), weight_mode=mode, explicit_weights=weights)
    assert str(info.value) == message


def test_exact_fit_gives_extreme_p():
    # the only fit whose residuals are bit-exactly zero is volume == 0
    # (beta comes out exactly 0 through the SVD); se = 0 with beta = 0
    # must give t = 0 and p = 1, not a 0/0
    n = 14
    rng = np.random.default_rng(8)
    age = rng.uniform(20, 80, n)
    sex = rng.integers(0, 2, n).astype(float)
    dx = np.array([0.0, 1.0] * 7)
    t = CohortTable(subject_ids=tuple(f"s{i}" for i in range(n)),
                    age=age, sex=sex, dx=dx, volume=np.zeros(n))
    res = wls_fit(t)
    assert res.weighted_rss == 0.0
    assert np.all(res.se == 0.0)
    assert np.all(res.t == 0.0)
    assert np.all(res.p == 1.0)

    # volume that is linear up to float rounding: residuals are ~1e-16
    # of scale, so p is astronomically small but not exactly zero
    vol = 1.0 + 0.1 * age + 0.5 * sex + 2.0 * dx
    t2 = CohortTable(subject_ids=tuple(f"s{i}" for i in range(n)),
                     age=age, sex=sex, dx=dx, volume=vol)
    res2 = wls_fit(t2)
    k = res2.columns.index("dx")
    assert res2.p[k] < 1e-50
    assert abs(res2.t[k]) > 1e10

    # the infinite-t branch itself: se = 0 with beta != 0 maps to p = 0
    from segqc.stats import _two_sided_p

    assert _two_sided_p(np.array([np.inf, -np.inf]), df=10).tolist() == [0.0, 0.0]


def test_p_value_against_quadrature():
    from segqc.stats import _two_sided_p

    for t_stat, df in ((2.0, 10), (1.0, 30)):
        want = oracles.t_cdf_quadrature(t_stat, df)
        assert abs(_two_sided_p(np.array([t_stat]), df)[0] - want) < 1e-6


def test_dummy_coding_reference_invariance():
    # renaming site levels changes the reference level; dx inference
    # must not move
    t = make_table(40, seed=9)
    renames = {"alpha": "zeta", "beta": "beta", "gamma": "gamma"}
    t2 = CohortTable(subject_ids=t.subject_ids, age=t.age, sex=t.sex, dx=t.dx,
                     volume=t.volume, site=tuple(renames[s] for s in t.site),
                     cv=t.cv, mc_dice=t.mc_dice)
    a, b = wls_fit(t), wls_fit(t2)
    ka, kb = a.columns.index("dx"), b.columns.index("dx")
    assert abs(a.beta[ka] - b.beta[kb]) < 1e-9
    assert abs(a.se[ka] - b.se[kb]) < 1e-9
    assert abs(a.p[ka] - b.p[kb]) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
@example(1881)  # 12 rows that all have sex 1: the design is rank-deficient
def test_wls_residual_orthogonality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 60))
    t = make_table(n, seed=seed % 1000)
    w = rng.uniform(0.1, 4.0, n)
    X, _ = design_matrix(t)
    if np.linalg.matrix_rank(X) < X.shape[1]:
        with pytest.raises(CollinearityError):
            wls_fit(t, weight_mode="explicit", explicit_weights=w)
        return
    res = wls_fit(t, weight_mode="explicit", explicit_weights=w)
    r = t.volume - X @ res.beta
    # weighted residuals are orthogonal to the column space
    assert np.max(np.abs(X.T @ (w * r))) < 1e-6 * max(1.0, np.abs(t.volume).max())


# -- Huber -------------------------------------------------------------------


def make_bounded_noise_table(n_pairs=15, seed=12, c=0.05):
    """Cohort whose residuals are +-c by construction.

    Each covariate row appears twice with noise +c and -c, so the noise is
    orthogonal to every design column and the fitted residuals stay at
    +-c. The Huber threshold 1.345 * MAD / 0.6745 ~= 2c then never trips.
    Normal noise would not do: ~18% of its residuals exceed the threshold
    and reweighting them is correct behaviour, not a bug.
    """
    rng = np.random.default_rng(seed)
    age = np.repeat(rng.uniform(20, 90, n_pairs), 2)
    sex = np.repeat(rng.integers(0, 2, n_pairs).astype(float), 2)
    dx = np.repeat(rng.integers(0, 2, n_pairs).astype(float), 2)
    noise = np.tile([c, -c], n_pairs)
    vol = 2.0 + 0.02 * age + 0.4 * sex + dx + noise
    n = 2 * n_pairs
    return CohortTable(subject_ids=tuple(f"s{i}" for i in range(n)),
                       age=age, sex=sex, dx=dx, volume=vol)


def test_huber_equals_ols_on_clean_data():
    t = make_bounded_noise_table()
    ols = wls_fit(t)
    hub = huber_fit(t)
    assert np.max(np.abs(ols.beta - hub.beta)) < 1e-8


def test_huber_needs_two_residual_degrees_of_freedom():
    # 5 subjects for 4 columns: intercept, age, sex and dx
    with pytest.raises(ValidationError) as info:
        huber_fit(make_table(5, with_site=False))
    assert str(info.value) == "huber fit needs n - p >= 2 (n=5, p=4)"


def test_huber_exact_fit_note():
    # volume == 0 is the one case with bit-exactly zero residuals; the
    # IRLS loop must bail out before dividing by a zero scale
    n = 12
    rng = np.random.default_rng(13)
    age = rng.uniform(20, 80, n)
    sex = rng.integers(0, 2, n).astype(float)
    dx = np.array([0.0, 1.0] * 6)
    t = CohortTable(subject_ids=tuple(f"s{i}" for i in range(n)), age=age, sex=sex,
                    dx=dx, volume=np.zeros(n))
    res = huber_fit(t)
    assert res.note is not None and "zero" in res.note
    assert np.all(res.beta == 0.0)

    # near-exact linear data (float-rounded) has no exactly-zero residuals
    # but must still converge immediately to the ordinary fit
    t2 = CohortTable(subject_ids=tuple(f"s{i}" for i in range(n)), age=age, sex=sex,
                     dx=dx, volume=1.0 + 0.25 * age + dx)
    res2 = huber_fit(t2)
    assert abs(res2.beta[res2.columns.index("dx")] - 1.0) < 1e-10


def test_huber_resists_single_outlier(monkeypatch):
    import segqc.stats as stats

    calls = []

    def counted(name):
        real = getattr(stats, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(stats, name, wrapper)

    n = 21
    rng = np.random.default_rng(14)
    age = rng.uniform(20, 80, n)
    sex = rng.integers(0, 2, n).astype(float)
    dx = np.array([0.0, 1.0] * 10 + [0.0])
    vol = 2.0 + 1.0 * dx + rng.normal(0, 0.05, n)
    vol[-1] += 20.0
    t = CohortTable(subject_ids=tuple(f"s{i}" for i in range(n)), age=age, sex=sex,
                    dx=dx, volume=vol)
    ols = wls_fit(t)
    counted("_solve")
    counted("_weighted_lstsq")
    hub = huber_fit(t)
    k = ols.columns.index("dx")
    assert abs(hub.beta[k] - 1.0) < abs(ols.beta[k] - 1.0)
    assert hub.n_iter > 1
    # the ordinary start plus one solve per iteration; inference once, for the last
    assert calls.count("_solve") == hub.n_iter + 1
    assert calls.count("_weighted_lstsq") == 1


def huber_case(seed, n, shape):
    """A cohort whose volume is noisy, has outliers, is constant, exactly
    linear or zero; small integer covariates make exact residuals likely."""
    rng = np.random.default_rng(seed)
    age = rng.integers(20, 30, n).astype(float)
    sex = rng.integers(0, 2, n).astype(float)
    dx = rng.integers(0, 2, n).astype(float)
    vol = {"noisy": lambda: 2.0 + 0.02 * age + dx + rng.normal(0, 0.3, n),
           "outliers": lambda: 2.0 + dx + rng.normal(0, 0.05, n)
           + 20.0 * (rng.random(n) < 0.15),
           "constant": lambda: np.full(n, 2.0),
           "linear": lambda: 1.0 + 0.5 * age + dx,
           "zero": lambda: np.zeros(n)}[shape]()
    return CohortTable(subject_ids=tuple(f"s{i}" for i in range(n)), age=age, sex=sex,
                       dx=dx, volume=vol)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 30),
       shape=st.sampled_from(["noisy", "outliers", "constant", "linear", "zero"]),
       max_iter=st.sampled_from([1, stats.HUBER_MAX_ITER]))
@example(seed=8, n=8, shape="constant", max_iter=stats.HUBER_MAX_ITER)  # collapsed residuals
@example(seed=14, n=21, shape="outliers", max_iter=1)  # stopped before converging
@example(seed=13, n=12, shape="zero", max_iter=stats.HUBER_MAX_ITER)  # exact fit
def test_huber_fit_matches_the_per_iteration_oracle(seed, n, shape, max_iter):
    t = huber_case(seed, n, shape)
    with mock.patch.object(stats, "HUBER_MAX_ITER", max_iter):
        try:
            want = oracles.huber_oracle(t)
        except ValidationError as exc:
            with pytest.raises(type(exc)) as got:
                huber_fit(t)
            assert str(got.value) == str(exc)
            return
        got = huber_fit(t)
    for name in ("beta", "se", "t", "p"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.weighted_rss, got.n_iter, got.note) == (want.weighted_rss, want.n_iter, want.note)


# -- standardize and group analysis ------------------------------------------


def test_standardize_zscores_volume_and_age():
    t = make_table(25, seed=15)
    z = standardize_table(t)
    assert abs(z.volume.mean()) < 1e-12 and abs(z.volume.std(ddof=1) - 1) < 1e-12
    assert abs(z.age.mean()) < 1e-12 and abs(z.age.std(ddof=1) - 1) < 1e-12
    assert np.array_equal(z.sex, t.sex) and np.array_equal(z.dx, t.dx)


def test_group_analysis_modes_and_rows():
    t = make_table(50, seed=16)
    out = group_analysis(t, structure="hippocampus")
    assert out.structure == "hippocampus" and out.standardized
    assert [r.mode for r in out.rows] == ["none", "inv_cv", "inv_one_minus_dice", "huber"]
    for row in out.rows:
        assert np.isfinite(row.beta_d) and 0.0 <= row.p_d <= 1.0
    raw = group_analysis(t, standardize=False)
    assert not raw.standardized


def with_cv(t, cv):
    return CohortTable(subject_ids=t.subject_ids, age=t.age, sex=t.sex, dx=t.dx,
                       volume=t.volume, site=t.site, cv=cv, mc_dice=t.mc_dice)


@pytest.mark.parametrize("gone", ["alpha", "gamma"])  # the reference site, and another
def test_group_analysis_site_with_no_weighted_row_adds_no_column(gone):
    t = make_table(60, seed=18)
    t = with_cv(t, np.where(np.array(t.site) == gone, np.nan, t.cv))
    keep = np.flatnonzero(~np.isnan(t.cv))
    for standardize in (True, False):
        with pytest.warns(UserWarning, match="dropping"):
            got = group_analysis(t, modes=("inv_cv",), standardize=standardize).fits["inv_cv"]
        kept = (standardize_table(t) if standardize else t).take(keep)
        want = wls_fit(kept, weight_mode="inv_cv")
        assert got.columns == want.columns == design_matrix(kept)[1]
        assert f"site:{gone}" not in got.columns and len(got.columns) == 5
        for name in ("beta", "se", "p"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.n_dropped == t.n - keep.size and want.n_used == keep.size


def test_group_analysis_validates_once_and_builds_one_design_per_row_set(monkeypatch):
    t = make_table(60, seed=19)
    partial = with_cv(t, np.where(np.arange(t.n) % 5 == 0, np.nan, t.cv))
    calls = {"validate": 0, "design": 0}
    real_post, real_design = CohortTable.__post_init__, stats.design_matrix

    def count(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    monkeypatch.setattr(CohortTable, "__post_init__", count("validate", real_post))
    monkeypatch.setattr(stats, "design_matrix", count("design", real_design))
    group_analysis(t)
    assert calls == {"validate": 0, "design": 1}
    with pytest.warns(UserWarning, match="dropping"):
        group_analysis(partial)
    # all rows for none, inv_one_minus_dice and huber; the rows with a cv for inv_cv
    assert calls == {"validate": 0, "design": 3}


def test_standardize_refuses_a_spread_past_the_float_range():
    t = make_table(30, seed=20)
    age = t.age.copy()
    age[:3] = (1e308, 1e308, -1e308)  # finite, but their sum is not
    t = CohortTable(subject_ids=t.subject_ids, age=age, sex=t.sex, dx=t.dx, volume=t.volume)
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match="column age"):
        standardize_table(t)


def test_design_matrix_keeps_sites_that_differ_by_a_trailing_nul():
    t = make_table(30, seed=21)
    site = tuple(("a", "a\0", "b")[i % 3] for i in range(t.n))
    t = CohortTable(subject_ids=t.subject_ids, age=t.age, sex=t.sex, dx=t.dx,
                    volume=t.volume, site=site)
    X, names = design_matrix(t)
    assert names[4:] == ("site:a\0", "site:b")
    assert np.array_equal(X[:, 4:], [[s == "a\0", s == "b"] for s in site])


def test_group_analysis_unknown_mode():
    t = make_table(30)
    with pytest.raises(ValidationError, match="mode"):
        group_analysis(t, modes=("bogus",))


def test_group_analysis_needs_a_mode():
    # no mode would give a table with no rows, not an answer
    with pytest.raises(ValidationError, match="no group mode"):
        group_analysis(make_table(30), modes=())


def test_group_analysis_constant_dx_collinear():
    t = make_table(30, seed=17)
    t2 = CohortTable(subject_ids=t.subject_ids, age=t.age, sex=t.sex,
                     dx=np.zeros(t.n), volume=t.volume, site=t.site,
                     cv=t.cv, mc_dice=t.mc_dice)
    with pytest.raises(CollinearityError, match="dx"):
        group_analysis(t2, modes=("none",))
