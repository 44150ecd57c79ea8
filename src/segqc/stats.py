"""Correlation and regression tools for uncertainty-weighted group analysis.

The regression path fits volume ~ [1, age, sex, dx, site dummies] by
weighted least squares, with per-subject weights taken from segmentation
reliability (inverse volume CV, or inverse Dice disagreement), plus a
Huber-norm robust alternative fitted by IRLS. Coefficient inference uses
the classical t machinery on the weighted fit; two-sided p-values go
through the regularized incomplete beta form of the Student-t CDF.

Absent values are represented as None in report rows and as NaN in cohort
weight columns; fits drop such rows with a warning rather than silently
zero-weighting them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .metrics import STRUCTURE_METRICS, StructureReport
from .volumes import ValidationError, _special

# Floor on CV and (1 - mc_dice) before inversion: a perfect-agreement
# subject should dominate the fit, not break it with an infinite weight.
WEIGHT_FLOOR = 1e-4

# Condition-number threshold of sqrt(W)X above which the design is
# declared singular.
CONDITION_LIMIT = 1e12

WEIGHT_MODES = ("none", "inv_cv", "inv_one_minus_dice", "explicit")
GROUP_MODES = ("none", "inv_cv", "inv_one_minus_dice", "huber")


class CollinearityError(ValidationError):
    """The design matrix is singular or numerically rank-deficient."""


@dataclass(frozen=True)
class CohortTable:
    """Per-subject covariates joined to one structure's volumes and weights.

    ``cv`` and ``mc_dice`` are optional weight columns; NaN entries mark
    subjects whose weight is unavailable. ``site`` is either None (no site
    covariate) or one category string per subject. A table is validated
    when it is made; tables derived from one (:meth:`take`,
    :func:`standardize_table`) are not validated again.
    """

    subject_ids: tuple[str, ...]
    age: np.ndarray
    sex: np.ndarray
    dx: np.ndarray
    volume: np.ndarray
    site: tuple[str, ...] | None = None
    cv: np.ndarray | None = None
    mc_dice: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.subject_ids)
        object.__setattr__(self, "subject_ids", tuple(str(s) for s in self.subject_ids))
        for name in ("age", "sex", "dx", "volume", "cv", "mc_dice"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != (n,):
                raise ValidationError(f"column {name} has {arr.shape[0] if arr.ndim else 0} "
                                      f"entries for {n} subjects")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        self._require_finite("age", "sex", "dx", "volume")
        for name in ("sex", "dx"):
            vals = getattr(self, name)
            if not np.all(np.isin(vals, (0.0, 1.0))):
                raise ValidationError(f"column {name} must be coded 0/1")
        if self.cv is not None:
            known = self.cv[~np.isnan(self.cv)]
            if known.size and (not np.all(np.isfinite(known)) or known.min() < 0):
                raise ValidationError("cv weights must be finite and >= 0")
        if self.mc_dice is not None:
            known = self.mc_dice[~np.isnan(self.mc_dice)]
            if known.size and (known.min() < 0 or known.max() > 1):
                raise ValidationError("mc_dice weights must lie in [0, 1]")
        if self.site is not None:
            site = tuple(str(s) for s in self.site)
            if len(site) != n:
                raise ValidationError(f"site column has {len(site)} entries for {n} subjects")
            object.__setattr__(self, "site", site)

    def _require_finite(self, *names: str) -> None:
        for name in names:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"column {name} must be finite with no missing values")

    def _derived(self, **columns) -> "CohortTable":
        """This table with ``columns`` replaced, made read-only and not
        validated again: they are derived from this table's own columns."""
        out = object.__new__(CohortTable)
        out.__dict__.update({f.name: getattr(self, f.name) for f in fields(self)}, **columns)
        for arr in columns.values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        return out

    @property
    def n(self) -> int:
        return len(self.subject_ids)

    @cached_property
    def _design(self) -> tuple[np.ndarray, tuple[str, ...]]:
        """:func:`design_matrix` of this table, built once for all its fits."""
        return design_matrix(self)

    def take(self, idx: np.ndarray) -> "CohortTable":
        """Row subset in the given order."""
        cols = {f.name: getattr(self, f.name) for f in fields(self)}
        return self._derived(**{name: tuple(v[i] for i in idx) if isinstance(v, tuple) else v[idx]
                                for name, v in cols.items() if v is not None})


@dataclass(frozen=True)
class PearsonResult:
    r: float
    n_used: int
    n_dropped: int


@dataclass(frozen=True)
class RegressionResult:
    columns: tuple[str, ...]
    beta: np.ndarray
    se: np.ndarray
    t: np.ndarray
    p: np.ndarray
    weighted_rss: float
    n_used: int
    n_dropped: int = 0
    n_iter: int = 1
    note: str | None = None


@dataclass(frozen=True)
class GroupModeRow:
    mode: str
    beta_d: float
    se_d: float
    p_d: float
    n_used: int
    n_dropped: int


@dataclass(frozen=True)
class GroupAnalysis:
    structure: str
    standardized: bool
    rows: tuple[GroupModeRow, ...]
    fits: dict[str, RegressionResult] = field(repr=False, default_factory=dict)


def _clean_pairs(xs: Sequence, ys: Sequence) -> tuple[np.ndarray, np.ndarray, int]:
    if len(xs) != len(ys):
        raise ValidationError(f"length mismatch: {len(xs)} vs {len(ys)}")
    keep_x, keep_y = [], []
    for x, y in zip(xs, ys):
        if x is None or y is None:
            continue
        x, y = float(x), float(y)
        if np.isnan(x) or np.isnan(y):
            continue
        keep_x.append(x)
        keep_y.append(y)
    dropped = len(xs) - len(keep_x)
    return np.asarray(keep_x), np.asarray(keep_y), dropped


def pearson(xs: Sequence, ys: Sequence) -> PearsonResult:
    """Pearson correlation with explicit missing-pair handling.

    Pairs where either value is None/NaN are dropped and counted. Raises
    on fewer than 3 valid pairs or on a constant vector, where r is
    undefined.
    """
    x, y, dropped = _clean_pairs(xs, ys)
    if x.size < 3:
        raise ValidationError(f"need at least 3 valid pairs, got {x.size}")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValidationError("constant vector: correlation undefined")
    r = float(dx @ dy) / np.sqrt(sxx * syy)
    return PearsonResult(r=float(np.clip(r, -1.0, 1.0)), n_used=int(x.size), n_dropped=dropped)


def correlate_uncertainty_accuracy(
    reports: Iterable[StructureReport],
) -> tuple[dict[tuple[str, str], PearsonResult], int]:
    """Correlate each uncertainty metric with the Dice score against ground
    truth over the (scan, structure) records of each dataset.

    Returns a PearsonResult per (dataset, metric), datasets in sorted
    order and metrics in the order mc_dice, cv, mean_unc (mean
    uncertainty), and the number of absent-flagged records (no CV, MC
    Dice or mean uncertainty), which are set aside. A record without
    gt_dice raises, and so does a dataset whose mean uncertainties differ
    in scale: normalized and raw, or raw from different sample counts.
    """
    by_dataset: dict[str, list] = {}
    scales: dict[str, str] = {}  # per dataset, its first report's mean uncertainty scale
    n_absent = 0
    for rep in reports:
        scale = "normalized" if rep.normalized_uncertainty else f"raw, N = {rep.n_samples}"
        if scales.setdefault(rep.dataset, scale) != scale:
            raise ValidationError(
                f"dataset {rep.dataset!r}: mean uncertainties on different scales "
                f"({scales[rep.dataset]}, but {scale} in report {rep.scan_id or '?'}); "
                "reports made with --normalize-entropy are comparable")
        for s in rep.structures:
            if s.gt_dice is None:
                raise ValidationError(
                    f"report {rep.scan_id or '?'} lacks gt_dice for {s.name}; "
                    "correlation needs reports produced with --gt"
                )
            if s.cv is None and s.mc_dice is None and s.mean_uncertainty is None:
                n_absent += 1
            else:
                by_dataset.setdefault(rep.dataset, []).append(s)
    results = {}
    for dataset in sorted(by_dataset):
        recs = by_dataset[dataset]
        gtd = [s.gt_dice for s in recs]
        for metric, attr in STRUCTURE_METRICS.items():
            try:
                results[dataset, metric] = pearson([getattr(s, attr) for s in recs], gtd)
            except ValidationError as exc:
                raise ValidationError(f"dataset {dataset!r}, metric {metric}: {exc}") from exc
    return results, n_absent


def design_matrix(table: CohortTable) -> tuple[np.ndarray, tuple[str, ...]]:
    """[1, age, sex, dx] plus one-hot site dummies against the
    lexicographically first site as reference."""
    cols = [np.ones(table.n), table.age, table.sex, table.dx]
    names = ["intercept", "age", "sex", "dx"]
    if table.site is not None:
        levels = sorted(set(table.site))
        # each row's level by dict lookup: a numpy string array would drop trailing NULs
        code = np.fromiter(map(dict(zip(levels, range(len(levels)))).get, table.site), np.intp)
        for k, level in enumerate(levels[1:], 1):
            cols.append((code == k).astype(np.float64))
            names.append(f"site:{level}")
    return np.column_stack(cols), tuple(names)


def _two_sided_p(t: np.ndarray, df: int) -> np.ndarray:
    """P(|T| >= |t|) for Student-t via the regularized incomplete beta."""
    t = np.asarray(t, dtype=np.float64)
    out = np.ones_like(t)
    finite = np.isfinite(t)
    x = df / (df + t[finite] ** 2)
    out[finite] = _special("betainc")(df / 2.0, 0.5, x)
    out[~finite] = 0.0
    return np.clip(out, 0.0, 1.0)


def _name_collinear(columns: tuple[str, ...], vt_last: np.ndarray) -> list[str]:
    mags = np.abs(vt_last)
    top = mags.max()
    return [columns[k] for k in range(len(columns)) if mags[k] > 0.3 * top]


def _solve(X: np.ndarray, y: np.ndarray, w: np.ndarray, columns: tuple[str, ...]) -> tuple:
    """b = argmin sum w_i (y_i - X_i b)^2, and the singular values and V^T of
    sqrt(W) X. The SVD keeps the solve rank-revealing: a condition estimate
    above CONDITION_LIMIT raises CollinearityError naming the columns."""
    sw = np.sqrt(w)
    u, s, vt = np.linalg.svd(X * sw[:, None], full_matrices=False)
    cond = np.inf if s[-1] == 0.0 else float(s[0] / s[-1])
    if cond > CONDITION_LIMIT:
        raise CollinearityError(
            f"design matrix singular or ill-conditioned (condition {cond:.3g}); "
            f"collinear columns: {_name_collinear(columns, vt[-1])}"
        )
    return vt.T @ ((u.T @ (y * sw)) / s), s, vt


def _weighted_lstsq(X: np.ndarray, y: np.ndarray, w: np.ndarray, columns: tuple[str, ...],
                    n_dropped: int = 0, *, solved: tuple | None = None, n_iter: int = 1,
                    note: str | None = None) -> RegressionResult:
    """The fit of :func:`_solve` (or of its ``solved`` result for these
    weights) with its inference: sigma^2 = wRSS / (n - p) and
    Var(b) = sigma^2 (X'WX)^{-1}.
    """
    n, p = X.shape
    if n - p < 1:
        raise ValidationError(f"need n - p >= 1 residual degrees of freedom (n={n}, p={p})")
    beta, s, vt = solved or _solve(X, y, w, columns)
    resid = y - X @ beta
    df = n - p
    wrss = float(w @ resid**2)
    sigma2 = wrss / df
    cov = (vt.T / s**2) @ vt * sigma2
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    t = np.empty(p)
    nonzero = se > 0.0
    t[nonzero] = beta[nonzero] / se[nonzero]
    # exact fit: zero residual variance makes any nonzero coefficient
    # infinitely significant (copysign avoids the inf * 0 warning that
    # np.where would evaluate for exactly-zero coefficients)
    zb = beta[~nonzero]
    t[~nonzero] = np.where(zb == 0.0, 0.0, np.copysign(np.inf, zb))
    return RegressionResult(columns=columns, beta=beta, se=se, t=t, p=_two_sided_p(t, df),
                            weighted_rss=wrss, n_used=n, n_dropped=n_dropped, n_iter=n_iter,
                            note=note)


def _weights_for_mode(
    table: CohortTable, weight_mode: str, explicit_weights: np.ndarray | None
) -> tuple[CohortTable, np.ndarray, int]:
    """Weight vector for the requested mode, dropping rows whose weight is
    absent (with a warning), never zero-weighting them silently."""
    if weight_mode == "none":
        return table, np.ones(table.n), 0
    if weight_mode == "explicit":
        if explicit_weights is None:
            raise ValidationError("weight_mode 'explicit' requires explicit_weights")
        w = np.asarray(explicit_weights, dtype=np.float64)
        if w.shape != (table.n,):
            raise ValidationError(f"need {table.n} explicit weights, got {w.shape}")
        if not np.all(np.isfinite(w)) or w.min() < 0:
            raise ValidationError("explicit weights must be finite and >= 0")
        return table, w, 0
    if weight_mode == "inv_cv":
        if table.cv is None:
            raise ValidationError("weight mode inv_cv needs a cv column in the cohort")
        raw = table.cv
    elif weight_mode == "inv_one_minus_dice":
        if table.mc_dice is None:
            raise ValidationError("weight mode inv_one_minus_dice needs an mc_dice column")
        raw = 1.0 - table.mc_dice
    else:
        raise ValidationError(f"unknown weight mode {weight_mode!r}; expected one of {WEIGHT_MODES}")
    keep = ~np.isnan(raw)
    dropped = int(table.n - keep.sum())
    if dropped:
        warnings.warn(
            f"dropping {dropped} cohort rows with absent {weight_mode} weights",
            stacklevel=3,
        )
        table = table.take(np.flatnonzero(keep))
        raw = raw[keep]
    return table, 1.0 / np.maximum(raw, WEIGHT_FLOOR), dropped


def wls_fit(
    table: CohortTable,
    weight_mode: str = "none",
    explicit_weights: np.ndarray | None = None,
) -> RegressionResult:
    """Weighted least squares of structure volume on [1, age, sex, dx, site].

    Weights: 1 (none), 1/max(cv, 1e-4) (inv_cv), 1/max(1 - mc_dice, 1e-4)
    (inv_one_minus_dice), or caller-supplied (explicit). Scaling all
    weights by a positive constant leaves coefficients, standard errors,
    and p-values unchanged.
    """
    table, w, dropped = _weights_for_mode(table, weight_mode, explicit_weights)
    X, columns = table._design
    return _weighted_lstsq(X, y=table.volume, w=w, columns=columns, n_dropped=dropped)


# Huber tuning: 1.345 gives 95% efficiency at the normal model; 0.6745
# rescales the residual MAD to a consistent sigma estimate.
HUBER_K = 1.345
MAD_TO_SIGMA = 0.6745
HUBER_TOL = 1e-8
HUBER_MAX_ITER = 50


def huber_fit(table: CohortTable) -> RegressionResult:
    """Huber-norm robust regression by iteratively reweighted least squares.

    Starts from the ordinary fit and reweights residuals beyond
    k = 1.345 * (MAD / 0.6745), rescaling each iteration, until the
    coefficient change drops below 1e-8 or 50 iterations. Data whose
    residuals never exceed k reproduce the ordinary fit exactly.
    """
    X, columns = table._design
    y = table.volume
    n, p = X.shape
    if n - p < 2:
        raise ValidationError(f"huber fit needs n - p >= 2 (n={n}, p={p})")
    w = np.ones(n)
    solved = _solve(X, y, w, columns)
    beta = solved[0]
    if np.max(np.abs(y - X @ beta)) == 0.0:
        return _weighted_lstsq(X, y, w, columns, solved=solved,
                               note="exact fit: all residuals zero, no reweighting")

    n_iter = 0
    converged = False
    for n_iter in range(1, HUBER_MAX_ITER + 1):
        resid = y - X @ beta
        mad = float(np.median(np.abs(resid - np.median(resid))))
        scale = mad / MAD_TO_SIGMA
        if scale == 0.0:
            spread = float(np.std(resid, ddof=1))
            if spread == 0.0:
                break  # residuals collapsed to a constant; nothing to reweight
            scale = spread
        k = HUBER_K * scale
        absr = np.abs(resid)
        w = np.where(absr > k, k / np.maximum(absr, np.finfo(float).tiny), 1.0)
        solved = _solve(X, y, w, columns)
        delta = float(np.max(np.abs(solved[0] - beta)))
        beta = solved[0]
        if delta < HUBER_TOL:
            converged = True
            break
    note = None if converged else f"IRLS stopped after {n_iter} iterations without converging"
    # inference once, for the weights of the last solve
    return _weighted_lstsq(X, y, w, columns, solved=solved, n_iter=n_iter, note=note)


def standardize_table(table: CohortTable) -> CohortTable:
    """Z-score volume and age; binary and categorical columns untouched.

    A zero-variance column is only centered, leaving the singularity for
    the fit to diagnose by name.
    """
    def zscore(arr):
        sd = float(np.std(arr, ddof=1))
        return (arr - arr.mean()) / (sd if sd > 0 else 1.0)

    out = table._derived(age=zscore(table.age), volume=zscore(table.volume))
    out._require_finite("age", "volume")  # a mean or spread past the float range
    return out


def group_analysis(
    table: CohortTable,
    structure: str = "",
    modes: Sequence[str] = GROUP_MODES,
    standardize: bool = True,
) -> GroupAnalysis:
    """Fit the diagnosis effect under several weighting/robustness modes.

    Returns the diagnosis coefficient, its standard error, and p-value per
    mode. With ``standardize`` (default) volume and age are z-scored once
    over the full table before any fit, keeping effect sizes comparable
    across modes.
    """
    if not modes:
        raise ValidationError(f"no group mode given; expected some of {GROUP_MODES}")
    for mode in modes:
        if mode not in GROUP_MODES:
            raise ValidationError(f"unknown group mode {mode!r}; expected one of {GROUP_MODES}")
    fitted_table = standardize_table(table) if standardize else table
    rows = []
    fits: dict[str, RegressionResult] = {}
    for mode in modes:
        try:
            res = huber_fit(fitted_table) if mode == "huber" else wls_fit(fitted_table, mode)
        except ValidationError as exc:  # CollinearityError stays one
            raise type(exc)(f"mode {mode}: {exc}") from exc
        fits[mode] = res
        k = res.columns.index("dx")
        rows.append(GroupModeRow(mode=mode, beta_d=float(res.beta[k]), se_d=float(res.se[k]),
                                 p_d=float(res.p[k]), n_used=res.n_used,
                                 n_dropped=res.n_dropped))
    return GroupAnalysis(structure=structure, standardized=standardize, rows=tuple(rows),
                         fits=fits)
