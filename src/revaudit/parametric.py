"""Quality-eliminating weighted regression on within-submission score differences.

Each eligible submission contributes one observation: the difference between
the mean score of its cited reviewers and the mean score of its uncited
reviewers, paired with the same difference of each covariate.  Differencing
cancels the unobserved submission quality and the model intercept, so the
citation effect survives as the constant term of the differenced model.  The
observation noise scales as 1/n_cited + 1/n_uncited, giving weights
n_c * n_u / (n_c + n_u).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy import linalg, stats

from .artifacts import parsing, write_csv, write_json
from .dataset import VenuePolicy, policy_covariates
from .errors import RankDeficientError, SampleSizeError, ValidationError
from .filtering import AnalysisDataset

CITATION_TERM = "citation_effect"


@dataclass(frozen=True)
class AnalysisRow:
    """One differenced, weighted observation for a single submission."""

    submission_id: str
    score_delta: float
    covariate_deltas: dict[str, float]
    n_cited: int
    n_uncited: int
    weight: float


@dataclass(frozen=True)
class FitResult:
    citation_effect: float
    coefficients: dict[str, float]
    std_errors: dict[str, float]
    t_stats: dict[str, float]
    p_values: dict[str, float]
    ci95: tuple[float, float]
    noise_scale_hat: float
    n_rows: int
    df: int

    def as_dict(self) -> dict:
        return asdict(self)


def build_rows(analysis: AnalysisDataset) -> list[AnalysisRow]:
    """One row per submission: cited-mean minus uncited-mean of score and covariates.

    The score difference is computed as (sum_c * n_u - sum_u * n_c) / (n_c * n_u),
    which cancels a per-submission constant shift exactly even in float
    arithmetic when scores are integer-valued.
    """
    names = policy_covariates(analysis.policy)
    rows: list[AnalysisRow] = []
    for sid in analysis.submissions():
        records = analysis.by_submission[sid]
        cited = [r for r in records if r.cited]
        uncited = [r for r in records if not r.cited]
        if not cited or not uncited:
            raise ValidationError(f"submission {sid!r} lacks one stratum; filter first")
        n_c, n_u = len(cited), len(uncited)
        sum_c = sum(r.score for r in cited)
        sum_u = sum(r.score for r in uncited)
        score_delta = (sum_c * n_u - sum_u * n_c) / (n_c * n_u)
        deltas = {}
        for name in names:
            mean_c = sum(r.covariates[name] for r in cited) / n_c
            mean_u = sum(r.covariates[name] for r in uncited) / n_u
            deltas[name] = mean_c - mean_u
        rows.append(
            AnalysisRow(
                submission_id=sid,
                score_delta=score_delta,
                covariate_deltas=deltas,
                n_cited=n_c,
                n_uncited=n_u,
                weight=(n_c * n_u) / (n_c + n_u),
            )
        )

    if len(rows) > 1:
        for name in names:
            values = {row.covariate_deltas[name] for row in rows}
            if len(values) == 1 and values != {0.0}:
                warnings.warn(
                    f"covariate delta {name!r} is constant across rows; "
                    "the fit will be rank deficient",
                    UserWarning,
                    stacklevel=2,
                )
    return rows


def _design(rows: list[AnalysisRow], policy: VenuePolicy):
    names = policy_covariates(policy)
    for row in rows:
        if set(row.covariate_deltas) != set(names):
            raise ValidationError(
                f"row {row.submission_id!r} covariates {sorted(row.covariate_deltas)} "
                f"do not match the {policy.value} model {list(names)}"
            )
    y = np.array([row.score_delta for row in rows], dtype=float)
    w = np.array([row.weight for row in rows], dtype=float)
    X = np.column_stack(
        [np.ones(len(rows))]
        + [np.array([row.covariate_deltas[n] for row in rows]) for n in names]
    )
    return X, y, w, [CITATION_TERM, *names]


def fit_wls(rows: list[AnalysisRow], policy: VenuePolicy) -> FitResult:
    """Weighted least squares on the differenced model.

    The citation effect is the model constant (no further intercept exists
    after differencing).  Covariate-delta columns that are identically zero
    carry no information and are excluded from estimation; their coefficients
    report as 0 with NaN standard errors.  Two-sided p-values use Student's t
    with df = n_rows - (number of estimated parameters).

    The weighted design is factored once, by QR with column pivoting (Golub &
    Van Loan, section 5.4).  Its rank counts the |R_jj| above
    |R_00| * max(n, p) * eps; a shortfall raises RankDeficientError naming
    the columns pivoted past the rank.  The covariance is sigma^2 R^-1 R^-T,
    so X'WX is never formed.
    """
    if not rows:
        raise SampleSizeError("no analysis rows")
    X, y, w, names = _design(rows, policy)
    n = len(rows)

    zero_cols = [j for j in range(1, X.shape[1]) if np.all(X[:, j] == 0.0)]
    keep = [j for j in range(X.shape[1]) if j not in zero_cols]
    Xk = X[:, keep]
    p = Xk.shape[1]
    if n <= p:
        raise SampleSizeError(f"{n} rows cannot identify {p} parameters")

    sw = np.sqrt(w)
    q, r, piv = linalg.qr(Xk * sw[:, None], mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > diag[0] * max(n, p) * np.finfo(float).eps))
    if rank < p:
        collinear = sorted(names[keep[j]] for j in piv[rank:])
        raise RankDeficientError(
            f"design is rank deficient; collinear columns: {', '.join(collinear)}",
            columns=collinear,
        )

    beta = np.empty(p)
    beta[piv] = linalg.solve_triangular(r, q.T @ (y * sw))
    residuals = y - Xk @ beta
    rss_w = float(np.sum(w * residuals**2))
    df = n - p
    sigma2 = rss_w / df
    r_inv, _ = linalg.lapack.dtrtri(r)  # R^-1; every R_jj is nonzero past the rank test
    se = np.empty(p)
    se[piv] = np.sqrt(sigma2 * np.sum(r_inv**2, axis=1))

    with np.errstate(divide="ignore", invalid="ignore"):
        t_vals = beta / se
    p_vals = 2.0 * stats.t.sf(np.abs(t_vals), df)

    coefficients = {name: 0.0 for name in names}
    std_errors = {name: math.nan for name in names}
    t_stats = {name: math.nan for name in names}
    p_values = {name: math.nan for name in names}
    for idx, j in enumerate(keep):
        coefficients[names[j]] = float(beta[idx])
        std_errors[names[j]] = float(se[idx])
        t_stats[names[j]] = float(t_vals[idx])
        p_values[names[j]] = float(p_vals[idx])

    t_crit = stats.t.ppf(0.975, df)
    alpha = coefficients[CITATION_TERM]
    half = t_crit * std_errors[CITATION_TERM]
    return FitResult(
        citation_effect=alpha,
        coefficients=coefficients,
        std_errors=std_errors,
        t_stats=t_stats,
        p_values=p_values,
        ci95=(alpha - half, alpha + half),
        noise_scale_hat=math.sqrt(sigma2),
        n_rows=n,
        df=df,
    )


@dataclass(frozen=True)
class DiagnosticsBundle:
    """Plot-ready residual data: no plotting here, just the coordinates."""

    residuals_vs_fitted: list[tuple[float, float]]
    qq: list[tuple[float, float]]


def diagnostics(fit: FitResult, rows: list[AnalysisRow], policy: VenuePolicy) -> DiagnosticsBundle:
    """(fitted, weighted residual) pairs plus normal Q-Q coordinates.

    Residuals are scaled by sqrt(weight) so they share the base noise level,
    then standardized by the estimated noise scale for the Q-Q panel.
    """
    X, y, w, names = _design(rows, policy)
    beta = np.array([fit.coefficients[name] for name in names])
    fitted = X @ beta
    weighted_resid = (y - fitted) * np.sqrt(w)

    scale = fit.noise_scale_hat if fit.noise_scale_hat > 0 else 1.0
    standardized = np.sort(weighted_resid / scale)
    n = len(rows)
    theoretical = stats.norm.ppf((np.arange(1, n + 1) - 0.5) / n)

    return DiagnosticsBundle(
        residuals_vs_fitted=list(zip(fitted.tolist(), weighted_resid.tolist())),
        qq=list(zip(theoretical.tolist(), standardized.tolist())),
    )


def save_fit(fit: FitResult, path: Path | str) -> None:
    write_json(path, fit.as_dict())


def load_fit(path: Path | str) -> FitResult:
    with parsing(path) as source:
        raw = source.json()
        raw["ci95"] = tuple(raw["ci95"])
        return FitResult(**raw)


def save_diagnostics(bundle: DiagnosticsBundle, residuals_path: Path | str, qq_path: Path | str) -> None:
    write_csv(residuals_path, ["fitted", "weighted_residual"], bundle.residuals_vs_fitted)
    write_csv(qq_path, ["theoretical_quantile", "sample_quantile"], bundle.qq)
