"""Row construction, WLS exactness, inference calibration, and diagnostics."""

import math
import struct

import numpy as np
import pytest
from scipy import stats

from conftest import analysis_dataset, analysis_record, ec_config
from revaudit.dataset import VenueConfig, VenuePolicy
from revaudit.errors import RankDeficientError, SampleSizeError
from revaudit.filtering import filter_dataset
from revaudit.parametric import (
    AnalysisRow,
    build_rows,
    diagnostics,
    fit_wls,
)
from revaudit.synthetic import GeneratorConfig, generate


def ec_record(sid, rid, score, cited, sr_expertise=2, pref_perc=50.0,
              missing_pref=0, seniority=0):
    return analysis_record(
        sid, rid, score, cited,
        sr_expertise=sr_expertise, pref_perc=pref_perc,
        missing_pref=missing_pref, seniority=seniority,
    )


def make_rows(score_deltas, covariate_deltas=None, weights=None):
    names = ("sr_expertise", "pref_perc", "missing_pref", "seniority")
    rows = []
    for i, delta in enumerate(score_deltas):
        deltas = {name: 0.0 for name in names}
        if covariate_deltas is not None:
            deltas.update(covariate_deltas[i])
        weight = 1.0 if weights is None else weights[i]
        rows.append(
            AnalysisRow(
                submission_id=f"s{i}", score_delta=delta, covariate_deltas=deltas,
                n_cited=1, n_uncited=1, weight=weight,
            )
        )
    return rows


def test_row_arithmetic_means_and_weight(ec_config):
    records = [
        ec_record("s1", "r1", 4, True),
        ec_record("s1", "r2", 5, True),
        ec_record("s1", "r3", 3, False),
    ]
    rows = build_rows(analysis_dataset(ec_config, records))
    assert len(rows) == 1
    row = rows[0]
    assert row.score_delta == pytest.approx(1.5)
    assert row.weight == pytest.approx(2 / 3)
    assert row.n_cited == 2 and row.n_uncited == 1


def test_identical_covariates_give_zero_deltas(ec_config):
    records = [
        ec_record("s1", "r1", 4, True, sr_expertise=3, pref_perc=20.0, seniority=1),
        ec_record("s1", "r2", 2, False, sr_expertise=3, pref_perc=20.0, seniority=1),
    ]
    rows = build_rows(analysis_dataset(ec_config, records))
    assert all(v == 0.0 for v in rows[0].covariate_deltas.values())


def test_rows_match_brute_force_recomputation():
    config = GeneratorConfig.ec_like(n_submissions=80, citation_bias=0.2, seed=6,
                                     render_references=False)
    dataset, relation, _ = generate(config)
    analysis, _ = filter_dataset(dataset, relation)
    rows = build_rows(analysis)
    by_sid = {row.submission_id: row for row in rows}
    for sid, records in analysis.by_submission.items():
        cited = [r for r in records if r.cited]
        uncited = [r for r in records if not r.cited]
        row = by_sid[sid]
        assert row.score_delta == pytest.approx(
            np.mean([r.score for r in cited]) - np.mean([r.score for r in uncited]),
            abs=1e-12,
        )
        for name in row.covariate_deltas:
            expected = np.mean([r.covariates[name] for r in cited]) - np.mean(
                [r.covariates[name] for r in uncited]
            )
            assert row.covariate_deltas[name] == pytest.approx(expected, abs=1e-12)
        assert row.weight == pytest.approx(
            1.0 / (1.0 / len(cited) + 1.0 / len(uncited))
        )


def test_intercept_only_exact_fit():
    rows = make_rows([0.7, 0.7, 0.7, 0.7, 0.7, 0.7])
    fit = fit_wls(rows, VenuePolicy.EC_LIKE)
    assert fit.citation_effect == pytest.approx(0.7)
    assert fit.noise_scale_hat == pytest.approx(0.0, abs=1e-12)
    assert fit.coefficients["seniority"] == 0.0
    assert np.isnan(fit.std_errors["seniority"])


def test_wls_matches_closed_form_oracle():
    rng = np.random.default_rng(123)
    names = ("sr_expertise", "pref_perc", "missing_pref", "seniority")
    for _ in range(25):
        n = int(rng.integers(12, 200))
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 4))])
        w = rng.uniform(0.2, 3.0, n)
        beta_true = rng.standard_normal(5)
        y = X @ beta_true + rng.standard_normal(n) / np.sqrt(w)
        rows = make_rows(
            y,
            covariate_deltas=[dict(zip(names, X[i, 1:])) for i in range(n)],
            weights=w,
        )
        fit = fit_wls(rows, VenuePolicy.EC_LIKE)
        # Independent closed-form path: solve the weighted normal equations.
        W = np.diag(w)
        beta_oracle = np.linalg.inv(X.T @ W @ X) @ (X.T @ W @ y)
        got = np.array([fit.citation_effect] + [fit.coefficients[n_] for n_ in names])
        assert np.max(np.abs(got - beta_oracle)) < 1e-8
        # standard errors against the textbook covariance
        resid = y - X @ beta_oracle
        df = n - 5
        sigma2 = float(resid @ (w * resid)) / df
        se_oracle = np.sqrt(np.diag(sigma2 * np.linalg.inv(X.T @ W @ X)))
        se_got = np.array(
            [fit.std_errors["citation_effect"]] + [fit.std_errors[n_] for n_ in names]
        )
        assert np.max(np.abs(se_got - se_oracle)) < 1e-8


def test_fit_output_shape_for_reporting():
    rng = np.random.default_rng(42)
    n = 60
    names = ("sr_expertise", "pref_perc", "missing_pref", "seniority")
    X = rng.standard_normal((n, 4))
    y = 0.23 + rng.standard_normal(n) * 0.5
    rows = make_rows(y, covariate_deltas=[dict(zip(names, X[i])) for i in range(n)])
    fit = fit_wls(rows, VenuePolicy.EC_LIKE)
    lo, hi = fit.ci95
    assert lo <= fit.citation_effect <= hi
    assert 0.0 <= fit.p_values["citation_effect"] <= 1.0
    assert fit.n_rows == n
    assert fit.df == n - 5


@pytest.mark.parametrize("policy", [VenuePolicy.EC_LIKE, VenuePolicy.ICML_LIKE])
def test_every_fit_number_is_a_python_float(policy):
    """No NumPy scalar leaks out, so a fit equals its ``fit.json`` copy in type too."""
    fit = fit_wls(_generated_rows(policy, 200, 7), policy)
    numbers = [fit.citation_effect, fit.noise_scale_hat, *fit.ci95]
    for table in (fit.coefficients, fit.std_errors, fit.t_stats, fit.p_values):
        numbers.extend(table.values())
    assert [type(v) for v in numbers] == [float] * len(numbers)
    assert (type(fit.n_rows), type(fit.df)) == (int, int)


def test_rank_deficient_design_names_columns():
    # Exact collinearity must raise.  At noise 2.5e-14 an SVD rank test calls
    # the design deficient while the pivoted-QR rule does not; either way a
    # raise names the columns, and a fit has finite standard errors.
    jitter = np.random.default_rng(17).standard_normal(30)
    for noise in (0.0, 2.5e-14):
        rng = np.random.default_rng(3)
        n = 30
        base = rng.standard_normal(n)
        rows = make_rows(
            rng.standard_normal(n),
            covariate_deltas=[
                {
                    "sr_expertise": base[i],
                    "pref_perc": 2.0 * base[i] + noise * jitter[i],
                    "missing_pref": rng.standard_normal(),
                    "seniority": rng.standard_normal(),
                }
                for i in range(n)
            ],
        )
        try:
            fit = fit_wls(rows, VenuePolicy.EC_LIKE)
        except RankDeficientError as exc:
            assert exc.columns
        else:
            assert noise > 0.0
            assert np.all(np.isfinite(list(fit.std_errors.values())))


def test_near_collinear_designs_name_columns_or_fit_finitely():
    rng = np.random.default_rng(2024)
    names = ("sr_expertise", "pref_perc", "missing_pref", "seniority")
    outcomes = {"raised": 0, "fitted": 0}
    for _ in range(200):
        n = 40
        X = rng.standard_normal((n, 4))
        a, b = rng.choice(4, 2, replace=False)
        noise = 10 ** rng.uniform(-17, -11)
        X[:, b] = rng.uniform(0.5, 3.0) * X[:, a] + noise * rng.standard_normal(n)
        y = 0.2 + X @ rng.standard_normal(4) + rng.standard_normal(n)
        rows = make_rows(
            y,
            covariate_deltas=[dict(zip(names, X[i])) for i in range(n)],
            weights=rng.uniform(0.3, 2.0, n),
        )
        try:
            fit = fit_wls(rows, VenuePolicy.EC_LIKE)
        except RankDeficientError as exc:
            assert exc.columns
            outcomes["raised"] += 1
        else:
            assert np.all(np.isfinite(list(fit.std_errors.values())))
            outcomes["fitted"] += 1
    assert min(outcomes.values()) > 0


def test_too_few_rows_is_sample_size_error():
    rows = make_rows(
        [0.1, 0.2, 0.3],
        covariate_deltas=[
            {"sr_expertise": i, "pref_perc": i * 2, "missing_pref": i % 2, "seniority": 1 - i % 2}
            for i in range(3)
        ],
    )
    with pytest.raises(SampleSizeError):
        fit_wls(rows, VenuePolicy.EC_LIKE)


def test_quality_shift_invariance_is_bit_identical():
    config = GeneratorConfig.ec_like(n_submissions=100, citation_bias=0.2, seed=9,
                                     render_references=False)
    dataset, relation, _ = generate(config)
    analysis, _ = filter_dataset(dataset, relation)
    rows = build_rows(analysis)

    # Shift every score of each submission by a submission-specific constant.
    shifts = {sid: (i % 5) - 2 for i, sid in enumerate(analysis.submissions())}
    shifted = {
        sid: tuple(
            type(r)(
                submission_id=r.submission_id, reviewer_id=r.reviewer_id,
                score=r.score + shifts[sid], cited=r.cited, covariates=r.covariates,
            )
            for r in records
        )
        for sid, records in analysis.by_submission.items()
    }
    shifted_analysis = type(analysis)(config=analysis.config, by_submission=shifted)
    shifted_rows = build_rows(shifted_analysis)

    for a, b in zip(rows, shifted_rows):
        assert struct.pack("d", a.score_delta) == struct.pack("d", b.score_delta)
        assert a.covariate_deltas == b.covariate_deltas
        assert a.weight == b.weight

    fit_a = fit_wls(rows, VenuePolicy.EC_LIKE)
    fit_b = fit_wls(shifted_rows, VenuePolicy.EC_LIKE)
    assert struct.pack("d", fit_a.citation_effect) == struct.pack("d", fit_b.citation_effect)
    assert fit_a.p_values == fit_b.p_values


def test_duplicating_uncited_stratum_changes_only_the_weight(ec_config):
    records = [
        ec_record("s1", "r1", 4, True, sr_expertise=3),
        ec_record("s1", "r2", 3, False, sr_expertise=2),
    ]
    doubled = records + [ec_record("s1", "r3", 3, False, sr_expertise=2)]
    row = build_rows(analysis_dataset(ec_config, records))[0]
    row2 = build_rows(analysis_dataset(ec_config, doubled))[0]
    assert row2.score_delta == row.score_delta
    assert row2.covariate_deltas == row.covariate_deltas
    assert row.weight == pytest.approx(1 / 2)
    assert row2.weight == pytest.approx(1 / (1 / 1 + 1 / 2))


def test_unbiased_recovery_over_replications():
    # Mean estimate over replications close to the planted effect
    # (model-exact latent channel).
    estimates = []
    for seed in range(60):
        config = GeneratorConfig.ec_like(
            n_submissions=150, citation_bias=0.3, seed=seed, render_references=False
        )
        dataset, relation, truth = generate(config)
        analysis, _ = filter_dataset(dataset, relation, scores=truth.latent_scores)
        fit = fit_wls(build_rows(analysis), VenuePolicy.EC_LIKE)
        estimates.append(fit.citation_effect)
    mean = np.mean(estimates)
    se = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
    assert abs(mean - 0.3) <= 2 * se + 1e-9


# --- diagnostics --------------------------------------------------------------

def test_noiseless_linear_data_has_zero_residuals():
    rng = np.random.default_rng(12)
    names = ("sr_expertise", "pref_perc", "missing_pref", "seniority")
    n = 40
    X = rng.standard_normal((n, 4))
    y = 0.4 + X @ np.array([0.2, -0.1, 0.3, 0.05])
    rows = make_rows(y, covariate_deltas=[dict(zip(names, X[i])) for i in range(n)])
    fit = fit_wls(rows, VenuePolicy.EC_LIKE)
    bundle = diagnostics(fit, rows, VenuePolicy.EC_LIKE)
    assert len(bundle.residuals_vs_fitted) == n
    assert len(bundle.qq) == n
    assert max(abs(r) for _, r in bundle.residuals_vs_fitted) < 1e-9


def test_qq_on_standard_normal_residuals_tracks_diagonal():
    rng = np.random.default_rng(2718)
    names = ("sr_expertise", "pref_perc", "missing_pref", "seniority")
    n = 1000
    X = rng.standard_normal((n, 4))
    y = X @ np.array([0.2, -0.1, 0.3, 0.05]) + rng.standard_normal(n)
    rows = make_rows(y, covariate_deltas=[dict(zip(names, X[i])) for i in range(n)])
    fit = fit_wls(rows, VenuePolicy.EC_LIKE)
    bundle = diagnostics(fit, rows, VenuePolicy.EC_LIKE)
    sample = np.array([s for _, s in bundle.qq])
    theo = np.array([t for t, _ in bundle.qq])
    # The +-0.15 band applies to the central quantiles (the extreme order
    # statistics fluctuate by ~0.35 at n=1000 for any correct sampler).
    central = np.abs(theo) <= 2.0
    assert np.max(np.abs(sample[central] - theo[central])) <= 0.15
    ks = stats.kstest(sample, "norm")
    assert ks.pvalue > 0.01


# --- inference formulas against scipy.stats -----------------------------------


def _stats_reference(fit, rows):
    """p-values, CI and Q-Q abscissae by the scipy.stats formulas, as the reference."""
    p_values = {
        name: math.nan if math.isnan(t) else float(2.0 * stats.t.sf(np.abs(t), fit.df))
        for name, t in fit.t_stats.items()
    }
    half = stats.t.ppf(0.975, fit.df) * fit.std_errors["citation_effect"]
    ci95 = (fit.citation_effect - half, fit.citation_effect + half)
    n = len(rows)
    qq = stats.norm.ppf((np.arange(1, n + 1) - 0.5) / n).tolist()
    return p_values, ci95, qq


def _bits(values):
    return [struct.pack("d", v) for v in values]


def _generated_rows(policy, n_submissions, seed):
    maker = GeneratorConfig.ec_like if policy == VenuePolicy.EC_LIKE else GeneratorConfig.icml_like
    config = maker(n_submissions=n_submissions, citation_bias=0.25, seed=seed,
                   render_references=False)
    dataset, relation, _ = generate(config)
    analysis, _ = filter_dataset(dataset, relation)
    return build_rows(analysis)


@pytest.mark.parametrize("policy, n_submissions, seed", [
    (VenuePolicy.EC_LIKE, 400, 31),
    (VenuePolicy.ICML_LIKE, 600, 32),
])
def test_p_values_ci_and_qq_equal_the_scipy_stats_formulas(policy, n_submissions, seed):
    rows = _generated_rows(policy, n_submissions, seed)
    n_params = 1 + len(rows[0].covariate_deltas)
    # Full venue, then prefixes with df = 1, 2, 3 and 10, where Student's t
    # is far from the normal law.
    for n in (len(rows), n_params + 1, n_params + 2, n_params + 3, n_params + 10):
        subset = rows[:n]
        fit = fit_wls(subset, policy)
        p_values, ci95, qq = _stats_reference(fit, subset)
        assert fit.p_values.keys() == p_values.keys()
        assert _bits(fit.p_values.values()) == _bits(p_values.values())
        assert _bits(fit.ci95) == _bits(ci95)
        bundle = diagnostics(fit, subset, policy)
        assert _bits(t for t, _ in bundle.qq) == _bits(qq)


def test_scipy_stats_formulas_with_a_zero_column_and_extreme_t():
    # A zero covariate column reports NaN; a near-exact fit drives |t| far
    # into the tail, where the p-value underflows towards 0.
    rng = np.random.default_rng(77)
    n = 30
    x = rng.standard_normal(n)
    for noise in (1.0, 1e-6, 1e-12):
        y = 0.7 + 0.2 * x + noise * rng.standard_normal(n)
        rows = make_rows(y, covariate_deltas=[{"sr_expertise": x[i]} for i in range(n)])
        fit = fit_wls(rows, VenuePolicy.EC_LIKE)
        p_values, ci95, qq = _stats_reference(fit, rows)
        assert math.isnan(fit.p_values["pref_perc"])
        assert _bits(fit.p_values.values()) == _bits(p_values.values())
        assert _bits(fit.ci95) == _bits(ci95)
        bundle = diagnostics(fit, rows, VenuePolicy.EC_LIKE)
        assert _bits(t for t, _ in bundle.qq) == _bits(qq)
