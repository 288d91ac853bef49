"""Result-table construction and rendering fixtures."""

import pytest

from conftest import analysis_dataset, icml_record
from revaudit.dataset import VenueConfig
from revaudit.errors import ValidationError
from revaudit.filtering import FilterReport
from revaudit.nonparametric import MatchedTriple, PermutationResult
from revaudit.reporting import (
    BiasReport,
    build_nonparametric_report,
    build_parametric_report,
    render_reports_text,
)


def test_parametric_row_renders_like_a_published_table():
    report = BiasReport(
        venue_label="EC_LIKE", analysis="parametric",
        n_submissions=283, n_reviewers=152, n_pairs=840,
        statistic=0.23, ci95=(0.06, 0.40), p_two_sided=0.009, p_method="t",
        scale_points=5, missing_values="Incorporated", missing_citations="Removed",
    )
    text = render_reports_text([report], None)
    assert "0.23 on 5-point scale" in text
    assert "[0.06, 0.40]" in text
    assert "0.009" in text
    assert "283" in text and "152" in text and "840" in text
    assert "Incorporated" in text


def test_nonparametric_row_renders_triples_and_pairs():
    triples = [
        MatchedTriple(
            submission_id=f"s{i}", cited_reviewer_id=f"c{i}",
            uncited_reviewer_id=f"u{i}", score_cited=4.0, score_uncited=3.58,
        )
        for i in range(60)
    ]
    result = PermutationResult(
        statistic=0.42, n_triples=60, p_two_sided=0.02, ci95_bootstrap=(0.10, 0.73),
        iterations=10_000, p_method="monte_carlo",
    )
    report = build_nonparametric_report(result, triples, VenueConfig.icml_like())
    assert report.n_submissions == 60
    assert report.n_pairs == 120
    text = render_reports_text([report], None)
    assert "0.42 on 6-point scale" in text
    assert "[0.10, 0.73]" in text
    assert "0.02" in text


def test_statistic_outside_scale_is_rejected():
    result = PermutationResult(
        statistic=9.0, n_triples=1, p_two_sided=0.5, ci95_bootstrap=None, iterations=100,
        p_method="exact",
    )
    triple = MatchedTriple(
        submission_id="s", cited_reviewer_id="c", uncited_reviewer_id="u",
        score_cited=9.0, score_uncited=0.0,
    )
    with pytest.raises(ValidationError):
        build_nonparametric_report(result, [triple], VenueConfig.icml_like())


def test_parametric_report_cross_checks_filter_totals():
    from revaudit.dataset import VenuePolicy
    from revaudit.parametric import build_rows, fit_wls

    import numpy as np

    rng = np.random.default_rng(15)
    config = VenueConfig.icml_like()
    records = []
    for i in range(12):
        sid = f"s{i:02d}"
        for rid, cited in (("c", True), ("u", False)):
            records.append(icml_record(
                sid, rid, int(rng.integers(2, 6)), cited,
                sr_expertise=int(rng.integers(1, 5)),
                sr_confidence=int(rng.integers(1, 5)),
                text_overlap=float(rng.random()),
                bid=int(rng.integers(3, 6)),
                seniority=int(rng.integers(0, 2)),
            ))
    analysis = analysis_dataset(config, records)
    fit = fit_wls(build_rows(analysis), VenuePolicy.ICML_LIKE)

    good = FilterReport(
        eligible_submissions=12, dropped_missing=0,
        excluded_submissions=[], retained_pairs=24,
    )
    report = build_parametric_report(fit, analysis, good)
    assert report.n_submissions == 12
    assert report.n_pairs == 24
    assert report.missing_citations == "Unaccounted (~5%)"
    assert any("unaccounted" in c for c in report.caveats)

    stale = FilterReport(
        eligible_submissions=11, dropped_missing=0,
        excluded_submissions=[], retained_pairs=24,
    )
    with pytest.raises(ValidationError):
        build_parametric_report(fit, analysis, stale)
