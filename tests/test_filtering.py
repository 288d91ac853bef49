"""Eligibility, missing-value policy, exclusion handling, and missingness counts."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    build_dataset, relation_for, review, reviewer, reviews_by_submission, submission,
)
from revaudit.dataset import VenueConfig, VenuePolicy
from revaudit.errors import NoAnalyzableDataError
from revaudit.filtering import (
    filter_dataset,
    missingness_report,
    save_analysis_dataset,
)
from revaudit.synthetic import GeneratorConfig, generate


def ec_three_reviewers():
    reviewers = [reviewer(f"r{i}") for i in (1, 2, 3)]
    subs = [submission("s1")]
    reviews = [
        review("s1", "r1", 4, sr_expertise=3, preference_value=10),
        review("s1", "r2", 5, sr_expertise=2, preference_value=20),
        review("s1", "r3", 3, sr_expertise=2, preference_value=30),
    ]
    return build_dataset(VenueConfig.ec_like(), reviewers, subs, reviews)


def test_submission_with_both_strata_is_eligible():
    dataset = ec_three_reviewers()
    relation = relation_for(dataset, {("s1", "r1"), ("s1", "r2")})
    analysis, report = filter_dataset(dataset, relation)
    assert report.eligible_submissions == 1
    assert report.retained_pairs == 3


def test_submission_with_single_stratum_is_dropped():
    dataset = ec_three_reviewers()
    relation = relation_for(dataset, set())
    with pytest.raises(NoAnalyzableDataError):
        filter_dataset(dataset, relation)


def test_every_retained_submission_has_both_strata():
    config = GeneratorConfig.icml_like(n_submissions=150, seed=2, render_references=False,
                                       missingness={"bid": 0.1, "text_overlap": 0.1})
    dataset, relation, _ = generate(config)
    analysis, _ = filter_dataset(dataset, relation)
    for sid, records in analysis.by_submission.items():
        cited = sum(1 for r in records if r.cited)
        assert 1 <= cited < len(records)


def test_icml_missing_covariates_drop_pairs_then_recheck():
    reviewers = [reviewer(f"r{i}") for i in (1, 2, 3)]
    subs = [submission("s1")]
    reviews = [
        # the only cited review has a missing bid, so after the drop the
        # submission loses its cited stratum and leaves the analysis
        review("s1", "r1", 4, sr_expertise=3, sr_confidence=3, text_overlap=0.5),
        review("s1", "r2", 5, sr_expertise=2, sr_confidence=2, text_overlap=0.4, bid=4),
        review("s1", "r3", 3, sr_expertise=2, sr_confidence=2, text_overlap=0.3, bid=3),
    ]
    dataset = build_dataset(VenueConfig.icml_like(), reviewers, subs, reviews)
    relation = relation_for(dataset, {("s1", "r1")})
    with pytest.raises(NoAnalyzableDataError):
        filter_dataset(dataset, relation)


def test_ec_missing_preferences_are_kept_and_encoded():
    reviewers = [reviewer(f"r{i}") for i in (1, 2)]
    subs = [submission("s1")]
    reviews = [
        review("s1", "r1", 4, sr_expertise=3),  # preference missing
        review("s1", "r2", 2, sr_expertise=2, preference_value=15),
    ]
    dataset = build_dataset(VenueConfig.ec_like(), reviewers, subs, reviews)
    relation = relation_for(dataset, {("s1", "r1")})
    analysis, report = filter_dataset(dataset, relation)
    assert report.dropped_missing == 0
    record = analysis.by_submission["s1"][0]
    assert record.covariates["missing_pref"] == 1.0
    assert record.covariates["pref_perc"] == 0.0


def test_adjudicated_flags_exclude_whole_submissions():
    # 110 flagged pairs across 110 submissions; 3 adjudicated valid.
    reviewers = [reviewer("rc"), reviewer("ru")]
    subs = []
    reviews = []
    for i in range(110):
        sid = f"s{i:03d}"
        subs.append(submission(sid))
        flagged = i < 110
        adjudicated = i < 3
        reviews.append(
            review(sid, "rc", 4, sr_expertise=3, preference_value=10)
        )
        reviews.append(
            review(
                sid, "ru", 3, sr_expertise=2, preference_value=20,
                missing_citation_flag=flagged, exclusion_adjudicated=adjudicated,
            )
        )
    dataset = build_dataset(VenueConfig.ec_like(), reviewers, subs, reviews)
    relation = relation_for(dataset, {(s.id, "rc") for s in subs})
    analysis, report = filter_dataset(dataset, relation)
    assert report.excluded_submissions == ["s000", "s001", "s002"]
    assert report.eligible_submissions == 107
    assert report.retained_pairs == 214


def test_exclusion_removes_submissions_not_individual_pairs():
    reviewers = [reviewer(f"r{i}") for i in (1, 2, 3)]
    subs = [submission("s1"), submission("s2")]
    reviews = [
        review("s1", "r1", 4, sr_expertise=3, preference_value=10),
        review("s1", "r2", 3, sr_expertise=2, preference_value=20,
               missing_citation_flag=True, exclusion_adjudicated=True),
        review("s1", "r3", 3, sr_expertise=2, preference_value=5),
        review("s2", "r1", 4, sr_expertise=3, preference_value=10),
        review("s2", "r2", 3, sr_expertise=2, preference_value=20),
    ]
    dataset = build_dataset(VenueConfig.ec_like(), reviewers, subs, reviews)
    relation = relation_for(
        dataset, {("s1", "r1"), ("s2", "r1")}
    )
    analysis, report = filter_dataset(dataset, relation)
    assert "s1" not in analysis.by_submission
    assert report.excluded_submissions == ["s1"]
    assert set(analysis.by_submission) == {"s2"}


def test_withdrawn_submissions_never_enter_analysis():
    reviewers = [reviewer(f"r{i}") for i in (1, 2)]
    subs = [submission("s1", withdrawn=True), submission("s2")]
    reviews = [
        review("s1", "r1", 4, sr_expertise=3, preference_value=10),
        review("s1", "r2", 3, sr_expertise=2, preference_value=20),
        review("s2", "r1", 4, sr_expertise=3, preference_value=10),
        review("s2", "r2", 3, sr_expertise=2, preference_value=20),
    ]
    dataset = build_dataset(VenueConfig.ec_like(), reviewers, subs, reviews)
    relation = relation_for(dataset, {("s1", "r1"), ("s2", "r1")})
    analysis, _ = filter_dataset(dataset, relation)
    assert set(analysis.by_submission) == {"s2"}


def test_filtering_monotone_in_added_reviews():
    # Adding a review record never removes a previously eligible submission
    # at the eligibility step.
    reviewers = [reviewer(f"r{i}") for i in (1, 2, 3)]
    subs = [submission("s1")]
    base_reviews = [
        review("s1", "r1", 4, sr_expertise=3, sr_confidence=3, text_overlap=0.5, bid=4),
        review("s1", "r2", 3, sr_expertise=2, sr_confidence=2, text_overlap=0.4, bid=3),
    ]
    extra = review("s1", "r3", 5, sr_expertise=4, sr_confidence=4, text_overlap=0.6, bid=5)
    config = VenueConfig.icml_like()
    small = build_dataset(config, reviewers, subs, base_reviews)
    large = build_dataset(config, reviewers, subs, base_reviews + [extra])
    cited = {("s1", "r1")}
    a_small, _ = filter_dataset(small, relation_for(small, cited))
    a_large, _ = filter_dataset(large, relation_for(large, cited))
    assert set(a_small.by_submission) <= set(a_large.by_submission)


# --- missingness report ------------------------------------------------------

def test_missingness_report_counts_icml_variables():
    reviewers = [reviewer(f"r{i}") for i in (1, 2)]
    subs = [submission("s1"), submission("s2")]
    reviews = [
        review("s1", "r1", 4, sr_expertise=3, sr_confidence=3, bid=4),  # text missing
        review("s1", "r2", 3, sr_expertise=2, sr_confidence=2, text_overlap=0.4),  # bid missing
        review("s2", "r1", 4, sr_expertise=3, sr_confidence=3, text_overlap=0.5, bid=4),
        review("s2", "r2", 3, sr_expertise=2, sr_confidence=2, text_overlap=0.4, bid=3),
    ]
    dataset = build_dataset(VenueConfig.icml_like(), reviewers, subs, reviews)
    relation = relation_for(dataset, {("s1", "r1"), ("s2", "r1")})
    table = missingness_report(dataset, relation)
    assert table.qualifying_pairs == 4
    assert table.per_variable == {"sr_confidence": 0, "text_overlap": 1, "bid": 1}
    assert table.pairs_with_missing == 2


def test_missingness_report_counts_ec_preferences():
    reviewers = [reviewer(f"r{i}") for i in (1, 2)]
    subs = [submission("s1")]
    reviews = [
        review("s1", "r1", 4, sr_expertise=3),              # missing
        review("s1", "r2", 3, sr_expertise=2, preference_value=15),
    ]
    dataset = build_dataset(VenueConfig.ec_like(), reviewers, subs, reviews)
    relation = relation_for(dataset, {("s1", "r1")})
    table = missingness_report(dataset, relation)
    assert table.qualifying_pairs == 2
    assert table.per_variable == {"preference_value": 1}


def test_missingness_report_all_zero_on_complete_data():
    config = GeneratorConfig.icml_like(n_submissions=50, seed=4, render_references=False)
    dataset, relation, _ = generate(config)
    table = missingness_report(dataset, relation)
    assert table.pairs_with_missing == 0
    assert all(v == 0 for v in table.per_variable.values())


# --- pinned analysis artifact ----------------------------------------------

PINNED = Path(__file__).parent / "data"


def pinned_ec_venue():
    reviewers = [
        reviewer("r1"), reviewer("r2", seniority=1), reviewer("r3"), reviewer("r4", seniority=1)
    ]
    subs = [submission(f"s{i}") for i in (1, 2, 3, 4, 5)]
    reviews = [
        # r1: tied 50s, a 30, a 10 and a stored zero; r2: a negative and a positive;
        # r3: one positive preference; r4: absent preferences only
        review("s1", "r1", 4, sr_expertise=3, preference_value=50),
        review("s1", "r2", 2, sr_expertise=1, preference_value=-5),
        review("s1", "r3", 5, sr_expertise=4, preference_value=70),
        review("s2", "r1", 3, sr_expertise=2, preference_value=50),
        review("s2", "r2", 4, sr_expertise=2, preference_value=30),
        review("s2", "r4", 1, sr_expertise=1),
        review("s3", "r1", 5, sr_expertise=4, preference_value=10),
        review("s3", "r4", 2, sr_expertise=3),
        review("s4", "r1", 3, sr_expertise=2, preference_value=0,
               missing_citation_flag=True, exclusion_adjudicated=True),
        review("s4", "r4", 4, sr_expertise=3),
        review("s5", "r1", 2, sr_expertise=1, preference_value=30),
        review("s5", "r3", 3, sr_expertise=2),
    ]
    dataset = build_dataset(VenueConfig.ec_like(), reviewers, subs, reviews)
    cited = {("s1", "r1"), ("s2", "r2"), ("s3", "r4"), ("s4", "r4"), ("s5", "r3")}
    return dataset, relation_for(dataset, cited)


def pinned_icml_venue():
    reviewers = [
        reviewer("r1", seniority=1), reviewer("r2"),
        reviewer("r3", has_text_profile=False), reviewer("r4", seniority=1),
    ]
    subs = [submission(f"s{i}") for i in (1, 2, 3, 4)]
    reviews = [
        review("s1", "r1", 5, sr_expertise=4, sr_confidence=3, text_overlap=0.0, bid=5),
        review("s1", "r2", 3, sr_expertise=2, sr_confidence=2, text_overlap=1.0, bid=3),
        review("s1", "r3", 4, sr_expertise=3, sr_confidence=4, bid=4),
        review("s2", "r2", 2, sr_expertise=1, text_overlap=0.25, bid=4),
        review("s2", "r4", 6, sr_expertise=4, sr_confidence=4, text_overlap=0.75, bid=5),
        review("s2", "r1", 4, sr_expertise=3, sr_confidence=1, text_overlap=0.125, bid=2),
        review("s3", "r1", 3, sr_expertise=2, sr_confidence=2, text_overlap=0.5),
        review("s3", "r4", 4, sr_expertise=3, sr_confidence=3, text_overlap=0.5, bid=3),
        review("s4", "r2", 1, sr_expertise=1, sr_confidence=1, text_overlap=0.3, bid=3,
               missing_citation_flag=True, exclusion_adjudicated=True),
        review("s4", "r4", 2, sr_expertise=2, sr_confidence=2, text_overlap=0.6, bid=4),
    ]
    dataset = build_dataset(VenueConfig.icml_like(), reviewers, subs, reviews)
    cited = {("s1", "r1"), ("s2", "r4"), ("s3", "r1"), ("s4", "r2")}
    return dataset, relation_for(dataset, cited)


@pytest.mark.parametrize("name, venue", [("ec", pinned_ec_venue), ("icml", pinned_icml_venue)])
def test_analysis_jsonl_bytes_are_pinned(tmp_path, name, venue):
    dataset, relation = venue()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # r2's negative preference
        analysis, _ = filter_dataset(dataset, relation)
    out = tmp_path / "analysis.jsonl"
    save_analysis_dataset(analysis, out)
    assert out.read_bytes() == (PINNED / f"analysis_{name}.jsonl").read_bytes()


def test_integer_text_overlap_is_written_as_float(tmp_path):
    # Covariates come from a float matrix, so a hand-written integer overlap
    # (valid JSON input) is serialized as 1.0 / 0.0, like every other covariate.
    dataset = build_dataset(
        VenueConfig.icml_like(),
        [reviewer("r1"), reviewer("r2")],
        [submission("s1")],
        [
            review("s1", "r1", 4, sr_expertise=3, sr_confidence=3, text_overlap=1, bid=4),
            review("s1", "r2", 2, sr_expertise=2, sr_confidence=2, text_overlap=0, bid=3),
        ],
    )
    analysis, _ = filter_dataset(dataset, relation_for(dataset, {("s1", "r1")}))
    out = tmp_path / "analysis.jsonl"
    save_analysis_dataset(analysis, out)
    lines = out.read_text().splitlines()
    assert '"text_overlap":1.0' in lines[0]
    assert '"text_overlap":0.0' in lines[1]


# --- one eligibility pass ----------------------------------------------------

@pytest.mark.parametrize("config", [VenueConfig.ec_like(), VenueConfig.icml_like()],
                         ids=["ec", "icml"])
@pytest.mark.parametrize("table", ["no-reviews", "all-withdrawn", "unknown-submission"])
def test_a_table_with_nothing_active_raises_and_reports_zeros(config, table):
    reviewers = [reviewer("r1"), reviewer("r2")]
    reviews = [] if table == "no-reviews" else [
        review("s1", "r1", 4, sr_expertise=3),
        review("s1", "r2", 3, sr_expertise=2),
    ]
    subs = {
        "no-reviews": [submission("s1")],
        "all-withdrawn": [submission("s1", withdrawn=True)],
        "unknown-submission": [submission("s2")],  # s1 is not in the table's submissions
    }[table]
    dataset = build_dataset(config, reviewers, subs, reviews)
    relation = relation_for(dataset, {("s1", "r1")})
    with pytest.raises(NoAnalyzableDataError):
        filter_dataset(dataset, relation)
    table = missingness_report(dataset, relation)
    assert (table.qualifying_pairs, table.pairs_with_missing) == (0, 0)
    assert set(table.per_variable.values()) == {0}
    assert all(type(v) is int for v in table.per_variable.values())


@pytest.mark.parametrize("seed", range(5))
def test_missingness_counts_the_pairs_that_filtering_drops(seed):
    config = GeneratorConfig.icml_like(
        n_submissions=120, seed=seed, render_references=False,
        missingness={"sr_confidence": 0.1, "text_overlap": 0.15, "bid": 0.2},
    )
    dataset, relation, _ = generate(config)
    _, report = filter_dataset(dataset, relation)
    table = missingness_report(dataset, relation)
    assert report.dropped_missing > 0
    assert table.pairs_with_missing == report.dropped_missing


def reference_filter(dataset, relation):
    """The filtering rules, one submission at a time, as the module docstring states them."""
    icml = dataset.config.venue_policy == VenuePolicy.ICML_LIKE
    optional = ("sr_confidence", "text_overlap", "bid")

    def both_strata(records):
        n_cited = sum(relation.indicator(r.pair) for r in records)
        return 0 < n_cited < len(records)

    kept, dropped, excluded = {}, 0, []
    for sid, records in sorted(reviews_by_submission(dataset).items()):
        if sid not in dataset.submissions or dataset.submissions[sid].withdrawn:
            continue
        if not both_strata(records):
            continue
        complete = records
        if icml:
            complete = [r for r in records if all(getattr(r, n) is not None for n in optional)]
            dropped += len(records) - len(complete)
            if not both_strata(complete):
                continue
        if any(r.exclusion_adjudicated for r in records):
            excluded.append(sid)
            continue
        kept[sid] = [r.reviewer_id for r in complete]
    return kept, dropped, excluded


@pytest.mark.parametrize("seed", range(6))
def test_masks_follow_the_per_submission_rules(seed):
    rng = np.random.default_rng(seed)
    config = VenueConfig.icml_like() if seed % 2 else VenueConfig.ec_like()
    reviewers = [reviewer(f"r{i}") for i in range(6)]
    subs = [submission(f"s{i:02d}", withdrawn=rng.random() < 0.1) for i in range(40)]
    reviews = []
    for i in range(42):  # s40 and s41 are not among the submissions
        for rid in rng.choice(6, size=rng.integers(0, 5), replace=False):
            flagged = rng.random() < 0.1
            optional = {
                name: value for name, value in
                (("sr_confidence", 2), ("text_overlap", 0.5), ("bid", 3), ("preference_value", 7))
                if rng.random() > 0.15
            }
            reviews.append(review(
                f"s{i:02d}", f"r{rid}", int(rng.integers(1, 6)), sr_expertise=2,
                missing_citation_flag=flagged,
                exclusion_adjudicated=flagged and rng.random() < 0.5, **optional,
            ))
    rng.shuffle(reviews)
    dataset = build_dataset(config, reviewers, subs, reviews)
    relation = relation_for(dataset, {r.pair for r in reviews if rng.random() < 0.4})
    kept, dropped, excluded = reference_filter(dataset, relation)
    assert kept, "the draw should leave something to analyze"
    analysis, report = filter_dataset(dataset, relation)
    assert {sid: [r.reviewer_id for r in records]
            for sid, records in analysis.by_submission.items()} == kept
    assert list(analysis.by_submission) == sorted(kept)
    assert (report.dropped_missing, report.excluded_submissions) == (dropped, excluded)
    assert report.retained_pairs == sum(map(len, kept.values()))
