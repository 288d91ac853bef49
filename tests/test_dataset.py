"""Ingestion, validation, covariate derivation, and summary counts."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_dataset, relation_for, review, reviewer, submission
from revaudit.citations import CitationRelation
from revaudit.dataset import (
    ReviewDataset,
    VenueConfig,
    VenuePolicy,
    covariate_matrix,
    load_dataset,
    policy_covariates,
    save_dataset,
    summarize,
)
from revaudit.errors import ParseError, ReferentialError, ValidationError
from revaudit.synthetic import GeneratorConfig, generate


def write_dataset_files(tmp_path, venue, reviewers, submissions, reviews):
    (tmp_path / "venue.json").write_text(json.dumps(venue))
    (tmp_path / "reviewers.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in reviewers)
    )
    (tmp_path / "submissions.jsonl").write_text(
        "".join(json.dumps(s) + "\n" for s in submissions)
    )
    (tmp_path / "reviews.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in reviews)
    )


VENUE_5PT = {"score_min": 1, "score_max": 5, "venue_policy": "EC_LIKE",
             "preference_range": [-100, 100]}


def test_single_record_ingestion(tmp_path):
    write_dataset_files(
        tmp_path,
        VENUE_5PT,
        [{"id": "r1", "last_name": "Doe", "first_name": "Jane", "seniority": 1}],
        [{"id": "s1"}],
        [{"submission_id": "s1", "reviewer_id": "r1", "score": 4, "sr_expertise": 3}],
    )
    dataset = load_dataset(tmp_path)
    assert dataset.counts == (1, 1, 1)
    assert dataset.reviews[0].score == 4


def test_score_out_of_scale_names_the_record(tmp_path):
    venue = {"score_min": 1, "score_max": 6, "venue_policy": "ICML_LIKE", "bid_scale": [2, 5]}
    write_dataset_files(
        tmp_path,
        venue,
        [{"id": "r1", "last_name": "Doe", "first_name": "Jane", "seniority": 1}],
        [{"id": "s1"}],
        [{"submission_id": "s1", "reviewer_id": "r1", "score": 7, "sr_expertise": 3}],
    )
    with pytest.raises(ValidationError, match=r"s1.*r1.*score 7"):
        load_dataset(tmp_path)


VENUE_ICML = {"score_min": 1, "score_max": 6, "venue_policy": "ICML_LIKE", "bid_scale": [2, 5]}
REVIEW_R2 = "review ('s1', 'r2')"


@pytest.mark.parametrize(
    "venue, reviewer_field, review_field, message",
    [
        (VENUE_ICML, {}, {"score": 7}, f"reviews.jsonl:2: {REVIEW_R2} has score 7 outside [1, 6]"),
        (VENUE_5PT, {}, {"sr_expertise": 5},
         f"reviews.jsonl:2: {REVIEW_R2} has sr_expertise 5 outside [1, 4]"),
        (VENUE_ICML, {}, {"sr_confidence": 0},
         f"reviews.jsonl:2: {REVIEW_R2} has sr_confidence 0 outside [1, 4]"),
        (VENUE_ICML, {}, {"bid": 6}, f"reviews.jsonl:2: {REVIEW_R2} has bid 6 outside [2, 5]"),
        (VENUE_5PT, {}, {"preference_value": 101},
         f"reviews.jsonl:2: {REVIEW_R2} has preference_value 101 outside [-100, 100]"),
        (VENUE_ICML, {}, {"text_overlap": 1.5},
         f"reviews.jsonl:2: {REVIEW_R2}: text_overlap must lie in [0, 1]"),
        (VENUE_5PT, {}, {"exclusion_adjudicated": True},
         f"reviews.jsonl:2: {REVIEW_R2}: exclusion_adjudicated requires missing_citation_flag"),
        (VENUE_5PT, {"seniority": 2}, {},
         "reviewers.jsonl:2: reviewer 'r2': seniority must be 0 or 1, got 2"),
        (VENUE_5PT, {"last_name": ""}, {},
         "reviewers.jsonl:2: reviewer 'r2': last_name must be non-empty"),
    ],
    ids=["score", "sr_expertise", "sr_confidence", "bid", "preference_value", "text_overlap",
         "exclusion_adjudicated", "seniority", "last_name"],
)
def test_each_load_rule_names_the_line_and_the_value(
    tmp_path, venue, reviewer_field, review_field, message
):
    """Line 1 of each file is valid; line 2 breaks one rule."""
    write_dataset_files(
        tmp_path,
        venue,
        [
            {"id": "r1", "last_name": "Doe", "first_name": "Jane", "seniority": 1},
            {"id": "r2", "last_name": "Roe", "first_name": "Jo", "seniority": 0, **reviewer_field},
        ],
        [{"id": "s1"}],
        [
            {"submission_id": "s1", "reviewer_id": "r1", "score": 4, "sr_expertise": 3},
            {"submission_id": "s1", "reviewer_id": "r2", "score": 3, "sr_expertise": 2,
             **review_field},
        ],
    )
    with pytest.raises(ValidationError) as caught:
        load_dataset(tmp_path)
    assert str(caught.value) == message


def test_malformed_record_reports_line_number(tmp_path):
    write_dataset_files(tmp_path, VENUE_5PT, [], [], [])
    (tmp_path / "reviewers.jsonl").write_text(
        '{"id": "r1", "last_name": "Doe", "first_name": "J", "seniority": 0}\n'
        "{not json}\n"
    )
    with pytest.raises(ParseError, match="reviewers.jsonl:2"):
        load_dataset(tmp_path)


def test_dangling_reviewer_id_is_referential_error(tmp_path):
    write_dataset_files(
        tmp_path,
        VENUE_5PT,
        [{"id": "r1", "last_name": "Doe", "first_name": "Jane", "seniority": 0}],
        [{"id": "s1"}],
        [{"submission_id": "s1", "reviewer_id": "ghost", "score": 3, "sr_expertise": 2}],
    )
    with pytest.raises(ReferentialError, match="ghost"):
        load_dataset(tmp_path)


def test_withdrawn_submissions_are_kept_but_flagged(tmp_path):
    write_dataset_files(
        tmp_path,
        VENUE_5PT,
        [{"id": "r1", "last_name": "Doe", "first_name": "Jane", "seniority": 0}],
        [{"id": "s1", "withdrawn": True}, {"id": "s2"}],
        [{"submission_id": "s2", "reviewer_id": "r1", "score": 3, "sr_expertise": 2}],
    )
    dataset = load_dataset(tmp_path)
    assert len(dataset.submissions) == 2
    assert [s.id for s in dataset.active_submissions()] == ["s2"]


def test_synthetic_dataset_round_trips_bit_identically(tmp_path):
    config = GeneratorConfig.ec_like(n_submissions=40, n_reviewers=15, seed=3)
    dataset, _, _ = generate(config)
    first = tmp_path / "first"
    second = tmp_path / "second"
    save_dataset(dataset, first)
    reloaded = load_dataset(first)
    save_dataset(reloaded, second)
    for name in ("venue.json", "reviewers.jsonl", "submissions.jsonl", "reviews.jsonl"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_reviews_are_held_in_pair_order(tmp_path):
    dataset, _, _ = generate(GeneratorConfig.icml_like(n_submissions=20, seed=5))
    shuffled = list(dataset.reviews)
    np.random.default_rng(0).shuffle(shuffled)
    assert shuffled != list(dataset.reviews)
    rebuilt = ReviewDataset(
        config=dataset.config, reviewers=dataset.reviewers,
        submissions=dataset.submissions, reviews=tuple(shuffled),
    )
    pairs = [r.pair for r in rebuilt.reviews]
    assert pairs == sorted(pairs)
    assert rebuilt.reviews == dataset.reviews
    save_dataset(dataset, tmp_path / "sorted")
    save_dataset(rebuilt, tmp_path / "shuffled")
    for name in ("venue.json", "reviewers.jsonl", "submissions.jsonl", "reviews.jsonl"):
        assert (tmp_path / "sorted" / name).read_bytes() == (
            tmp_path / "shuffled" / name
        ).read_bytes()


def test_referential_integrity_of_generated_data():
    config = GeneratorConfig.icml_like(n_submissions=30, seed=1, render_references=False)
    dataset, _, _ = generate(config)
    for record in dataset.reviews:
        assert record.submission_id in dataset.submissions
        assert record.reviewer_id in dataset.reviewers


# --- covariate derivation -------------------------------------------------

def ec_dataset(reviews):
    reviewers = [reviewer(rid) for rid in {r.reviewer_id for r in reviews}]
    submissions = [submission(sid) for sid in {r.submission_id for r in reviews}]
    return build_dataset(VenueConfig.ec_like(), reviewers, submissions, reviews)


def covariates_by_pair(dataset):
    names = policy_covariates(dataset.config.venue_policy)
    return {
        record.pair: dict(zip(names, row))
        for record, row in zip(dataset.reviews, covariate_matrix(dataset))
    }


def reference_preference_covariates(dataset):
    """The scalar per-record EC rule: ``(pref_perc, missing_pref)`` per pair."""
    by_reviewer = {}
    for record in dataset.reviews:
        if record.preference_value is not None and record.preference_value > 0:
            by_reviewer.setdefault(record.reviewer_id, []).append(record.preference_value)
    out = {}
    for record in dataset.reviews:
        pref = record.preference_value
        if pref is None or pref == 0:
            out[record.pair] = (0.0, 1)
        elif pref < 0:
            out[record.pair] = (100.0, 0)
        else:
            pool = by_reviewer[record.reviewer_id]
            greater = sum(1 for v in pool if v > pref)
            perc = 0.0 if len(pool) == 1 else 100.0 * greater / (len(pool) - 1)
            out[record.pair] = (perc, 0)
    return out


def test_percentiles_over_two_preferences():
    dataset = ec_dataset([
        review("s1", "r1", 3, sr_expertise=2, preference_value=50),
        review("s2", "r1", 3, sr_expertise=2, preference_value=10),
    ])
    derived = covariates_by_pair(dataset)
    assert derived[("s1", "r1")]["pref_perc"] == 0.0
    assert derived[("s2", "r1")]["pref_perc"] == 100.0


def test_single_preference_maps_to_top():
    dataset = ec_dataset([review("s1", "r1", 3, sr_expertise=2, preference_value=42)])
    derived = covariates_by_pair(dataset)
    assert derived[("s1", "r1")]["pref_perc"] == 0.0
    assert derived[("s1", "r1")]["missing_pref"] == 0


def test_absent_preference_encodes_missingness():
    dataset = ec_dataset([review("s1", "r1", 3, sr_expertise=2)])
    derived = covariates_by_pair(dataset)
    assert derived[("s1", "r1")]["pref_perc"] == 0.0
    assert derived[("s1", "r1")]["missing_pref"] == 1


def test_stored_zero_preference_counts_as_missing():
    dataset = ec_dataset([review("s1", "r1", 3, sr_expertise=2, preference_value=0)])
    derived = covariates_by_pair(dataset)
    assert derived[("s1", "r1")]["missing_pref"] == 1


def test_negative_preference_warns_and_ranks_bottom():
    dataset = ec_dataset([
        review("s1", "r1", 3, sr_expertise=2, preference_value=-5),
        review("s2", "r1", 3, sr_expertise=2, preference_value=30),
    ])
    with pytest.warns(UserWarning, match=r"\('s1', 'r1'\).*negative preference -5"):
        derived = covariates_by_pair(dataset)
    assert derived[("s1", "r1")]["pref_perc"] == 100.0
    assert derived[("s1", "r1")]["missing_pref"] == 0


def test_icml_droppable_marks_missing_covariates():
    reviewers = [reviewer("r1", has_text_profile=False), reviewer("r2")]
    subs = [submission("s1")]
    dataset = build_dataset(
        VenueConfig.icml_like(),
        reviewers,
        subs,
        [
            review("s1", "r1", 3, sr_expertise=2, sr_confidence=3, bid=4),
            review("s1", "r2", 4, sr_expertise=3, sr_confidence=2, text_overlap=0.4, bid=3),
        ],
    )
    derived = covariates_by_pair(dataset)
    assert math.isnan(derived[("s1", "r1")]["text_overlap"])  # text overlap absent
    assert not any(math.isnan(v) for v in derived[("s1", "r2")].values())


def test_covariate_matrix_rows_follow_reviews_and_model_order():
    dataset = build_dataset(
        VenueConfig.icml_like(),
        [reviewer("r1", seniority=1), reviewer("r2")],
        [submission("s1"), submission("s2")],
        [
            review("s1", "r1", 3, sr_expertise=2, sr_confidence=3, text_overlap=1, bid=4),
            review("s2", "r2", 4, sr_expertise=3, bid=3),
        ],
    )
    matrix = covariate_matrix(dataset)
    assert policy_covariates(VenuePolicy.ICML_LIKE) == (
        "sr_expertise", "sr_confidence", "text_overlap", "bid", "seniority"
    )
    assert matrix.dtype == np.float64
    assert matrix[0].tolist() == [2.0, 3.0, 1.0, 4.0, 1.0]
    assert matrix[1, [0, 3, 4]].tolist() == [3.0, 3.0, 0.0]
    assert np.isnan(matrix[1, [1, 2]]).all()


PREFERENCES = st.one_of(
    st.none(), st.just(0), st.integers(min_value=-100, max_value=-1),
    st.integers(min_value=1, max_value=5),  # a narrow range forces ties
)


@given(entries=st.lists(
    st.tuples(st.integers(min_value=1, max_value=4), PREFERENCES), min_size=1, max_size=30,
))
@settings(max_examples=200, deadline=None)
def test_preference_columns_equal_the_scalar_rule(entries):
    reviews = [
        review(f"s{i}", f"r{rid}", 3, sr_expertise=2, preference_value=pref)
        for i, (rid, pref) in enumerate(entries)
    ]
    dataset = ec_dataset(reviews)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        derived = covariates_by_pair(dataset)
    expected = reference_preference_covariates(dataset)
    for pair, (pref_perc, missing_pref) in expected.items():
        assert derived[pair]["pref_perc"] == pref_perc
        assert derived[pair]["missing_pref"] == missing_pref


@given(prefs=st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_pref_perc_weakly_decreasing_in_preference(prefs):
    reviews = [
        review(f"s{i}", "r1", 3, sr_expertise=2, preference_value=p)
        for i, p in enumerate(prefs)
    ]
    derived = covariates_by_pair(ec_dataset(reviews))
    pairs = sorted(
        ((r.preference_value, derived[r.pair]["pref_perc"]) for r in reviews),
        key=lambda t: t[0],
    )
    for (p1, perc1), (p2, perc2) in zip(pairs, pairs[1:]):
        if p2 > p1:
            assert perc2 <= perc1
        assert 0.0 <= perc1 <= 100.0


# --- summary ---------------------------------------------------------------

def test_summary_fixture_rendering():
    from revaudit.dataset import SummaryTable

    table = SummaryTable(
        n_reviewers=3064, n_submissions=4991,
        n_with_cited_reviewer=1513, fraction_with_cited=1513 / 4991,
    )
    text = table.format_text()
    assert "3,064" in text
    assert "4,991" in text
    assert "1,513" in text
    assert "30%" in text


def test_summary_counts_no_citations():
    dataset = ec_dataset([
        review("s1", "r1", 3, sr_expertise=2),
        review("s2", "r1", 4, sr_expertise=2),
    ])
    table = summarize(dataset, relation_for(dataset, set()))
    assert table.n_submissions == 2
    assert table.n_with_cited_reviewer == 0
    assert table.fraction_with_cited == 0.0


def test_summary_tracks_planted_prevalence():
    config = GeneratorConfig.ec_like(
        n_submissions=500, citation_prevalence=0.4, seed=11, render_references=False
    )
    dataset, relation, _ = generate(config)
    table = summarize(dataset, relation)
    # Fraction of submissions with >= 1 cited reviewer out of k=3 draws at 40%.
    expected = 1 - 0.6**3
    assert abs(table.fraction_with_cited - expected) <= 0.03


def test_summary_ignores_withdrawn_submissions():
    reviewers = [reviewer("r1")]
    subs = [submission("s1"), submission("s2", withdrawn=True)]
    dataset = build_dataset(
        VenueConfig.ec_like(), reviewers, subs,
        [review("s1", "r1", 3, sr_expertise=2)],
    )
    table = summarize(dataset, relation_for(dataset, {("s1", "r1")}))
    assert table.n_submissions == 1
    assert table.n_with_cited_reviewer == 1
