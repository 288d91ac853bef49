"""Canonical artifact formats: saving a loaded artifact reproduces its bytes."""

import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revaudit import artifacts as art
from revaudit import assignment as asg
from revaudit import citations as cit
from revaudit import dataset as ds
from revaudit import filtering as flt
from revaudit import nonparametric as npar
from revaudit import parametric as par
from revaudit import synthetic as syn
from revaudit.artifacts import parsing, write_json
from revaudit.dataset import VenueConfig
from revaudit.errors import ParseError, ValidationError

REVIEWER = {"id": "r1", "last_name": "Doe", "first_name": "Jane", "seniority": 0}
REVIEW = {"submission_id": "s1", "reviewer_id": "r1", "score": 4, "sr_expertise": 3}
REVIEWER_2 = {**REVIEWER, "id": "r2"}
REVIEW_2 = {**REVIEW, "reviewer_id": "r2"}


def lines(*records):
    return "".join(json.dumps(record) + "\n" for record in records)


DATASET_FILES = {
    "reviewers.jsonl": lines(REVIEWER, REVIEWER_2),
    "submissions.jsonl": lines({"id": "s1"}),
    "reviews.jsonl": lines(REVIEW),
}


def venue(edit):
    """An EC-like ``venue.json`` with ``edit`` applied."""
    return json.dumps({"score_min": 1, "score_max": 5, "venue_policy": "EC_LIKE", **edit})


def load_dataset_beside(path):
    """Load the dataset directory that holds ``path``, its other files valid."""
    for name, content in DATASET_FILES.items():
        if not (path.parent / name).exists():
            (path.parent / name).write_text(content)
    return ds.load_dataset(path.parent, VenueConfig.ec_like())


def load_ground_truth(path):
    """Read ``ground_truth.json`` back; no command reads it, so only this test does."""
    with parsing(path) as source:
        payload = source.json()
        pairs = [((row["submission_id"], row["reviewer_id"]), row) for row in payload["pairs"]]
        return syn.GroundTruth(
            citation_bias=payload["citation_bias"],
            quality=payload["quality"],
            cited={pair: row["cited"] for pair, row in pairs},
            latent_scores={pair: row["latent_score"] for pair, row in pairs},
        )


@pytest.fixture(scope="module")
def artifacts():
    config = syn.GeneratorConfig.icml_like(
        n_submissions=150, reviewers_per_paper=5, citation_bias=0.4,
        citation_prevalence=0.45, expertise_weights=(0.05, 0.15, 0.4, 0.4),
        confidence_weights=(0.1, 0.2, 0.4, 0.3), text_overlap_sd=0.06,
        bid_weights=(0.15, 0.55, 0.3), seniority_rate=0.75, seed=4,
    )
    dataset, relation, truth = syn.generate(config)
    pairs = relation.pairs()
    relation = replace(
        relation, ambiguous_pairs=frozenset(pairs[1:3]), warnings=("submission 's0001': note",)
    ).with_overrides({pairs[0]: not relation.indicator(pairs[0])})
    analysis, report = flt.filter_dataset(dataset, relation)
    report = replace(report, excluded_submissions=["s0002", "s0009"])
    fit = par.fit_wls(par.build_rows(analysis), config.policy)
    triples = npar.match(analysis)
    result = npar.permutation_test(triples, iterations=200, seed=1)
    return {
        "relation": (relation, cit.save_relation, cit.load_relation),
        "analysis": (
            analysis,
            flt.save_analysis_dataset,
            lambda path: flt.load_analysis_dataset(path, config.venue),
        ),
        "filter_report": (report, flt.save_filter_report, flt.load_filter_report),
        "fit": (fit, par.save_fit, par.load_fit),
        "triples": (triples, npar.save_triples, npar.load_triples),
        "permutation": (result, npar.save_permutation_result, npar.load_permutation_result),
        "ground_truth": (truth, syn.save_ground_truth, load_ground_truth),
    }


@pytest.mark.parametrize(
    "name",
    ["relation", "analysis", "filter_report", "fit", "triples", "permutation", "ground_truth"],
)
def test_save_load_save_is_byte_identical(artifacts, name, tmp_path):
    obj, save, load = artifacts[name]
    first, second = tmp_path / "first", tmp_path / "second"
    save(obj, first)
    save(load(first), second)
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_bytes()) > 0


@pytest.mark.parametrize(
    "load, name, content, message",
    [
        (cit.load_relation, "relation.json", "{}", "relation.json: missing key 'pairs'"),
        (cit.load_relation, "relation.json", "[1]", "relation.json: wrong shape"),
        (
            cit.load_relation,
            "relation.json",
            '{"pairs": [{"submission_id": "s1", "cited": true}]}',
            "relation.json: missing key 'reviewer_id'",
        ),
        (asg.load_edits, "edits.csv", "action,submission_id\nadd,s1\n",
         "edits.csv:2: missing key 'reviewer_id'"),
        (asg.load_edits, "edits.csv", "submission_id,reviewer_id,action\ns1,r1\n",
         "edits.csv:2: wrong shape"),
        (flt.load_filter_report, "filter_report.json", '{"bogus": 1}', "filter_report.json: "),
        (lambda path: flt.load_analysis_dataset(path, VenueConfig.ec_like()),
         "analysis.jsonl", '{"bogus": 1}\n', "analysis.jsonl:1: "),
        (par.load_fit, "fit.json", "{}", "fit.json: missing key 'ci95'"),
        (npar.load_triples, "triples.csv", "submission_id\ns1\n", "triples.csv:2: missing key"),
        (npar.load_permutation_result, "permutation.json", "[]", "permutation.json: "),
        (ds.load_venue_config, "venue.json", "[]", "venue.json: "),
        (load_dataset_beside, "reviews.jsonl", lines(REVIEW, {**REVIEW_2, "score": "5"}),
         "reviews.jsonl:2: score must be an integer, not str"),
        (load_dataset_beside, "reviews.jsonl", lines(REVIEW, {**REVIEW_2, "sr_expertise": None}),
         "reviews.jsonl:2: sr_expertise must be an integer, not NoneType"),
        (load_dataset_beside, "reviews.jsonl", lines(REVIEW, {**REVIEW, "reviewer_id": ["r2"]}),
         "reviews.jsonl:2: wrong shape"),
        (load_dataset_beside, "reviews.jsonl", lines(REVIEW, {**REVIEW_2, "bogus": 1}),
         "reviews.jsonl:2: wrong shape"),
        (load_dataset_beside, "reviewers.jsonl", lines(REVIEWER, {**REVIEWER_2, "last_name": 5}),
         "reviewers.jsonl:2: last_name must be a string"),
        (load_dataset_beside, "reviewers.jsonl",
         lines(REVIEWER, {**REVIEWER_2, "first_name": None}),
         "reviewers.jsonl:2: first_name must be a string"),
        (load_dataset_beside, "reviewers.jsonl", lines(REVIEWER, {**REVIEWER, "id": ["r2"]}),
         "reviewers.jsonl:2: id must be a string"),
        (load_dataset_beside, "submissions.jsonl",
         '{"id": "s1"}\n{"id": "s2", "reference_entries": "Doe, J. Title. 2020."}\n',
         "submissions.jsonl:2: reference_entries must be a list of strings"),
        (load_dataset_beside, "submissions.jsonl",
         '{"id": "s1"}\n{"id": "s2", "reference_entries": ["Doe, J. Title. 2020.", 5]}\n',
         "submissions.jsonl:2: reference_entries must be a list of strings"),
        (load_dataset_beside, "references.jsonl",
         '{"submission_id": "s1", "entries": "Doe, J. Title. 2020."}\n',
         "references.jsonl:1: entries must be a list of strings"),
        (load_dataset_beside, "references.jsonl", '{"submission_id": ["s1"]}\n',
         "references.jsonl:1: wrong shape"),
        (asg.load_similarity, "similarity.csv",
         "submission_id,reviewer_id,sim\ns1,r1,0.5\ns1,r2,high\n",
         "similarity.csv:3: wrong shape"),
        (cit.load_overrides_csv, "overrides.csv",
         "submission_id,reviewer_id,cited\ns1,r1,yes\n",
         "overrides.csv:2: wrong shape"),
        (load_dataset_beside, "submissions.jsonl",
         lines({"id": "s1"}, {"id": "s2", "withdrawn": "false"}),
         "submissions.jsonl:2: withdrawn must be a boolean, not str"),
        (load_dataset_beside, "reviewers.jsonl",
         lines(REVIEWER, {**REVIEWER_2, "has_text_profile": "no"}),
         "reviewers.jsonl:2: has_text_profile must be a boolean, not str"),
        (load_dataset_beside, "reviewers.jsonl", lines(REVIEWER, {**REVIEWER_2, "seniority": True}),
         "reviewers.jsonl:2: seniority must be an integer, not bool"),
        (load_dataset_beside, "reviews.jsonl", lines(REVIEW, {**REVIEW_2, "score": 3.5}),
         "reviews.jsonl:2: score must be an integer, not float"),
        (load_dataset_beside, "reviews.jsonl", lines(REVIEW, {**REVIEW_2, "sr_expertise": True}),
         "reviews.jsonl:2: sr_expertise must be an integer, not bool"),
        (load_dataset_beside, "reviews.jsonl", lines(REVIEW, {**REVIEW_2, "sr_confidence": 2.5}),
         "reviews.jsonl:2: sr_confidence must be an integer, not float"),
        (load_dataset_beside, "reviews.jsonl", lines(REVIEW, {**REVIEW_2, "bid": True}),
         "reviews.jsonl:2: bid must be an integer, not bool"),
        (load_dataset_beside, "reviews.jsonl",
         lines(REVIEW, {**REVIEW_2, "preference_value": 10.5}),
         "reviews.jsonl:2: preference_value must be an integer, not float"),
        (load_dataset_beside, "reviews.jsonl",
         lines(REVIEW, {**REVIEW_2, "missing_citation_flag": "no"}),
         "reviews.jsonl:2: missing_citation_flag must be a boolean, not str"),
        (load_dataset_beside, "reviews.jsonl",
         lines(REVIEW, {**REVIEW_2, "missing_citation_flag": True, "exclusion_adjudicated": 1}),
         "reviews.jsonl:2: exclusion_adjudicated must be a boolean, not int"),
        (cit.load_relation, "relation.json",
         '{"pairs": [{"submission_id": "s1", "reviewer_id": "r1", "cited": "false"}]}',
         "relation.json: cited must be a boolean, not str"),
        (cit.load_relation, "relation.json",
         '{"pairs": [{"submission_id": "s1", "reviewer_id": "r1", "cited": false, '
         '"override": 1}]}',
         "relation.json: override must be a boolean, not int"),
        (lambda path: flt.load_analysis_dataset(path, VenueConfig.ec_like()), "analysis.jsonl",
         lines({"submission_id": "s1", "reviewer_id": "r1", "score": 4.0, "cited": "false",
                "covariates": {}}),
         "analysis.jsonl:1: cited must be a boolean, not str"),
        (ds.load_venue_config, "venue.json", venue({"score_min": True}),
         "venue.json: score_min must be an integer, not bool"),
        (ds.load_venue_config, "venue.json", venue({"score_max": 5.5}),
         "venue.json: score_max must be an integer, not float"),
        (ds.load_venue_config, "venue.json", venue({"expertise_scale": [1, 4.5]}),
         "venue.json: expertise_scale must be a list of two integers"),
        (ds.load_venue_config, "venue.json", venue({"preference_range": [-100, 0, 100]}),
         "venue.json: preference_range must be a list of two integers"),
        (ds.load_venue_config, "venue.json", venue({"bid_scale": "2-5"}),
         "venue.json: bid_scale must be a list of two integers"),
        (load_dataset_beside, "reviews.jsonl", lines(REVIEW, {**REVIEW_2, "text_overlap": True}),
         "reviews.jsonl:2: text_overlap must be a number, not bool"),
        (lambda path: flt.load_analysis_dataset(path, VenueConfig.ec_like()), "analysis.jsonl",
         lines({"submission_id": "s1", "reviewer_id": "r1", "score": 4.0, "cited": False,
                "covariates": {"sr_expertise": True, "pref_perc": 0.0, "missing_pref": 0.0,
                               "seniority": 1.0}}),
         "analysis.jsonl:1: sr_expertise must be a number, not bool"),
        (lambda path: flt.load_analysis_dataset(path, VenueConfig.ec_like()), "analysis.jsonl",
         lines({"submission_id": "s1", "reviewer_id": "r1", "score": True, "cited": False,
                "covariates": {}}),
         "analysis.jsonl:1: score must be a number, not bool"),
        (cit.load_relation, "relation.json",
         '{"pairs": [{"submission_id": 1, "reviewer_id": "r1", "cited": false}]}',
         "relation.json: submission_id must be a string, not int"),
        (cit.load_relation, "relation.json",
         '{"pairs": [{"submission_id": "s1", "reviewer_id": ["r1"], "cited": false}]}',
         "relation.json: reviewer_id must be a string, not list"),
    ],
    ids=[
        "relation-no-pairs", "relation-list", "relation-row-key", "edits-column",
        "edits-short-row", "filter-report-key", "analysis-key",
        "fit-key", "triples-column", "permutation-list", "venue-list",
        "review-score-string", "review-expertise-null", "review-id-list", "review-extra-key",
        "reviewer-last-name-int", "reviewer-first-name-null", "reviewer-id-list",
        "submission-entries-string", "submission-entry-int", "references-entries-string",
        "references-id-list", "similarity-not-a-number", "overrides-not-an-integer",
        "submission-withdrawn-string", "reviewer-text-profile-string", "reviewer-seniority-bool",
        "review-score-fraction", "review-expertise-bool", "review-confidence-fraction",
        "review-bid-bool", "review-preference-fraction", "review-flag-string",
        "review-adjudicated-int", "relation-cited-string", "relation-override-int",
        "analysis-cited-string", "venue-score-min-bool", "venue-score-max-fraction",
        "venue-expertise-scale-fraction", "venue-preference-range-length",
        "venue-bid-scale-string", "review-overlap-bool", "analysis-covariate-bool",
        "analysis-score-bool", "relation-submission-id-int", "relation-reviewer-id-list",
    ],
)
def test_wrong_shape_is_parse_error_naming_the_file(load, name, content, message, tmp_path):
    path = tmp_path / name
    path.write_text(content)
    with pytest.raises(ParseError) as info:
        load(path)
    assert str(info.value).startswith(message)



ANALYSIS_RECORD = {"submission_id": "s1", "reviewer_id": "r1", "score": 4.0, "cited": False,
                   "covariates": {"sr_expertise": 3.0, "pref_perc": 0.5, "missing_pref": 0.0,
                                  "seniority": 1.0}}
RELATION_ROW = {"submission_id": "s1", "reviewer_id": "r1", "cited": False, "ambiguous": False}


@pytest.mark.parametrize("load, name, content, message", [
    (cit.load_relation, "relation.json",
     json.dumps({"pairs": [RELATION_ROW, {**RELATION_ROW, "reviewer_id": "r2"},
                           {**RELATION_ROW, "cited": True}]}),
     "relation.json: duplicate pair ('s1', 'r1')"),
    (lambda path: flt.load_analysis_dataset(path, VenueConfig.ec_like()), "analysis.jsonl",
     lines(ANALYSIS_RECORD, {**ANALYSIS_RECORD, "reviewer_id": "r2"},
           {**ANALYSIS_RECORD, "cited": True}),
     "analysis.jsonl:3: duplicate record for pair ('s1', 'r1')"),
    (asg.load_similarity, "similarity.csv",
     "submission_id,reviewer_id,sim\ns1,r1,0.9\ns1,r2,0.5\ns1,r1,0.1\n",
     "similarity.csv:4: duplicate pair ('s1', 'r1')"),
    (cit.load_overrides_csv, "overrides.csv",
     "submission_id,reviewer_id,cited\ns1,r1,1\ns1,r2,1\ns1,r1,0\n",
     "overrides.csv:4: duplicate pair ('s1', 'r1')"),
], ids=["relation", "analysis", "similarity", "overrides"])
def test_a_repeated_pair_is_a_validation_error_naming_it(load, name, content, message, tmp_path):
    path = tmp_path / name
    path.write_text(content)
    with pytest.raises(ValidationError) as info:
        load(path)
    assert str(info.value) == message


def test_an_integer_text_overlap_is_a_number(tmp_path):
    path = tmp_path / "reviews.jsonl"
    path.write_text(lines({**REVIEW, "text_overlap": 1}, {**REVIEW_2, "text_overlap": 0}))
    dataset = load_dataset_beside(path)
    assert [r.text_overlap for r in dataset.reviews] == [1, 0]


@pytest.mark.parametrize("content, expected", [
    ('{"a": 1}\r\n{"b": [2, 3]}\r\n', [{"a": 1}, {"b": [2, 3]}]),
    ('  {"a": 1}  \n\t{"b": 2}\t\n', [{"a": 1}, {"b": 2}]),
    ('﻿{"a": 1}\n', "x.jsonl:1: malformed JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    ('\n   \n\t\r\n{"a": 1}\n\x0c\n\n', [{"a": 1}]),
    ('{"a": 1} {"b": 2}\n', "x.jsonl:1: malformed JSON (Extra data)"),
    ('{"a":\n 1}\n', "x.jsonl:1: malformed JSON (Expecting value)"),
    ('{"a": 1}\n3\n', "x.jsonl:2: expected a JSON object"),
    ("NaN\n", "x.jsonl:1: expected a JSON object"),
    ('{"a": NaN, "b": -Infinity}\n', [{"a": float("nan"), "b": float("-inf")}]),
    ('{"a": 1}\x0c\n', "x.jsonl:1: malformed JSON (Extra data)"),
    (' {"a": 1}\n', "x.jsonl:1: malformed JSON (Expecting value)"),
    ('{"a": 1}\n{"b": "x"}', [{"a": 1}, {"b": "x"}]),
    ('{"a": 1}\r{"b": 2}\n', [{"a": 1}, {"b": 2}]),
    ('{"a": 1}\n{"truncated": \n', "x.jsonl:2: malformed JSON (Expecting value)"),
], ids=[
    "crlf", "outer-spaces", "bom", "blank-lines", "two-objects", "split-object", "scalar",
    "nan-line", "nan-values", "form-feed-after", "nbsp-before", "no-final-newline", "lone-cr",
    "truncated",
])
def test_json_lines_reader_objects_and_errors(content, expected, tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_bytes(content.encode("utf-8"))
    if isinstance(expected, str):
        with pytest.raises(ParseError) as info:
            with parsing(path) as source:
                list(source.jsonl())
        assert str(info.value) == expected
    else:
        with parsing(path) as source:
            assert repr(list(source.jsonl())) == repr(expected)


# Strings that could be taken for layout: a row separator, raw newlines, escapes.
TRICKY_TEXT = ['"', "\\", "\n", "},\n", "},\n    {", '"},\n  {"a": 1', "é ☃ 𝄞"]
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 5e-324]),
    st.text(),
    st.sampled_from(TRICKY_TEXT),
)
KEYS = st.text() | st.sampled_from(TRICKY_TEXT)
# json.dump writes number and bool keys as text; numbers and bools sort together.
NUMBER_KEYS = st.one_of(st.integers(), st.floats(), st.booleans())
ROWS = st.lists(st.dictionaries(KEYS, SCALARS, min_size=1, max_size=4), min_size=1, max_size=7)
VALUES = st.recursive(
    SCALARS | ROWS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
        st.dictionaries(NUMBER_KEYS, inner, max_size=3),
    ),
    max_leaves=24,
)


@given(obj=VALUES, block=st.sampled_from([1, 2, 3, art.ROW_BLOCK]))
@settings(max_examples=400, deadline=None)
def test_write_json_writes_the_bytes_of_json_dump(obj, block, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "write_json.json"
    with mock.patch.object(art, "ROW_BLOCK", block):
        write_json(path, obj)
    assert path.read_bytes() == (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def test_write_json_memory_is_bounded_by_the_row_block(tmp_path):
    rows = [
        {"submission_id": f"s{i:06d}", "reviewer_id": f"r{i:06d}", "cited": i % 3 == 0,
         "ambiguous": i % 11 == 0}
        for i in range(200_000)
    ]
    # A flat object as large, like ground_truth.json's "quality".
    quality = {row["submission_id"]: i for i, row in enumerate(rows)}
    tracemalloc.start()
    try:
        write_json(tmp_path / "ground_truth.json", {"pairs": rows, "quality": quality})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"write_json peaked at {peak / 2**20:.1f} MB"
