"""Canonical artifact formats: saving a loaded artifact reproduces its bytes."""

import json
from dataclasses import replace

import pytest

from revaudit import assignment as asg
from revaudit import citations as cit
from revaudit import dataset as ds
from revaudit import filtering as flt
from revaudit import nonparametric as npar
from revaudit import parametric as par
from revaudit import synthetic as syn
from revaudit.dataset import VenueConfig
from revaudit.errors import ParseError

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


def load_dataset_beside(path):
    """Load the dataset directory that holds ``path``, its other files valid."""
    for name, content in DATASET_FILES.items():
        if not (path.parent / name).exists():
            (path.parent / name).write_text(content)
    return ds.load_dataset(path.parent, VenueConfig.ec_like())


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
    ).with_override(pairs[0], not relation.indicator(pairs[0]))
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
        "ground_truth": (truth, syn.save_ground_truth, syn.load_ground_truth),
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
        (asg.load_assignment_pairs, "assignment.csv", "submission_id\ns1\n",
         "assignment.csv:2: missing key 'reviewer_id'"),
        (flt.load_filter_report, "filter_report.json", '{"bogus": 1}', "filter_report.json: "),
        (lambda path: flt.load_analysis_dataset(path, VenueConfig.ec_like()),
         "analysis.jsonl", '{"bogus": 1}\n', "analysis.jsonl:1: "),
        (par.load_fit, "fit.json", "{}", "fit.json: missing key 'ci95'"),
        (npar.load_triples, "triples.csv", "submission_id\ns1\n", "triples.csv:2: missing key"),
        (npar.load_permutation_result, "permutation.json", "[]", "permutation.json: "),
        (syn.load_ground_truth, "ground_truth.json", '{"pairs": 3}', "ground_truth.json: "),
        (ds.load_venue_config, "venue.json", "[]", "venue.json: "),
        (load_dataset_beside, "reviews.jsonl", lines(REVIEW, {**REVIEW_2, "score": "5"}),
         "reviews.jsonl:2: wrong shape"),
        (load_dataset_beside, "reviews.jsonl", lines(REVIEW, {**REVIEW_2, "sr_expertise": None}),
         "reviews.jsonl:2: wrong shape"),
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
    ],
    ids=[
        "relation-no-pairs", "relation-list", "relation-row-key", "edits-column",
        "edits-short-row", "assignment-column", "filter-report-key", "analysis-key",
        "fit-key", "triples-column", "permutation-list", "ground-truth-pairs", "venue-list",
        "review-score-string", "review-expertise-null", "review-id-list", "review-extra-key",
        "reviewer-last-name-int", "reviewer-first-name-null", "reviewer-id-list",
        "submission-entries-string", "submission-entry-int", "references-entries-string",
        "references-id-list", "similarity-not-a-number", "overrides-not-an-integer",
    ],
)
def test_wrong_shape_is_parse_error_naming_the_file(load, name, content, message, tmp_path):
    path = tmp_path / name
    path.write_text(content)
    with pytest.raises(ParseError) as info:
        load(path)
    assert str(info.value).startswith(message)

