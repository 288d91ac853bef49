"""Pipeline stages free what they allocate without the cyclic garbage collector.

A stage that leaves reference cycles behind (for example a nested function
that calls itself through its closure) hands its objects to CPython's cyclic
collector, whose full passes over the loaded records are slow and land in
whichever stage runs next.
"""

import gc

import pytest

from revaudit.citations import detect_citations
from revaudit.dataset import VenuePolicy, load_dataset, save_dataset
from revaudit.filtering import filter_dataset, missingness_report
from revaudit.nonparametric import match, permutation_test
from revaudit.parametric import build_rows, diagnostics, fit_wls
from revaudit.ranking import rank_improvement
from revaudit.synthetic import GeneratorConfig, generate

# An ICML-like venue on which the matcher finds triples.
MATCHING = GeneratorConfig.icml_like(
    n_submissions=300, citation_bias=0.3, seed=5, reviewers_per_paper=5,
    expertise_weights=(0.02, 0.08, 0.45, 0.45), confidence_weights=(0.05, 0.1, 0.45, 0.4),
    text_overlap_sd=0.05, bid_weights=(0.1, 0.6, 0.3), seniority_rate=0.8,
    citation_prevalence=0.45,
)


@pytest.fixture(scope="module")
def venue(tmp_path_factory):
    dataset, relation, _ = generate(MATCHING)
    analysis, _ = filter_dataset(dataset, relation)
    rows = build_rows(analysis)
    fit = fit_wls(rows, VenuePolicy.ICML_LIKE)
    triples = match(analysis)
    assert triples
    root = tmp_path_factory.mktemp("venue")
    save_dataset(dataset, root)
    return dict(
        dataset=dataset, relation=relation, analysis=analysis, rows=rows, fit=fit,
        triples=triples, root=root,
    )


STAGES = {
    "generate": lambda v: generate(MATCHING),
    "load_dataset": lambda v: load_dataset(v["root"]),
    "detect_citations": lambda v: detect_citations(v["dataset"], v["dataset"].review_pairs()),
    "filter_dataset": lambda v: filter_dataset(v["dataset"], v["relation"]),
    "missingness_report": lambda v: missingness_report(v["dataset"], v["relation"]),
    "build_rows": lambda v: build_rows(v["analysis"]),
    "fit_wls": lambda v: fit_wls(v["rows"], VenuePolicy.ICML_LIKE),
    "diagnostics": lambda v: diagnostics(v["fit"], v["rows"], VenuePolicy.ICML_LIKE),
    "match": lambda v: match(v["analysis"]),
    "permutation_test": lambda v: permutation_test(v["triples"], iterations=200, seed=3),
    "rank_improvement": lambda v: rank_improvement(v["dataset"]),
}


@pytest.mark.parametrize("stage", STAGES)
def test_a_stage_leaves_no_reference_cycle(venue, stage):
    run = STAGES[stage]
    run(venue)  # a first call may fill module-level caches
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run(venue)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
