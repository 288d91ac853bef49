"""Canonical artifact formats: saving a loaded artifact reproduces its bytes."""

from dataclasses import replace

import pytest

from revaudit import citations as cit
from revaudit import filtering as flt
from revaudit import nonparametric as npar
from revaudit import parametric as par
from revaudit import synthetic as syn


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
