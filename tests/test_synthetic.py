"""Generator determinism, model fidelity, and the confounding demonstration."""

import tracemalloc
import warnings

import numpy as np
import pytest

from revaudit.citations import detect_citations, parse_reference_entry
from revaudit.dataset import covariate_matrix, load_dataset, policy_covariates, save_dataset
from revaudit.errors import InfeasibleAssignmentError, ValidationError
from revaudit.filtering import filter_dataset
from revaudit.parametric import build_rows, fit_wls
from revaudit.synthetic import (
    GeneratorConfig,
    generate,
    render_entry,
)
from reference_corpus import reference_corpus


def test_determinism_under_seed():
    config = GeneratorConfig.ec_like(n_submissions=30, seed=5)
    a = generate(config)
    b = generate(config)
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert a[2] == b[2]


def test_distinct_seeds_differ():
    base = dict(n_submissions=30, render_references=False)
    d1, _, _ = generate(GeneratorConfig.ec_like(seed=1, **base))
    d2, _, _ = generate(GeneratorConfig.ec_like(seed=2, **base))
    assert any(
        r1.score != r2.score for r1, r2 in zip(d1.reviews, d2.reviews)
    ) or d1.reviews != d2.reviews


def test_generated_data_loads_without_warnings(tmp_path):
    config = GeneratorConfig.icml_like(n_submissions=25, seed=8)
    dataset, _, _ = generate(config)
    save_dataset(dataset, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reloaded = load_dataset(tmp_path)
        covariate_matrix(reloaded)
    assert reloaded.counts == dataset.counts


def test_null_symmetry_of_mean_scores():
    config = GeneratorConfig.ec_like(
        n_submissions=2000, citation_bias=0.0, confounder_correlation=0.0,
        seed=99, render_references=False,
    )
    dataset, relation, _ = generate(config)
    cited_scores = [r.score for r in dataset.reviews if relation.indicator(r.pair)]
    uncited_scores = [r.score for r in dataset.reviews if not relation.indicator(r.pair)]
    gap = np.mean(cited_scores) - np.mean(uncited_scores)
    se = np.sqrt(
        np.var(cited_scores, ddof=1) / len(cited_scores)
        + np.var(uncited_scores, ddof=1) / len(uncited_scores)
    )
    assert abs(gap) <= 3 * se


def test_noiseless_limit_reproduces_rounded_model():
    config = GeneratorConfig.ec_like(
        n_submissions=200, noise_scale=1e-9, citation_bias=0.0,
        covariate_coeffs={"sr_expertise": 0.0, "pref_perc": 0.0,
                          "missing_pref": 0.0, "seniority": 0.0},
        baseline=3.0, quality_coeff=1.0, seed=12, render_references=False,
    )
    dataset, _, truth = generate(config)
    for record in dataset.reviews:
        expected = np.clip(
            np.rint(3.0 + truth.quality[record.submission_id]), 1, 5
        )
        assert record.score == int(expected)


def test_ec_linear_predictor_uses_the_covariate_matrix(tmp_path):
    # Noise far below the tolerance leaves the latent score equal to the
    # linear predictor, which must be built from the analysis covariates.
    config = GeneratorConfig.ec_like(
        n_submissions=200, noise_scale=1e-300, citation_bias=0.4,
        missingness={"preference": 0.3}, seed=21, render_references=False,
    )
    dataset, _, truth = generate(config)
    save_dataset(dataset, tmp_path)
    reloaded = load_dataset(tmp_path)
    matrix = covariate_matrix(reloaded)
    assert matrix[:, 2].min() == 0.0 and matrix[:, 2].max() == 1.0  # both encodings occur
    names = policy_covariates(config.policy)
    coeffs = np.array([config.covariate_coeffs[name] for name in names])
    for record, row in zip(reloaded.reviews, matrix):
        rebuilt = (
            config.baseline
            + config.quality_coeff * truth.quality[record.submission_id]
            + float(coeffs @ row)
            + config.citation_bias * truth.cited[record.pair]
        )
        assert abs(truth.latent_scores[record.pair] - rebuilt) <= 1e-12


def test_latent_variance_decomposition():
    config = GeneratorConfig.icml_like(
        n_submissions=3000, reviewers_per_paper=4, seed=31, render_references=False,
    )
    dataset, _, truth = generate(config)
    latent = np.array([truth.latent_scores[r.pair] for r in dataset.reviews])
    # explained part = latent minus noise has the predictor's variance
    coeffs = config.covariate_coeffs
    predictor = []
    for record in dataset.reviews:
        predictor.append(
            config.baseline
            + config.quality_coeff * truth.quality[record.submission_id]
            + coeffs["sr_expertise"] * record.sr_expertise
            + coeffs["sr_confidence"] * record.sr_confidence
            + coeffs["text_overlap"] * record.text_overlap
            + coeffs["bid"] * record.bid
            + coeffs["seniority"] * dataset.reviewers[record.reviewer_id].seniority
        )
    predictor = np.array(predictor)
    expected_var = config.noise_scale**2 + np.var(predictor)
    assert abs(np.var(latent) - expected_var) / expected_var <= 0.05


def test_prevalence_matches_configuration():
    config = GeneratorConfig.ec_like(
        n_submissions=2000, citation_prevalence=0.35, seed=3, render_references=False
    )
    _, relation, _ = generate(config)
    rate = np.mean([relation.indicator(p) for p in relation.pairs()])
    assert abs(rate - 0.35) <= 0.02


def test_confounding_induces_spurious_gap_but_wls_recovers_null():
    config = GeneratorConfig.ec_like(
        n_submissions=2000, citation_bias=0.0, confounder_correlation=0.5,
        covariate_coeffs={"sr_expertise": 0.4, "pref_perc": -0.003,
                          "missing_pref": -0.1, "seniority": 0.1},
        seed=77, render_references=False,
    )
    dataset, relation, truth = generate(config)
    latent = truth.latent_scores
    cited_scores = [latent[r.pair] for r in dataset.reviews if relation.indicator(r.pair)]
    uncited_scores = [latent[r.pair] for r in dataset.reviews if not relation.indicator(r.pair)]
    gap = np.mean(cited_scores) - np.mean(uncited_scores)
    se = np.sqrt(
        np.var(cited_scores, ddof=1) / len(cited_scores)
        + np.var(uncited_scores, ddof=1) / len(uncited_scores)
    )
    assert gap > 3 * se  # the naive comparison raises a false alarm

    analysis, _ = filter_dataset(dataset, relation, scores=latent)
    fit = fit_wls(build_rows(analysis), dataset.config.venue_policy)
    assert abs(fit.citation_effect) <= 3 * fit.std_errors["citation_effect"]


def test_infeasible_pool_is_an_error():
    with pytest.raises(InfeasibleAssignmentError):
        generate(GeneratorConfig.ec_like(n_submissions=5, reviewers_per_paper=4,
                                         n_reviewers=3, seed=1))


def test_generate_memory_is_bounded_by_the_draw_block():
    # 3,000 submissions x 3,000 reviewers: 9M reviewer keys, 72 MB as one
    # draw and 9 blocks at the default DRAW_BLOCK.  Drawing them at once
    # peaked at 145 MB; the blocked draw peaks near 18 MB.
    config = GeneratorConfig.icml_like(
        n_submissions=3000, reviewers_per_paper=5, render_references=False, seed=1,
    )
    tracemalloc.start()
    try:
        generate(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"generate peaked at {peak / 2**20:.1f} MB"


def test_bad_coefficient_keys_rejected():
    with pytest.raises(ValidationError):
        GeneratorConfig.ec_like(covariate_coeffs={"wrong_name": 1.0})


def test_generated_references_reproduce_planted_relation():
    config = GeneratorConfig.ec_like(n_submissions=80, seed=14)
    dataset, relation, _ = generate(config)
    detected = detect_citations(dataset, dataset.review_pairs())
    assert not detected.ambiguous_pairs
    for pair in dataset.review_pairs():
        assert detected.indicator(pair) == relation.indicator(pair)


# --- parser-oriented corpus ---------------------------------------------------

def test_corpus_flags_exactly_the_planted_collisions():
    config = GeneratorConfig.ec_like(n_submissions=60, n_reviewers=10, seed=20)
    corpus = reference_corpus(config)
    assert corpus.colliding_keys == {"SMITH_J", "ZHANG_W"}


def test_corpus_ground_truth_consistency():
    config = GeneratorConfig.ec_like(n_submissions=40, n_reviewers=8, seed=6)
    corpus = reference_corpus(config)
    by_sid = {}
    for entry in corpus.entries:
        by_sid.setdefault(entry.submission_id, []).append(entry)
    reviewers_by_name = {(r.last_name, r.first_name): r.id for r in corpus.reviewers}
    for submission in corpus.submissions:
        embedded = {
            reviewers_by_name[author]
            for entry in by_sid.get(submission.id, [])
            for author in entry.authors
            if author in reviewers_by_name
        }
        for reviewer in corpus.reviewers:
            assert corpus.embedded_truth[(submission.id, reviewer.id)] == (
                reviewer.id in embedded
            )


def test_et_al_only_render_yields_no_authors():
    text = render_entry([], 4, "Latent methods", "Some Venue", 2012, etal=True)
    assert parse_reference_entry(text) == []


def test_unknown_generator_parameter_is_named():
    with pytest.raises(ValidationError, match="'n_submission'"):
        GeneratorConfig.from_dict({"policy": "EC_LIKE", "n_submission": 10})
    with pytest.raises(ValidationError, match="'venue'"):
        GeneratorConfig.from_dict({"venue": {}})
    with pytest.raises(ValidationError, match="bad generator parameters"):
        GeneratorConfig.from_dict({"n_submissions": "ten"})
