"""Author extraction, reviewer keys, citation detection, and audit sampling."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import build_dataset, review, reviewer, submission
from revaudit.citations import (
    CITED,
    UNCITED,
    CitationRelation,
    ReferenceParseWarning,
    audit_sample,
    build_key,
    detect_citations,
    make_author_key,
    normalize_name_part,
    parse_reference_entry,
)
from revaudit.dataset import Reviewer, VenueConfig
from revaudit.errors import ValidationError
from revaudit.synthetic import GeneratorConfig, render_entry
from reference_corpus import reference_corpus


def keys_of(parsed):
    return sorted(make_author_key(last, first) for last, first in parsed if first)


def test_inverted_abbreviated_with_and():
    assert parse_reference_entry("Doe, J. and Roe, A. Paper title. 2020.") == [
        ("Doe", "J"),
        ("Roe", "A"),
    ]


def test_et_al_contributes_no_author():
    assert parse_reference_entry("Jane Doe, Alex Roe, et al. (2019). Title.") == [
        ("Doe", "J"),
        ("Roe", "A"),
    ]


def test_et_al_only_entry_yields_no_authors():
    assert parse_reference_entry("et al. (2010). Some methods.") == []


def test_semicolon_separated_full_names():
    parsed = parse_reference_entry("Doe, Jane; Roe, Alex; Poe, Bo. Title. Venue, 2001.")
    assert parsed == [("Doe", "J"), ("Roe", "A"), ("Poe", "B")]


def test_natural_order_with_ampersand():
    parsed = parse_reference_entry("J. Doe & A. Roe. Deep results. Venue, 1999.")
    assert parsed == [("Doe", "J"), ("Roe", "A")]


def test_serial_comma_inverted_list():
    parsed = parse_reference_entry("Doe, J., Roe, A., and Poe, B. Title words. Venue, 2020.")
    assert parsed == [("Doe", "J"), ("Roe", "A"), ("Poe", "B")]


def test_multi_token_and_hyphenated_last_names():
    parsed = parse_reference_entry(
        "Abraham van Helsing and Ana García-López. Title here. Venue, 2011."
    )
    assert parsed == [("van Helsing", "A"), ("García-López", "A")]


def test_unparseable_entry_warns_and_returns_empty():
    with pytest.warns(ReferenceParseWarning):
        assert parse_reference_entry("%%% 12345 ===") == []


def test_title_with_and_does_not_leak_authors():
    parsed = parse_reference_entry(
        "Doe, J. and Roe, A. Bayesian and Frequentist Methods. Venue, 2020."
    )
    assert parsed == [("Doe", "J"), ("Roe", "A")]


# --- keys -------------------------------------------------------------------

def test_build_key_basic():
    assert build_key(reviewer("r1", last="Doe", first="Jane")).key == "DOE_J"


def test_build_key_collapses_particles_and_spaces():
    key = build_key(reviewer("r1", last="van Helsing", first="Abraham"))
    assert key.key == "VANHELSING_A"
    assert not key.placeholder


def test_build_key_folds_diacritics():
    assert build_key(reviewer("r1", last="Núñez", first="Óscar")).key == "NUNEZ_O"


def test_build_key_empty_first_name_is_placeholder():
    key = build_key(reviewer("r1", last="Doe", first=""))
    assert key.placeholder
    assert key.key == "DOE_?"


def test_normalization_idempotent():
    for text in ("Núñez", "van Helsing", "GARCÍA-LÓPEZ", "O'Connell"):
        once = normalize_name_part(text)
        assert normalize_name_part(once) == once


# --- detection ---------------------------------------------------------------

def detection_dataset(entries, reviewers):
    subs = [submission("s1", entries=entries)]
    reviews = [review("s1", r.id, 3, sr_expertise=2) for r in reviewers]
    return build_dataset(VenueConfig.ec_like(), reviewers, subs, reviews)


def test_unique_key_match_is_cited():
    dataset = detection_dataset(
        ["Doe, J. and Roe, A. Paper title. 2020."],
        [reviewer("r1", last="Doe", first="Jane"), reviewer("r2", last="Poe", first="Bo")],
    )
    relation = detect_citations(dataset, dataset.review_pairs())
    assert relation.indicator(("s1", "r1")) is True
    assert relation.indicator(("s1", "r2")) is False
    assert not relation.ambiguous_pairs


def test_colliding_keys_go_to_ambiguous():
    dataset = detection_dataset(
        ["Smith, J. Important results. 2018."],
        [
            reviewer("r1", last="Smith", first="John"),
            reviewer("r2", last="Smith", first="Jane"),
            reviewer("r3", last="Quinn", first="Ada"),
        ],
    )
    relation = detect_citations(dataset, dataset.review_pairs())
    assert relation.ambiguous_pairs == {("s1", "r1"), ("s1", "r2")}
    assert relation.indicator(("s1", "r1")) is False
    assert relation.indicator(("s1", "r2")) is False
    assert relation.indicator(("s1", "r3")) is False


def test_override_flips_exactly_one_pair():
    dataset = detection_dataset(
        ["Smith, J. Important results. 2018."],
        [reviewer("r1", last="Smith", first="John"), reviewer("r2", last="Smith", first="Jane")],
    )
    relation = detect_citations(dataset, dataset.review_pairs())
    flipped = relation.with_overrides({("s1", "r1"): True})
    assert flipped.indicator(("s1", "r1")) is True
    for pair in relation.pairs():
        if pair != ("s1", "r1"):
            assert flipped.indicator(pair) == relation.indicator(pair)
    assert relation.indicator(("s1", "r1")) is False  # original untouched


def test_override_unknown_pair_rejected():
    relation = CitationRelation(cited={("s1", "r1"): False})
    with pytest.raises(ValidationError):
        relation.with_overrides({("s9", "r9"): True})
    # Every pair is checked before any is applied; the first unknown one is named.
    overrides = {("s9", "r9"): True, ("s1", "r1"): True, ("s5", "r5"): False}
    with pytest.raises(ValidationError, match=r"unknown pair \('s5', 'r5'\)"):
        relation.with_overrides(overrides)
    assert relation.overrides == {}


def test_detection_matches_brute_force_membership():
    config = GeneratorConfig.ec_like(n_submissions=60, n_reviewers=12, seed=5)
    corpus = reference_corpus(config)
    dataset = build_dataset(
        VenueConfig.ec_like(),
        corpus.reviewers,
        corpus.submissions,
        [review(s.id, r.id, 3, sr_expertise=2)
         for s in corpus.submissions for r in corpus.reviewers],
    )
    relation = detect_citations(dataset, dataset.review_pairs())

    # Brute-force oracle: a pair is cited iff the reviewer's key appears among
    # the entry-author keys of the submission, the key is unique in the pool,
    # and no override applies.
    key_counts = {}
    for r in corpus.reviewers:
        key = make_author_key(r.last_name, r.first_name)
        key_counts[key] = key_counts.get(key, 0) + 1
    entry_keys = {}
    for entry in corpus.entries:
        entry_keys.setdefault(entry.submission_id, set()).update(
            make_author_key(last, first) for last, first in entry.authors
        )
    for s in corpus.submissions:
        for r in corpus.reviewers:
            key = make_author_key(r.last_name, r.first_name)
            expected = key in entry_keys.get(s.id, set()) and key_counts[key] == 1
            assert relation.indicator((s.id, r.id)) == expected, (s.id, r.id)


def test_no_spurious_positives_without_key_overlap():
    dataset = detection_dataset(
        ["Quinn, A. Unrelated work. 2017."],
        [reviewer("r1", last="Doe", first="Jane")],
    )
    relation = detect_citations(dataset, dataset.review_pairs())
    assert relation.indicator(("s1", "r1")) is False


def test_relation_round_trips_through_json(tmp_path):
    from revaudit.citations import load_relation, save_relation

    relation = CitationRelation(
        cited={("s1", "r1"): True, ("s1", "r2"): False, ("s2", "r1"): False},
        ambiguous_pairs=frozenset({("s1", "r2")}),
        overrides={("s1", "r2"): True},
        warnings=("submission 's2': no authors parsed",),
    )
    path = tmp_path / "relation.json"
    save_relation(relation, path)
    loaded = load_relation(path)
    assert loaded.cited == relation.cited
    assert loaded.ambiguous_pairs == relation.ambiguous_pairs
    assert loaded.overrides == relation.overrides
    assert loaded.indicator(("s1", "r2")) is True


# --- audit sampling -----------------------------------------------------------

def big_relation(n_cited=1000, n_uncited=400):
    cited = {}
    for i in range(n_cited):
        cited[(f"s{i:04d}", "rc")] = True
    for i in range(n_uncited):
        cited[(f"s{i:04d}", "ru")] = False
    return CitationRelation(cited=cited)


def test_audit_sample_is_deterministic():
    relation = big_relation()
    first = audit_sample(relation, CITED, 50, seed=123)
    second = audit_sample(relation, CITED, 50, seed=123)
    assert first == second
    assert len(first) == 50
    assert len(set(first)) == 50


def test_audit_sample_clamps_to_stratum_size():
    relation = big_relation(n_cited=10, n_uncited=3)
    sample = audit_sample(relation, CITED, 50, seed=1)
    assert len(sample) == 10
    assert audit_sample(relation, UNCITED, 0, seed=1) == []


def test_audit_sample_uniform_inclusion():
    # Chi-square on per-pair inclusion counts over repeated draws.
    relation = big_relation(n_cited=40, n_uncited=1)
    pool = relation.stratum(CITED)
    counts = {pair: 0 for pair in pool}
    draws = 10_000
    take = 5
    for seed in range(draws):
        for pair in audit_sample(relation, CITED, take, seed=seed):
            counts[pair] += 1
    observed = np.array([counts[pair] for pair in pool], dtype=float)
    expected = draws * take / len(pool)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    p = stats.chi2.sf(chi2, df=len(pool) - 1)
    assert p > 0.01


# --- render-then-parse fidelity -----------------------------------------------

@given(text=st.text(max_size=120))
@settings(max_examples=200, deadline=None)
def test_parser_never_raises_on_arbitrary_text(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = parse_reference_entry(text)
    assert isinstance(result, list)
    for last, initial in result:
        assert isinstance(last, str) and last
        assert isinstance(initial, str)


@given(
    n_authors=st.integers(min_value=1, max_value=4),
    fmt=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_render_parse_identity_property(n_authors, fmt, seed):
    rng = np.random.default_rng(seed)
    from revaudit.synthetic import FILLER_LAST_NAMES, POOL_FIRST_NAMES

    authors = [
        (
            FILLER_LAST_NAMES[rng.integers(len(FILLER_LAST_NAMES))],
            POOL_FIRST_NAMES[rng.integers(len(POOL_FIRST_NAMES))],
        )
        for _ in range(n_authors)
    ]
    text = render_entry(authors, fmt, "Robust estimation of tails", "Journal of Methods", 2015)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        parsed = parse_reference_entry(text)
    assert keys_of(parsed) == sorted(make_author_key(l, f) for l, f in authors)
