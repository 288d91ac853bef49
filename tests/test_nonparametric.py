"""Matching criteria, maximum matching, permutation test, and bootstrap CI."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import analysis_dataset, icml_record
from matching_oracle import oracle_match
from permutation_oracle import exact_permutation_p
from revaudit import synthetic as syn
from revaudit.dataset import VenueConfig
from revaudit.filtering import filter_dataset
from revaudit.errors import NoAnalyzableDataError, SampleSizeError
from revaudit.nonparametric import (
    MatchedTriple,
    bootstrap_ci,
    compatible,
    match,
    permutation_test,
)


@pytest.fixture
def icml_config():
    return VenueConfig.icml_like()


def triple(diff, i=0):
    return MatchedTriple(
        submission_id=f"s{i}", cited_reviewer_id=f"c{i}", uncited_reviewer_id=f"u{i}",
        score_cited=float(diff), score_uncited=0.0,
    )


def triples_from(diffs):
    return [triple(d, i) for i, d in enumerate(diffs)]


# --- matching criteria ---------------------------------------------------------

def test_compatible_example_within_tolerance():
    cited = icml_record("s1", "c", 5, True, sr_expertise=3, sr_confidence=4,
                        text_overlap=0.55, bid=4, seniority=1)
    uncited = icml_record("s1", "u", 4, False, sr_expertise=3, sr_confidence=4,
                          text_overlap=0.50, bid=5, seniority=1)
    assert compatible(cited, uncited)


def test_bid_three_does_not_match_higher_bids():
    cited = icml_record("s1", "c", 5, True, bid=3)
    uncited = icml_record("s1", "u", 4, False, bid=4)
    assert not compatible(cited, uncited)


def test_overlap_tolerance_boundary_inclusive():
    cited = icml_record("s1", "c", 5, True, text_overlap=0.65)
    uncited = icml_record("s1", "u", 4, False, text_overlap=0.55)
    assert compatible(cited, uncited)
    uncited_far = icml_record("s1", "u2", 4, False, text_overlap=0.54)
    assert not compatible(cited, uncited_far)


def test_expertise_confidence_seniority_must_match_exactly():
    base = dict(sr_confidence=3, text_overlap=0.5, bid=4, seniority=1)
    cited = icml_record("s1", "c", 5, True, sr_expertise=3, **base)
    assert not compatible(cited, icml_record("s1", "u", 4, False, sr_expertise=2, **base))
    cited2 = icml_record("s1", "c", 5, True, **base)
    mismatch = icml_record("s1", "u", 4, False, sr_confidence=2, text_overlap=0.5,
                           bid=4, seniority=1)
    assert not compatible(cited2, mismatch)
    senior_mismatch = icml_record("s1", "u", 4, False, sr_confidence=3, text_overlap=0.5,
                                  bid=4, seniority=0)
    assert not compatible(cited2, senior_mismatch)


# --- maximum matching ------------------------------------------------------------

def brute_force_max_matching(cited, uncited, tol=0.1):
    best = 0
    n = min(len(cited), len(uncited))
    for size in range(n, 0, -1):
        from itertools import combinations
        for c_subset in combinations(range(len(cited)), size):
            for u_perm in permutations(range(len(uncited)), size):
                if all(
                    compatible(cited[i], uncited[j], tol)
                    for i, j in zip(c_subset, u_perm)
                ):
                    return size
    return best


def test_matching_size_equals_brute_force(icml_config):
    rng = np.random.default_rng(8)
    for trial in range(40):
        n_c = int(rng.integers(1, 4))
        n_u = int(rng.integers(1, 4))
        records = []
        for i in range(n_c):
            records.append(icml_record(
                "s1", f"c{i}", 5, True,
                sr_expertise=int(rng.integers(1, 4)), sr_confidence=int(rng.integers(1, 4)),
                text_overlap=float(rng.random()), bid=int(rng.choice([3, 4, 5])),
                seniority=int(rng.integers(0, 2)),
            ))
        for j in range(n_u):
            records.append(icml_record(
                "s1", f"u{j}", 4, False,
                sr_expertise=int(rng.integers(1, 4)), sr_confidence=int(rng.integers(1, 4)),
                text_overlap=float(rng.random()), bid=int(rng.choice([3, 4, 5])),
                seniority=int(rng.integers(0, 2)),
            ))
        analysis = analysis_dataset(icml_config, records)
        triples = match(analysis)
        cited = [r for r in records if r.cited]
        uncited = [r for r in records if not r.cited]
        assert len(triples) == brute_force_max_matching(cited, uncited)
        used_c = [t.cited_reviewer_id for t in triples]
        used_u = [t.uncited_reviewer_id for t in triples]
        assert len(set(used_c)) == len(used_c)
        assert len(set(used_u)) == len(used_u)


def test_matched_triples_satisfy_all_criteria(icml_config):
    rng = np.random.default_rng(21)
    records = []
    for i in range(5):
        records.append(icml_record(
            "s1", f"c{i}", 5, True,
            sr_expertise=int(rng.integers(1, 4)), sr_confidence=int(rng.integers(1, 4)),
            text_overlap=float(rng.random()), bid=int(rng.choice([3, 4, 5])),
            seniority=int(rng.integers(0, 2)),
        ))
        records.append(icml_record(
            "s1", f"u{i}", 4, False,
            sr_expertise=int(rng.integers(1, 4)), sr_confidence=int(rng.integers(1, 4)),
            text_overlap=float(rng.random()), bid=int(rng.choice([3, 4, 5])),
            seniority=int(rng.integers(0, 2)),
        ))
    analysis = analysis_dataset(icml_config, records)
    by_id = {r.reviewer_id: r for r in records}
    for t in match(analysis):
        assert compatible(by_id[t.cited_reviewer_id], by_id[t.uncited_reviewer_id])


def test_matching_is_deterministic(icml_config):
    records = [
        icml_record("s1", "c1", 5, True), icml_record("s1", "c2", 4, True),
        icml_record("s1", "u1", 3, False), icml_record("s1", "u2", 2, False),
    ]
    analysis = analysis_dataset(icml_config, records)
    assert match(analysis) == match(analysis)
    # lexicographic preference: c1 pairs with u1, c2 with u2
    triples = match(analysis)
    assert [(t.cited_reviewer_id, t.uncited_reviewer_id) for t in triples] == [
        ("c1", "u1"), ("c2", "u2"),
    ]


def test_match_requires_matching_covariates():
    from conftest import analysis_record
    from revaudit.errors import ValidationError

    config = VenueConfig.ec_like()
    records = [
        analysis_record("s1", "c", 4, True, sr_expertise=2, pref_perc=10.0,
                        missing_pref=0, seniority=1),
        analysis_record("s1", "u", 3, False, sr_expertise=2, pref_perc=20.0,
                        missing_pref=0, seniority=1),
    ]
    with pytest.raises(ValidationError, match="covariate"):
        match(analysis_dataset(config, records))


# Coarse covariates: small domains, so most pairs are compatible and ties abound.
_reviewer = st.fixed_dictionaries({
    "cited": st.booleans(),
    "sr_expertise": st.integers(1, 2),
    "sr_confidence": st.integers(1, 2),
    "text_overlap": st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5]),
    "bid": st.integers(2, 5),
    "seniority": st.integers(0, 1),
})


@st.composite
def _submissions(draw):
    """Up to three submissions of up to 7 cited and 7 uncited reviewers, with
    ids in random order and a random record order."""
    records = []
    for s in range(draw(st.integers(1, 3))):
        cited = draw(st.lists(_reviewer.map(lambda r: {**r, "cited": True}), max_size=7))
        uncited = draw(st.lists(_reviewer.map(lambda r: {**r, "cited": False}), max_size=7))
        reviewers = cited + uncited
        ids = draw(st.permutations(range(len(reviewers))))
        for rid, r in zip(ids, reviewers):
            records.append(icml_record(
                f"s{s}", f"r{rid:02d}", score=1 + rid % 6, **r,
            ))
    return draw(st.permutations(records))


@given(records=_submissions(), tolerance=st.sampled_from([0.0, 0.1, 0.3]))
@settings(max_examples=300, deadline=None)
def test_match_equals_the_oracle_triple_for_triple(records, tolerance):
    analysis = analysis_dataset(VenueConfig.icml_like(), records)
    assert match(analysis, tolerance) == oracle_match(analysis, tolerance)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("tolerance", [0.02, 0.05, 0.1, 0.3])
def test_match_equals_the_oracle_on_generated_venues(seed, tolerance):
    config = syn.GeneratorConfig.icml_like(
        n_submissions=200, reviewers_per_paper=6, render_references=False,
        expertise_weights=(0.02, 0.08, 0.45, 0.45), confidence_weights=(0.05, 0.1, 0.45, 0.4),
        text_overlap_sd=0.05, bid_weights=(0.1, 0.6, 0.3), seniority_rate=0.8,
        citation_prevalence=0.45, seed=seed,
    )
    dataset, relation, _ = syn.generate(config)
    analysis, _ = filter_dataset(dataset, relation)
    triples = match(analysis, tolerance)
    assert triples == oracle_match(analysis, tolerance)
    assert len(triples) > 20


def test_triples_csv_round_trip(tmp_path):
    from revaudit.nonparametric import load_triples, save_triples

    triples = triples_from([2.0, -1.0, 0.0])
    path = tmp_path / "triples.csv"
    save_triples(triples, path)
    assert load_triples(path) == triples


# --- permutation test ----------------------------------------------------------

def test_two_triples_exact_enumeration():
    triples = triples_from([1.0, 1.0])
    exact = exact_permutation_p([1.0, 1.0])
    # sign patterns of (1,1): taus {1, 0, 0, -1}; |tau| >= 1 in 2 of 4
    assert exact == pytest.approx(0.5)
    result = permutation_test(triples, iterations=10_000, seed=17)
    assert result.statistic == pytest.approx(1.0)
    assert abs(result.p_two_sided - 0.5) <= 0.02


def test_all_zero_differences_give_p_one():
    result = permutation_test(triples_from([0.0, 0.0, 0.0]), iterations=2000, seed=4)
    assert result.statistic == 0.0
    assert result.p_two_sided == 1.0


def test_monte_carlo_matches_enumeration_for_small_k():
    rng = np.random.default_rng(31)
    for k in range(1, 11):
        diffs = [float(rng.integers(-5, 6)) for _ in range(k)]
        exact = exact_permutation_p(diffs)
        result = permutation_test(triples_from(diffs), iterations=10_000, seed=int(k))
        assert abs(result.p_two_sided - exact) <= 0.02, (k, diffs)


def test_permutation_requires_triples():
    with pytest.raises(NoAnalyzableDataError):
        permutation_test([], iterations=100, seed=1)


def test_permutation_deterministic_given_seed():
    triples = triples_from([2.0, -1.0, 1.0, 3.0, 0.0])
    a = permutation_test(triples, iterations=5000, seed=77)
    b = permutation_test(triples, iterations=5000, seed=77)
    assert a == b


def test_report_shape_fixture():
    # Magnitudes of a published nonparametric row: tau 0.42, K 60, p 0.02.
    rng = np.random.default_rng(5)
    diffs = rng.integers(-2, 4, size=60).astype(float)
    result = permutation_test(triples_from(diffs), iterations=10_000, seed=2)
    assert result.n_triples == 60
    assert abs(result.statistic) <= 5.0
    assert 0.0 < result.p_two_sided <= 1.0
    assert result.ci95_bootstrap is not None


# --- bootstrap -------------------------------------------------------------------

def test_bootstrap_degenerate_interval():
    ci = bootstrap_ci(triples_from([2.0, 2.0, 2.0]), iterations=500, seed=9)
    assert ci == (2.0, 2.0)


def test_bootstrap_needs_two_triples():
    with pytest.raises(SampleSizeError):
        bootstrap_ci(triples_from([1.0]), iterations=100, seed=1)


def test_bootstrap_coverage_of_planted_effect():
    rng = np.random.default_rng(451)
    covered = 0
    reps = 500
    effect = 0.5
    for i in range(reps):
        diffs = effect + rng.standard_normal(60)
        lo, hi = bootstrap_ci(triples_from(diffs), iterations=2000, seed=i)
        if lo <= effect <= hi:
            covered += 1
    assert covered / reps >= 0.93


def test_bootstrap_width_shrinks_when_triples_duplicate():
    rng = np.random.default_rng(88)
    for i in range(50):
        diffs = list(rng.integers(-3, 4, size=int(rng.integers(5, 15))).astype(float))
        base = triples_from(diffs)
        doubled = triples_from(diffs + diffs)
        lo1, hi1 = bootstrap_ci(base, iterations=4000, seed=i)
        lo2, hi2 = bootstrap_ci(doubled, iterations=4000, seed=i)
        assert (hi2 - lo2) <= (hi1 - lo1) + 1e-9
