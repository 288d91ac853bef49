"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
live).  Calibration criteria use fixed seed sequences, so outcomes are
reproducible bit for bit.
"""

import struct
import time
import warnings
from contextlib import contextmanager
from itertools import combinations, product

import numpy as np
import pytest
from scipy import stats

from revaudit.assignment import (
    SCALE,
    AssignmentSpec,
    SimilarityMatrix,
    solve,
    tradeoff_sweep,
)
from revaudit.citations import (
    CitationRelation,
    detect_citations,
    make_author_key,
    parse_reference_entry,
)
from revaudit.dataset import VenueConfig, VenuePolicy
from revaudit.filtering import AnalysisDataset, filter_dataset
from revaudit.nonparametric import (
    MatchedTriple,
    match,
    permutation_test,
)
from revaudit.parametric import AnalysisRow, build_rows, fit_wls
from revaudit.ranking import rank_improvement
from revaudit.synthetic import GeneratorConfig, generate
from conftest import build_dataset, review, reviews_by_submission
from permutation_oracle import exact_permutation_p
from reference_corpus import reference_corpus


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def binomial_upper_bound(nominal: float, reps: int) -> float:
    # one-sided 99% allowance for Monte Carlo noise around the nominal rate
    return nominal + 2.58 * np.sqrt(nominal * (1 - nominal) / reps)


# Matching-friendly covariate profile: yields a few hundred matched triples
# per replication so the integer-score statistic has a fine lattice.
NONPARAM_PROFILE = dict(
    n_submissions=900,
    reviewers_per_paper=5,
    render_references=False,
    expertise_weights=(0.02, 0.08, 0.45, 0.45),
    confidence_weights=(0.05, 0.1, 0.45, 0.4),
    text_overlap_sd=0.05,
    bid_weights=(0.1, 0.6, 0.3),
    seniority_rate=0.8,
    citation_prevalence=0.45,
)


def test_planted_effect_recovery_parametric():
    """500 EC-like conferences, planted effect 0.3, model-exact channel:
    95% CI covers the truth in at least 93% of runs and the mean estimate
    stays within two standard errors; finishes inside two minutes."""
    with criterion("planted-effect-recovery"):
        started = time.time()
        reps = 500
        covered = 0
        estimates = []
        for seed in range(1000, 1000 + reps):
            config = GeneratorConfig.ec_like(
                n_submissions=300, citation_bias=0.3, noise_scale=1.0,
                seed=seed, render_references=False,
            )
            dataset, relation, truth = generate(config)
            analysis, _ = filter_dataset(dataset, relation, scores=truth.latent_scores)
            fit = fit_wls(build_rows(analysis), VenuePolicy.EC_LIKE)
            lo, hi = fit.ci95
            covered += lo <= 0.3 <= hi
            estimates.append(fit.citation_effect)
        elapsed = time.time() - started
        coverage = covered / reps
        mean = float(np.mean(estimates))
        se = float(np.std(estimates, ddof=1) / np.sqrt(reps))
        print(
            f"  coverage {coverage:.3f}, mean {mean:.4f} (se {se:.4f}), {elapsed:.0f}s",
            end=" ",
        )
        assert coverage >= 0.93
        assert abs(mean - 0.3) <= 2 * se
        assert elapsed < 120


def test_null_calibration_both_tests():
    """Planted effect zero, 1,000 replications per test: rejection at the
    0.05 level lands in [0.03, 0.07] for the regression and for the
    permutation test; finishes inside five minutes."""
    with criterion("null-calibration"):
        started = time.time()
        reps = 1000

        wls_rejections = 0
        for seed in range(reps):
            config = GeneratorConfig.ec_like(
                n_submissions=300, citation_bias=0.0, seed=seed,
                render_references=False,
            )
            dataset, relation, truth = generate(config)
            analysis, _ = filter_dataset(dataset, relation, scores=truth.latent_scores)
            fit = fit_wls(build_rows(analysis), VenuePolicy.EC_LIKE)
            wls_rejections += fit.p_values["citation_effect"] <= 0.05

        perm_rejections = 0
        for seed in range(reps):
            config = GeneratorConfig.icml_like(
                seed=100_000 + seed, citation_bias=0.0, **NONPARAM_PROFILE
            )
            dataset, relation, _ = generate(config)
            analysis, _ = filter_dataset(dataset, relation)
            triples = match(analysis)
            result = permutation_test(
                triples, iterations=10_000, seed=seed, bootstrap=False
            )
            perm_rejections += result.p_two_sided <= 0.05

        elapsed = time.time() - started
        wls_rate = wls_rejections / reps
        perm_rate = perm_rejections / reps
        print(f"  wls {wls_rate:.3f}, permutation {perm_rate:.3f}, {elapsed:.0f}s", end=" ")
        assert 0.03 <= wls_rate <= 0.07
        assert 0.03 <= perm_rate <= 0.07
        assert elapsed < 300


def test_confounder_robustness():
    """Citation-expertise correlation 0.5 with zero planted effect: the
    naive mean comparison fires (gap above three standard errors) while both
    implemented tests stay at or below the nominal rejection rate."""
    with criterion("confounder-robustness"):
        confounded_coeffs = {
            "sr_expertise": 0.4, "pref_perc": -0.003,
            "missing_pref": -0.1, "seniority": 0.1,
        }
        config = GeneratorConfig.ec_like(
            n_submissions=2000, citation_bias=0.0, confounder_correlation=0.5,
            covariate_coeffs=confounded_coeffs, seed=7, render_references=False,
        )
        dataset, relation, truth = generate(config)
        latent = truth.latent_scores
        cited = [latent[r.pair] for r in dataset.reviews if relation.indicator(r.pair)]
        uncited = [latent[r.pair] for r in dataset.reviews if not relation.indicator(r.pair)]
        gap = np.mean(cited) - np.mean(uncited)
        se = np.sqrt(
            np.var(cited, ddof=1) / len(cited) + np.var(uncited, ddof=1) / len(uncited)
        )
        naive_z = gap / se
        assert naive_z > 3.0  # the naive comparison raises a false alarm

        reps = 400
        wls_rejections = 0
        for seed in range(reps):
            cfg = GeneratorConfig.ec_like(
                n_submissions=200, citation_bias=0.0, confounder_correlation=0.5,
                covariate_coeffs=confounded_coeffs, seed=200_000 + seed,
                render_references=False,
            )
            ds, rel, tr = generate(cfg)
            analysis, _ = filter_dataset(ds, rel, scores=tr.latent_scores)
            fit = fit_wls(build_rows(analysis), VenuePolicy.EC_LIKE)
            wls_rejections += fit.p_values["citation_effect"] <= 0.05
        wls_rate = wls_rejections / reps

        perm_reps = 300
        perm_rejections = 0
        profile = dict(NONPARAM_PROFILE, n_submissions=500)
        for seed in range(perm_reps):
            cfg = GeneratorConfig.icml_like(
                seed=300_000 + seed, citation_bias=0.0, confounder_correlation=0.5,
                **profile,
            )
            ds, rel, _ = generate(cfg)
            analysis, _ = filter_dataset(ds, rel)
            triples = match(analysis)
            result = permutation_test(triples, iterations=10_000, seed=seed, bootstrap=False)
            perm_rejections += result.p_two_sided <= 0.05
        perm_rate = perm_rejections / perm_reps

        print(
            f"  naive z {naive_z:.1f}, wls {wls_rate:.3f} "
            f"(bound {binomial_upper_bound(0.05, reps):.3f}), "
            f"permutation {perm_rate:.3f} "
            f"(bound {binomial_upper_bound(0.05, perm_reps):.3f})",
            end=" ",
        )
        assert wls_rate <= binomial_upper_bound(0.05, reps)
        assert perm_rate <= binomial_upper_bound(0.05, perm_reps)


def test_wls_exactness_against_normal_equations():
    """Coefficients match the closed-form weighted normal-equation solution
    to 1e-8 on 100 random designs (n up to 200, up to 6 parameters)."""
    with criterion("wls-exactness"):
        rng = np.random.default_rng(314159)
        names = ("sr_expertise", "pref_perc", "missing_pref", "seniority")
        worst = 0.0
        for _ in range(100):
            p_covs = int(rng.integers(1, 5))  # 1..4 covariates plus the constant
            used = names[:p_covs]
            n = int(rng.integers(p_covs + 5, 201))
            X = np.column_stack([np.ones(n), rng.standard_normal((n, p_covs))])
            w = rng.uniform(0.1, 4.0, n)
            beta = rng.standard_normal(p_covs + 1)
            y = X @ beta + rng.standard_normal(n) / np.sqrt(w)
            rows = [
                AnalysisRow(
                    submission_id=f"s{i}",
                    score_delta=float(y[i]),
                    covariate_deltas={
                        name: float(X[i, 1 + j]) if j < p_covs else 0.0
                        for j, name in enumerate(names)
                    },
                    n_cited=1,
                    n_uncited=1,
                    weight=float(w[i]),
                )
                for i in range(n)
            ]
            # zero-filled unused covariates are dropped by the fit
            fit = fit_wls(rows, VenuePolicy.EC_LIKE)
            W = np.diag(w)
            oracle = np.linalg.inv(X.T @ W @ X) @ (X.T @ W @ y)
            got = np.array([fit.citation_effect] + [fit.coefficients[nm] for nm in used])
            worst = max(worst, float(np.max(np.abs(got - oracle))))
        print(f"  worst deviation {worst:.2e}", end=" ")
        assert worst < 1e-8


def test_permutation_exactness_small_k():
    """Monte Carlo p (10,000 iterations) within 0.02 of the full 2^K
    enumeration for every K up to 10."""
    with criterion("permutation-exactness"):
        rng = np.random.default_rng(271828)
        worst = 0.0
        for k in range(1, 11):
            for trial in range(5):
                diffs = rng.integers(-5, 6, size=k).astype(float)
                triples = [
                    MatchedTriple(
                        submission_id=f"s{i}", cited_reviewer_id=f"c{i}",
                        uncited_reviewer_id=f"u{i}", score_cited=float(d),
                        score_uncited=0.0,
                    )
                    for i, d in enumerate(diffs)
                ]
                exact = exact_permutation_p(list(diffs))
                mc = permutation_test(
                    triples, iterations=10_000, seed=k * 100 + trial, bootstrap=False
                ).p_two_sided
                worst = max(worst, abs(mc - exact))
        print(f"  worst |mc - exact| {worst:.4f}", end=" ")
        assert worst <= 0.02


def _enumerate_best(sim: SimilarityMatrix, relation, spec: AssignmentSpec):
    papers = sim.papers()
    reviewers = sim.reviewers()
    allowed = set(sim.allowed_pairs())
    lam_scaled = round(spec.citation_weight * SCALE)
    options = [
        [c for c in combinations(reviewers, spec.paper_load)
         if all((p, r) in allowed for r in c)]
        for p in papers
    ]
    best = None
    for combo in product(*options):
        loads: dict = {}
        feasible = True
        for chosen in combo:
            for r in chosen:
                loads[r] = loads.get(r, 0) + 1
                if loads[r] > spec.reviewer_cap:
                    feasible = False
        if not feasible:
            continue
        pairs = {(p, r) for p, chosen in zip(papers, combo) for r in chosen}
        quality = sum(round(sim.sim[pair] * SCALE) for pair in pairs)
        cited = sum(1 for pair in pairs if relation.indicator(pair))
        objective = quality + lam_scaled * cited
        if best is None or objective > best:
            best = objective
    return best


def test_assignment_optimality_and_sweep_monotonicity():
    """Solver equals exhaustive enumeration on 200 random instances up to
    4 papers x 4 reviewers with loads up to 2, and a 20-point sweep is
    monotone (cited count up, quality down)."""
    with criterion("assignment-optimality"):
        rng = np.random.default_rng(424242)
        checked = 0
        while checked < 200:
            n_papers = int(rng.integers(2, 5))
            n_reviewers = int(rng.integers(2, 5))
            k = int(rng.integers(1, 3))
            cap = int(rng.integers(1, 4))
            if k > n_reviewers or k * n_papers > cap * n_reviewers:
                continue
            papers = [f"p{i}" for i in range(n_papers)]
            reviewers = [f"r{j}" for j in range(n_reviewers)]
            sim = SimilarityMatrix(
                sim={(p, r): float(np.round(rng.random(), 6))
                     for p in papers for r in reviewers}
            )
            relation = CitationRelation(
                cited={(p, r): bool(rng.random() < 0.3)
                       for p in papers for r in reviewers}
            )
            weight = float(rng.choice([0.0, 0.2, 0.7, 1.5, 4.0]))
            spec = AssignmentSpec(paper_load=k, reviewer_cap=cap, citation_weight=weight)
            result = solve(sim, relation, spec)
            got = sum(round(sim.sim[pair] * SCALE) for pair in result.pairs)
            got += round(weight * SCALE) * result.cited_count
            assert got == _enumerate_best(sim, relation, spec), (checked, weight)
            checked += 1

        rng = np.random.default_rng(31337)
        papers = [f"p{i}" for i in range(6)]
        reviewers = [f"r{j}" for j in range(9)]
        sim = SimilarityMatrix(
            sim={(p, r): float(rng.random()) for p in papers for r in reviewers}
        )
        relation = CitationRelation(
            cited={(p, r): bool(rng.random() < 0.25) for p in papers for r in reviewers}
        )
        lambdas = [round(0.1 * i, 2) for i in range(20)]
        points = tradeoff_sweep(sim, relation, AssignmentSpec(2, 2, 0.0), lambdas)
        for a, b in zip(points, points[1:]):
            assert b.cited_count >= a.cited_count
            assert b.objective_quality <= a.objective_quality + 1e-12
        print(f"  200 instances exact, sweep monotone over {len(points)} points", end=" ")


def test_parser_fidelity_on_generated_corpus():
    """Render-then-parse identity on at least 1,000 generated entries across
    the six formats: zero false negatives, and every constructed key
    collision flagged."""
    with criterion("parser-fidelity"):
        config = GeneratorConfig.ec_like(n_submissions=650, n_reviewers=20, seed=777)
        corpus = reference_corpus(config)
        assert len(corpus.entries) >= 1000
        formats_seen = set()
        false_negatives = 0
        for entry in corpus.entries:
            formats_seen.add(entry.format_id)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                parsed = parse_reference_entry(entry.text)
            got = {make_author_key(last, first) for last, first in parsed if first}
            want = {make_author_key(last, first) for last, first in entry.authors}
            false_negatives += len(want - got)
        assert formats_seen == set(range(6))
        assert false_negatives == 0

        # key-collision flagging through the full detection path
        dataset = build_dataset(
            VenueConfig.ec_like(),
            corpus.reviewers,
            corpus.submissions,
            [review(s.id, r.id, 3, sr_expertise=2)
             for s in corpus.submissions for r in corpus.reviewers],
        )
        relation = detect_citations(dataset, dataset.review_pairs())
        colliding_ids = {
            r.id for r in corpus.reviewers
            if make_author_key(r.last_name, r.first_name) in corpus.colliding_keys
        }
        expected_ambiguous = {
            (s.id, rid)
            for s in corpus.submissions
            for rid in colliding_ids
            if corpus.embedded_truth[(s.id, rid)]
        }
        assert expected_ambiguous <= relation.ambiguous_pairs
        for pair in relation.ambiguous_pairs:
            assert pair[1] in colliding_ids
        print(
            f"  {len(corpus.entries)} entries, 0 false negatives, "
            f"{len(relation.ambiguous_pairs)} collision pairs flagged",
            end=" ",
        )


def test_differencing_invariance_bit_identical():
    """Adding a per-submission constant to every score leaves each analysis
    row and the fitted coefficients bit-identical."""
    with criterion("differencing-invariance"):
        config = GeneratorConfig.ec_like(
            n_submissions=150, citation_bias=0.25, seed=55, render_references=False
        )
        dataset, relation, _ = generate(config)
        analysis, _ = filter_dataset(dataset, relation)
        rows = build_rows(analysis)

        shifts = {sid: (i % 5) - 2 for i, sid in enumerate(analysis.submissions())}
        shifted = AnalysisDataset(
            config=analysis.config,
            by_submission={
                sid: tuple(
                    type(r)(
                        submission_id=r.submission_id, reviewer_id=r.reviewer_id,
                        score=r.score + shifts[sid], cited=r.cited,
                        covariates=r.covariates,
                    )
                    for r in records
                )
                for sid, records in analysis.by_submission.items()
            },
        )
        shifted_rows = build_rows(shifted)
        for a, b in zip(rows, shifted_rows):
            assert struct.pack("d", a.score_delta) == struct.pack("d", b.score_delta)
            assert a.covariate_deltas == b.covariate_deltas
            assert a.weight == b.weight
        fit_a = fit_wls(rows, VenuePolicy.EC_LIKE)
        fit_b = fit_wls(shifted_rows, VenuePolicy.EC_LIKE)
        for name in fit_a.coefficients:
            assert struct.pack("d", fit_a.coefficients[name]) == struct.pack(
                "d", fit_b.coefficients[name]
            )
        assert fit_a.p_values == fit_b.p_values
        print(f"  {len(rows)} rows bit-identical under shifts", end=" ")


def test_effect_size_properties_and_monte_carlo_agreement():
    """A one-point raise never worsens expected rank, the top submission
    gains nothing, and midranks agree with a 100,000-draw random-tie-break
    simulation within 0.2 percentage points on a 50-submission instance."""
    with criterion("effect-size-properties"):
        config = GeneratorConfig.icml_like(n_submissions=80, seed=44, render_references=False)
        dataset, _, _ = generate(config)
        outcome = rank_improvement(dataset)
        assert all(v >= 0.0 for v in outcome.per_pair_improvement.values())
        by_submission = reviews_by_submission(dataset)
        means = {
            sid: float(np.mean([r.score for r in records]))
            for sid, records in by_submission.items()
        }
        best = max(means.values())
        top = [sid for sid, m in means.items() if m == best]
        if len(top) == 1:  # a unique leader has expected rank exactly 1
            for record in by_submission[top[0]]:
                assert outcome.per_pair_improvement[record.pair] == 0.0

        rng = np.random.default_rng(1234)
        scores = {f"s{i:02d}": list(rng.integers(2, 5, size=3)) for i in range(50)}
        icml = VenueConfig.icml_like()
        from conftest import build_dataset as bd, review as rv, reviewer as rev, submission as sub

        reviewers, subs, reviews = [], [], []
        for sid, vals in scores.items():
            subs.append(sub(sid))
            for i, score in enumerate(vals):
                rid = f"{sid}_rev{i}"
                reviewers.append(rev(rid))
                reviews.append(rv(sid, rid, int(score), sr_expertise=2))
        instance = bd(icml, reviewers, subs, reviews)
        outcome = rank_improvement(instance)

        sids = sorted(scores)
        n = len(sids)
        mean_arr = np.array([np.mean(scores[sid]) for sid in sids])
        draws = 100_000
        jitter = rng.random((draws, n))

        def mc_rank(idx, value):
            others = np.delete(mean_arr, idx)
            greater = int(np.sum(others > value))
            ties = [j for j in range(n) if j != idx and mean_arr[j] == value]
            if not ties:
                return 1.0 + greater
            wins = (jitter[:, ties] < jitter[:, [idx]]).sum(axis=1)
            return 1.0 + greater + float(np.mean(wins))

        worst = 0.0
        for idx, sid in enumerate(sids):
            count = len(scores[sid])
            before = mc_rank(idx, mean_arr[idx])
            for j, score in enumerate(scores[sid]):
                new_score = min(score + 1, icml.score_max)
                new_mean = mean_arr[idx] + (new_score - score) / count
                mc_gain = (before - mc_rank(idx, new_mean)) / n * 100.0
                mid_gain = outcome.per_pair_improvement[(sid, f"{sid}_rev{j}")]
                worst = max(worst, abs(mc_gain - mid_gain))
        print(f"  worst midrank-vs-MC gap {worst:.3f}pp", end=" ")
        assert worst <= 0.2
