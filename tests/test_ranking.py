"""Expected-rank improvement: midrank arithmetic, caps, and the MC oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_dataset, review, reviewer, reviews_by_submission, submission
from revaudit.dataset import VenueConfig
from revaudit.errors import NoAnalyzableDataError, ValidationError
from revaudit.ranking import rank_improvement
from revaudit.synthetic import GeneratorConfig, generate


def score_dataset(scores_by_submission, config=None):
    """scores_by_submission: dict sid -> list of integer scores."""
    config = config or VenueConfig.ec_like()
    reviewers = []
    reviews = []
    subs = []
    for sid, scores in scores_by_submission.items():
        subs.append(submission(sid))
        for i, score in enumerate(scores):
            rid = f"{sid}_rev{i}"
            reviewers.append(reviewer(rid))
            reviews.append(review(sid, rid, score, sr_expertise=2))
    return build_dataset(config, reviewers, subs, reviews)


def test_two_submission_midrank_example():
    dataset = score_dataset({"a": [3], "b": [4]})
    outcome = rank_improvement(dataset)
    # +1 to the score-3 submission ties it with the other: rank 2 -> 1.5,
    # a gain of half a position = 25% of two positions.
    assert outcome.per_pair_improvement[("a", "a_rev0")] == pytest.approx(25.0)
    assert outcome.per_pair_improvement[("b", "b_rev0")] == pytest.approx(0.0)


def test_capped_reviewer_at_ceiling_gains_nothing():
    dataset = score_dataset({"a": [5], "b": [4]})
    outcome = rank_improvement(dataset)
    assert outcome.per_pair_improvement[("a", "a_rev0")] == 0.0
    uncapped = rank_improvement(dataset, cap=False)
    assert uncapped.per_pair_improvement[("a", "a_rev0")] == 0.0  # already top


def test_top_ranked_submission_improves_zero():
    dataset = score_dataset({"a": [5, 5], "b": [3, 3], "c": [2, 4]})
    outcome = rank_improvement(dataset)
    for rid in ("a_rev0", "a_rev1"):
        assert outcome.per_pair_improvement[("a", rid)] == 0.0


def test_one_point_increase_never_worsens_rank():
    config = GeneratorConfig.icml_like(n_submissions=60, seed=13, render_references=False)
    dataset, _, _ = generate(config)
    outcome = rank_improvement(dataset)
    assert all(v >= 0.0 for v in outcome.per_pair_improvement.values())
    assert all(v <= 100.0 for v in outcome.per_pair_improvement.values())


def test_constant_score_shift_changes_nothing():
    base = score_dataset({"a": [2, 3], "b": [3, 4], "c": [1, 2]})
    shifted = score_dataset({"a": [3, 4], "b": [4, 5], "c": [2, 3]})
    out_base = rank_improvement(base)
    out_shift = rank_improvement(shifted)
    for (sid, rid), value in out_base.per_pair_improvement.items():
        twin = (sid, rid)
        assert out_shift.per_pair_improvement[twin] == pytest.approx(value)


def test_average_modes_differ_only_in_weighting():
    dataset = score_dataset({"a": [3], "b": [4, 4, 4]})
    pairs_mode = rank_improvement(dataset, average_over="pairs")
    subs_mode = rank_improvement(dataset, average_over="submissions")
    vals = pairs_mode.per_pair_improvement
    a_gain = vals[("a", "a_rev0")]
    b_gains = [vals[("b", f"b_rev{i}")] for i in range(3)]
    assert pairs_mode.average_improvement == pytest.approx(
        np.mean([a_gain] + b_gains)
    )
    assert subs_mode.average_improvement == pytest.approx(
        np.mean([a_gain, np.mean(b_gains)])
    )


def test_unknown_average_mode_rejected():
    dataset = score_dataset({"a": [3]})
    with pytest.raises(ValidationError):
        rank_improvement(dataset, average_over="reviewer")


def test_empty_dataset_is_an_error():
    dataset = build_dataset(VenueConfig.ec_like(), [], [], [])
    with pytest.raises(NoAnalyzableDataError):
        rank_improvement(dataset)


def test_submission_without_reviews_is_an_error():
    dataset = build_dataset(
        VenueConfig.ec_like(), [reviewer("r1")],
        [submission("s1"), submission("s2")],
        [review("s1", "r1", 3, sr_expertise=2)],
    )
    with pytest.raises(ValidationError, match="s2"):
        rank_improvement(dataset)


def test_midranks_agree_with_random_tie_break_monte_carlo():
    # 50-submission instance with heavy integer ties; the oracle simulates
    # uniform random tie-breaking directly with shared per-draw jitters.
    rng = np.random.default_rng(314)
    scores = {f"s{i:02d}": list(rng.integers(2, 5, size=3)) for i in range(50)}
    config = VenueConfig.icml_like()
    dataset = score_dataset(scores, config=config)
    outcome = rank_improvement(dataset)

    sids = sorted(scores)
    n = len(sids)
    means = np.array([np.mean(scores[sid]) for sid in sids])
    draws = 100_000
    jitter = rng.random((draws, n))

    def mc_expected_rank(idx, value):
        others = np.delete(means, idx)
        greater = int(np.sum(others > value))
        tie_idx = [j for j in range(n) if j != idx and means[j] == value]
        if not tie_idx:
            return 1.0 + greater
        wins = (jitter[:, tie_idx] < jitter[:, [idx]]).sum(axis=1)
        return 1.0 + greater + float(np.mean(wins))

    mc_values = []
    mid_values = []
    for idx, sid in enumerate(sids):
        count = len(scores[sid])
        before = mc_expected_rank(idx, means[idx])
        for j, score in enumerate(scores[sid]):
            new_score = min(score + 1, config.score_max)
            new_mean = means[idx] + (new_score - score) / count
            after = mc_expected_rank(idx, new_mean)
            mc_values.append((before - after) / n * 100.0)
            mid_values.append(outcome.per_pair_improvement[(sid, f"{sid}_rev{j}")])
    mc_avg = float(np.mean(mc_values))
    assert outcome.average_improvement == pytest.approx(np.mean(mid_values))
    assert abs(outcome.average_improvement - mc_avg) <= 0.2


def test_average_improvement_near_published_magnitude():
    # Score profile tuned so the expected-rank gain sits near the ~11%
    # reported for venue-scale data; the target is qualitative.
    values = []
    for seed in (0, 1, 2):
        config = GeneratorConfig.icml_like(
            n_submissions=500, reviewers_per_paper=4, noise_scale=0.7,
            quality_sd=0.35, seed=seed, render_references=False,
        )
        dataset, _, _ = generate(config)
        values.append(rank_improvement(dataset).average_improvement)
    assert abs(float(np.mean(values)) - 11.0) <= 3.0


def per_pair_oracle(dataset, cap, average_over):
    """The per-pair rule: each submission's midranks counted against all other means."""
    by_submission = reviews_by_submission(dataset)
    sids = [s.id for s in dataset.active_submissions()]
    n = len(sids)
    means = np.array([np.mean([r.score for r in by_submission[sid]]) for sid in sids])

    def expected_rank(value, others):
        return 1.0 + int(np.sum(others > value)) + 0.5 * int(np.sum(others == value))

    per_pair, per_submission = {}, []
    for i, sid in enumerate(sids):
        others = np.delete(means, i)
        before = expected_rank(means[i], others)
        records = by_submission[sid]
        gains = []
        for record in records:
            new_score = min(record.score + 1, dataset.config.score_max) if cap else record.score + 1
            after = expected_rank(means[i] + (new_score - record.score) / len(records), others)
            per_pair[record.pair] = (before - after) / n * 100.0
            gains.append(per_pair[record.pair])
        per_submission.append(gains)
    if average_over == "pairs":
        average = float(np.mean([g for gains in per_submission for g in gains]))
    else:
        average = float(np.mean([np.mean(gains) for gains in per_submission]))
    return per_pair, average


@settings(max_examples=150, deadline=None)
@given(
    scores=st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=4), min_size=1, max_size=12),
    cap=st.booleans(),
    average_over=st.sampled_from(["pairs", "submissions"]),
)
def test_sorted_means_match_the_per_pair_rule(scores, cap, average_over):
    # Scores on a 5-point scale with at most four reviews tie many means.
    dataset = score_dataset({f"s{i:02d}": row for i, row in enumerate(scores)})
    outcome = rank_improvement(dataset, cap=cap, average_over=average_over)
    per_pair, average = per_pair_oracle(dataset, cap, average_over)
    assert list(outcome.per_pair_improvement.items()) == list(per_pair.items())
    assert outcome.average_improvement == average
