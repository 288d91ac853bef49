"""Score-shift interpretation: how far a one-point score increase moves a
submission in the mean-score ordering.

Ranks use midranks (expected rank under uniform random tie-breaking), so the
computation is exact instead of Monte Carlo.  Position 1 is the best-scored
submission; improvements are reported as percent of the submission count.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_csv, write_json
from .dataset import Pair, ReviewDataset, number_submissions
from .errors import NoAnalyzableDataError, ValidationError

AVERAGE_OVER_PAIRS = "pairs"
AVERAGE_OVER_SUBMISSIONS = "submissions"


@dataclass(frozen=True)
class RankingOutcome:
    per_pair_improvement: dict[Pair, float]
    average_improvement: float
    n_submissions: int

    def as_dict(self) -> dict:
        return {
            "average_improvement": self.average_improvement,
            "n_submissions": self.n_submissions,
            "n_pairs": len(self.per_pair_improvement),
        }


def _expected_ranks(values: np.ndarray, own: np.ndarray, ordered: np.ndarray) -> np.ndarray:
    """Midrank of each value among all ``ordered`` means except its submission's ``own``.

    ``1 + #{others > value} + #{others == value} / 2``, with counts taken from
    the sorted means and the submission's own mean taken back out.
    """
    above = np.searchsorted(ordered, values, side="right")
    greater = len(ordered) - above - (own > values)
    ties = above - np.searchsorted(ordered, values, side="left") - (own == values)
    return 1.0 + greater + 0.5 * ties


def rank_improvement(
    dataset: ReviewDataset,
    cap: bool = True,
    average_over: str = AVERAGE_OVER_PAIRS,
) -> RankingOutcome:
    """Expected-rank gain from raising one reviewer's score by one point.

    For every (submission, reviewer) pair, the submission's mean initial
    score is recomputed with that reviewer one point higher (capped at the
    score ceiling unless ``cap`` is False) and the gain in expected rank is
    reported as a percent of the submission count.  ``average_over`` selects
    whether the average weights every pair equally or every submission
    equally.
    """
    if average_over not in (AVERAGE_OVER_PAIRS, AVERAGE_OVER_SUBMISSIONS):
        raise ValidationError(f"unknown averaging mode {average_over!r}")
    active = {s.id for s in dataset.active_submissions()}
    if not active:
        raise NoAnalyzableDataError("no submissions to rank")
    records = [record for record in dataset.reviews if record.submission_id in active]
    sids, codes = number_submissions(records)
    if len(sids) < len(active):
        raise ValidationError(f"submission {min(active.difference(sids))!r} has no reviews")

    n = len(sids)
    scores = np.array([record.score for record in records], dtype=float)
    counts = np.bincount(codes)
    means = np.bincount(codes, weights=scores) / counts
    own = means[codes]
    raised = scores + 1
    if cap:
        raised = np.minimum(raised, dataset.config.score_max)
    new_means = own + (raised - scores) / counts[codes]

    ordered = np.sort(means)
    rank_before = _expected_ranks(own, own, ordered)
    rank_after = _expected_ranks(new_means, own, ordered)
    gains = (rank_before - rank_after) / n * 100.0
    per_pair = dict(zip((record.pair for record in records), gains.tolist()))

    if average_over == AVERAGE_OVER_PAIRS:
        average = float(np.mean(gains))
    else:
        bounds = np.cumsum(counts)[:-1]
        average = float(np.mean([np.mean(block) for block in np.split(gains, bounds)]))

    return RankingOutcome(
        per_pair_improvement=per_pair,
        average_improvement=average,
        n_submissions=n,
    )


def save_ranking(outcome: RankingOutcome, json_path: Path | str, csv_path: Path | str) -> None:
    write_json(json_path, outcome.as_dict())
    write_csv(
        csv_path,
        ["submission_id", "reviewer_id", "improvement_pct"],
        ((sid, rid, gain) for (sid, rid), gain in sorted(outcome.per_pair_improvement.items())),
    )
