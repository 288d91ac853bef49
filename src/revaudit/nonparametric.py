"""Matched-pair analysis: within-submission matching of cited vs uncited
reviewers on all covariates, a mean-difference statistic, a sign-flip
permutation test, and a percentile bootstrap interval.

Matching criteria per (cited, uncited) pair of reviewers of one submission:
equal self-reported expertise, equal self-reported confidence, text overlap
within the tolerance (default 0.1), bids either both 3 or both in {4, 5},
and the same seniority group.  Each submission contributes a maximum
matching, so no reviewer joins more than one triple per submission.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .artifacts import parsing, write_csv, write_json
from .dataset import VenuePolicy
from .errors import NoAnalyzableDataError, SampleSizeError, ValidationError
from .filtering import AnalysisDataset, AnalysisRecord

OVERLAP_TOLERANCE = 0.1
P_EXACT = "exact"
P_MONTE_CARLO = "monte_carlo"
# Resampling draws this many rows per rng.integers call.  Row chunks read the
# generator's stream in the same order as one iterations x K draw, so seeded
# results do not depend on it (tests/test_resampling_pins.py).
RESAMPLE_ROWS = 1_000
# Widest integer lattice (2 * sum |d| + 1 points) the exact law is built on;
# wider laws, from differences far outside any score scale, use Monte Carlo.
EXACT_MAX_POINTS = 1 << 16
_TOL_EPS = 1e-9  # absolute slack so 0.65 - 0.55 <= 0.1 holds despite float repr


@dataclass(frozen=True)
class MatchedTriple:
    submission_id: str
    cited_reviewer_id: str
    uncited_reviewer_id: str
    score_cited: float
    score_uncited: float

    @property
    def difference(self) -> float:
        return self.score_cited - self.score_uncited


@dataclass(frozen=True)
class PermutationResult:
    statistic: float  # mean within-triple score difference
    n_triples: int
    p_two_sided: float
    ci95_bootstrap: tuple[float, float] | None
    iterations: int
    p_method: str  # P_EXACT or P_MONTE_CARLO

    def as_dict(self) -> dict:
        return asdict(self)


def compatible(
    cited: AnalysisRecord,
    uncited: AnalysisRecord,
    overlap_tolerance: float = OVERLAP_TOLERANCE,
) -> bool:
    """All five matching criteria between a cited and an uncited record."""
    c, u = cited.covariates, uncited.covariates
    if c["sr_expertise"] != u["sr_expertise"]:
        return False
    if c["sr_confidence"] != u["sr_confidence"]:
        return False
    if abs(c["text_overlap"] - u["text_overlap"]) > overlap_tolerance + _TOL_EPS:
        return False
    bid_c, bid_u = c["bid"], u["bid"]
    if not ((bid_c == 3 and bid_u == 3) or (bid_c in (4, 5) and bid_u in (4, 5))):
        return False
    return c["seniority"] == u["seniority"]


def _augment(left: int, adj: list[list[int]], match_right: list[int], visited: list[bool]) -> bool:
    """Look for an augmenting path from ``left``; on success, flip it into ``match_right``."""
    for right in adj[left]:
        if visited[right]:
            continue
        visited[right] = True
        if match_right[right] == -1 or _augment(match_right[right], adj, match_right, visited):
            match_right[right] = left
            return True
    return False


def _max_matching_size(adj: list[list[int]], n_right: int) -> int:
    """Kuhn's augmenting-path maximum matching on a small bipartite graph."""
    match_right = [-1] * n_right
    size = 0
    for left in range(len(adj)):
        if _augment(left, adj, match_right, [False] * n_right):
            size += 1
    return size


def _lexicographic_maximum_matching(adj: list[list[int]], n_right: int) -> list[tuple[int, int]]:
    """Maximum matching whose (row, column) pairs come first lexicographically.

    Row by row, keep the first column that still extends the pairs kept so
    far to a maximum matching, and drop that column from the later rows.  A
    row that keeps nothing is in no such matching, so the later checks can
    leave it out.
    """
    pairs: list[tuple[int, int]] = []
    need = _max_matching_size(adj, n_right)
    for i in range(len(adj)):
        for j in adj[i]:
            rest = [[c for c in row if c != j] for row in adj[i + 1:]]
            if 1 + _max_matching_size(rest, n_right) == need:
                pairs.append((i, j))
                need -= 1
                adj = adj[: i + 1] + rest
                break
    return pairs


def match(
    analysis: AnalysisDataset, overlap_tolerance: float = OVERLAP_TOLERANCE
) -> list[MatchedTriple]:
    """Build matched triples per submission via maximum bipartite matching.

    Each submission contributes the maximum matching whose (cited id,
    uncited id) pairs come first; submissions where no compatible pair
    exists contribute nothing.  Requires the ICML-like covariate set, and a
    finite, non-negative ``overlap_tolerance``.
    """
    if not math.isfinite(overlap_tolerance) or overlap_tolerance < 0:
        raise ValidationError(
            f"the overlap tolerance must be finite and non-negative, got {overlap_tolerance}"
        )
    if analysis.policy != VenuePolicy.ICML_LIKE:
        raise ValidationError("matching requires the ICML-like covariate set")
    triples: list[MatchedTriple] = []
    for sid in analysis.submissions():
        records = sorted(analysis.by_submission[sid], key=attrgetter("reviewer_id"))
        cited = [r for r in records if r.cited]
        uncited = [r for r in records if not r.cited]
        adj = [
            [j for j, u in enumerate(uncited) if compatible(c, u, overlap_tolerance)]
            for c in cited
        ]
        for i, j in _lexicographic_maximum_matching(adj, len(uncited)):
            c, u = cited[i], uncited[j]
            triples.append(MatchedTriple(sid, c.reviewer_id, u.reviewer_id, c.score, u.score))
    return triples


def permutation_test(
    triples: list[MatchedTriple],
    iterations: int = 10_000,
    seed: int | None = None,
    bootstrap: bool = True,
) -> PermutationResult:
    """Sign-flip permutation test of the mean within-triple difference.

    The two-sided p is P(|sum_i e_i d_i| >= |sum_i d_i|) over independent fair
    signs e_i.  When every difference is a finite integer (the observed score
    channel) it is computed exactly, with no random draw; ``p_method`` is then
    ``"exact"``.  An exact p is at least 2^(1-K'), K' being the number of
    nonzero differences, and is accurate to float64 relative precision while
    it stays above about 1e-300; a p below 2^-1074 (possible only once K'
    exceeds 1074) is returned as 0.0.  Otherwise (latent float scores, or an
    integer law wider than ``EXACT_MAX_POINTS`` lattice points) ``p_method``
    is ``"monte_carlo"``: each of ``iterations`` rows flips every difference
    with probability one half, and the add-one estimator
    (1 + #{|tau_perm| >= |tau|}) / (1 + iterations) is never zero.
    Deterministic for a given seed.  The bootstrap interval is attached when
    at least two triples exist, unless ``bootstrap`` is disabled.
    """
    k = len(triples)
    if k == 0:
        raise NoAnalyzableDataError("no matched triples; cannot run the permutation test")
    if iterations < 1:
        raise ValidationError("iterations must be positive")
    d = np.array([t.difference for t in triples], dtype=float)
    statistic = float(d.mean())

    magnitudes = np.abs(d)
    if (
        np.all(magnitudes == np.floor(magnitudes))
        and 2 * magnitudes.sum() + 1 <= EXACT_MAX_POINTS
    ):
        p, method = _exact_sign_flip_p(d.astype(np.int64)), P_EXACT
    else:
        p, method = _monte_carlo_sign_flip_p(d, iterations, seed), P_MONTE_CARLO

    ci = None
    if bootstrap and k >= 2:
        ci = bootstrap_ci(triples, iterations=iterations, seed=None if seed is None else seed)
    return PermutationResult(
        statistic=statistic, n_triples=k, p_two_sided=p,
        ci95_bootstrap=ci, iterations=iterations, p_method=method,
    )


def _binomial_pmf(m: int) -> np.ndarray:
    """C(m, j) / 2^m for j = 0..m, each correctly rounded from exact integers."""
    coefficient, coefficients = 1, []
    for j in range(m + 1):
        coefficients.append(coefficient)
        coefficient = coefficient * (m - j) // (j + 1)
    denominator = 1 << m
    return np.array([c / denominator for c in coefficients])


def _exact_sign_flip_p(d: np.ndarray) -> float:
    """Exact two-sided sign-flip p for integer differences (Pagano & Tritchler 1983).

    The m differences of magnitude v contribute v * (2B - m), B ~ Bin(m, 1/2);
    the null law of the sum is the convolution of one such law per distinct
    magnitude, on the lattice -T..T, T = sum |d|.  Zero differences drop out.
    """
    observed = abs(int(d.sum()))
    if observed == 0:
        return 1.0
    values, counts = np.unique(np.abs(d[d != 0]), return_counts=True)
    law = np.ones(1)
    for v, m in zip(values.tolist(), counts.tolist()):
        group = np.zeros(2 * v * m + 1)
        group[:: 2 * v] = _binomial_pmf(m)
        law = np.convolve(law, group)
    total = (len(law) - 1) // 2  # law[i] = P(sum = i - total)
    p = law[: total - observed + 1].sum() + law[total + observed:].sum()
    return min(float(p), 1.0)


def _monte_carlo_sign_flip_p(d: np.ndarray, iterations: int, seed: int | None) -> float:
    """Add-one Monte Carlo p over ``iterations`` sign rows, drawn RESAMPLE_ROWS at a time."""
    rng = np.random.default_rng(None if seed is None else [seed, 0])
    threshold = abs(d.mean())
    exceed = 0
    for rows in _row_chunks(iterations):
        signs = rng.integers(0, 2, size=(rows, len(d)))
        signs *= 2
        signs -= 1
        exceed += int(np.sum(np.abs((signs * d).mean(axis=1)) >= threshold))
    return (1 + exceed) / (1 + iterations)


def _row_chunks(iterations: int) -> list[int]:
    full, rest = divmod(iterations, RESAMPLE_ROWS)
    return [RESAMPLE_ROWS] * full + ([rest] if rest else [])


def bootstrap_ci(
    triples: list[MatchedTriple],
    iterations: int = 10_000,
    seed: int | None = None,
) -> tuple[float, float]:
    """Percentile 95% interval of the mean difference over triple resamples.

    Resample indices are drawn RESAMPLE_ROWS rows at a time, so memory is
    O(RESAMPLE_ROWS * K) whatever ``iterations`` is.
    """
    k = len(triples)
    if k < 2:
        raise SampleSizeError(f"bootstrap needs at least 2 triples, got {k}")
    if iterations < 1:
        raise ValidationError("iterations must be positive")
    d = np.array([t.difference for t in triples], dtype=float)
    rng = np.random.default_rng(None if seed is None else [seed, 1])
    resampled = np.concatenate([
        d[rng.integers(0, k, size=(rows, k))].mean(axis=1) for rows in _row_chunks(iterations)
    ])
    lo, hi = np.percentile(resampled, [2.5, 97.5])
    return (float(lo), float(hi))


def save_triples(triples: list[MatchedTriple], path: Path | str) -> None:
    write_csv(
        path,
        ["submission_id", "cited_reviewer_id", "uncited_reviewer_id",
         "score_cited", "score_uncited"],
        (
            (t.submission_id, t.cited_reviewer_id, t.uncited_reviewer_id,
             t.score_cited, t.score_uncited)
            for t in triples
        ),
    )


def load_triples(path: Path | str) -> list[MatchedTriple]:
    with parsing(path) as source:
        return [
            MatchedTriple(
                submission_id=row["submission_id"],
                cited_reviewer_id=row["cited_reviewer_id"],
                uncited_reviewer_id=row["uncited_reviewer_id"],
                score_cited=float(row["score_cited"]),
                score_uncited=float(row["score_uncited"]),
            )
            for row in source.csv()
        ]


def save_permutation_result(result: PermutationResult, path: Path | str) -> None:
    write_json(path, result.as_dict())


def load_permutation_result(path: Path | str) -> PermutationResult:
    with parsing(path) as source:
        raw = source.json()
        ci = raw.get("ci95_bootstrap")
        raw["ci95_bootstrap"] = tuple(ci) if ci else None
        if raw["p_method"] not in (P_EXACT, P_MONTE_CARLO):
            raise ValueError(f"unknown p_method {raw['p_method']!r}")
        return PermutationResult(**raw)
