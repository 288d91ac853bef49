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
from pathlib import Path

import numpy as np

from .artifacts import parsing, write_csv, write_json
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


def _max_matching_size(adj: list[list[int]], n_right: int) -> int:
    """Kuhn's augmenting-path maximum matching on a small bipartite graph."""
    match_right = [-1] * n_right

    def try_augment(left: int, visited: list[bool]) -> bool:
        for right in adj[left]:
            if visited[right]:
                continue
            visited[right] = True
            if match_right[right] == -1 or try_augment(match_right[right], visited):
                match_right[right] = left
                return True
        return False

    size = 0
    for left in range(len(adj)):
        if try_augment(left, [False] * n_right):
            size += 1
    return size


def _lexicographic_maximum_matching(
    cited: list[AnalysisRecord],
    uncited: list[AnalysisRecord],
    overlap_tolerance: float,
) -> list[tuple[AnalysisRecord, AnalysisRecord]]:
    """Maximum matching, ties broken toward lexicographically earliest pairs.

    Pairs are considered in (cited_id, uncited_id) order; a pair is kept iff
    some maximum matching contains it together with all pairs already kept.
    """
    adj = [
        [j for j, u in enumerate(uncited) if compatible(c, u, overlap_tolerance)]
        for c in cited
    ]
    target = _max_matching_size(adj, len(uncited))
    if target == 0:
        return []

    forced: list[tuple[int, int]] = []
    used_left: set[int] = set()
    used_right: set[int] = set()
    for i, j in sorted(
        ((i, j) for i in range(len(cited)) for j in adj[i]),
        key=lambda ij: (cited[ij[0]].reviewer_id, uncited[ij[1]].reviewer_id),
    ):
        if i in used_left or j in used_right or len(forced) == target:
            continue
        rest_adj = [
            [jj for jj in adj[ii] if jj not in used_right and jj != j]
            for ii in range(len(cited))
            if ii not in used_left and ii != i
        ]
        if len(forced) + 1 + _max_matching_size(rest_adj, len(uncited)) >= target:
            forced.append((i, j))
            used_left.add(i)
            used_right.add(j)
    return [(cited[i], uncited[j]) for i, j in forced]


def match(
    analysis: AnalysisDataset, overlap_tolerance: float = OVERLAP_TOLERANCE
) -> list[MatchedTriple]:
    """Build matched triples per submission via maximum bipartite matching.

    Submissions where no compatible (cited, uncited) pair exists contribute
    nothing.  Requires the ICML-like covariate set on every record, and a
    finite, non-negative ``overlap_tolerance``.
    """
    if not math.isfinite(overlap_tolerance) or overlap_tolerance < 0:
        raise ValidationError(
            f"the overlap tolerance must be finite and non-negative, got {overlap_tolerance}"
        )
    triples: list[MatchedTriple] = []
    for sid in analysis.submissions():
        records = analysis.by_submission[sid]
        for record in records:
            if "bid" not in record.covariates:
                raise ValidationError(
                    f"record {record.pair} lacks matching covariates; "
                    "matching requires the ICML-like covariate set"
                )
        cited = sorted((r for r in records if r.cited), key=lambda r: r.reviewer_id)
        uncited = sorted((r for r in records if not r.cited), key=lambda r: r.reviewer_id)
        for c, u in _lexicographic_maximum_matching(cited, uncited, overlap_tolerance):
            triples.append(
                MatchedTriple(
                    submission_id=sid,
                    cited_reviewer_id=c.reviewer_id,
                    uncited_reviewer_id=u.reviewer_id,
                    score_cited=c.score,
                    score_uncited=u.score,
                )
            )
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
