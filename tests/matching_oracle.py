"""Reference matcher for tests: the lexicographic maximum matching as first
written, one Kuhn re-solve per compatible pair in (cited id, uncited id) order.

``oracle_match`` is ``revaudit.nonparametric.match`` built on it, so the two
must agree triple for triple.
"""

from __future__ import annotations

from revaudit.filtering import AnalysisDataset, AnalysisRecord
from revaudit.nonparametric import OVERLAP_TOLERANCE, MatchedTriple, compatible


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


def oracle_match(
    analysis: AnalysisDataset, overlap_tolerance: float = OVERLAP_TOLERANCE
) -> list[MatchedTriple]:
    triples = []
    for sid in analysis.submissions():
        records = analysis.by_submission[sid]
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
