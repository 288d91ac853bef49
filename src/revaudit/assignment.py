"""Paper-reviewer assignment maximizing similarity plus a weighted citation count.

The objective sum(sim) + lambda * sum(cited) is scaled to integer utilities
(x 1e6, round-half-even) and solved as a sparse LP with HiGHS, in two stages:
maximize utility, then minimize the sum of pair ranks over the maximizers.
The reviewer-paper polytope is totally unimodular, so both vertices are
integral; each is checked to be, and the utility of the chosen pairs is
recomputed in integers, so optimality never hinges on float comparisons.  Any
tie left after the rank sum is resolved by the solver, deterministically.
Reported quality is the similarity sum at that integer resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .artifacts import parsing, write_csv
from .dataset import Pair, ReviewDataset, VenuePolicy
from .errors import InfeasibleAssignmentError, SolverError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .citations import CitationRelation

SCALE = 10**6
INTEGRALITY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SimilarityMatrix:
    """Similarity in [0, 1] for every allowed pair; forbidden pairs are never assigned."""

    sim: dict[Pair, float]
    forbidden: frozenset[Pair] = frozenset()

    def __post_init__(self):
        for pair, value in self.sim.items():
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"similarity for {pair} must lie in [0, 1], got {value}")

    def papers(self) -> list[str]:
        return sorted({p for p, _ in self.sim} | {p for p, _ in self.forbidden})

    def reviewers(self) -> list[str]:
        return sorted({r for _, r in self.sim} | {r for _, r in self.forbidden})

    def allowed_pairs(self) -> list[Pair]:
        return sorted(pair for pair in self.sim if pair not in self.forbidden)


@dataclass(frozen=True)
class AssignmentSpec:
    paper_load: int
    reviewer_cap: int
    citation_weight: float  # the tunable lambda balancing quality vs cited pairs

    def __post_init__(self):
        if self.paper_load < 1 or self.reviewer_cap < 1:
            raise ValidationError("paper_load and reviewer_cap must be positive")
        if not math.isfinite(self.citation_weight) or self.citation_weight < 0:
            raise ValidationError(
                f"the citation weight must be finite and non-negative, got {self.citation_weight}"
            )


@dataclass(frozen=True)
class Assignment:
    pairs: frozenset[Pair]
    objective_quality: float
    cited_count: int

    def sorted_pairs(self) -> list[Pair]:
        return sorted(self.pairs)


@dataclass(frozen=True)
class SweepPoint:
    citation_weight: float
    objective_quality: float
    cited_count: int


def _cited(relation: "CitationRelation | None", pair: Pair) -> bool:
    return False if relation is None else relation.indicator(pair)


def _check_feasible(sim: SimilarityMatrix, spec: AssignmentSpec) -> tuple[list[str], list[str]]:
    papers = sim.papers()
    reviewers = sim.reviewers()
    if not papers or not reviewers:
        raise InfeasibleAssignmentError("no papers or no reviewers in the instance")
    allowed_per_paper: dict[str, int] = {p: 0 for p in papers}
    usable_reviewers: set[str] = set()
    for p, r in sim.allowed_pairs():
        allowed_per_paper[p] += 1
        usable_reviewers.add(r)
    for paper, count in allowed_per_paper.items():
        if count < spec.paper_load:
            raise InfeasibleAssignmentError(
                f"paper {paper!r} has only {count} allowed reviewers for load {spec.paper_load}"
            )
    demand = spec.paper_load * len(papers)
    capacity = spec.reviewer_cap * len(usable_reviewers)
    if demand > capacity:
        raise InfeasibleAssignmentError(
            f"total demand {demand} exceeds reviewer capacity {capacity} "
            f"({len(papers)} papers x load {spec.paper_load} vs "
            f"{len(usable_reviewers)} assignable reviewers x cap {spec.reviewer_cap})"
        )
    return papers, reviewers


def solve(
    sim: SimilarityMatrix,
    relation: "CitationRelation | None",
    spec: AssignmentSpec,
) -> Assignment:
    """Exact maximizer of sum(sim) + lambda * sum(cited) under load constraints.

    Among the maximizers it picks one with the least sum of pair ranks (a
    pair's position in ``sim.allowed_pairs()``); any tie left after that is
    resolved by the solver, deterministically for the same input.
    """
    papers, reviewers = _check_feasible(sim, spec)
    allowed = sim.allowed_pairs()
    lam_scaled = round(spec.citation_weight * SCALE)
    utility = np.array(
        [
            round(sim.sim[pair] * SCALE) + (lam_scaled if _cited(relation, pair) else 0)
            for pair in allowed
        ],
        dtype=np.int64,
    )

    paper_row = {paper: i for i, paper in enumerate(papers)}
    reviewer_row = {reviewer: i for i, reviewer in enumerate(reviewers)}
    columns = np.arange(len(allowed))
    ones = np.ones(len(allowed))
    by_paper = sparse.csr_array(
        (ones, ([paper_row[p] for p, _ in allowed], columns)),
        shape=(len(papers), len(allowed)),
    )
    by_reviewer = sparse.csr_array(
        (ones, ([reviewer_row[r] for _, r in allowed], columns)),
        shape=(len(reviewers), len(allowed)),
    )
    load = np.full(len(papers), float(spec.paper_load))
    cap = np.full(len(reviewers), float(spec.reviewer_cap))

    # Stage 1 finds the best utility U*.  Stage 2 minimizes the rank sum over
    # stage 1's optimal face, cut out by complementary slackness rather than a
    # utility >= U* row (HiGHS cannot hold such a row to one unit once lambda
    # is large).  Costs are integers and the matrix is totally unimodular, so
    # basic duals are integers and a marginal above 0.5 is nonzero: such a
    # pair keeps its stage-1 value, such a reviewer row stays at its cap.
    # Face vertices are polytope vertices, so both optima must be integral.
    first, best = _integral_vertex(-utility, by_reviewer, cap, by_paper, load, (0, 1))
    best_utility = int(utility[best].sum())
    fixed = (np.abs(first.lower.marginals) > 0.5) | (np.abs(first.upper.marginals) > 0.5)
    bounds = np.column_stack([fixed & best, best | ~fixed]).astype(float)
    tight = np.abs(first.ineqlin.marginals) > 0.5
    _, chosen = _integral_vertex(
        columns.astype(float),
        by_reviewer[~tight],
        cap[~tight],
        sparse.vstack([by_paper, by_reviewer[tight]]),
        np.append(load, cap[tight]),
        bounds,
    )
    if int(utility[chosen].sum()) != best_utility:
        raise SolverError(
            f"the rank stage reached utility {int(utility[chosen].sum())}, "
            f"not the optimum {best_utility}"
        )
    return _as_assignment({allowed[i] for i in np.flatnonzero(chosen)}, sim, relation, spec)


def _integral_vertex(cost, a_ub, b_ub, a_eq, b_eq, bounds):
    """An optimal HiGHS vertex, which must be integral, and its boolean selection."""
    # Presolve finds nothing to remove from a transportation LP and costs
    # about as much as the simplex solve itself.
    result = linprog(
        cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        method="highs", options={"presolve": False},
    )
    if result.status == 2:
        raise InfeasibleAssignmentError(
            "no feasible assignment: forbidden pairs make the load constraints unsatisfiable"
        )
    if result.status != 0:
        raise SolverError(f"HiGHS failed: {result.message}")
    rounded = np.round(result.x)
    if np.max(np.abs(result.x - rounded)) > INTEGRALITY_TOLERANCE:
        raise SolverError("HiGHS returned a fractional vertex")
    return result, rounded == 1


def _as_assignment(
    pairs: set[Pair],
    sim: SimilarityMatrix,
    relation: "CitationRelation | None",
    spec: AssignmentSpec,
) -> Assignment:
    validate_assignment(pairs, sim, spec)
    quality_scaled = sum(round(sim.sim[pair] * SCALE) for pair in pairs)
    cited_count = sum(1 for pair in pairs if _cited(relation, pair))
    return Assignment(
        pairs=frozenset(pairs),
        objective_quality=quality_scaled / SCALE,
        cited_count=cited_count,
    )


def validate_assignment(pairs: set[Pair], sim: SimilarityMatrix, spec: AssignmentSpec) -> None:
    """Check exact paper load, reviewer cap, and forbidden-pair avoidance."""
    for pair in pairs:
        if pair in sim.forbidden:
            raise ValidationError(f"assignment uses forbidden pair {pair}")
        if pair not in sim.sim:
            raise ValidationError(f"assignment uses pair {pair} with no similarity entry")
    per_paper: dict[str, int] = {p: 0 for p in sim.papers()}
    per_reviewer: dict[str, int] = {r: 0 for r in sim.reviewers()}
    for paper, reviewer in pairs:
        per_paper[paper] += 1
        per_reviewer[reviewer] += 1
    for paper, count in per_paper.items():
        if count != spec.paper_load:
            raise ValidationError(
                f"paper {paper!r} has {count} reviewers, expected {spec.paper_load}"
            )
    for reviewer, count in per_reviewer.items():
        if count > spec.reviewer_cap:
            raise ValidationError(
                f"reviewer {reviewer!r} carries {count} papers, cap is {spec.reviewer_cap}"
            )


def tradeoff_sweep(
    sim: SimilarityMatrix,
    relation: "CitationRelation | None",
    spec: AssignmentSpec,
    lambdas: list[float],
) -> list[SweepPoint]:
    """One exact solve per lambda; cited_count rises and quality falls along the sweep."""
    specs = [replace(spec, citation_weight=weight) for weight in lambdas]
    points = []
    for point_spec in specs:
        result = solve(sim, relation, point_spec)
        points.append(
            SweepPoint(
                citation_weight=point_spec.citation_weight,
                objective_quality=result.objective_quality,
                cited_count=result.cited_count,
            )
        )
    return points


def citation_coverage(assignment: Assignment, relation: "CitationRelation | None") -> float:
    """Fraction of assigned papers with at least one cited reviewer."""
    papers = {p for p, _ in assignment.pairs}
    if not papers:
        return 0.0
    covered = {p for p, r in assignment.pairs if _cited(relation, (p, r))}
    return len(covered) / len(papers)


@dataclass(frozen=True)
class AssignmentEdit:
    action: str  # "add" or "remove"
    submission_id: str
    reviewer_id: str


def apply_edits(
    assignment: Assignment,
    edits: list[AssignmentEdit],
    sim: SimilarityMatrix,
    relation: "CitationRelation | None",
    spec: AssignmentSpec,
) -> Assignment:
    """Apply manual post-edits and re-validate against all constraints."""
    pairs = set(assignment.pairs)
    for edit in edits:
        pair = (edit.submission_id, edit.reviewer_id)
        if edit.action == "add":
            if pair in pairs:
                raise ValidationError(f"edit adds already-assigned pair {pair}")
            pairs.add(pair)
        elif edit.action == "remove":
            if pair not in pairs:
                raise ValidationError(f"edit removes unassigned pair {pair}")
            pairs.remove(pair)
        else:
            raise ValidationError(f"unknown edit action {edit.action!r}")
    return _as_assignment(pairs, sim, relation, spec)


def forbidden_from_bids(dataset: ReviewDataset) -> frozenset[Pair]:
    """Hard-forbidden pairs: bid 2 ("not willing") under ICML rules, negative
    preference under EC rules.  Missing values are not forbidden."""
    policy = dataset.config.venue_policy
    forbidden: set[Pair] = set()
    for record in dataset.reviews:
        if policy == VenuePolicy.ICML_LIKE and record.bid == 2:
            forbidden.add(record.pair)
        if (
            policy == VenuePolicy.EC_LIKE
            and record.preference_value is not None
            and record.preference_value < 0
        ):
            forbidden.add(record.pair)
    return frozenset(forbidden)


def load_similarity(path: Path | str, forbidden: frozenset[Pair] = frozenset()) -> SimilarityMatrix:
    sim: dict[Pair, float] = {}
    with parsing(path) as source:
        for row in source.csv():
            sim[(row["submission_id"], row["reviewer_id"])] = float(row["sim"])
    return SimilarityMatrix(sim=sim, forbidden=frozenset(forbidden))


def save_assignment(assignment: Assignment, path: Path | str) -> None:
    write_csv(path, ["submission_id", "reviewer_id"], assignment.sorted_pairs())


def load_assignment_pairs(path: Path | str) -> set[Pair]:
    with parsing(path) as source:
        return {(row["submission_id"], row["reviewer_id"]) for row in source.csv()}


def load_edits(path: Path | str) -> list[AssignmentEdit]:
    with parsing(path) as source:
        return [
            AssignmentEdit(
                action=row["action"].strip().lower(),
                submission_id=row["submission_id"],
                reviewer_id=row["reviewer_id"],
            )
            for row in source.csv()
        ]
