"""Exactness, tie handling, monotonicity, and constraint checks for the solver."""

import os
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

import revaudit
from revaudit.assignment import (
    SCALE,
    Assignment,
    AssignmentEdit,
    AssignmentSpec,
    SimilarityMatrix,
    apply_edits,
    forbidden_from_bids,
    solve,
    tradeoff_sweep,
    validate_assignment,
)
from revaudit.citations import CitationRelation
from revaudit.dataset import VenueConfig
from revaudit.errors import InfeasibleAssignmentError, ValidationError
from conftest import build_dataset, review, reviewer, submission


def feasible_assignments(sim: SimilarityMatrix, spec: AssignmentSpec):
    """Every pair set with the exact paper load, within the caps, on allowed pairs."""
    papers = sim.papers()
    reviewers = sim.reviewers()
    allowed = set(sim.allowed_pairs())
    per_paper = [
        [c for c in combinations(reviewers, spec.paper_load)
         if all((p, r) in allowed for r in c)]
        for p in papers
    ]
    for combo in product(*per_paper):
        loads = {}
        feasible = True
        for chosen in combo:
            for r in chosen:
                loads[r] = loads.get(r, 0) + 1
                if loads[r] > spec.reviewer_cap:
                    feasible = False
        if feasible:
            yield {(p, r) for p, chosen in zip(papers, combo) for r in chosen}


def citation_coverage(assignment, relation) -> float:
    """Fraction of assigned papers with at least one cited reviewer."""
    papers = {p for p, _ in assignment.pairs}
    covered = {p for p, r in assignment.pairs if relation.indicator((p, r))}
    return len(covered) / len(papers)


def brute_force_best_objective(sim: SimilarityMatrix, relation, spec: AssignmentSpec):
    """Exhaustive enumeration over all feasible assignments (integer objective)."""
    return max(
        (pairs_objective(pairs, sim, relation, spec) for pairs in feasible_assignments(sim, spec)),
        default=None,
    )


def brute_force_best_and_rank_sum(sim: SimilarityMatrix, relation, spec: AssignmentSpec):
    """(maximum objective, least rank sum among the maximizers), by enumeration."""
    rank = {pair: i for i, pair in enumerate(sim.allowed_pairs())}
    scored = [
        (pairs_objective(pairs, sim, relation, spec), sum(rank[pair] for pair in pairs))
        for pairs in feasible_assignments(sim, spec)
    ]
    best = max(objective for objective, _ in scored)
    return best, min(rank_sum for objective, rank_sum in scored if objective == best)


def pairs_objective(pairs, sim, relation, spec) -> int:
    quality = sum(round(sim.sim[pair] * SCALE) for pair in pairs)
    cited = sum(1 for pair in pairs if relation is not None and relation.indicator(pair))
    return quality + round(spec.citation_weight * SCALE) * cited


def objective_of(assignment: Assignment, sim, relation, spec) -> int:
    return pairs_objective(assignment.pairs, sim, relation, spec)


TWO_BY_TWO = SimilarityMatrix(
    sim={("p1", "r1"): 0.9, ("p1", "r2"): 0.1, ("p2", "r1"): 0.2, ("p2", "r2"): 0.8}
)
TWO_BY_TWO_RELATION = CitationRelation(
    cited={("p1", "r2"): True, ("p1", "r1"): False, ("p2", "r1"): False, ("p2", "r2"): False}
)


def test_two_by_two_similarity_only():
    result = solve(TWO_BY_TWO, TWO_BY_TWO_RELATION, AssignmentSpec(1, 1, 0.0))
    assert result.pairs == {("p1", "r1"), ("p2", "r2")}
    assert result.objective_quality == pytest.approx(1.7)
    assert result.cited_count == 0


def test_two_by_two_citation_weight_flips_matching():
    result = solve(TWO_BY_TWO, TWO_BY_TWO_RELATION, AssignmentSpec(1, 1, 2.0))
    assert result.pairs == {("p1", "r2"), ("p2", "r1")}
    assert result.objective_quality == pytest.approx(0.3)
    assert result.cited_count == 1


def test_zero_lambda_equals_plain_similarity_maximizer():
    spec = AssignmentSpec(1, 1, 0.0)
    with_relation = solve(TWO_BY_TWO, TWO_BY_TWO_RELATION, spec)
    without = solve(TWO_BY_TWO, None, spec)
    assert with_relation.pairs == without.pairs
    assert with_relation.objective_quality == without.objective_quality


def random_instance(rng, max_side=4, max_load=2):
    n_papers = int(rng.integers(2, max_side + 1))
    n_reviewers = int(rng.integers(2, max_side + 1))
    k = int(rng.integers(1, max_load + 1))
    cap = int(rng.integers(1, 4))
    if k > n_reviewers or k * n_papers > cap * n_reviewers:
        return None
    papers = [f"p{i}" for i in range(n_papers)]
    reviewers = [f"r{j}" for j in range(n_reviewers)]
    sim = SimilarityMatrix(
        sim={(p, r): float(np.round(rng.random(), 6)) for p in papers for r in reviewers}
    )
    relation = CitationRelation(
        cited={(p, r): bool(rng.random() < 0.3) for p in papers for r in reviewers}
    )
    weight = float(rng.choice([0.0, 0.25, 1.0, 3.0]))
    return sim, relation, AssignmentSpec(k, cap, weight)


def test_exhaustive_optimality_on_small_instances():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 60:
        instance = random_instance(rng)
        if instance is None:
            continue
        sim, relation, spec = instance
        result = solve(sim, relation, spec)
        assert objective_of(result, sim, relation, spec) == brute_force_best_objective(
            sim, relation, spec
        )
        validate_assignment(set(result.pairs), sim, spec)
        checked += 1


def test_determinism():
    rng = np.random.default_rng(7)
    instance = None
    while instance is None:
        instance = random_instance(rng)
    sim, relation, spec = instance
    assert solve(sim, relation, spec) == solve(sim, relation, spec)


def test_ties_break_to_the_least_rank_sum():
    # Similarities on a 0.1 grid make many assignments tie on the objective;
    # among them solve must pick one with the least sum of pair ranks.
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 40:
        instance = random_instance(rng)
        if instance is None:
            continue
        sim, relation, spec = instance
        sim = SimilarityMatrix(sim={pair: round(v, 1) for pair, v in sim.sim.items()})
        result = solve(sim, relation, spec)
        rank = {pair: i for i, pair in enumerate(sim.allowed_pairs())}
        got = (objective_of(result, sim, relation, spec), sum(rank[p] for p in result.pairs))
        assert got == brute_force_best_and_rank_sum(sim, relation, spec), checked
        checked += 1


def min_cost_flow_objective(nx, sim, relation, spec) -> int:
    """The optimal integer objective by networkx's min-cost flow, as an oracle."""
    papers, reviewers = sim.papers(), sim.reviewers()
    graph = nx.DiGraph()
    graph.add_node("src", demand=-spec.paper_load * len(papers))
    graph.add_node("snk", demand=spec.paper_load * len(papers))
    for p in papers:
        graph.add_edge("src", ("p", p), weight=0, capacity=spec.paper_load)
    for r in reviewers:
        graph.add_edge(("r", r), "snk", weight=0, capacity=spec.reviewer_cap)
    for pair in sim.allowed_pairs():
        utility = pairs_objective({pair}, sim, relation, spec)
        graph.add_edge(("p", pair[0]), ("r", pair[1]), weight=-utility, capacity=1)
    return -nx.cost_of_flow(graph, nx.min_cost_flow(graph))


def test_networkx_min_cost_flow_agrees():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(404)
    papers = [f"p{i:02d}" for i in range(30)]
    reviewers = [f"r{j:02d}" for j in range(20)]
    for _ in range(10):
        sim = SimilarityMatrix(
            sim={(p, r): float(np.round(rng.random(), 6)) for p in papers for r in reviewers},
            forbidden=frozenset(
                (p, r) for p in papers for r in reviewers if rng.random() < 0.15
            ),
        )
        relation = CitationRelation(
            cited={(p, r): bool(rng.random() < 0.1) for p in papers for r in reviewers}
        )
        for weight in (0.0, 0.25, 1.0, 3.0):
            spec = AssignmentSpec(paper_load=3, reviewer_cap=6, citation_weight=weight)
            result = solve(sim, relation, spec)
            assert objective_of(result, sim, relation, spec) == min_cost_flow_objective(
                nx, sim, relation, spec
            )


@pytest.mark.parametrize("weight", [1e6, 1e8])
def test_huge_lambda_reaches_the_min_cost_flow_optimum(weight):
    # Utilities near 1e14 once lambda is 1e8: a utility >= U* row in the rank
    # stage needs one-unit precision that HiGHS tolerances cannot give.
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(0)
    papers = [f"p{i:03d}" for i in range(100)]
    reviewers = [f"r{j:02d}" for j in range(80)]
    sim = SimilarityMatrix(
        sim={(p, r): float(np.round(rng.random(), 6)) for p in papers for r in reviewers},
        forbidden=frozenset((p, r) for p in papers for r in reviewers if rng.random() < 0.05),
    )
    relation = CitationRelation(
        cited={(p, r): bool(rng.random() < 0.1) for p in papers for r in reviewers}
    )
    spec = AssignmentSpec(paper_load=3, reviewer_cap=6, citation_weight=weight)
    result = solve(sim, relation, spec)
    validate_assignment(set(result.pairs), sim, spec)
    assert objective_of(result, sim, relation, spec) == min_cost_flow_objective(
        nx, sim, relation, spec
    )


def _modules_loaded_by(statement: str) -> set[str]:
    """The module names in sys.modules after ``statement`` runs in a fresh interpreter."""
    code = f"import sys; {statement}; print('\\n'.join(sys.modules))"
    src = str(Path(revaudit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return set(done.stdout.split())


def test_cli_import_leaves_out_networkx():
    # Only `assign` needs scipy.optimize and scipy.sparse; nothing needs scipy.stats.
    loaded = _modules_loaded_by("import revaudit.cli")
    assert "revaudit.cli" in loaded
    for name in ("networkx", "scipy.stats", "scipy.optimize", "scipy.sparse",
                 "revaudit.assignment"):
        assert name not in loaded, name
    package = _modules_loaded_by("import revaudit")
    assert "revaudit" in package
    assert not [name for name in package if name.startswith("revaudit.")]


def test_sweep_monotonicity_on_random_instance():
    rng = np.random.default_rng(99)
    papers = [f"p{i}" for i in range(6)]
    reviewers = [f"r{j}" for j in range(9)]
    sim = SimilarityMatrix(
        sim={(p, r): float(rng.random()) for p in papers for r in reviewers}
    )
    relation = CitationRelation(
        cited={(p, r): bool(rng.random() < 0.25) for p in papers for r in reviewers}
    )
    spec = AssignmentSpec(paper_load=2, reviewer_cap=2, citation_weight=0.0)
    lambdas = [round(0.15 * i, 2) for i in range(20)]
    points = tradeoff_sweep(sim, relation, spec, lambdas)
    for a, b in zip(points, points[1:]):
        assert b.cited_count >= a.cited_count
        assert b.objective_quality <= a.objective_quality + 1e-12


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1.0])
def test_citation_weight_must_be_finite_and_non_negative(weight):
    with pytest.raises(ValidationError, match="finite and non-negative"):
        AssignmentSpec(1, 1, weight)
    with pytest.raises(ValidationError, match="finite and non-negative"):
        tradeoff_sweep(TWO_BY_TWO, TWO_BY_TWO_RELATION, AssignmentSpec(1, 1, 0.0), [0.0, weight])


def test_large_lambda_attains_max_cited():
    rng = np.random.default_rng(5)
    papers = [f"p{i}" for i in range(4)]
    reviewers = [f"r{j}" for j in range(6)]
    sim = SimilarityMatrix(
        sim={(p, r): float(rng.random()) for p in papers for r in reviewers}
    )
    relation = CitationRelation(
        cited={(p, r): bool(rng.random() < 0.3) for p in papers for r in reviewers}
    )
    spec = AssignmentSpec(paper_load=2, reviewer_cap=2, citation_weight=0.0)
    big = solve(sim, relation, AssignmentSpec(2, 2, 10_000.0))
    # exhaustive max cited count
    best_cited = 0
    for combo in product(*[list(combinations(reviewers, 2))] * 4):
        loads = {}
        ok = True
        for chosen in combo:
            for r in chosen:
                loads[r] = loads.get(r, 0) + 1
                if loads[r] > 2:
                    ok = False
        if not ok:
            continue
        cited = sum(
            1 for p, chosen in zip(papers, combo) for r in chosen
            if relation.indicator((p, r))
        )
        best_cited = max(best_cited, cited)
    assert big.cited_count == best_cited


def test_ec_like_sweep_reaches_majority_coverage():
    # A venue-scale instance where a tuned citation weight should give more
    # than half the submissions a cited reviewer.
    rng = np.random.default_rng(17)
    papers = [f"p{i:03d}" for i in range(40)]
    reviewers = [f"r{j:03d}" for j in range(25)]
    sim = SimilarityMatrix(
        sim={(p, r): float(rng.random()) for p in papers for r in reviewers}
    )
    relation = CitationRelation(
        cited={(p, r): bool(rng.random() < 0.08) for p in papers for r in reviewers}
    )
    spec = AssignmentSpec(paper_load=3, reviewer_cap=6, citation_weight=0.0)
    coverages = []
    for weight in (0.0, 0.25, 0.5, 1.0, 2.0):
        result = solve(sim, relation, AssignmentSpec(3, 6, weight))
        coverages.append(citation_coverage(result, relation))
    assert max(coverages) > 0.5


def test_infeasible_paper_names_the_constraint():
    sim = SimilarityMatrix(
        sim={("p1", "r1"): 0.5},
        forbidden=frozenset({("p1", "r2")}),
    )
    with pytest.raises(InfeasibleAssignmentError, match="p1"):
        solve(sim, None, AssignmentSpec(2, 1, 0.0))


def test_infeasible_when_halls_condition_fails():
    # The counts pass (each paper has an allowed reviewer, three reviewers
    # for three papers) but p1 and p2 both need r1, whose cap is one.
    sim = SimilarityMatrix(
        sim={("p1", "r1"): 0.5, ("p2", "r1"): 0.5, ("p3", "r2"): 0.5, ("p3", "r3"): 0.5},
        forbidden=frozenset(
            {("p1", "r2"), ("p1", "r3"), ("p2", "r2"), ("p2", "r3"), ("p3", "r1")}
        ),
    )
    with pytest.raises(InfeasibleAssignmentError, match="unsatisfiable"):
        solve(sim, None, AssignmentSpec(1, 1, 0.0))


def test_infeasible_capacity_names_the_bound():
    sim = SimilarityMatrix(
        sim={(p, r): 0.5 for p in ("p1", "p2", "p3") for r in ("r1",)}
    )
    with pytest.raises(InfeasibleAssignmentError, match="capacity"):
        solve(sim, None, AssignmentSpec(1, 2, 0.0))


def test_capacity_counts_only_assignable_reviewers():
    # r2 exists but every pair of theirs is forbidden, so it adds no capacity.
    sim = SimilarityMatrix(
        sim={(p, "r1"): 0.5 for p in ("p1", "p2", "p3")},
        forbidden=frozenset({("p1", "r2"), ("p2", "r2"), ("p3", "r2")}),
    )
    with pytest.raises(InfeasibleAssignmentError, match="capacity"):
        solve(sim, None, AssignmentSpec(1, 2, 0.0))


def test_forbidden_pairs_never_assigned():
    sim = SimilarityMatrix(
        sim={("p1", "r1"): 0.9, ("p1", "r2"): 0.1, ("p2", "r1"): 0.9, ("p2", "r2"): 0.1},
        forbidden=frozenset({("p1", "r1")}),
    )
    result = solve(sim, None, AssignmentSpec(1, 1, 0.0))
    assert ("p1", "r1") not in result.pairs


def test_forbidden_from_bids_rules():
    ds_icml = build_dataset(
        VenueConfig.icml_like(),
        [reviewer("r1"), reviewer("r2")],
        [submission("s1")],
        [
            review("s1", "r1", 3, sr_expertise=2, bid=2),
            review("s1", "r2", 3, sr_expertise=2, bid=4),
        ],
    )
    assert forbidden_from_bids(ds_icml) == {("s1", "r1")}
    ds_ec = build_dataset(
        VenueConfig.ec_like(),
        [reviewer("r1"), reviewer("r2")],
        [submission("s1")],
        [
            review("s1", "r1", 3, sr_expertise=2, preference_value=-10),
            review("s1", "r2", 3, sr_expertise=2),
        ],
    )
    assert forbidden_from_bids(ds_ec) == {("s1", "r1")}


def test_manual_edits_revalidate():
    spec = AssignmentSpec(1, 1, 0.0)
    result = solve(TWO_BY_TWO, TWO_BY_TWO_RELATION, spec)
    swapped = apply_edits(
        result,
        [
            AssignmentEdit("remove", "p1", "r1"),
            AssignmentEdit("remove", "p2", "r2"),
            AssignmentEdit("add", "p1", "r2"),
            AssignmentEdit("add", "p2", "r1"),
        ],
        TWO_BY_TWO,
        TWO_BY_TWO_RELATION,
        spec,
    )
    assert swapped.pairs == {("p1", "r2"), ("p2", "r1")}
    assert swapped.cited_count == 1
    with pytest.raises(ValidationError):
        apply_edits(result, [AssignmentEdit("remove", "p1", "r1")], TWO_BY_TWO, None, spec)
