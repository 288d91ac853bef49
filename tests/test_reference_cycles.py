"""Pipeline stages and CLI commands free what they allocate without the
cyclic garbage collector.

A stage that leaves reference cycles behind (for example a nested function
that calls itself through its closure) hands its objects to CPython's cyclic
collector, whose full passes over the loaded records are slow and land in
whichever stage runs next.  ``cli.main`` pauses the collector for the whole
command, so a command that left cycles would leak them until the process ends.
"""

import gc
import itertools
import json
import shutil

import pytest

from revaudit import cli
from revaudit.citations import detect_citations
from revaudit.dataset import VenuePolicy, load_dataset, save_dataset
from revaudit.filtering import filter_dataset, missingness_report
from revaudit.nonparametric import match, permutation_test
from revaudit.parametric import build_rows, diagnostics, fit_wls
from revaudit.ranking import rank_improvement
from revaudit.synthetic import GeneratorConfig, generate

# An ICML-like venue on which the matcher finds triples.
PROFILE = dict(
    n_submissions=300, citation_bias=0.3, reviewers_per_paper=5,
    expertise_weights=(0.02, 0.08, 0.45, 0.45), confidence_weights=(0.05, 0.1, 0.45, 0.4),
    text_overlap_sd=0.05, bid_weights=(0.1, 0.6, 0.3), seniority_rate=0.8,
    citation_prevalence=0.45,
)
MATCHING = GeneratorConfig.icml_like(seed=5, **PROFILE)


@pytest.fixture(scope="module")
def venue(tmp_path_factory):
    dataset, relation, _ = generate(MATCHING)
    analysis, _ = filter_dataset(dataset, relation)
    rows = build_rows(analysis)
    fit = fit_wls(rows, VenuePolicy.ICML_LIKE)
    triples = match(analysis)
    assert triples
    root = tmp_path_factory.mktemp("venue")
    save_dataset(dataset, root)
    return dict(
        dataset=dataset, relation=relation, analysis=analysis, rows=rows, fit=fit,
        triples=triples, root=root,
    )


STAGES = {
    "generate": lambda v: generate(MATCHING),
    "load_dataset": lambda v: load_dataset(v["root"]),
    "detect_citations": lambda v: detect_citations(v["dataset"], v["dataset"].review_pairs()),
    "filter_dataset": lambda v: filter_dataset(v["dataset"], v["relation"]),
    "missingness_report": lambda v: missingness_report(v["dataset"], v["relation"]),
    "build_rows": lambda v: build_rows(v["analysis"]),
    "fit_wls": lambda v: fit_wls(v["rows"], VenuePolicy.ICML_LIKE),
    "diagnostics": lambda v: diagnostics(v["fit"], v["rows"], VenuePolicy.ICML_LIKE),
    "match": lambda v: match(v["analysis"]),
    "permutation_test": lambda v: permutation_test(v["triples"], iterations=200, seed=3),
    "rank_improvement": lambda v: rank_improvement(v["dataset"]),
}


def cyclic_garbage(run) -> int:
    """How many objects a second call of ``run`` leaves to the cyclic collector."""
    run()  # a first call may fill module-level caches
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("stage", STAGES)
def test_a_stage_leaves_no_reference_cycle(venue, stage):
    assert cyclic_garbage(lambda: STAGES[stage](venue)) == 0


@pytest.fixture(scope="module")
def workdirs(tmp_path_factory):
    """The matching venue after the whole chain, and a small venue to assign."""
    audit = tmp_path_factory.mktemp("audit")
    (audit / "gen.json").write_text(json.dumps(PROFILE))
    small = tmp_path_factory.mktemp("assign")
    (small / "gen.json").write_text(json.dumps({"n_submissions": 12, "n_reviewers": 8}))
    lines = ["submission_id,reviewer_id,sim"]
    for i, j in itertools.product(range(1, 13), range(1, 9)):
        lines.append(f"s{i:04d},r{j:04d},{((i * 7 + j * 3) % 10) / 10}")
    (small / "similarity.csv").write_text("\n".join(lines) + "\n")
    for workdir, args in [
        (audit, ("simulate", "--policy", "ICML_LIKE", "--seed", "5", "--config", "{wd}/gen.json")),
        (audit, ("extract-citations",)),
        (audit, ("filter",)),
        (audit, ("analyze", "--parametric")),
        (audit, ("analyze", "--nonparametric", "--seed", "1", "--iterations", "500")),
        (small, ("simulate", "--policy", "EC_LIKE", "--seed", "2", "--config", "{wd}/gen.json")),
        (small, ("extract-citations", "--pairs", "all")),
    ]:
        assert cli.main([arg.format(wd=workdir) for arg in args] + ["--workdir", str(workdir)]) == 0
    return {"audit": audit, "assign": small}


# Each command, the work directory it runs in and its exit code.
COMMANDS = {
    "simulate": ("audit", 0, "simulate", "--policy", "ICML_LIKE", "--seed", "5",
                 "--config", "{wd}/gen.json"),
    "ingest": ("audit", 0, "ingest"),
    "extract-citations-reviews": ("audit", 0, "extract-citations", "--pairs", "reviews"),
    "extract-citations-all": ("audit", 0, "extract-citations", "--pairs", "all"),
    "filter": ("audit", 0, "filter"),
    "analyze-parametric": ("audit", 0, "analyze", "--parametric"),
    "analyze-nonparametric": ("audit", 0, "analyze", "--nonparametric", "--seed", "1",
                              "--iterations", "500"),
    "diagnostics": ("audit", 0, "diagnostics"),
    "effect-size": ("audit", 0, "effect-size"),
    "report": ("audit", 0, "report"),
    "assign-sweep": ("assign", 0, "assign", "--lambda", "0.5", "--paper-load", "2",
                     "--reviewer-cap", "4", "--sweep", "0,0.5,1.0"),
    "analyze-no-mode": ("audit", 1, "analyze"),
    "usage-error": ("audit", 2, "ingest", "--bogus"),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_cli_command_leaves_no_reference_cycle(workdirs, command, tmp_path, capsys):
    where, code, *args = COMMANDS[command]
    workdir = tmp_path / where
    shutil.copytree(workdirs[where], workdir)
    argv = [arg.format(wd=workdir) for arg in args] + ["--workdir", str(workdir)]

    def run():
        assert cli.main(argv) == code, capsys.readouterr().err

    assert cyclic_garbage(run) == 0
