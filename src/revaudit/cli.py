"""Command-line pipeline: simulate, ingest, extract-citations, assign, filter,
analyze, diagnostics, effect-size, report.

Every stage reads and writes files under the work directory (``--workdir`` or
``$REVAUDIT_WORKDIR``).  Randomized stages require an explicit ``--seed``;
identical inputs and seeds reproduce artifacts byte for byte.  Failures print
a machine-readable JSON object on stderr and exit non-zero.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import assignment as asg
from . import citations as cit
from . import filtering as flt
from . import nonparametric as npar
from . import parametric as par
from . import ranking as rnk
from . import reporting as rpt
from . import synthetic as syn
from .artifacts import parsing, write_json
from .dataset import (
    REVIEWS_FILE,
    VENUE_FILE,
    VenuePolicy,
    load_dataset,
    load_venue_config,
    save_dataset,
    summarize,
)
from .errors import MissingArtifactError, RevauditError, ValidationError

RELATION_FILE = "relation.json"
ASSIGNMENT_FILE = "assignment.csv"
SWEEP_FILE = "sweep.csv"
ANALYSIS_FILE = "analysis.jsonl"
FILTER_REPORT_FILE = "filter_report.json"
EXCLUSIONS_FILE = "exclusions.csv"
MISSINGNESS_FILE = "missingness.json"
FIT_FILE = "fit.json"
RESIDUALS_FILE = "residuals.csv"
QQ_FILE = "qq.csv"
TRIPLES_FILE = "triples.csv"
PERMUTATION_FILE = "permutation.json"
RANKING_JSON_FILE = "ranking.json"
RANKING_CSV_FILE = "ranking.csv"
GROUND_TRUTH_FILE = "ground_truth.json"
REFERENCES_FILE = "references.jsonl"
INGEST_REPORT_FILE = "ingest_report.json"
REPORT_JSON_FILE = "report.json"
REPORT_TEXT_FILE = "report.txt"


def _workdir(value: str | None) -> Path:
    path = Path(value) if value else Path(".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(f"missing artifact {path.name!r}; {hint}")
    return path


def _venue_path(workdir: Path, venue_config: str | None) -> Path:
    path = Path(venue_config) if venue_config else workdir / VENUE_FILE
    return _require(path, "provide venue.json or pass --venue-config")


def _load_workdir_dataset(workdir: Path, venue_config: str | None = None):
    config = load_venue_config(_venue_path(workdir, venue_config))
    _require(workdir / REVIEWS_FILE, "provide dataset files or run `revaudit simulate`")
    return load_dataset(workdir, config)


workdir_option = click.option(
    "--workdir",
    envvar="REVAUDIT_WORKDIR",
    default=None,
    help="Artifact directory (default: $REVAUDIT_WORKDIR or the current directory).",
)

venue_config_option = click.option(
    "--venue-config",
    "venue_config",
    type=click.Path(dir_okay=False),
    default=None,
    help="Venue configuration JSON (default: workdir/venue.json).",
)


@click.group()
def cli():
    """Citation-bias audit pipeline for peer-review data."""


@cli.command()
@workdir_option
@venue_config_option
def ingest(workdir, venue_config):
    """Validate the dataset files and record headline counts."""
    wd = _workdir(workdir)
    dataset = _load_workdir_dataset(wd, venue_config)
    n_reviewers, n_submissions, n_reviews = dataset.counts
    payload = {
        "n_reviewers": n_reviewers,
        "n_submissions": n_submissions,
        "n_reviews": n_reviews,
        "n_withdrawn": sum(1 for s in dataset.submissions.values() if s.withdrawn),
    }
    write_json(wd / INGEST_REPORT_FILE, payload)
    click.echo(
        f"ingested {n_reviewers} reviewers, {n_submissions} submissions, "
        f"{n_reviews} reviews"
    )


@cli.command()
@workdir_option
@click.option("--policy", type=click.Choice([p.value for p in VenuePolicy]), required=True)
@click.option("--seed", type=int, required=True, help="Generator seed (no ambient entropy).")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON file of generator parameter overrides.")
def simulate(workdir, policy, seed, config_path):
    """Generate a synthetic conference with planted ground truth."""
    wd = _workdir(workdir)
    overrides = {}
    if config_path:
        with parsing(config_path) as source:
            overrides = {**source.json()}
    config = syn.GeneratorConfig.from_dict({**overrides, "policy": policy, "seed": seed})
    dataset, relation, truth = syn.generate(config)
    save_dataset(dataset, wd)
    syn.save_references_jsonl(dataset, wd / REFERENCES_FILE)
    syn.save_ground_truth(truth, wd / GROUND_TRUTH_FILE)
    click.echo(
        f"simulated {config.n_submissions} submissions x "
        f"{config.reviewers_per_paper} reviews ({policy}, seed {seed})"
    )


@cli.command("extract-citations")
@workdir_option
@venue_config_option
@click.option("--pairs", type=click.Choice(["reviews", "all"]), default="reviews",
              help="Evaluate review pairs only, or every submission x reviewer pair.")
@click.option("--overrides", "overrides_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="CSV of manual verdicts (submission_id, reviewer_id, cited).")
@click.option("--audit-cited", type=int, default=0, help="Sample size from the cited stratum.")
@click.option("--audit-uncited", type=int, default=0, help="Sample size from the uncited stratum.")
@click.option("--seed", type=int, default=None, help="Required when sampling audits.")
def extract_citations(workdir, venue_config, pairs, overrides_path,
                      audit_cited, audit_uncited, seed):
    """Parse reference lists and build the citation relation."""
    wd = _workdir(workdir)
    dataset = _load_workdir_dataset(wd, venue_config)
    if pairs == "reviews":
        pair_set = dataset.review_pairs()
    else:
        pair_set = {
            (s.id, rid)
            for s in dataset.active_submissions()
            for rid in dataset.reviewers
        }
    relation = cit.detect_citations(dataset, pair_set)
    if overrides_path:
        relation = relation.with_overrides(cit.load_overrides_csv(overrides_path))
    cit.save_relation(relation, wd / RELATION_FILE)

    table = summarize(dataset, relation)
    click.echo(table.format_text())
    if relation.ambiguous_pairs:
        click.echo(f"Ambiguous (colliding-key) pairs:            {len(relation.ambiguous_pairs)}")

    if audit_cited or audit_uncited:
        if seed is None:
            raise MissingArtifactError("audit sampling requires an explicit --seed")
        if audit_cited:
            sample = cit.audit_sample(relation, cit.CITED, audit_cited, seed)
            cit.save_pairs_csv(sample, wd / "audit_cited.csv")
        if audit_uncited:
            sample = cit.audit_sample(relation, cit.UNCITED, audit_uncited, seed + 1)
            cit.save_pairs_csv(sample, wd / "audit_uncited.csv")


@cli.command()
@workdir_option
@venue_config_option
@click.option("--similarity", "similarity_path", type=click.Path(dir_okay=False), default=None,
              help="Similarity CSV (default: workdir/similarity.csv).")
@click.option("--lambda", "citation_weight", type=float, default=0.0,
              help="Weight on the cited-pair count in the objective.")
@click.option("--paper-load", type=int, required=True, help="Reviewers per paper.")
@click.option("--reviewer-cap", type=int, required=True, help="Max papers per reviewer.")
@click.option("--forbid-from-bids", is_flag=True,
              help="Forbid bid-2 (ICML) or negative-preference (EC) pairs.")
@click.option("--edits", "edits_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="CSV of manual post-edits (action, submission_id, reviewer_id).")
@click.option("--sweep", default=None,
              help="Comma-separated lambdas; writes the quality/cited trade-off table.")
def assign(workdir, venue_config, similarity_path, citation_weight, paper_load,
           reviewer_cap, forbid_from_bids, edits_path, sweep):
    """Solve the citation-aware assignment exactly."""
    wd = _workdir(workdir)
    sim_path = Path(similarity_path) if similarity_path else wd / "similarity.csv"
    _require(sim_path, "provide a similarity matrix CSV")

    forbidden = frozenset()
    if forbid_from_bids:
        dataset = _load_workdir_dataset(wd, venue_config)
        forbidden = asg.forbidden_from_bids(dataset)
    sim = asg.load_similarity(sim_path, forbidden=forbidden)

    relation = None
    relation_path = wd / RELATION_FILE
    if relation_path.exists():
        relation = cit.load_relation(relation_path)
    elif citation_weight > 0 or sweep:
        raise MissingArtifactError(
            "missing artifact 'relation.json'; run `revaudit extract-citations` "
            "before assigning with a citation weight"
        )

    spec = asg.AssignmentSpec(
        paper_load=paper_load, reviewer_cap=reviewer_cap, citation_weight=citation_weight
    )
    try:
        lambdas = [float(x) for x in (sweep or "").split(",") if x.strip()]
    except ValueError as exc:
        raise ValidationError(f"--sweep takes comma-separated numbers, got {sweep!r}") from exc
    # The sweep validates every lambda before its first solve, and nothing is
    # written until every solve has succeeded.
    points = asg.tradeoff_sweep(sim, relation, spec, lambdas) if sweep else []
    result = asg.solve(sim, relation, spec)
    if edits_path:
        result = asg.apply_edits(result, asg.load_edits(edits_path), sim, relation, spec)
    asg.save_assignment(result, wd / ASSIGNMENT_FILE)
    click.echo(
        f"assigned {len(result.pairs)} pairs: quality {result.objective_quality:.6f}, "
        f"{result.cited_count} cited"
    )

    if sweep:
        with (wd / SWEEP_FILE).open("w", encoding="utf-8", newline="") as fh:
            fh.write("lambda,objective_quality,cited_count\n")
            for point in points:
                fh.write(
                    f"{point.citation_weight},{point.objective_quality},"
                    f"{point.cited_count}\n"
                )
        click.echo(f"sweep of {len(points)} lambdas written to {SWEEP_FILE}")


@cli.command("filter")
@workdir_option
@venue_config_option
def filter_cmd(workdir, venue_config):
    """Apply eligibility, missing-value, and exclusion filtering."""
    wd = _workdir(workdir)
    dataset = _load_workdir_dataset(wd, venue_config)
    relation_path = _require(
        wd / RELATION_FILE, "run `revaudit extract-citations` first"
    )
    relation = cit.load_relation(relation_path)
    analysis, report = flt.filter_dataset(dataset, relation)
    flt.save_analysis_dataset(analysis, wd / ANALYSIS_FILE)
    flt.save_filter_report(report, wd / FILTER_REPORT_FILE)
    flt.save_exclusions_csv(dataset, wd / EXCLUSIONS_FILE)
    missing = flt.missingness_report(dataset, relation)
    write_json(wd / MISSINGNESS_FILE, missing.as_dict())
    click.echo(
        f"retained {report.eligible_submissions} submissions / "
        f"{report.retained_pairs} pairs; dropped {report.dropped_missing} for "
        f"missing values; excluded {len(report.excluded_submissions)} submissions"
    )


@cli.command()
@workdir_option
@venue_config_option
@click.option("--parametric", "mode", flag_value="parametric")
@click.option("--nonparametric", "mode", flag_value="nonparametric")
@click.option("--iterations", type=int, default=10_000, show_default=True)
@click.option("--seed", type=int, default=None,
              help="Required for the permutation/bootstrap analysis.")
@click.option("--overlap-tolerance", type=float, default=npar.OVERLAP_TOLERANCE,
              show_default=True, help="Max text-overlap difference for matching.")
def analyze(workdir, venue_config, mode, iterations, seed, overlap_tolerance):
    """Run the quality-eliminating regression or the matched-pair test."""
    if mode is None:
        raise MissingArtifactError("choose --parametric or --nonparametric")
    wd = _workdir(workdir)
    config = load_venue_config(_venue_path(wd, venue_config))
    analysis_path = _require(wd / ANALYSIS_FILE, "run `revaudit filter` first")
    analysis = flt.load_analysis_dataset(analysis_path, config)

    if mode == "parametric":
        rows = par.build_rows(analysis)
        fit = par.fit_wls(rows, config.venue_policy)
        par.save_fit(fit, wd / FIT_FILE)
        lo, hi = fit.ci95
        click.echo(
            f"citation effect {fit.citation_effect:.4f} "
            f"(95% CI [{lo:.4f}, {hi:.4f}], p = {fit.p_values['citation_effect']:.4g}, "
            f"n = {fit.n_rows})"
        )
    else:
        if seed is None:
            raise MissingArtifactError("the permutation test requires an explicit --seed")
        triples = npar.match(analysis, overlap_tolerance=overlap_tolerance)
        npar.save_triples(triples, wd / TRIPLES_FILE)
        result = npar.permutation_test(triples, iterations=iterations, seed=seed)
        npar.save_permutation_result(result, wd / PERMUTATION_FILE)
        ci = result.ci95_bootstrap or (result.statistic, result.statistic)
        click.echo(
            f"mean difference {result.statistic:.4f} over {result.n_triples} triples "
            f"(95% CI [{ci[0]:.4f}, {ci[1]:.4f}], p = {result.p_two_sided:.4g})"
        )


@cli.command()
@workdir_option
@venue_config_option
def diagnostics(workdir, venue_config):
    """Export residual and Q-Q plot data for the fitted regression."""
    wd = _workdir(workdir)
    config = load_venue_config(_venue_path(wd, venue_config))
    analysis = flt.load_analysis_dataset(
        _require(wd / ANALYSIS_FILE, "run `revaudit filter` first"), config
    )
    fit = par.load_fit(_require(wd / FIT_FILE, "run `revaudit analyze --parametric` first"))
    rows = par.build_rows(analysis)
    bundle = par.diagnostics(fit, rows, config.venue_policy)
    par.save_diagnostics(bundle, wd / RESIDUALS_FILE, wd / QQ_FILE)
    click.echo(f"wrote {RESIDUALS_FILE} and {QQ_FILE} ({len(rows)} rows)")


@cli.command("effect-size")
@workdir_option
@venue_config_option
@click.option("--uncapped", is_flag=True, help="Allow the +1 to exceed the score ceiling.")
@click.option("--average-over", type=click.Choice(["pairs", "submissions"]),
              default="pairs", show_default=True)
def effect_size(workdir, venue_config, uncapped, average_over):
    """Translate a one-point score increase into expected ranking movement."""
    wd = _workdir(workdir)
    dataset = _load_workdir_dataset(wd, venue_config)
    outcome = rnk.rank_improvement(dataset, cap=not uncapped, average_over=average_over)
    rnk.save_ranking(outcome, wd / RANKING_JSON_FILE, wd / RANKING_CSV_FILE)
    click.echo(
        f"average ranking improvement {outcome.average_improvement:.2f}% "
        f"over {outcome.n_submissions} submissions"
    )


@cli.command()
@workdir_option
@venue_config_option
def report(workdir, venue_config):
    """Render the results table from whichever analyses have run."""
    wd = _workdir(workdir)
    config = load_venue_config(_venue_path(wd, venue_config))
    filter_report = None
    if (wd / FILTER_REPORT_FILE).exists():
        filter_report = flt.load_filter_report(wd / FILTER_REPORT_FILE)

    reports = []
    if (wd / FIT_FILE).exists():
        if filter_report is None:
            raise MissingArtifactError("missing artifact 'filter_report.json'; rerun `revaudit filter`")
        analysis = flt.load_analysis_dataset(
            _require(wd / ANALYSIS_FILE, "rerun `revaudit filter`"), config
        )
        fit = par.load_fit(wd / FIT_FILE)
        reports.append(rpt.build_parametric_report(fit, analysis, filter_report))
    if (wd / PERMUTATION_FILE).exists():
        triples = npar.load_triples(_require(wd / TRIPLES_FILE, "rerun the nonparametric analysis"))
        result = npar.load_permutation_result(wd / PERMUTATION_FILE)
        reports.append(rpt.build_nonparametric_report(result, triples, config))
    if not reports:
        raise MissingArtifactError(
            "no analysis artifacts found; run `revaudit analyze` before `revaudit report`"
        )

    text = rpt.save_reports(reports, filter_report, wd / REPORT_JSON_FILE, wd / REPORT_TEXT_FILE)
    click.echo(text, nl=False)


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except RevauditError as exc:
        json.dump({"error": exc.payload()}, sys.stderr)
        sys.stderr.write("\n")
        return exc.exit_code
    except click.UsageError as exc:
        json.dump({"error": {"type": "UsageError", "message": exc.format_message()}}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except click.exceptions.Abort:
        return 130
    except FileNotFoundError as exc:
        json.dump(
            {"error": {"type": "MissingArtifactError", "message": str(exc)}}, sys.stderr
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
