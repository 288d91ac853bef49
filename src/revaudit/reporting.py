"""Result tables: one block per analysis with sample sizes, statistic, CI, p.

Rendered both as aligned text and as JSON; totals are cross-checked against
the filter report so the table can never drift from the audit trail.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

from .artifacts import write_json
from .dataset import VenueConfig, VenuePolicy
from .errors import ValidationError
from .filtering import AnalysisDataset, FilterReport
from .nonparametric import P_EXACT, P_MONTE_CARLO, MatchedTriple, PermutationResult
from .parametric import FitResult

PARAMETRIC = "parametric"
NONPARAMETRIC = "nonparametric"

P_METHOD_T = "t"
P_METHOD_LABELS = {
    P_METHOD_T: "t distribution",
    P_EXACT: "Exact sign-flip",
    P_MONTE_CARLO: "Monte Carlo sign-flip",
}

CAVEAT_UNACCOUNTED = "genuinely-missing-citation rate unaccounted (~5%)"
CAVEAT_WITHIN_REVIEWER = "within-reviewer score correlations tolerated"


@dataclass(frozen=True)
class BiasReport:
    venue_label: str
    analysis: str
    n_submissions: int
    n_reviewers: int
    n_pairs: int
    statistic: float
    ci95: tuple[float, float]
    p_two_sided: float
    p_method: str  # "t" (WLS), "exact" or "monte_carlo" (permutation test)
    scale_points: int
    missing_values: str
    missing_citations: str
    caveats: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return asdict(self)


def _check_statistic(statistic: float, config: VenueConfig) -> None:
    if abs(statistic) > config.score_span:
        raise ValidationError(
            f"statistic {statistic} outside admissible range "
            f"[-{config.score_span}, {config.score_span}]"
        )


def build_parametric_report(
    fit: FitResult,
    analysis: AnalysisDataset,
    filter_report: FilterReport,
) -> BiasReport:
    config = analysis.config
    _check_statistic(fit.citation_effect, config)
    if fit.n_rows != filter_report.eligible_submissions:
        raise ValidationError(
            f"fit rows ({fit.n_rows}) disagree with the filter report "
            f"({filter_report.eligible_submissions} eligible submissions)"
        )
    if analysis.n_pairs != filter_report.retained_pairs:
        raise ValidationError(
            f"analysis pairs ({analysis.n_pairs}) disagree with the filter report "
            f"({filter_report.retained_pairs} retained pairs)"
        )
    policy = config.venue_policy
    caveats = [CAVEAT_WITHIN_REVIEWER]
    if policy == VenuePolicy.ICML_LIKE and not filter_report.excluded_submissions:
        missing_citations = "Unaccounted (~5%)"
        caveats.insert(0, CAVEAT_UNACCOUNTED)
    else:
        missing_citations = "Removed"
    return BiasReport(
        venue_label=policy.value,
        analysis=PARAMETRIC,
        n_submissions=fit.n_rows,
        n_reviewers=len(analysis.reviewers()),
        n_pairs=analysis.n_pairs,
        statistic=fit.citation_effect,
        ci95=fit.ci95,
        p_two_sided=fit.p_values["citation_effect"],
        p_method=P_METHOD_T,
        scale_points=config.score_span + 1,
        missing_values="Incorporated" if policy == VenuePolicy.EC_LIKE else "Removed",
        missing_citations=missing_citations,
        caveats=tuple(caveats),
    )


def build_nonparametric_report(
    result: PermutationResult,
    triples: list[MatchedTriple],
    config: VenueConfig,
) -> BiasReport:
    _check_statistic(result.statistic, config)
    submissions = {t.submission_id for t in triples}
    reviewers = {t.cited_reviewer_id for t in triples} | {
        t.uncited_reviewer_id for t in triples
    }
    if result.n_triples != len(triples):
        raise ValidationError(
            f"permutation result reports {result.n_triples} triples "
            f"but {len(triples)} were given"
        )
    ci = (
        result.ci95_bootstrap
        if result.ci95_bootstrap
        else (result.statistic, result.statistic)
    )
    return BiasReport(
        venue_label=config.venue_policy.value,
        analysis=NONPARAMETRIC,
        n_submissions=len(submissions),
        n_reviewers=len(reviewers),
        n_pairs=2 * result.n_triples,
        statistic=result.statistic,
        ci95=ci,
        p_two_sided=result.p_two_sided,
        p_method=result.p_method,
        scale_points=config.score_span + 1,
        missing_values="Removed",
        missing_citations="Removed",
        caveats=(CAVEAT_WITHIN_REVIEWER,),
    )


def render_reports_text(reports: list[BiasReport], filter_report: FilterReport | None) -> str:
    """Aligned text table, one column per analysis."""
    if not reports:
        return "No analyses found. Run `revaudit analyze` first.\n"
    label_width = 30
    col_width = max(24, *(len(r.venue_label) + 2 for r in reports))

    def row(label: str, values: list[str]) -> str:
        cells = "".join(value.ljust(col_width) for value in values)
        return f"{label.ljust(label_width)}{cells}".rstrip()

    lines = [
        row("", [r.venue_label for r in reports]),
        row("Analysis", [r.analysis.capitalize() for r in reports]),
        row("Missing Values", [r.missing_values for r in reports]),
        row("Genuinely Missing Citations", [r.missing_citations for r in reports]),
        row("# Submissions", [f"{r.n_submissions:,}" for r in reports]),
        row("# Reviewers", [f"{r.n_reviewers:,}" for r in reports]),
        row("# (S, R)-pairs", [f"{r.n_pairs:,}" for r in reports]),
        row(
            "Test Statistic",
            [f"{r.statistic:.2f} on {r.scale_points}-point scale" for r in reports],
        ),
        row(
            "Test Statistic (95% CI)",
            [f"[{r.ci95[0]:.2f}, {r.ci95[1]:.2f}]" for r in reports],
        ),
        row("P value", [f"{r.p_two_sided:.3g}" for r in reports]),
        row("P value method", [P_METHOD_LABELS[r.p_method] for r in reports]),
    ]
    if filter_report is not None:
        lines.append("")
        lines.append(
            f"Filtering: {filter_report.eligible_submissions:,} eligible submissions, "
            f"{filter_report.retained_pairs:,} retained pairs, "
            f"{filter_report.dropped_missing:,} pairs dropped for missing values, "
            f"{len(filter_report.excluded_submissions)} submissions excluded."
        )
    caveats = sorted({c for r in reports for c in r.caveats})
    if caveats:
        lines.append("")
        lines.append("Caveats:")
        lines.extend(f"  - {c}" for c in caveats)
    return "\n".join(lines) + "\n"


def save_reports(
    reports: list[BiasReport],
    filter_report: FilterReport | None,
    json_path: Path | str,
    text_path: Path | str,
) -> str:
    payload = {
        "reports": [r.as_dict() for r in reports],
        "filter_report": filter_report.as_dict() if filter_report else None,
    }
    write_json(json_path, payload)
    text = render_reports_text(reports, filter_report)
    Path(text_path).write_text(text, encoding="utf-8")
    return text
