"""Analysis-eligibility filtering: strata requirement, missing-value policy,
and exclusion of adjudicated missing-citation cases.

Order of operations is fixed: eligibility (both strata non-empty), then the
venue missing-value policy, then an eligibility re-check, then exclusion of
whole submissions with an adjudicated missing-citation complaint.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from operator import attrgetter
from pathlib import Path

from .artifacts import parsing, read_json, read_jsonl, write_csv, write_json, write_jsonl
from .citations import CitationRelation
from .dataset import (
    ICML_OPTIONAL_FIELDS,
    Pair,
    ReviewDataset,
    ReviewRecord,
    VenueConfig,
    VenuePolicy,
    covariate_values,
    ec_preference_missing,
)
from .errors import NoAnalyzableDataError, ValidationError


@dataclass(frozen=True)
class AnalysisRecord:
    submission_id: str
    reviewer_id: str
    score: float
    cited: bool
    covariates: dict[str, float]

    @property
    def pair(self) -> Pair:
        return (self.submission_id, self.reviewer_id)


@dataclass(frozen=True)
class AnalysisDataset:
    """Filtered view ready for inference: per submission, both strata non-empty."""

    config: VenueConfig
    by_submission: dict[str, tuple[AnalysisRecord, ...]]

    @property
    def policy(self) -> VenuePolicy:
        return self.config.venue_policy

    @property
    def n_pairs(self) -> int:
        return sum(len(records) for records in self.by_submission.values())

    def submissions(self) -> list[str]:
        return sorted(self.by_submission)

    def reviewers(self) -> set[str]:
        return {r.reviewer_id for records in self.by_submission.values() for r in records}


@dataclass
class FilterReport:
    eligible_submissions: int
    dropped_missing: int
    excluded_submissions: list[str]
    retained_pairs: int

    def as_dict(self) -> dict:
        return asdict(self)


def _both_strata(records: list[ReviewRecord], relation: CitationRelation) -> bool:
    """At least one cited and one uncited review (hence at least two reviews)."""
    cited = sum(1 for r in records if relation.indicator(r.pair))
    return 0 < cited < len(records)


def _eligible(dataset: ReviewDataset, relation: CitationRelation) -> dict[str, list[ReviewRecord]]:
    """Reviews of each active submission that has both strata, keyed by id."""
    by_submission = dataset.reviews_by_submission()
    eligible = {}
    for submission in dataset.active_submissions():
        records = by_submission.get(submission.id, [])
        if _both_strata(records, relation):
            eligible[submission.id] = records
    return eligible


def filter_dataset(
    dataset: ReviewDataset,
    relation: CitationRelation,
    scores: dict[Pair, float] | None = None,
) -> tuple[AnalysisDataset, FilterReport]:
    """Produce the analysis-eligible dataset and its audit report.

    Keeps submissions with at least one cited and one uncited assigned
    review; under the ICML-like policy drops pairs with any missing
    covariate (re-checking eligibility afterwards); removes every submission
    carrying an adjudicated missing-citation complaint.  ``scores`` can remap
    pair scores (e.g. to a generator's latent channel) without touching the
    stored dataset.
    """
    if dataset.derived is None:
        vectors = {pair: values[2] for pair, values in covariate_values(dataset).items()}
    else:
        vectors = {pair: derived.covariate_vector for pair, derived in dataset.derived.items()}
    eligible = _eligible(dataset, relation)
    # Exclusion looks at every review, including those the missing-value
    # policy drops below, so collect adjudicated submissions first.
    adjudicated = {
        sid for sid, records in eligible.items() if any(r.exclusion_adjudicated for r in records)
    }

    dropped_missing = 0
    if dataset.config.venue_policy == VenuePolicy.ICML_LIKE:
        recheck: dict[str, list[ReviewRecord]] = {}
        for sid, records in eligible.items():
            kept = [r for r in records if all(v is not None for _, v in vectors[r.pair])]
            dropped_missing += len(records) - len(kept)
            if _both_strata(kept, relation):
                recheck[sid] = kept
        eligible = recheck

    excluded = sorted(adjudicated.intersection(eligible))
    for sid in excluded:
        del eligible[sid]

    if not eligible:
        raise NoAnalyzableDataError(
            "no analyzable data: no submission retains both cited and uncited reviews"
        )

    by_pair = attrgetter("submission_id", "reviewer_id")
    out: dict[str, tuple[AnalysisRecord, ...]] = {}
    for sid in sorted(eligible):
        rows = []
        for record in sorted(eligible[sid], key=by_pair):
            pair = record.pair
            covariates = dict(vectors[pair])
            if None in covariates.values():
                raise ValidationError(f"incomplete covariates survived filtering: {pair}")
            score = float(record.score if scores is None else scores[pair])
            rows.append(
                AnalysisRecord(
                    submission_id=sid,
                    reviewer_id=record.reviewer_id,
                    score=score,
                    cited=relation.indicator(pair),
                    covariates=covariates,
                )
            )
        out[sid] = tuple(rows)

    report = FilterReport(
        eligible_submissions=len(out),
        dropped_missing=dropped_missing,
        excluded_submissions=excluded,
        retained_pairs=sum(len(v) for v in out.values()),
    )
    return AnalysisDataset(config=dataset.config, by_submission=out), report


@dataclass(frozen=True)
class MissingnessReport:
    qualifying_pairs: int
    pairs_with_missing: int
    per_variable: dict[str, int]

    def format_text(self) -> str:
        lines = [
            f"Pairs qualifying for analysis:   {self.qualifying_pairs:,}",
            f"Pairs with any missing variable: {self.pairs_with_missing:,}",
        ]
        for name, count in self.per_variable.items():
            lines.append(f"  missing {name}: {count:,}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return asdict(self)


def missingness_report(dataset: ReviewDataset, relation: CitationRelation) -> MissingnessReport:
    """Per-variable missing counts among pairs that qualify for analysis
    (both strata present, before any filtering)."""
    policy = dataset.config.venue_policy
    qualifying = [r for records in _eligible(dataset, relation).values() for r in records]

    if policy == VenuePolicy.ICML_LIKE:
        variables = ICML_OPTIONAL_FIELDS
        missing = {
            name: sum(1 for r in qualifying if getattr(r, name) is None) for name in variables
        }
        any_missing = sum(
            1 for r in qualifying if any(getattr(r, name) is None for name in variables)
        )
    else:
        missing = {
            "preference_value": sum(
                1 for r in qualifying if ec_preference_missing(r.preference_value)
            )
        }
        any_missing = missing["preference_value"]

    return MissingnessReport(
        qualifying_pairs=len(qualifying),
        pairs_with_missing=any_missing,
        per_variable=missing,
    )


def save_filter_report(report: FilterReport, path: Path | str) -> None:
    write_json(path, report.as_dict())


def load_filter_report(path: Path | str) -> FilterReport:
    with parsing(path):
        return FilterReport(**read_json(path))


def save_exclusions_csv(dataset: ReviewDataset, path: Path | str) -> None:
    """Audit trail of adjudicated pairs driving submission exclusion."""
    rows = sorted(r.pair for r in dataset.reviews if r.exclusion_adjudicated)
    write_csv(path, ["submission_id", "reviewer_id"], rows)


def _analysis_record_dict(record: AnalysisRecord) -> dict:
    return {
        "submission_id": record.submission_id,
        "reviewer_id": record.reviewer_id,
        "score": record.score,
        "cited": record.cited,
        "covariates": record.covariates,
    }


def save_analysis_dataset(analysis: AnalysisDataset, path: Path | str) -> None:
    write_jsonl(
        path,
        (
            _analysis_record_dict(record)
            for sid in analysis.submissions()
            for record in analysis.by_submission[sid]
        ),
    )


def load_analysis_dataset(path: Path | str, config: VenueConfig) -> AnalysisDataset:
    by_submission: dict[str, list[AnalysisRecord]] = {}
    with parsing(path):
        for _, obj in read_jsonl(path):
            record = AnalysisRecord(**obj)
            by_submission.setdefault(record.submission_id, []).append(record)
    return AnalysisDataset(
        config=config,
        by_submission={sid: tuple(rows) for sid, rows in by_submission.items()},
    )
