"""Analysis-eligibility filtering: strata requirement, missing-value policy,
and exclusion of adjudicated missing-citation cases.

Order of operations is fixed: eligibility (both strata non-empty), then the
venue missing-value policy, then an eligibility re-check, then exclusion of
whole submissions with an adjudicated missing-citation complaint.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .artifacts import parsing, read_json, read_jsonl, write_csv, write_json, write_jsonl
from .citations import CitationRelation
from .dataset import (
    ICML_OPTIONAL_FIELDS,
    Pair,
    ReviewDataset,
    VenueConfig,
    VenuePolicy,
    covariate_matrix,
    ec_preference_missing,
    policy_covariates,
    score_off_scale,
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


def _both_strata(positions: list[int], cited: list[bool]) -> bool:
    """At least one cited and one uncited review (hence at least two reviews)."""
    n_cited = sum(1 for i in positions if cited[i])
    return 0 < n_cited < len(positions)


def _eligible(dataset: ReviewDataset, cited: list[bool]) -> dict[str, list[int]]:
    """Positions in ``dataset.reviews`` of the reviews of each active
    submission that has both strata, keyed by submission id."""
    by_submission: dict[str, list[int]] = {}
    for i, record in enumerate(dataset.reviews):
        by_submission.setdefault(record.submission_id, []).append(i)
    eligible = {}
    for submission in dataset.active_submissions():
        positions = by_submission.get(submission.id, [])
        if _both_strata(positions, cited):
            eligible[submission.id] = positions
    return eligible


def _cited(dataset: ReviewDataset, relation: CitationRelation) -> list[bool]:
    return [relation.indicator(record.pair) for record in dataset.reviews]


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
    reviews = dataset.reviews
    matrix = covariate_matrix(dataset)
    complete = (~np.isnan(matrix).any(axis=1)).tolist()
    rows = matrix.tolist()
    cited = _cited(dataset, relation)
    eligible = _eligible(dataset, cited)
    # Exclusion looks at every review, including those the missing-value
    # policy drops below, so collect adjudicated submissions first.
    adjudicated = {
        sid
        for sid, positions in eligible.items()
        if any(reviews[i].exclusion_adjudicated for i in positions)
    }

    dropped_missing = 0
    if dataset.config.venue_policy == VenuePolicy.ICML_LIKE:
        recheck: dict[str, list[int]] = {}
        for sid, positions in eligible.items():
            kept = [i for i in positions if complete[i]]
            dropped_missing += len(positions) - len(kept)
            if _both_strata(kept, cited):
                recheck[sid] = kept
        eligible = recheck

    excluded = sorted(adjudicated.intersection(eligible))
    for sid in excluded:
        del eligible[sid]

    if not eligible:
        raise NoAnalyzableDataError(
            "no analyzable data: no submission retains both cited and uncited reviews"
        )

    names = policy_covariates(dataset.config.venue_policy)
    out: dict[str, tuple[AnalysisRecord, ...]] = {}
    for sid in sorted(eligible):
        records = []
        for i in sorted(eligible[sid], key=lambda i: reviews[i].reviewer_id):
            record = reviews[i]
            pair = (sid, record.reviewer_id)
            if not complete[i]:
                raise ValidationError(f"incomplete covariates survived filtering: {pair}")
            score = float(record.score if scores is None else scores[pair])
            records.append(
                AnalysisRecord(
                    submission_id=sid,
                    reviewer_id=record.reviewer_id,
                    score=score,
                    cited=cited[i],
                    covariates=dict(zip(names, rows[i])),
                )
            )
        out[sid] = tuple(records)

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
    qualifying = [
        dataset.reviews[i]
        for positions in _eligible(dataset, _cited(dataset, relation)).values()
        for i in positions
    ]

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
    """Read ``analysis.jsonl``.

    A record whose score lies outside the venue scale, whose covariate names
    are not the venue model's, or that holds a non-finite covariate is a
    ValidationError naming its line.
    """
    names = set(policy_covariates(config.venue_policy))
    source = Path(path).name
    by_submission: dict[str, list[AnalysisRecord]] = {}
    with parsing(path):
        for lineno, obj in read_jsonl(path):
            record = AnalysisRecord(**obj)
            covariates = record.covariates
            complaint = score_off_scale(record.score, config)
            if complaint:
                raise ValidationError(f"{source}:{lineno} {complaint}")
            if covariates.keys() != names:
                raise ValidationError(
                    f"{source}:{lineno} has covariates {sorted(covariates)}, not the "
                    f"{config.venue_policy.value} model's {sorted(names)}"
                )
            # A sum is finite when every term is, unless finite terms overflow.
            if not math.isfinite(sum(covariates.values())):
                bad = sorted(k for k, v in covariates.items() if not math.isfinite(v))
                if bad:
                    raise ValidationError(f"{source}:{lineno} has non-finite covariates {bad}")
            by_submission.setdefault(record.submission_id, []).append(record)
    return AnalysisDataset(
        config=config,
        by_submission={sid: tuple(rows) for sid, rows in by_submission.items()},
    )
