"""Analysis-eligibility filtering: strata requirement, missing-value policy,
and exclusion of adjudicated missing-citation cases.

Order of operations is fixed: eligibility (both strata non-empty), then the
venue missing-value policy, then an eligibility re-check, then exclusion of
whole submissions with an adjudicated missing-citation complaint.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import compress, groupby
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .artifacts import parsing, record_fields, require_types, write_csv, write_json, write_jsonl
from .citations import CitationRelation
from .dataset import (
    ICML_OPTIONAL_FIELDS,
    Pair,
    ReviewDataset,
    VenueConfig,
    VenuePolicy,
    covariate_matrix,
    number_submissions,
    off_scale,
    policy_covariates,
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


class _Screen(NamedTuple):
    """The filtering rules as boolean masks over ``dataset.reviews``."""

    covariates: np.ndarray  # covariate_matrix(dataset)
    cited: np.ndarray
    qualifying: np.ndarray  # active submission with both strata among all its reviews
    variables: tuple[str, ...]  # the venue's missing-value variables
    missing: np.ndarray  # one column per variable
    kept: np.ndarray  # after the missing-value drop, re-check and exclusion
    dropped_missing: int
    excluded: list[str]


def _screen(dataset: ReviewDataset, relation: CitationRelation) -> _Screen:
    reviews = dataset.reviews
    sids, codes = number_submissions(reviews)
    cited = np.array([relation.indicator(r.pair) for r in reviews], dtype=bool)

    def per_submission(rows: np.ndarray) -> np.ndarray:
        return np.bincount(codes[rows], minlength=len(sids))

    def both_strata(rows: np.ndarray) -> np.ndarray:
        """``rows`` of submissions with a cited and an uncited review among them."""
        n_rows, n_cited = per_submission(rows), per_submission(rows & cited)
        return rows & ((0 < n_cited) & (n_cited < n_rows))[codes]

    active_ids = {s.id for s in dataset.active_submissions()}
    active = np.array([sid in active_ids for sid in sids], dtype=bool)
    qualifying = both_strata(active[codes])
    covariates = covariate_matrix(dataset)
    names = policy_covariates(dataset.config.venue_policy)
    icml = dataset.config.venue_policy == VenuePolicy.ICML_LIKE
    if icml:
        variables = ICML_OPTIONAL_FIELDS
        missing = np.isnan(covariates[:, [names.index(name) for name in variables]])
    else:
        variables = ("preference_value",)
        missing = covariates[:, [names.index("missing_pref")]] == 1
    # ICML-like venues drop a pair with a missing value; EC-like ones encode it.
    dropped = qualifying & missing.any(axis=1) if icml else np.zeros_like(qualifying)
    kept = both_strata(qualifying & ~dropped)
    # Exclusion looks at every review of a submission, dropped ones included.
    adjudicated = np.array([r.exclusion_adjudicated for r in reviews], dtype=bool)
    excluded = (per_submission(adjudicated) > 0) & (per_submission(kept) > 0)
    return _Screen(
        covariates, cited, qualifying, variables, missing, kept & ~excluded[codes],
        int(dropped.sum()), list(compress(sids, excluded.tolist())),
    )


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
    screen = _screen(dataset, relation)
    if not screen.kept.any():
        raise NoAnalyzableDataError(
            "no analyzable data: no submission retains both cited and uncited reviews"
        )

    names = policy_covariates(dataset.config.venue_policy)
    kept = np.flatnonzero(screen.kept)
    records = []
    for i, cited, row in zip(
        kept.tolist(), screen.cited[kept].tolist(), screen.covariates[kept].tolist()
    ):
        review = dataset.reviews[i]
        score = float(review.score if scores is None else scores[review.pair])
        records.append(AnalysisRecord(*review.pair, score, cited, dict(zip(names, row))))
    out = {sid: tuple(rs) for sid, rs in groupby(records, attrgetter("submission_id"))}

    report = FilterReport(
        eligible_submissions=len(out),
        dropped_missing=screen.dropped_missing,
        excluded_submissions=screen.excluded,
        retained_pairs=len(kept),
    )
    return AnalysisDataset(config=dataset.config, by_submission=out), report


@dataclass(frozen=True)
class MissingnessReport:
    qualifying_pairs: int
    pairs_with_missing: int
    per_variable: dict[str, int]

    def as_dict(self) -> dict:
        return asdict(self)


def missingness_report(dataset: ReviewDataset, relation: CitationRelation) -> MissingnessReport:
    """Per-variable missing counts among pairs that qualify for analysis
    (both strata present, before any filtering)."""
    screen = _screen(dataset, relation)
    missing = screen.missing[screen.qualifying]
    return MissingnessReport(
        qualifying_pairs=len(missing),
        pairs_with_missing=int(missing.any(axis=1).sum()),
        per_variable=dict(zip(screen.variables, missing.sum(axis=0).tolist())),
    )


def save_filter_report(report: FilterReport, path: Path | str) -> None:
    write_json(path, report.as_dict())


def load_filter_report(path: Path | str) -> FilterReport:
    with parsing(path) as source:
        return FilterReport(**source.json())


def save_exclusions_csv(dataset: ReviewDataset, path: Path | str) -> None:
    """Audit trail of adjudicated pairs driving submission exclusion."""
    rows = [r.pair for r in dataset.reviews if r.exclusion_adjudicated]
    write_csv(path, ["submission_id", "reviewer_id"], rows)


def save_analysis_dataset(analysis: AnalysisDataset, path: Path | str) -> None:
    write_jsonl(
        path,
        (
            record_fields(record)
            for sid in analysis.submissions()
            for record in analysis.by_submission[sid]
        ),
    )


_ANALYSIS_TYPES = {"submission_id": str, "reviewer_id": str, "score": float, "cited": bool}


def load_analysis_dataset(path: Path | str, config: VenueConfig) -> AnalysisDataset:
    """Read ``analysis.jsonl``.

    A record whose ids are not strings, whose ``cited`` is not a boolean, or
    whose score or a covariate is not a number (``true`` is none) is a
    ParseError naming its line and the field.  One whose score lies outside
    the venue scale, whose covariate names are not the venue model's, that
    holds a non-finite covariate, or whose pair an earlier record has is a
    ValidationError naming its line.
    """
    names = set(policy_covariates(config.venue_policy))
    covariate_types = dict.fromkeys(names, float)
    score_scale = {"score": config.scales()["score"]}
    by_submission: dict[str, list[AnalysisRecord]] = {}
    seen_pairs: set[Pair] = set()
    with parsing(path) as source:
        for obj in source.jsonl():
            require_types(obj, _ANALYSIS_TYPES)
            record = AnalysisRecord(**obj)
            covariates = record.covariates
            require_types(covariates, covariate_types)
            complaint = off_scale(record, score_scale)
            if complaint:
                raise ValidationError(f"record {complaint}")
            if covariates.keys() != names:
                raise ValidationError(
                    f"record has covariates {sorted(covariates)}, not the "
                    f"{config.venue_policy.value} model's {sorted(names)}"
                )
            # A sum is finite when every term is, unless finite terms overflow.
            if not math.isfinite(sum(covariates.values())):
                bad = sorted(k for k, v in covariates.items() if not math.isfinite(v))
                if bad:
                    raise ValidationError(f"record has non-finite covariates {bad}")
            pair = record.pair
            if pair in seen_pairs:
                raise ValidationError(f"duplicate record for pair {pair}")
            seen_pairs.add(pair)
            by_submission.setdefault(record.submission_id, []).append(record)
    return AnalysisDataset(
        config=config,
        by_submission={sid: tuple(rows) for sid, rows in by_submission.items()},
    )
