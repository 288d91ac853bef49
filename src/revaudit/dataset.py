"""Review-data model: ingestion, validation, serialization, and venue covariates.

The on-disk format is one directory holding ``venue.json`` plus three
JSON-Lines files (``reviewers.jsonl``, ``submissions.jsonl``,
``reviews.jsonl``), one object per line, optional fields omitted when absent.
An optional ``references.jsonl`` (submission_id -> list of reference-entry
strings) supplements submissions whose inline entries are empty.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .artifacts import parsing, record_fields, require_types, write_json, write_jsonl
from .errors import ParseError, ReferentialError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .citations import CitationRelation

VENUE_FILE = "venue.json"
REVIEWERS_FILE = "reviewers.jsonl"
SUBMISSIONS_FILE = "submissions.jsonl"
REVIEWS_FILE = "reviews.jsonl"
REFERENCES_FILE = "references.jsonl"

Pair = tuple[str, str]


class VenuePolicy(str, Enum):
    """Which venue conventions govern covariates and filtering."""

    EC_LIKE = "EC_LIKE"
    ICML_LIKE = "ICML_LIKE"


# Covariate names entering the differenced regression, in model order.
EC_COVARIATES = ("sr_expertise", "pref_perc", "missing_pref", "seniority")
ICML_COVARIATES = ("sr_expertise", "sr_confidence", "text_overlap", "bid", "seniority")

# ICML-like review fields that may be absent; a pair missing any of them is
# dropped from the analysis.
ICML_OPTIONAL_FIELDS = ("sr_confidence", "text_overlap", "bid")


def policy_covariates(policy: VenuePolicy) -> tuple[str, ...]:
    return EC_COVARIATES if policy == VenuePolicy.EC_LIKE else ICML_COVARIATES


@dataclass(frozen=True)
class VenueConfig:
    score_min: int
    score_max: int
    venue_policy: VenuePolicy
    expertise_scale: tuple[int, int] = (1, 4)
    bid_scale: tuple[int, int] | None = None
    preference_range: tuple[int, int] | None = None

    def __post_init__(self):
        if self.score_min >= self.score_max:
            raise ValidationError(
                f"score_min must be below score_max, got [{self.score_min}, {self.score_max}]"
            )

    @property
    def score_span(self) -> int:
        """Width of the admissible range of differenced statistics."""
        return self.score_max - self.score_min

    def scales(self) -> dict[str, tuple[int, int]]:
        """The inclusive range of each bounded review field this venue sets."""
        scales = {
            "score": (self.score_min, self.score_max),
            "sr_expertise": self.expertise_scale,
            "sr_confidence": self.expertise_scale,
            "bid": self.bid_scale,
            "preference_value": self.preference_range,
        }
        return {name: scale for name, scale in scales.items() if scale is not None}

    @classmethod
    def ec_like(cls, score_min: int = 1, score_max: int = 5) -> "VenueConfig":
        return cls(
            score_min=score_min,
            score_max=score_max,
            venue_policy=VenuePolicy.EC_LIKE,
            preference_range=(-100, 100),
        )

    @classmethod
    def icml_like(cls, score_min: int = 1, score_max: int = 6) -> "VenueConfig":
        return cls(
            score_min=score_min,
            score_max=score_max,
            venue_policy=VenuePolicy.ICML_LIKE,
            bid_scale=(2, 5),
        )


@dataclass(frozen=True)
class Reviewer:
    id: str
    last_name: str
    first_name: str
    seniority: int
    has_text_profile: bool = True

    def __post_init__(self):
        if not self.last_name:
            raise ValidationError(f"reviewer {self.id!r}: last_name must be non-empty")
        if self.seniority not in (0, 1):
            raise ValidationError(
                f"reviewer {self.id!r}: seniority must be 0 or 1, got {self.seniority!r}"
            )


@dataclass(frozen=True)
class Submission:
    id: str
    reference_entries: tuple[str, ...] = ()
    withdrawn: bool = False


@dataclass(frozen=True)
class ReviewRecord:
    submission_id: str
    reviewer_id: str
    score: int
    sr_expertise: int
    sr_confidence: int | None = None
    text_overlap: float | None = None
    bid: int | None = None
    preference_value: int | None = None
    missing_citation_flag: bool = False
    exclusion_adjudicated: bool = False

    def __post_init__(self):
        if self.text_overlap is not None and not 0.0 <= self.text_overlap <= 1.0:
            raise ValidationError(f"{self._tag()}: text_overlap must lie in [0, 1]")
        if self.exclusion_adjudicated and not self.missing_citation_flag:
            raise ValidationError(
                f"{self._tag()}: exclusion_adjudicated requires missing_citation_flag"
            )

    def _tag(self) -> str:
        return f"review ({self.submission_id!r}, {self.reviewer_id!r})"

    @property
    def pair(self) -> Pair:
        return (self.submission_id, self.reviewer_id)


@dataclass(frozen=True)
class ReviewDataset:
    """Immutable container for one venue's reviewers, submissions, and reviews;
    ``reviews`` is in (submission_id, reviewer_id) order, whatever the input order."""

    config: VenueConfig
    reviewers: dict[str, Reviewer]
    submissions: dict[str, Submission]
    reviews: tuple[ReviewRecord, ...]

    def __post_init__(self):
        ordered = sorted(self.reviews, key=attrgetter("submission_id", "reviewer_id"))
        object.__setattr__(self, "reviews", tuple(ordered))

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.reviewers), len(self.submissions), len(self.reviews))

    def active_submissions(self) -> list[Submission]:
        """Submissions that were not withdrawn, in id order."""
        return [s for _, s in sorted(self.submissions.items()) if not s.withdrawn]

    def review_pairs(self) -> set[Pair]:
        return {r.pair for r in self.reviews}


@dataclass(frozen=True)
class SummaryTable:
    n_reviewers: int
    n_submissions: int
    n_with_cited_reviewer: int
    fraction_with_cited: float

    def format_text(self) -> str:
        pct = round(self.fraction_with_cited * 100)
        return "\n".join(
            [
                f"Reviewers:                                  {self.n_reviewers:,}",
                f"Submissions:                                {self.n_submissions:,}",
                f"Submissions with >=1 cited reviewer:        {self.n_with_cited_reviewer:,}",
                f"Fraction with >=1 cited reviewer:           {pct}%",
            ]
        )


def load_venue_config(path: Path | str) -> VenueConfig:
    """Read ``venue.json``; the score bounds must be integers and each scale
    present a list of two integers, else a ParseError names the field."""
    with parsing(path) as source:
        raw = source.json()
        try:
            policy = VenuePolicy(raw["venue_policy"])
        except (KeyError, ValueError) as exc:
            raise ValidationError("unknown venue_policy") from exc
        require_types(raw, {"score_min": int, "score_max": int})
        scales = {}
        for name in ("expertise_scale", "bid_scale", "preference_range"):
            if name in raw:
                scale = raw[name]
                if type(scale) is not list or [type(v) for v in scale] != [int, int]:
                    raise ParseError(f"{name} must be a list of two integers")
                scales[name] = tuple(scale)
        return VenueConfig(
            score_min=raw["score_min"], score_max=raw["score_max"], venue_policy=policy, **scales
        )


# The exact type of each record field that load_dataset checks.
_REVIEWER_TYPES = {
    "id": str, "last_name": str, "first_name": str, "seniority": int, "has_text_profile": bool,
}
_SUBMISSION_TYPES = {"id": str, "withdrawn": bool}
_REVIEW_TYPES = {
    "score": int, "sr_expertise": int, "sr_confidence": int, "text_overlap": float, "bid": int,
    "preference_value": int, "missing_citation_flag": bool, "exclusion_adjudicated": bool,
}
_REVIEW_OPTIONAL = ("sr_confidence", "text_overlap", "bid", "preference_value")


def _entries(field: str, value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(entry, str) for entry in value):
        raise ParseError(f"{field} must be a list of strings")
    return tuple(value)


def load_dataset(path: Path | str, config: VenueConfig | None = None) -> ReviewDataset:
    """Load and validate a dataset directory.

    ``config`` defaults to the directory's ``venue.json``.  Raises, naming the
    file and line, :class:`ParseError` on malformed records (ids, names and
    reference entries must be strings, flags booleans, scores and scale
    values integers, text overlaps numbers), :class:`ReferentialError` on
    dangling ids, and :class:`ValidationError` on out-of-scale values.  Types
    are checked first, so the message names the field.
    """
    root = Path(path)
    if config is None:
        config = load_venue_config(root / VENUE_FILE)

    reviewers: dict[str, Reviewer] = {}
    with parsing(root / REVIEWERS_FILE) as source:
        for obj in source.jsonl():
            require_types(obj, _REVIEWER_TYPES)
            reviewer = Reviewer(**obj)
            if reviewer.id in reviewers:
                raise ValidationError(f"duplicate reviewer id {reviewer.id!r}")
            reviewers[reviewer.id] = reviewer

    submissions: dict[str, Submission] = {}
    with parsing(root / SUBMISSIONS_FILE) as source:
        for obj in source.jsonl():
            require_types(obj, _SUBMISSION_TYPES)
            if "reference_entries" in obj:
                obj["reference_entries"] = _entries("reference_entries", obj["reference_entries"])
            submission = Submission(**obj)
            if submission.id in submissions:
                raise ValidationError(f"duplicate submission id {submission.id!r}")
            submissions[submission.id] = submission

    ref_path = root / REFERENCES_FILE
    if ref_path.exists():
        with parsing(ref_path) as source:
            for obj in source.jsonl():
                sid = obj.get("submission_id")
                if sid not in submissions:
                    raise ReferentialError(f"unknown submission id {sid!r}")
                entries = _entries("entries", obj.get("entries", []))
                if not submissions[sid].reference_entries:
                    submissions[sid] = replace(submissions[sid], reference_entries=entries)

    # Ids are strings by now, so the membership tests reject any other id.
    scales = config.scales()
    reviews: list[ReviewRecord] = []
    seen_pairs: set[Pair] = set()
    with parsing(root / REVIEWS_FILE) as source:
        for obj in source.jsonl():
            require_types(obj, _REVIEW_TYPES, _REVIEW_OPTIONAL)
            record = ReviewRecord(**obj)
            if record.submission_id not in submissions:
                raise ReferentialError(
                    f"review references unknown submission {record.submission_id!r}"
                )
            if record.reviewer_id not in reviewers:
                raise ReferentialError(
                    f"review references unknown reviewer {record.reviewer_id!r}"
                )
            if record.pair in seen_pairs:
                raise ValidationError(f"duplicate review for pair {record.pair}")
            seen_pairs.add(record.pair)
            complaint = off_scale(record, scales)
            if complaint:
                raise ValidationError(f"{record._tag()} {complaint}")
            reviews.append(record)

    return ReviewDataset(
        config=config, reviewers=reviewers, submissions=submissions, reviews=tuple(reviews)
    )


def off_scale(record, scales: dict[str, tuple[int, int]]) -> str | None:
    """What is wrong with the first field of ``scales`` that ``record`` holds
    outside its range (NaN included), else None."""
    for name, (lo, hi) in scales.items():
        value = getattr(record, name)
        if value is not None and not lo <= value <= hi:
            return f"has {name} {value} outside [{lo}, {hi}]"
    return None


def save_dataset(dataset: ReviewDataset, path: Path | str) -> None:
    """Write the canonical serialization; ``load_dataset`` round-trips it byte-identically."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    write_json(root / VENUE_FILE, record_fields(dataset.config))
    write_jsonl(
        root / REVIEWERS_FILE, (record_fields(r) for _, r in sorted(dataset.reviewers.items()))
    )
    write_jsonl(
        root / SUBMISSIONS_FILE, (record_fields(s) for _, s in sorted(dataset.submissions.items()))
    )
    write_jsonl(root / REVIEWS_FILE, map(record_fields, dataset.reviews))


def preference_percentiles(
    reviewer_codes: np.ndarray, preferences: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """EC-like ``(pref_perc, missing_pref)`` per review.

    ``preferences`` holds 0 where a preference is missing (EC-like venues
    store 0 for "not reported"), which encodes as (0, 1).  A positive
    preference becomes its within-reviewer percentile over that reviewer's
    positive preferences, ``100 * #{greater} / (n - 1)`` (0 = top choice,
    100 = bottom; a single positive preference maps to 0).  A negative one
    ranks bottom, (100, 0).
    """
    codes = np.asarray(reviewer_codes)
    prefs = np.asarray(preferences)
    pref_perc = np.where(prefs < 0, 100.0, 0.0)
    missing_pref = (prefs == 0).astype(float)

    # One sortable key per positive preference, reviewer-major with the dense
    # rank of the value below it; a reviewer's block of keys is then
    # [code * m, (code + 1) * m), and the entries greater than a key follow it.
    positive = prefs > 0
    code = codes[positive]
    _, rank = np.unique(prefs[positive], return_inverse=True)
    m = len(rank)
    key = code * m + rank
    keys = np.sort(key)
    start = np.searchsorted(keys, code * m)
    end = np.searchsorted(keys, (code + 1) * m)
    greater = end - np.searchsorted(keys, key, side="right")
    pref_perc[positive] = 100.0 * greater / np.maximum(end - start - 1, 1)
    return pref_perc, missing_pref


def number_submissions(reviews: Sequence[ReviewRecord]) -> tuple[list[str], np.ndarray]:
    """The submission ids of ``reviews`` in order of first appearance, and each
    review's index into them; for reviews in pair order, ids in sorted order."""
    code_of: dict[str, int] = {}
    codes = [code_of.setdefault(r.submission_id, len(code_of)) for r in reviews]
    return list(code_of), np.array(codes, dtype=np.intp)


def covariate_matrix(dataset: ReviewDataset) -> np.ndarray:
    """Covariates following the venue policy: one row per entry of
    ``dataset.reviews``, columns in :func:`policy_covariates` order.

    EC-like: ``pref_perc`` and ``missing_pref`` from
    :func:`preference_percentiles`; a negative preference warns, since the
    pair was assigned although the reviewer declined it.  ICML-like: the raw
    variables, NaN where a value is missing; such pairs leave the analysis.
    """
    reviews = dataset.reviews
    policy = dataset.config.venue_policy
    columns = {
        "sr_expertise": [r.sr_expertise for r in reviews],
        "seniority": [dataset.reviewers[r.reviewer_id].seniority for r in reviews],
    }
    if policy == VenuePolicy.EC_LIKE:
        prefs = np.array([r.preference_value or 0 for r in reviews])
        for i in np.flatnonzero(prefs < 0):
            record = reviews[i]
            warnings.warn(
                f"{record._tag()}: assigned despite negative preference "
                f"{record.preference_value}",
                UserWarning,
                stacklevel=2,
            )
        code = {rid: i for i, rid in enumerate(dataset.reviewers)}
        columns["pref_perc"], columns["missing_pref"] = preference_percentiles(
            np.array([code[r.reviewer_id] for r in reviews], dtype=int), prefs
        )
    else:
        for name in ICML_OPTIONAL_FIELDS:
            columns[name] = [getattr(r, name) for r in reviews]
    return np.column_stack(
        [np.array(columns[name], dtype=float) for name in policy_covariates(policy)]
    )


def summarize(dataset: ReviewDataset, relation: "CitationRelation") -> SummaryTable:
    """Headline counts over non-withdrawn submissions and the citation relation."""
    active = dataset.active_submissions()
    with_cited = {r.submission_id for r in dataset.reviews if relation.indicator(r.pair)}
    n_cited = sum(s.id in with_cited for s in active)
    fraction = n_cited / len(active) if active else 0.0
    return SummaryTable(
        n_reviewers=len(dataset.reviewers),
        n_submissions=len(active),
        n_with_cited_reviewer=n_cited,
        fraction_with_cited=fraction,
    )
