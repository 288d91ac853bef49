"""Synthetic conference generator with planted ground truth.

Scores follow the same linear model the parametric analysis assumes: a
baseline plus a latent per-submission quality, venue covariates, a planted
citation effect, and homoscedastic Gaussian noise.  Both the continuous
latent score and the rounded-and-clamped observed score are emitted, so
estimator-correctness checks can run on the model-exact channel while
robustness checks use the discretized one.  The citation indicator is
coupled to self-reported expertise through a Gaussian copula to reproduce
the expert-reviewers-get-cited confounding mechanism.

Also renders reference lists (six citation formats) that embed the cited
reviewers as authors, so the parsing stage can recover the planted relation,
plus a standalone corpus builder with known per-entry author ground truth
and deliberate key collisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np
from scipy.stats import norm

from .artifacts import parsing, write_json, write_jsonl
from .citations import CitationRelation, make_author_key
from .dataset import (
    EC_COVARIATES,
    ICML_COVARIATES,
    ICML_OPTIONAL_FIELDS,
    Pair,
    Reviewer,
    ReviewDataset,
    ReviewRecord,
    Submission,
    VenueConfig,
    VenuePolicy,
    preference_percentiles,
)
from .errors import InfeasibleAssignmentError, ValidationError

# Reviewer-pool surnames (with particles, hyphens, diacritics) and first names.
POOL_LAST_NAMES = (
    "Abernathy", "Bhattacharya", "Castellanos", "Dubois", "Ehrlich", "Fontaine",
    "García-López", "Hathaway", "Ibrahim", "Jaworski", "Kellerman", "Lindqvist",
    "Montgomery", "Nakashima", "Okonkwo", "Petrova", "Quintero", "Rasmussen",
    "Sørensen", "Takahashi", "Ueda", "Vasquez", "Whitfield", "Xanthopoulos",
    "Yamaguchi", "Zielinski", "van Helsing", "Núñez", "O'Connell", "de la Cruz",
    "McAllister", "Fitzgerald",
)
POOL_FIRST_NAMES = (
    "Alice", "Benjamin", "Clara", "Daniyar", "Elena", "Farid", "Gwen", "Hiro",
    "Ingrid", "Jean-Luc", "Katarina", "Liam", "Mireille", "Noor", "Óscar",
    "Priya", "Quentin", "Rosa", "Sven", "Tomás", "Uma", "Viktor", "Wei",
    "Ximena", "Yusuf", "Zofia",
)
# Filler authors never share a surname with the pool, so rendered entries
# can only match a pool reviewer when one was deliberately embedded.
FILLER_LAST_NAMES = (
    "Ainsworth", "Balakrishnan", "Cervantes", "Dimitriou", "Eriksson",
    "Fairbanks", "Grimaldi", "Holloway", "Iwasaki", "Jovanović", "Kapadia",
    "Lombardi", "Mendelssohn", "Navarro", "Ostrowski", "Pemberton",
    "Quispe", "Rutherford", "Santiago", "Thackeray", "Umarov", "Villanueva",
    "Winterbourne", "Yarmolenko", "Zanetti",
)
_TITLE_HEADS = (
    "Adaptive", "Robust", "Scalable", "Sparse", "Sequential", "Bayesian",
    "Efficient", "Distributed", "Latent", "Structured",
)
_TITLE_BODIES = (
    "estimation under heavy-tailed noise", "inference for ranked observations",
    "optimization with budget constraints", "matching in bipartite markets",
    "regression with measurement error", "testing for exchangeable data",
    "sampling from structured posteriors", "aggregation of expert judgments",
    "selection with partial feedback", "calibration of probabilistic forecasts",
)
_VENUES = (
    "Journal of Computational Methods", "Annals of Applied Decision Science",
    "Symposium on Learning Systems", "Workshop on Evaluation Design",
    "Transactions on Market Algorithms", "Review of Quantitative Studies",
)


def _initial(first_name: str) -> str:
    return first_name[0] + "."


def _render_author(last: str, first: str, inverted: bool, abbreviated: bool) -> str:
    given = _initial(first) if abbreviated else first
    return f"{last}, {given}" if inverted else f"{given} {last}"


def render_entry(
    authors: list[tuple[str, str]],
    format_id: int,
    title: str,
    venue: str,
    year: int,
    etal: bool = False,
) -> str:
    """Render one bibliography entry in one of the six supported formats."""
    if format_id not in range(6):
        raise ValidationError(f"unknown citation format {format_id}")
    if not authors and not etal:
        raise ValidationError("an entry needs authors or an et-al marker")

    if format_id == 0:  # Doe, J. and Roe, A. / serial comma list
        parts = [_render_author(l, f, True, True) for l, f in authors]
        rendered = _join_and(parts, etal)
        return f"{rendered} {title}. {venue}, {year}."
    if format_id == 1:  # Doe, Jane; Roe, Alex
        parts = [_render_author(l, f, True, False) for l, f in authors]
        if etal:
            parts.append("et al")
        rendered = _end_sentence("; ".join(parts))
        return f"{rendered} {title}. In Proceedings of {venue}, pages 101-110, {year}."
    if format_id == 2:  # J. Doe, A. Roe & B. Poe
        parts = [_render_author(l, f, False, True) for l, f in authors]
        if len(parts) > 1:
            rendered = ", ".join(parts[:-1]) + " & " + parts[-1]
        else:
            rendered = parts[0]
        if etal:
            rendered += ", et al"
        return f"{_end_sentence(rendered)} {title}. {venue} 12(3):45-67, {year}."
    if format_id == 3:  # Jane Doe and Alex Roe
        parts = [_render_author(l, f, False, False) for l, f in authors]
        rendered = _join_and(parts, etal)
        return f"{rendered} {title}. {venue}, {year}."
    if format_id == 4:  # Jane Doe, Alex Roe, et al. (2019).
        parts = [_render_author(l, f, False, False) for l, f in authors]
        parts.append("et al")
        return f"{_end_sentence(', '.join(parts))} ({year}). {title}. {venue}."
    # format 5: Doe, J., Roe, A. (2019).
    parts = [_render_author(l, f, True, True) for l, f in authors]
    if etal:
        parts.append("et al")
    return f"{_end_sentence(', '.join(parts))} ({year}). {title}. {venue}."


def _end_sentence(text: str) -> str:
    return text if text.endswith(".") else text + "."


def _join_and(parts: list[str], etal: bool) -> str:
    if len(parts) == 1:
        joined = parts[0]
    elif len(parts) == 2:
        joined = f"{parts[0]} and {parts[1]}"
    else:
        joined = ", ".join(parts[:-1]) + ", and " + parts[-1]
    if etal:
        joined += ", et al"
    return _end_sentence(joined)


def _random_title(rng: np.random.Generator) -> str:
    head = _TITLE_HEADS[rng.integers(len(_TITLE_HEADS))]
    body = _TITLE_BODIES[rng.integers(len(_TITLE_BODIES))]
    return f"{head} {body}"


def _random_year(rng: np.random.Generator) -> int:
    return int(rng.integers(1995, 2024))


@dataclass(frozen=True)
class GeneratorConfig:
    """Planted-model parameters; distributional defaults are choices of this
    toolkit, not venue-derived facts."""

    venue: VenueConfig
    n_submissions: int
    reviewers_per_paper: int
    n_reviewers: int
    baseline: float
    quality_coeff: float
    covariate_coeffs: dict[str, float]
    citation_bias: float
    noise_scale: float
    quality_mean: float = 0.0
    quality_sd: float = 1.0
    citation_prevalence: float = 0.3
    confounder_correlation: float = 0.0
    missingness: dict[str, float] = field(default_factory=dict)
    seniority_rate: float = 0.5
    expertise_weights: tuple[float, ...] = (0.25, 0.25, 0.25, 0.25)
    confidence_weights: tuple[float, ...] = (0.25, 0.25, 0.25, 0.25)
    text_overlap_mean: float = 0.5
    text_overlap_sd: float = 0.2
    bid_weights: tuple[float, ...] = (1 / 3, 1 / 3, 1 / 3)  # bids 3, 4, 5
    render_references: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.noise_scale <= 0:
            raise ValidationError("noise_scale must be positive")
        if not 0.0 <= self.citation_prevalence <= 1.0:
            raise ValidationError("citation_prevalence must lie in [0, 1]")
        if not -1.0 <= self.confounder_correlation <= 1.0:
            raise ValidationError("confounder_correlation must lie in [-1, 1]")
        allowed_missing = (
            {"preference"}
            if self.venue.venue_policy == VenuePolicy.EC_LIKE
            else set(ICML_OPTIONAL_FIELDS)
        )
        for name, rate in self.missingness.items():
            if name not in allowed_missing:
                raise ValidationError(
                    f"unknown missingness variable {name!r}; "
                    f"this policy supports {sorted(allowed_missing)}"
                )
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(f"missingness rate for {name!r} must lie in [0, 1]")
        if self.n_submissions < 1 or self.reviewers_per_paper < 1:
            raise ValidationError("need at least one submission and one reviewer per paper")
        expected = (
            EC_COVARIATES if self.venue.venue_policy == VenuePolicy.EC_LIKE else ICML_COVARIATES
        )
        if set(self.covariate_coeffs) != set(expected):
            raise ValidationError(
                f"covariate_coeffs keys must be {sorted(expected)}, "
                f"got {sorted(self.covariate_coeffs)}"
            )

    @property
    def policy(self) -> VenuePolicy:
        return self.venue.venue_policy

    @classmethod
    def ec_like(cls, **overrides) -> "GeneratorConfig":
        defaults = dict(
            venue=VenueConfig.ec_like(),
            n_submissions=300,
            reviewers_per_paper=3,
            n_reviewers=0,
            baseline=3.0,
            quality_coeff=1.0,
            covariate_coeffs={
                "sr_expertise": 0.15,
                "pref_perc": -0.003,
                "missing_pref": -0.1,
                "seniority": 0.1,
            },
            citation_bias=0.0,
            noise_scale=1.0,
            citation_prevalence=0.4,
        )
        defaults.update(overrides)
        return cls(**_with_default_pool(defaults))

    @classmethod
    def icml_like(cls, **overrides) -> "GeneratorConfig":
        defaults = dict(
            venue=VenueConfig.icml_like(),
            n_submissions=300,
            reviewers_per_paper=4,
            n_reviewers=0,
            baseline=3.5,
            quality_coeff=1.0,
            covariate_coeffs={
                "sr_expertise": 0.15,
                "sr_confidence": 0.1,
                "text_overlap": 0.5,
                "bid": 0.1,
                "seniority": 0.1,
            },
            citation_bias=0.0,
            noise_scale=1.0,
            citation_prevalence=0.3,
        )
        defaults.update(overrides)
        return cls(**_with_default_pool(defaults))

    @classmethod
    def from_dict(cls, raw: dict) -> "GeneratorConfig":
        """Build from a policy name plus parameter overrides; the policy fixes the venue."""
        allowed = (set(cls.__dataclass_fields__) - {"venue"}) | {"policy"}
        unknown = sorted(set(raw) - allowed)
        if unknown:
            raise ValidationError(
                f"unknown generator parameter {', '.join(map(repr, unknown))}"
            )
        raw = dict(raw)
        try:
            policy = VenuePolicy(raw.pop("policy", "EC_LIKE"))
            for key in ("expertise_weights", "confidence_weights", "bid_weights"):
                if key in raw:
                    raw[key] = tuple(raw[key])
            maker = cls.ec_like if policy == VenuePolicy.EC_LIKE else cls.icml_like
            return maker(**raw)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad generator parameters: {exc}") from exc


def _with_default_pool(params: dict) -> dict:
    if not params.get("n_reviewers"):
        # Average load of about five papers per reviewer, never below one
        # more reviewer than the per-paper demand.
        demand = params["n_submissions"] * params["reviewers_per_paper"]
        params["n_reviewers"] = max(params["reviewers_per_paper"] + 1, round(demand / 5))
    return params


@dataclass(frozen=True)
class GroundTruth:
    citation_bias: float
    quality: dict[str, float]
    cited: dict[Pair, bool]
    latent_scores: dict[Pair, float]


def _reviewer_name(index: int) -> tuple[str, str]:
    last = POOL_LAST_NAMES[index % len(POOL_LAST_NAMES)]
    # Large pools wrap around the bank; a bijective base-26 suffix keeps
    # surnames unique while still looking like plain name words.
    round_no = index // len(POOL_LAST_NAMES)
    suffix = ""
    while round_no:
        round_no, rem = divmod(round_no - 1, 26)
        suffix = chr(ord("a") + rem) + suffix
    first = POOL_FIRST_NAMES[index % len(POOL_FIRST_NAMES)]
    return last + suffix, first


def _normalized(weights: tuple[float, ...], size: int, label: str) -> np.ndarray:
    arr = np.asarray(weights, dtype=float)
    if arr.shape != (size,) or np.any(arr < 0) or arr.sum() <= 0:
        raise ValidationError(f"{label} must be {size} non-negative weights")
    return arr / arr.sum()


def generate(config: GeneratorConfig) -> tuple[ReviewDataset, CitationRelation, GroundTruth]:
    """Draw one conference from the planted model; deterministic given the seed."""
    rng = np.random.default_rng(config.seed)
    S, k, R = config.n_submissions, config.reviewers_per_paper, config.n_reviewers
    if k > R:
        raise InfeasibleAssignmentError(
            f"cannot assign {k} distinct reviewers per paper from a pool of {R}"
        )
    policy = config.policy

    reviewer_ids = [f"r{i + 1:04d}" for i in range(R)]
    names = [_reviewer_name(i) for i in range(R)]
    seniority = (rng.random(R) < config.seniority_rate).astype(int)
    text_profile = np.ones(R, dtype=bool)
    if policy == VenuePolicy.ICML_LIKE:
        text_profile = rng.random(R) >= config.missingness.get("text_overlap", 0.0)

    # The k smallest of each row's uniform keys: a uniform k-subset.
    assign = np.argpartition(rng.random((S, R)), k - 1, axis=1)[:, :k]
    assign.sort(axis=1)

    rho = config.confounder_correlation
    z_cite = rng.standard_normal((S, k))
    z_exp = rho * z_cite + np.sqrt(max(0.0, 1.0 - rho**2)) * rng.standard_normal((S, k))
    if config.citation_prevalence <= 0.0:
        cited = np.zeros((S, k), dtype=bool)
    elif config.citation_prevalence >= 1.0:
        cited = np.ones((S, k), dtype=bool)
    else:
        cited = z_cite > norm.ppf(1.0 - config.citation_prevalence)

    exp_weights = _normalized(config.expertise_weights, 4, "expertise_weights")
    thresholds = np.cumsum(exp_weights)[:-1]
    expertise = 1 + np.searchsorted(thresholds, norm.cdf(z_exp).ravel()).reshape(S, k)

    quality = rng.normal(config.quality_mean, config.quality_sd, S)
    noise = rng.normal(0.0, config.noise_scale, (S, k))

    if policy == VenuePolicy.ICML_LIKE:
        conf_weights = _normalized(config.confidence_weights, 4, "confidence_weights")
        confidence = rng.choice(np.arange(1, 5), size=(S, k), p=conf_weights)
        text = np.clip(
            rng.normal(config.text_overlap_mean, config.text_overlap_sd, (S, k)), 0.0, 1.0
        )
        bid_weights = _normalized(config.bid_weights, 3, "bid_weights")
        bids = rng.choice(np.arange(3, 6), size=(S, k), p=bid_weights)
        conf_missing = rng.random((S, k)) < config.missingness.get("sr_confidence", 0.0)
        bid_missing = rng.random((S, k)) < config.missingness.get("bid", 0.0)
        preference = None
        pref_missing = None
    else:
        confidence = text = bids = conf_missing = bid_missing = None
        preference = rng.integers(1, 101, size=(S, k))
        pref_missing = rng.random((S, k)) < config.missingness.get("preference", 0.0)

    submission_ids = [f"s{i + 1:04d}" for i in range(S)]
    reviewers = {
        rid: Reviewer(
            id=rid,
            last_name=names[i][0],
            first_name=names[i][1],
            seniority=int(seniority[i]),
            has_text_profile=bool(text_profile[i]),
        )
        for i, rid in enumerate(reviewer_ids)
    }

    # Review fields in (submission, slot) order; records are built once the
    # observed scores are known.  Plain lists index much faster than arrays.
    reviewer_of = assign.ravel().tolist()
    fields: list[dict] = [
        dict(
            submission_id=submission_ids[idx // k],
            reviewer_id=reviewer_ids[r],
            sr_expertise=level,
        )
        for idx, (r, level) in enumerate(zip(reviewer_of, expertise.ravel().tolist()))
    ]
    if policy == VenuePolicy.ICML_LIKE:
        has_text = text_profile.tolist()
        for kwargs, r, conf, no_conf, overlap, bid, no_bid in zip(
            fields, reviewer_of, confidence.ravel().tolist(), conf_missing.ravel().tolist(),
            text.ravel().tolist(), bids.ravel().tolist(), bid_missing.ravel().tolist(),
        ):
            if not no_conf:
                kwargs["sr_confidence"] = conf
            if has_text[r]:
                kwargs["text_overlap"] = overlap
            if not no_bid:
                kwargs["bid"] = bid
    else:
        for kwargs, pref, no_pref in zip(
            fields, preference.ravel().tolist(), pref_missing.ravel().tolist()
        ):
            if not no_pref:
                kwargs["preference_value"] = pref

    # The linear predictor uses exactly the covariates the analysis will see:
    # EC missing preferences enter through the (pref_perc=0, missing_pref=1)
    # encoding, so covariate_matrix on the emitted dataset reproduces the model.
    coeffs = config.covariate_coeffs
    sen_pair = seniority[assign]
    linear = (
        config.baseline
        + config.quality_coeff * quality[:, None]
        + coeffs["sr_expertise"] * expertise
        + coeffs["seniority"] * sen_pair
        + config.citation_bias * cited
    )
    if policy == VenuePolicy.ICML_LIKE:
        linear = (
            linear
            + coeffs["sr_confidence"] * confidence
            + coeffs["text_overlap"] * text
            + coeffs["bid"] * bids
        )
    else:
        pref_perc, missing_pref = preference_percentiles(
            assign.ravel(), np.where(pref_missing, 0, preference).ravel()
        )
        linear = (
            linear
            + coeffs["pref_perc"] * pref_perc.reshape(S, k)
            + coeffs["missing_pref"] * missing_pref.reshape(S, k)
        )

    latent = linear + noise
    observed = np.clip(
        np.rint(latent), config.venue.score_min, config.venue.score_max
    ).astype(int)

    final_records = [
        ReviewRecord(score=score, **kwargs)
        for kwargs, score in zip(fields, observed.ravel().tolist())
    ]
    final_records.sort(key=attrgetter("submission_id", "reviewer_id"))

    pairs = [(kwargs["submission_id"], kwargs["reviewer_id"]) for kwargs in fields]
    cited_map: dict[Pair, bool] = dict(zip(pairs, cited.ravel().tolist()))
    latent_map: dict[Pair, float] = dict(zip(pairs, latent.ravel().tolist()))

    cited_by_submission: dict[str, list[int]] = {
        submission_ids[s]: [r for r, c in zip(row, cited_row) if c]
        for s, (row, cited_row) in enumerate(zip(assign.tolist(), cited.tolist()))
    }
    submissions = {}
    for sid in submission_ids:
        entries: tuple[str, ...] = ()
        if config.render_references:
            entries = tuple(
                _render_reference_list(
                    rng, [(names[r][0], names[r][1]) for r in cited_by_submission[sid]]
                )
            )
        submissions[sid] = Submission(id=sid, reference_entries=entries, withdrawn=False)

    dataset = ReviewDataset(
        config=config.venue,
        reviewers=reviewers,
        submissions=submissions,
        reviews=tuple(final_records),
    )
    relation = CitationRelation(cited=cited_map)
    truth = GroundTruth(
        citation_bias=config.citation_bias,
        quality={submission_ids[s]: float(quality[s]) for s in range(S)},
        cited=cited_map,
        latent_scores=latent_map,
    )
    return dataset, relation, truth


def _filler_author(rng: np.random.Generator) -> tuple[str, str]:
    last = FILLER_LAST_NAMES[rng.integers(len(FILLER_LAST_NAMES))]
    first = POOL_FIRST_NAMES[rng.integers(len(POOL_FIRST_NAMES))]
    return last, first


def _render_reference_list(
    rng: np.random.Generator, cited_authors: list[tuple[str, str]]
) -> list[str]:
    """Entries embedding every cited reviewer as a visible author, plus filler."""
    entries = []
    pending = list(cited_authors)
    while pending:
        take = int(rng.integers(1, min(3, len(pending)) + 1))
        group = [pending.pop(0) for _ in range(take)]
        n_filler = int(rng.integers(0, 3))
        authors = group + [_filler_author(rng) for _ in range(n_filler)]
        perm = rng.permutation(len(authors))
        authors = [authors[i] for i in perm]
        fmt = int(rng.integers(0, 6))
        entries.append(
            render_entry(
                authors, fmt, _random_title(rng), _VENUES[rng.integers(len(_VENUES))],
                _random_year(rng), etal=False,
            )
        )
    for _ in range(int(rng.integers(1, 3))):
        authors = [_filler_author(rng) for _ in range(int(rng.integers(1, 4)))]
        fmt = int(rng.integers(0, 6))
        entries.append(
            render_entry(
                authors, fmt, _random_title(rng), _VENUES[rng.integers(len(_VENUES))],
                _random_year(rng), etal=bool(rng.integers(0, 2)),
            )
        )
    return entries


@dataclass(frozen=True)
class RenderedEntry:
    submission_id: str
    text: str
    authors: tuple[tuple[str, str], ...]  # visible (last, first), in rendered order
    format_id: int
    had_etal: bool


@dataclass(frozen=True)
class ReferenceCorpus:
    reviewers: list[Reviewer]
    submissions: list[Submission]
    entries: list[RenderedEntry]
    embedded_truth: dict[Pair, bool]
    colliding_keys: frozenset[str]


def reference_corpus(config: GeneratorConfig) -> ReferenceCorpus:
    """Parser-test corpus: rendered entries with exact author ground truth.

    The pool contains two deliberate key collisions (same surname, same first
    initial); every other reviewer key is unique.  Entries embed chosen pool
    reviewers with known truth, mixed with filler authors whose surnames
    never collide with the pool.
    """
    rng = np.random.default_rng(config.seed)
    R = max(4, config.n_reviewers)
    reviewers: list[Reviewer] = []
    for i in range(R):
        last, first = _reviewer_name(i)
        reviewers.append(
            Reviewer(id=f"r{i + 1:04d}", last_name=last, first_name=first, seniority=int(i % 2))
        )
    # Deliberate collisions: two Smith J., two Zhang W.
    collision_specs = [("Smith", "John"), ("Smith", "Jane"), ("Zhang", "Wei"), ("Zhang", "Wen")]
    for last, first in collision_specs:
        reviewers.append(
            Reviewer(
                id=f"r{len(reviewers) + 1:04d}", last_name=last, first_name=first, seniority=0
            )
        )
    keys = [make_author_key(r.last_name, r.first_name) for r in reviewers]
    colliding = frozenset(key for key in keys if keys.count(key) > 1)

    submissions: list[Submission] = []
    entries: list[RenderedEntry] = []
    truth: dict[Pair, bool] = {}
    for s in range(config.n_submissions):
        sid = f"s{s + 1:04d}"
        embedded = rng.permutation(len(reviewers))[: int(rng.integers(0, 4))]
        embedded_set = {int(i) for i in embedded}
        texts = []
        for i in sorted(embedded_set):
            reviewer = reviewers[i]
            n_filler = int(rng.integers(0, 3))
            authors = [(reviewer.last_name, reviewer.first_name)] + [
                _filler_author(rng) for _ in range(n_filler)
            ]
            perm = rng.permutation(len(authors))
            authors = [authors[j] for j in perm]
            fmt = int(rng.integers(0, 6))
            etal = fmt != 4 and bool(rng.integers(0, 2))
            text = render_entry(
                authors, fmt, _random_title(rng), _VENUES[rng.integers(len(_VENUES))],
                _random_year(rng), etal=etal,
            )
            entries.append(
                RenderedEntry(
                    submission_id=sid,
                    text=text,
                    authors=tuple(authors),
                    format_id=fmt,
                    had_etal=etal or fmt == 4,
                )
            )
            texts.append(text)
        if rng.integers(0, 4) == 0:
            # An et-al-only entry: no visible authors at all.
            text = render_entry(
                [], 4, _random_title(rng), _VENUES[rng.integers(len(_VENUES))],
                _random_year(rng), etal=True,
            )
            entries.append(
                RenderedEntry(
                    submission_id=sid, text=text, authors=(), format_id=4, had_etal=True
                )
            )
            texts.append(text)
        submissions.append(Submission(id=sid, reference_entries=tuple(texts)))
        for i, reviewer in enumerate(reviewers):
            truth[(sid, reviewer.id)] = i in embedded_set

    return ReferenceCorpus(
        reviewers=reviewers,
        submissions=submissions,
        entries=entries,
        embedded_truth=truth,
        colliding_keys=colliding,
    )


def save_ground_truth(truth: GroundTruth, path: Path | str) -> None:
    pairs = [
        {
            "submission_id": pair[0],
            "reviewer_id": pair[1],
            "cited": truth.cited[pair],
            "latent_score": truth.latent_scores[pair],
        }
        for pair in sorted(truth.cited)
    ]
    payload = {
        "citation_bias": truth.citation_bias,
        "quality": truth.quality,
        "pairs": pairs,
    }
    write_json(path, payload)


def load_ground_truth(path: Path | str) -> GroundTruth:
    cited = {}
    latent = {}
    with parsing(path) as source:
        payload = source.json()
        for row in payload["pairs"]:
            pair = (row["submission_id"], row["reviewer_id"])
            cited[pair] = row["cited"]
            latent[pair] = row["latent_score"]
        return GroundTruth(
            citation_bias=payload["citation_bias"],
            quality=payload["quality"],
            cited=cited,
            latent_scores=latent,
        )


def save_references_jsonl(dataset: ReviewDataset, path: Path | str) -> None:
    write_jsonl(
        path,
        (
            {"submission_id": sid, "entries": list(submission.reference_entries)}
            for sid, submission in sorted(dataset.submissions.items())
        ),
    )
