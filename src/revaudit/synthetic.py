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
reviewers as authors, so the parsing stage can recover the planted relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

from .artifacts import write_json, write_jsonl
from .citations import CitationRelation
from .dataset import (
    ICML_OPTIONAL_FIELDS,
    Pair,
    Reviewer,
    ReviewDataset,
    ReviewRecord,
    Submission,
    VenueConfig,
    VenuePolicy,
    policy_covariates,
    preference_percentiles,
)
from .errors import InfeasibleAssignmentError, ValidationError

# Most uniform keys held at once while drawing reviewer assignments.
DRAW_BLOCK = 1 << 20

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
        expected = policy_covariates(self.policy)
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


def _masked(values: np.ndarray, missing: np.ndarray) -> list:
    """``values`` as a flat list, None where ``missing`` holds."""
    flat = zip(values.ravel().tolist(), missing.ravel().tolist())
    return [None if gone else value for value, gone in flat]


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

    # The k smallest of each row's uniform keys: a uniform k-subset.  The
    # S x R keys are drawn in row blocks of at most DRAW_BLOCK values, so
    # memory stays linear in the venue size; Generator.random fills in C
    # order, so the blocks read the same stream as one S x R draw.
    assign = np.empty((S, k), dtype=np.intp)
    rows = max(1, DRAW_BLOCK // R)
    for start in range(0, S, rows):
        keys = rng.random((min(rows, S - start), R))
        # Copy the k columns out: the slice is a view that would keep the
        # block's whole index array alive.
        assign[start:start + len(keys)] = np.argpartition(keys, k - 1, axis=1)[:, :k]
    assign.sort(axis=1)

    rho = config.confounder_correlation
    z_cite = rng.standard_normal((S, k))
    z_exp = rho * z_cite + np.sqrt(max(0.0, 1.0 - rho**2)) * rng.standard_normal((S, k))
    # ndtri is +inf at 1 and -inf at 0, so prevalence 0 cites no pair and 1 every pair.
    cited = z_cite > ndtri(1.0 - config.citation_prevalence)

    exp_weights = _normalized(config.expertise_weights, 4, "expertise_weights")
    thresholds = np.cumsum(exp_weights)[:-1]
    expertise = 1 + np.searchsorted(thresholds, ndtr(z_exp).ravel()).reshape(S, k)

    quality = rng.normal(config.quality_mean, config.quality_sd, S)
    noise = rng.normal(0.0, config.noise_scale, (S, k))

    # The linear predictor uses exactly the covariates the analysis will see:
    # EC missing preferences enter through the (pref_perc=0, missing_pref=1)
    # encoding, so covariate_matrix on the emitted dataset reproduces the model.
    coeffs = config.covariate_coeffs
    linear = (
        config.baseline
        + config.quality_coeff * quality[:, None]
        + coeffs["sr_expertise"] * expertise
        + coeffs["seniority"] * seniority[assign]
        + config.citation_bias * cited
    )
    # One list per optional review field in (submission, slot) order, None
    # where a draw is masked missing.
    confidence_col = text_col = bid_col = preference_col = [None] * (S * k)
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
        linear = (
            linear
            + coeffs["sr_confidence"] * confidence
            + coeffs["text_overlap"] * text
            + coeffs["bid"] * bids
        )
        confidence_col = _masked(confidence, conf_missing)
        text_col = _masked(text, ~text_profile[assign])
        bid_col = _masked(bids, bid_missing)
    else:
        preference = rng.integers(1, 101, size=(S, k))
        pref_missing = rng.random((S, k)) < config.missingness.get("preference", 0.0)
        pref_perc, missing_pref = preference_percentiles(
            assign.ravel(), np.where(pref_missing, 0, preference).ravel()
        )
        linear = (
            linear
            + coeffs["pref_perc"] * pref_perc.reshape(S, k)
            + coeffs["missing_pref"] * missing_pref.reshape(S, k)
        )
        preference_col = _masked(preference, pref_missing)

    latent = linear + noise
    observed = np.clip(
        np.rint(latent), config.venue.score_min, config.venue.score_max
    ).astype(int)

    submission_ids = [f"s{i + 1:04d}" for i in range(S)]
    pair_submissions = [sid for sid in submission_ids for _ in range(k)]
    pair_reviewers = [reviewer_ids[r] for r in assign.ravel().tolist()]
    reviews = tuple(map(
        ReviewRecord, pair_submissions, pair_reviewers, observed.ravel().tolist(),
        expertise.ravel().tolist(), confidence_col, text_col, bid_col, preference_col,
    ))
    pairs = list(zip(pair_submissions, pair_reviewers))
    cited_map: dict[Pair, bool] = dict(zip(pairs, cited.ravel().tolist()))
    latent_map: dict[Pair, float] = dict(zip(pairs, latent.ravel().tolist()))

    submissions = {}
    for sid, row, cited_row in zip(submission_ids, assign.tolist(), cited.tolist()):
        entries: tuple[str, ...] = ()
        if config.render_references:
            cited_names = [names[r] for r, c in zip(row, cited_row) if c]
            entries = tuple(_render_reference_list(rng, cited_names))
        submissions[sid] = Submission(id=sid, reference_entries=entries, withdrawn=False)

    dataset = ReviewDataset(
        config=config.venue,
        reviewers=reviewers,
        submissions=submissions,
        reviews=reviews,
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


def save_references_jsonl(dataset: ReviewDataset, path: Path | str) -> None:
    write_jsonl(
        path,
        (
            {"submission_id": sid, "entries": list(submission.reference_entries)}
            for sid, submission in sorted(dataset.submissions.items())
        ),
    )
