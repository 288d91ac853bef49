"""Test-only parser corpus: rendered reference entries with exact author ground truth."""

from dataclasses import dataclass

import numpy as np

from revaudit.citations import make_author_key
from revaudit.dataset import Pair, Reviewer, Submission
from revaudit.synthetic import (
    _VENUES,
    GeneratorConfig,
    _filler_author,
    _random_title,
    _random_year,
    _reviewer_name,
    render_entry,
)


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
