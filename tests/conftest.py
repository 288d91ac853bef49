"""Shared builders for compact test datasets."""

import pytest

from revaudit.citations import CitationRelation
from revaudit.dataset import (
    Reviewer,
    ReviewDataset,
    ReviewRecord,
    Submission,
    VenueConfig,
)
from revaudit.filtering import AnalysisDataset, AnalysisRecord
from revaudit.nonparametric import MatchedTriple


@pytest.fixture
def ec_config():
    return VenueConfig.ec_like()


@pytest.fixture
def icml_config():
    return VenueConfig.icml_like()


def reviewer(rid, last="Doe", first="Jane", seniority=0, has_text_profile=True):
    return Reviewer(
        id=rid, last_name=last, first_name=first,
        seniority=seniority, has_text_profile=has_text_profile,
    )


def submission(sid, entries=(), withdrawn=False):
    return Submission(id=sid, reference_entries=tuple(entries), withdrawn=withdrawn)


def review(sid, rid, score, **kwargs):
    return ReviewRecord(submission_id=sid, reviewer_id=rid, score=score, **kwargs)


def build_dataset(config, reviewers, submissions, reviews):
    return ReviewDataset(
        config=config,
        reviewers={r.id: r for r in reviewers},
        submissions={s.id: s for s in submissions},
        reviews=tuple(reviews),
    )


def reviews_by_submission(dataset):
    """Each submission id with its reviews, in the dataset's pair order."""
    by_submission = {}
    for record in dataset.reviews:
        by_submission.setdefault(record.submission_id, []).append(record)
    return by_submission


def relation_for(dataset, cited_pairs):
    """Relation marking exactly `cited_pairs` cited among the dataset's review pairs."""
    cited_pairs = set(cited_pairs)
    return CitationRelation(
        cited={pair: pair in cited_pairs for pair in dataset.review_pairs()}
    )


def analysis_record(sid, rid, score, cited, **covariates):
    return AnalysisRecord(
        submission_id=sid, reviewer_id=rid, score=float(score), cited=cited,
        covariates={k: float(v) for k, v in covariates.items()},
    )


def analysis_dataset(config, records):
    by_submission = {}
    for record in records:
        by_submission.setdefault(record.submission_id, []).append(record)
    return AnalysisDataset(
        config=config,
        by_submission={sid: tuple(rows) for sid, rows in by_submission.items()},
    )


def icml_record(sid, rid, score, cited, sr_expertise=3, sr_confidence=3,
                text_overlap=0.5, bid=4, seniority=1):
    return analysis_record(
        sid, rid, score, cited,
        sr_expertise=sr_expertise, sr_confidence=sr_confidence,
        text_overlap=text_overlap, bid=bid, seniority=seniority,
    )


def triples_from(diffs):
    """One matched triple per within-triple score difference."""
    return [
        MatchedTriple(
            submission_id=f"s{i}", cited_reviewer_id=f"c{i}", uncited_reviewer_id=f"u{i}",
            score_cited=float(d), score_uncited=0.0,
        )
        for i, d in enumerate(diffs)
    ]
