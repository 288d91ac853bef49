"""Citation-bias audit toolkit for conference peer review.

Builds the submission-reviewer citation relation from reference lists,
optionally computes a citation-aware assignment, and tests whether cited
reviewers score higher using a quality-eliminating weighted regression and a
matched-pair permutation test, validated against a synthetic generator with
planted ground truth.
"""

from .assignment import (
    Assignment,
    AssignmentSpec,
    SimilarityMatrix,
    citation_coverage,
    solve,
    tradeoff_sweep,
)
from .citations import (
    CitationRelation,
    ReviewerKey,
    audit_sample,
    build_key,
    detect_citations,
    parse_reference_entry,
)
from .dataset import (
    Reviewer,
    ReviewDataset,
    ReviewRecord,
    Submission,
    VenueConfig,
    VenuePolicy,
    load_dataset,
    save_dataset,
    summarize,
)
from .errors import (
    InfeasibleAssignmentError,
    MissingArtifactError,
    NoAnalyzableDataError,
    ParseError,
    RankDeficientError,
    ReferentialError,
    RevauditError,
    SampleSizeError,
    ValidationError,
)
from .filtering import (
    AnalysisDataset,
    AnalysisRecord,
    FilterReport,
    filter_dataset,
    missingness_report,
)
from .nonparametric import (
    MatchedTriple,
    PermutationResult,
    bootstrap_ci,
    match,
    permutation_test,
)
from .parametric import AnalysisRow, FitResult, build_rows, diagnostics, fit_wls
from .ranking import RankingOutcome, rank_improvement
from .reporting import BiasReport, build_nonparametric_report, build_parametric_report
from .synthetic import GeneratorConfig, GroundTruth, generate, reference_corpus

__version__ = "0.1.0"

__all__ = [
    "AnalysisDataset",
    "AnalysisRecord",
    "AnalysisRow",
    "Assignment",
    "AssignmentSpec",
    "BiasReport",
    "CitationRelation",
    "FilterReport",
    "FitResult",
    "GeneratorConfig",
    "GroundTruth",
    "InfeasibleAssignmentError",
    "MatchedTriple",
    "MissingArtifactError",
    "NoAnalyzableDataError",
    "ParseError",
    "PermutationResult",
    "RankDeficientError",
    "RankingOutcome",
    "ReferentialError",
    "RevauditError",
    "ReviewDataset",
    "ReviewRecord",
    "Reviewer",
    "ReviewerKey",
    "SampleSizeError",
    "SimilarityMatrix",
    "Submission",
    "ValidationError",
    "VenueConfig",
    "VenuePolicy",
    "audit_sample",
    "bootstrap_ci",
    "build_key",
    "build_nonparametric_report",
    "build_parametric_report",
    "build_rows",
    "citation_coverage",
    "detect_citations",
    "diagnostics",
    "filter_dataset",
    "fit_wls",
    "generate",
    "load_dataset",
    "match",
    "missingness_report",
    "parse_reference_entry",
    "permutation_test",
    "rank_improvement",
    "reference_corpus",
    "save_dataset",
    "solve",
    "summarize",
    "tradeoff_sweep",
]
