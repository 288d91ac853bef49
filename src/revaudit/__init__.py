"""Citation-bias audit toolkit for conference peer review.

Builds the submission-reviewer citation relation from reference lists,
optionally computes a citation-aware assignment, and tests whether cited
reviewers score higher using a quality-eliminating weighted regression and a
matched-pair permutation test, validated against a synthetic generator with
planted ground truth.

Import what you use from the submodules (``revaudit.citations``,
``revaudit.parametric``, ...); importing this package loads none of them.
"""

__version__ = "0.1.0"
