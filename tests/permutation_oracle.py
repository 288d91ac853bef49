"""Test-only oracle: the sign-flip p by enumerating all 2^K sign patterns."""

from itertools import product

import numpy as np

from revaudit.errors import NoAnalyzableDataError, ValidationError


def exact_permutation_p(differences: list[float]) -> float:
    """Two-sided p by full enumeration of all 2^K sign patterns (K <= 20)."""
    k = len(differences)
    if k == 0:
        raise NoAnalyzableDataError("no differences to enumerate")
    if k > 20:
        raise ValidationError(f"enumeration over 2^{k} patterns refused; use Monte Carlo")
    d = np.asarray(differences, dtype=float)
    observed = abs(d.mean())
    signs = np.array(list(product((-1.0, 1.0), repeat=k)))
    perm_stats = np.abs((signs * d).mean(axis=1))
    return float(np.sum(perm_stats >= observed) / len(perm_stats))
