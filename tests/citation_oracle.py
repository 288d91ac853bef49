"""Reference parser for tests: ``parse_reference_entry`` and its helpers as
first written, and ``detect_citations`` built on them with one
``warnings.catch_warnings`` block per submission.

The library's parser and detector must agree with these on every input:
the same authors, the same ``ReferenceParseWarning`` messages, the same
relation and notes.
"""

from __future__ import annotations

import re
import warnings

from revaudit.citations import (
    CitationRelation,
    ReferenceParseWarning,
    build_key,
    make_author_key,
    normalize_name_part,
)
from revaudit.dataset import Pair, ReviewDataset
from revaudit.errors import ValidationError

# Lowercase surname particles kept with the family name ("van Helsing").
_PARTICLES = {
    "van", "von", "de", "der", "den", "del", "della", "di", "da",
    "la", "le", "ter", "ten", "dos", "das", "du", "al", "bin", "el",
}

_YEAR_RE = re.compile(r"\(\s*(?:1[5-9]|20)\d{2}[a-z]?\s*\)")
_ETAL_RE = re.compile(r"(?:^|[,;\s])et\s+al\.?$", re.IGNORECASE)


def _is_word(token: str) -> bool:
    """Name word: letters (hyphen/apostrophe allowed), capitalized, no period."""
    if not token or token.endswith("."):
        return False
    bare = token.replace("-", "").replace("'", "").replace("’", "")
    return bare.isalpha() and token[0].isupper()


def _is_initial(token: str) -> bool:
    if token.endswith("."):
        token = token[:-1]
    return len(token) == 1 and token.isalpha() and token.isupper()


def _is_particle(token: str) -> bool:
    return token.lower() in _PARTICLES and token.islower()


def _is_surname(text: str) -> bool:
    tokens = text.split()
    if not tokens or not _is_word(tokens[-1]):
        return False
    return all(_is_word(tok) or _is_particle(tok) for tok in tokens)


def _is_given(text: str) -> bool:
    """Given-name segment: initials only, or a first name plus optional extras."""
    tokens = text.split()
    if not tokens or len(tokens) > 3:
        return False
    if _is_initial(tokens[0]):
        return all(_is_initial(tok) for tok in tokens)
    if not _is_word(tokens[0]):
        return False
    return all(_is_word(tok) or _is_initial(tok) for tok in tokens[1:])


def _parse_natural(text: str) -> tuple[str, str] | None:
    """Parse a name in reading order: given name(s) followed by a surname."""
    tokens = text.split()
    if not tokens or len(tokens) > 5:
        return None
    if len(tokens) == 1:
        return (tokens[0], "") if _is_word(tokens[0]) else None
    if not (_is_word(tokens[0]) or _is_initial(tokens[0])):
        return None
    surname_start = None
    for i, tok in enumerate(tokens[1:], start=1):
        if _is_particle(tok):
            surname_start = i
            break
        if not (_is_word(tok) or _is_initial(tok)):
            return None
    if surname_start is None:
        surname_start = len(tokens) - 1
        if not _is_word(tokens[-1]):
            return None
    elif not _is_surname(" ".join(tokens[surname_start:])):
        return None
    return (" ".join(tokens[surname_start:]), tokens[0].rstrip("."))


def _is_natural_name(text: str) -> bool:
    return len(text.split()) >= 2 and _parse_natural(text) is not None


def _parse_single_name(text: str) -> tuple[str, str] | None:
    """Parse one author string, inverted ("Last, First") or natural order."""
    text = text.strip().strip(",;").strip()
    if not text:
        return None
    if "," in text:
        last, _, given = text.partition(",")
        last, given = last.strip(), given.strip()
        if not last or not _is_surname(last):
            return None
        if not given:
            return (last, "")
        if not _is_given(given.rstrip(".")):
            return None
        return (last, given.split()[0].rstrip("."))
    return _parse_natural(text)


def _split_comma_items(part: str) -> list[tuple[str, str]] | None:
    """Resolve a comma-separated chunk into authors, or None if it is not one.

    Items that are each complete natural-order names form a list; otherwise
    consecutive (surname, given) items form inverted pairs.
    """
    items = [item.strip() for item in part.split(",") if item.strip()]
    if not items:
        return []
    if len(items) == 1:
        parsed = _parse_single_name(items[0])
        return None if parsed is None else [parsed]
    if all(len(item.split()) >= 2 and _is_natural_name(item) for item in items):
        out = []
        for item in items:
            parsed = _parse_natural(item)
            if parsed is None:
                return None
            out.append(parsed)
        return out
    if len(items) % 2 == 0:
        paired = []
        for i in range(0, len(items), 2):
            surname, given = items[i], items[i + 1]
            if not (_is_surname(surname) and _is_given(given)):
                return None
            paired.append((surname, given.split()[0].rstrip(".")))
        return paired
    return None


def _parse_author_segment(segment: str) -> list[tuple[str, str]] | None:
    """Parse a full author segment; None when the segment is not an author list."""
    segment = segment.strip().strip(",;").strip()
    if not segment:
        return None
    had_etal = bool(_ETAL_RE.search(segment))
    segment = _ETAL_RE.sub("", segment).strip().strip(",;").strip()
    if had_etal:
        # Tolerate a separator left dangling by the removal ("... and et al.").
        segment = re.sub(r"(?:\band|&)$", "", segment).strip().strip(",;").strip()
    if not segment:
        return [] if had_etal else None

    if ";" in segment:
        authors: list[tuple[str, str]] = []
        for chunk in segment.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parsed = _parse_single_name(chunk)
            if parsed is None:
                return None
            authors.append(parsed)
        return authors or None

    normalized = segment.replace(" & ", " and ")
    authors = []
    for part in re.split(r"\s+\band\b\s+", normalized):
        part = part.strip().strip(",").strip()
        if not part:
            continue
        if "," in part:
            resolved = _split_comma_items(part)
        else:
            parsed = _parse_natural(part)
            resolved = None if parsed is None else [parsed]
        if resolved is None:
            return None
        authors.extend(resolved)
    if not authors and not had_etal:
        return None
    return authors


def _candidate_segments(entry: str) -> list[str]:
    """Author-segment candidates (prefixes ending at sentence breaks), longest first."""
    entry = " ".join(entry.split())
    year = _YEAR_RE.search(entry)
    base = entry[: year.start()].strip() if year else entry
    candidates = {base.rstrip(".").strip()}
    for match in re.finditer(r"\.(?:\s+|$)", base):
        candidates.add(base[: match.start()].strip())
    out = [c for c in candidates if c]
    out.sort(key=len, reverse=True)
    return out


def oracle_parse_reference_entry(entry: str) -> list[tuple[str, str]]:
    """Extract ``(last_name, first_initial)`` authors from one bibliography item.

    Accepts "Last, F.", "F. Last", "Last, First", and "First Last" author
    forms with "and" / "&" / ";" separators; "et al." contributes no author.
    An entry that cannot be read yields an empty list and a
    :class:`ReferenceParseWarning`, never an exception.
    """
    if not entry or not entry.strip():
        warnings.warn(ReferenceParseWarning("empty reference entry"), stacklevel=2)
        return []
    for segment in _candidate_segments(entry):
        authors = _parse_author_segment(segment)
        if authors is not None:
            return [(last, given[:1]) for last, given in authors]
    warnings.warn(
        ReferenceParseWarning(f"no authors parsed from entry: {entry[:80]!r}"),
        stacklevel=2,
    )
    return []


def oracle_detect_citations(dataset: ReviewDataset, assignment: set[Pair]) -> CitationRelation:
    """Mark each assigned pair cited iff a parsed author key of the submission
    equals the reviewer's key.

    Pairs whose reviewer key is shared by another pool member (or carries a
    placeholder initial) are never auto-cited: when the submission's parsed
    keys hit such a reviewer the pair lands in ``ambiguous_pairs`` and stays
    uncited until overridden.
    """
    keys = {rid: build_key(reviewer) for rid, reviewer in dataset.reviewers.items()}
    by_key: dict[str, int] = {}
    for rk in keys.values():
        by_key[rk.key] = by_key.get(rk.key, 0) + 1
    # Surnames alone matter only to reviewers with a placeholder initial.
    placeholders = any(rk.placeholder for rk in keys.values())

    notes: list[str] = []
    submission_keys: dict[str, set[str]] = {}
    submission_lasts: dict[str, set[str]] = {}
    for sid in sorted({pair[0] for pair in assignment}):
        submission = dataset.submissions.get(sid)
        if submission is None:
            raise ValidationError(f"assignment references unknown submission {sid!r}")
        parsed_keys: set[str] = set()
        lasts: set[str] = set()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ReferenceParseWarning)
            for entry in submission.reference_entries:
                for last, initial in oracle_parse_reference_entry(entry):
                    key = make_author_key(last, initial)
                    if key is not None:
                        parsed_keys.add(key)
                    if placeholders:
                        lasts.add(normalize_name_part(last))
        notes.extend(f"submission {sid!r}: {w.message}" for w in caught)
        submission_keys[sid] = parsed_keys
        submission_lasts[sid] = lasts

    cited: dict[Pair, bool] = {}
    ambiguous: set[Pair] = set()
    for pair in sorted(assignment):
        sid, rid = pair
        if rid not in keys:
            raise ValidationError(f"assignment references unknown reviewer {rid!r}")
        rk = keys[rid]
        if rk.placeholder:
            cited[pair] = False
            if rk.last_part in submission_lasts[sid]:
                ambiguous.add(pair)
        elif rk.key in submission_keys[sid]:
            if by_key[rk.key] > 1:
                cited[pair] = False
                ambiguous.add(pair)
            else:
                cited[pair] = True
        else:
            cited[pair] = False

    return CitationRelation(
        cited=cited, ambiguous_pairs=frozenset(ambiguous), warnings=tuple(notes)
    )
