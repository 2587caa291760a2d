"""Property-path type taxonomy (Section 9.6, Table 8).

The *type* of a property path abstracts its IRIs: replace each distinct
IRI by a letter in order of first occurrence (repeated IRIs reuse their
letter).  Inverse atoms ``^p`` count as plain labels (the paper treats
them so, noting ``^`` usage separately), and disjunctions of two or more
atoms — as well as negated sets ``!a`` and ``(a|!a)`` — become capital
letters.

:func:`path_type` yields the canonical type string (e.g. ``a*b*`` for
``wdt:P31*/wdt:P279*``); :func:`aggregate_type` additionally merges each
type with its reverse (the paper's row for ``ab*`` also holds ``a*b``).
:func:`table8_bucket` maps a path to the named Table 8 rows;
:func:`type_regex` produces a word regex over the letters so the
fragment classifiers of :mod:`repro.regex.classes` (simple transitive,
C_tract, T_tract) apply directly.  :func:`path_type_key` is everything
the row and the fragment classes depend on, so it can memoize both.
"""

from __future__ import annotations

import string
from typing import Dict, List, Optional as Opt, Tuple

from ..regex.ast import Regex
from ..regex.classes import is_ctract, is_simple_transitive, is_ttract
from ..regex.parser import parse as parse_regex
from .paths_ast import (
    PathAlternative,
    PathAtom,
    PathInverse,
    PathNegatedSet,
    PathOptional,
    PathPlus,
    PathStar,
    PathSequence,
    PropertyPath,
)

_LOWER = string.ascii_lowercase
_UPPER = string.ascii_uppercase


class _Namer:
    def __init__(self):
        self.lower: Dict[str, str] = {}
        self.upper: Dict[Tuple, str] = {}

    def letter(self, iri: str) -> str:
        if iri not in self.lower:
            index = len(self.lower)
            self.lower[iri] = (
                _LOWER[index] if index < 26 else f"x{index}"
            )
        return self.lower[iri]

    def capital(self, key: Tuple) -> str:
        if key not in self.upper:
            index = len(self.upper)
            self.upper[key] = (
                _UPPER[index] if index < 26 else f"X{index}"
            )
        return self.upper[key]


def _atomic_disjunction(path: PropertyPath) -> Opt[Tuple]:
    """If ``path`` is a disjunction of ≥ 2 atoms (or a negated set), a
    canonical key for it; else None."""
    if isinstance(path, PathNegatedSet):
        return ("nps", tuple(sorted(path.forward)), tuple(sorted(path.inverse)))
    if isinstance(path, PathAlternative):
        atoms: List[str] = []
        for part in path.parts:
            if isinstance(part, PathAtom):
                atoms.append(part.iri)
            elif isinstance(part, PathInverse) and isinstance(
                part.child, PathAtom
            ):
                atoms.append(f"^{part.child.iri}")
            elif isinstance(part, PathNegatedSet):
                atoms.append(part.to_string())
            else:
                return None
        return ("alt", tuple(sorted(atoms)))
    return None


def path_type(path: PropertyPath, namer: Opt[_Namer] = None) -> str:
    """The canonical type string of a property path."""
    namer = namer or _Namer()
    return _type_of(path, namer)


def _type_of(path: PropertyPath, namer: _Namer) -> str:
    if isinstance(path, PathAtom):
        return namer.letter(path.iri)
    if isinstance(path, PathInverse):
        if isinstance(path.child, PathAtom):
            # '^a' is treated as a single label (same letter as 'a'
            # would get for the same IRI read forward? No: a distinct
            # atom, so a distinct letter keyed by '^iri')
            return namer.letter(f"^{path.child.iri}")
        return _type_of(path.child, namer)
    disj = _atomic_disjunction(path)
    if disj is not None:
        return namer.capital(disj)
    if isinstance(path, PathSequence):
        return "".join(_type_of(part, namer) for part in path.parts)
    if isinstance(path, PathAlternative):
        inner = "|".join(_type_of(part, namer) for part in path.parts)
        return f"({inner})"
    if isinstance(path, PathStar):
        return _wrap(_type_of(path.child, namer)) + "*"
    if isinstance(path, PathPlus):
        return _wrap(_type_of(path.child, namer)) + "+"
    if isinstance(path, PathOptional):
        return _wrap(_type_of(path.child, namer)) + "?"
    raise TypeError(f"unknown path node {path!r}")


def _wrap(text: str) -> str:
    if len(text) == 1:
        return text
    if text.startswith("(") and text.endswith(")"):
        return text
    return f"({text})"


def _reverse_path(path: PropertyPath) -> PropertyPath:
    """The reverse of a path (read right-to-left, atoms flipped)."""
    if isinstance(path, PathSequence):
        return PathSequence(
            tuple(_reverse_path(p) for p in reversed(path.parts))
        )
    if isinstance(path, PathAlternative):
        return PathAlternative(
            tuple(_reverse_path(p) for p in path.parts)
        )
    if isinstance(path, PathStar):
        return PathStar(_reverse_path(path.child))
    if isinstance(path, PathPlus):
        return PathPlus(_reverse_path(path.child))
    if isinstance(path, PathOptional):
        return PathOptional(_reverse_path(path.child))
    return path  # atoms keep their identity at the type level


def path_type_key(path: PropertyPath) -> Tuple[str, str, bool, bool]:
    """Everything :func:`table8_bucket` and the fragment classifiers
    read of a path: its type, its reverse's type, whether it is
    transitive and whether it is a bare inverse atom.

    Paths with one key get one bucket and one set of fragment verdicts,
    so the key can memoize both.  The forward type alone is not enough:
    ``<p>/^(<q>/<p>*)`` and ``<p>/(<q>/<p>*)`` are both ``aba*`` but
    reverse to different types and land in different buckets.
    """
    return (
        path_type(path),
        path_type(_reverse_path(path)),
        path.is_transitive(),
        isinstance(path, PathInverse) and isinstance(path.child, PathAtom),
    )


def aggregate_type(path: PropertyPath) -> str:
    """Type with reverse aggregation: a path and its mirror get the same
    string (the paper reports ``ab*`` and ``a*b`` in one row).  We take
    the lexicographically smaller of the two type strings."""
    forward = path_type(path)
    backward = path_type(_reverse_path(path))
    return min(forward, backward)


def type_regex(path: PropertyPath) -> Regex:
    """A word regex over the type's letters (capitals stay one symbol)."""
    return parse_regex(path_type(path), multi_char=False)


def is_transitive_type(path: PropertyPath) -> bool:
    return path.is_transitive()


# ---------------------------------------------------------------------------
# Table 8 buckets
# ---------------------------------------------------------------------------

TRANSITIVE_BUCKETS = (
    "a*",
    "ab*|a+",
    "ab*c*",
    "A*",
    "ab*c",
    "a*b*",
    "abc*",
    "a?b*",
    "A+",
    "Ab*",
    "other transitive",
)

NON_TRANSITIVE_BUCKETS = (
    "a1...ak",
    "A",
    "A?",
    "a1a2?...ak?",
    "^a",
    "abc?",
    "other non-transitive",
)

TABLE8_BUCKETS = TRANSITIVE_BUCKETS + NON_TRANSITIVE_BUCKETS

import re as _bucket_re

_BUCKET_PATTERNS: List[Tuple[str, str]] = [
    # (bucket, regex over the canonical type string)
    ("a*", r"[a-z]\*"),
    ("ab*|a+", r"[a-z][a-z]\*|[a-z]\+"),
    ("ab*c*", r"[a-z][a-z]\*[a-z]\*"),
    ("A*", r"[A-Z]\*"),
    ("ab*c", r"[a-z][a-z]\*[a-z]"),
    ("a*b*", r"[a-z]\*[a-z]\*"),
    ("abc*", r"[a-z][a-z][a-z]\*"),
    ("a?b*", r"[a-z]\?[a-z]\*"),
    ("A+", r"[A-Z]\+"),
    ("Ab*", r"[A-Z][a-z]\*|[a-z][A-Z]\*"),
    ("a1...ak", r"[a-z]{1,}"),
    ("A", r"[A-Z]"),
    ("A?", r"[A-Z]\?"),
    ("a1a2?...ak?", r"[a-z](?:[a-z]\?)+"),
    ("abc?", r"[a-z][a-z][a-z]\?"),
]


def table8_bucket(path: PropertyPath) -> str:
    """The Table 8 row for a property path.

    Reverse types are merged into one row as in the paper (``a*b`` is
    reported under ``ab*``), so both orientations of the type string are
    tried against each bucket.  ``^a`` is the row for a bare
    single-inverse-atom path.
    """
    forward, backward, transitive, bare_inverse = path_type_key(path)
    if bare_inverse:
        return "^a"
    orientations = (forward, backward)
    for bucket, pattern in _BUCKET_PATTERNS:
        if bucket == "^a":
            continue
        if transitive and bucket not in TRANSITIVE_BUCKETS:
            continue
        if not transitive and bucket not in NON_TRANSITIVE_BUCKETS:
            continue
        if any(
            _bucket_re.fullmatch(pattern, text) for text in orientations
        ):
            return bucket
    return "other transitive" if transitive else "other non-transitive"


# ---------------------------------------------------------------------------
# Fragment classification of paths (Section 9.6's final paragraphs)
# ---------------------------------------------------------------------------


def path_is_simple_transitive(path: PropertyPath) -> bool:
    """Whether the path is a simple transitive expression (via its type
    regex) — the class covering > 99% of DBpedia-corpus paths."""
    try:
        return is_simple_transitive(type_regex(path))
    except Exception:
        return False


def path_in_ctract(path: PropertyPath) -> Opt[bool]:
    """C_tract membership of the path's type language (see
    :func:`repro.regex.classes.is_ctract` for the certificate rules)."""
    try:
        return is_ctract(type_regex(path))
    except Exception:
        return None


def path_in_ttract(path: PropertyPath) -> Opt[bool]:
    try:
        return is_ttract(type_regex(path))
    except Exception:
        return None
