"""Property paths — SPARQL 1.1's regular path queries (Section 9.2).

A property path is a regular expression over IRIs with SPARQL's
operators: ``/`` (sequence), ``|`` (alternative), ``^`` (inverse),
``*``, ``+``, ``?`` and negated property sets ``!(:p|^:q)``.

The AST here is separate from :mod:`repro.regex.ast` because paths have
graph-specific atoms (inverse and negated sets); :func:`path_to_regex`
bridges to the word-level machinery the compiled RPQ engine runs:
inverse atoms become ``^iri`` symbols, and a negated set becomes the
union of the store predicates it admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Tuple

from ..regex.ast import (
    Regex,
    Symbol,
    concat as smart_concat,
    optional as smart_optional,
    plus as smart_plus,
    star as smart_star,
    union as smart_union,
)


class PropertyPath:
    """Base class for property path nodes."""

    __slots__ = ()

    def children(self) -> Tuple["PropertyPath", ...]:
        return ()

    def walk(self) -> Iterator["PropertyPath"]:
        stack: List[PropertyPath] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def iris(self) -> FrozenSet[str]:
        out = set()
        for node in self.walk():
            if isinstance(node, PathAtom):
                out.add(node.iri)
            elif isinstance(node, PathNegatedSet):
                out.update(node.forward)
                out.update(node.inverse)
        return frozenset(out)

    def is_transitive(self) -> bool:
        """Whether the path can match arbitrarily long walks (uses * or +)."""
        return any(
            isinstance(node, (PathStar, PathPlus)) for node in self.walk()
        )

    def uses_inverse(self) -> bool:
        return any(
            isinstance(node, PathInverse)
            or (isinstance(node, PathNegatedSet) and node.inverse)
            for node in self.walk()
        )

    def __str__(self) -> str:
        return self.to_string()

    def to_string(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class PathAtom(PropertyPath):
    """A single IRI step."""

    iri: str

    def to_string(self) -> str:
        return self.iri


@dataclass(frozen=True, slots=True)
class PathInverse(PropertyPath):
    """``^path`` — traverse in reverse direction."""

    child: PropertyPath

    def children(self):
        return (self.child,)

    def to_string(self) -> str:
        inner = self.child.to_string()
        if isinstance(self.child, PathAtom):
            return f"^{inner}"
        return f"^({inner})"


@dataclass(frozen=True, slots=True)
class PathSequence(PropertyPath):
    """``p1/p2/…`` — concatenation."""

    parts: Tuple[PropertyPath, ...]

    def children(self):
        return self.parts

    def to_string(self) -> str:
        rendered = []
        for part in self.parts:
            text = part.to_string()
            if isinstance(part, (PathAlternative, PathSequence)):
                text = f"({text})"
            rendered.append(text)
        return "/".join(rendered)


@dataclass(frozen=True, slots=True)
class PathAlternative(PropertyPath):
    """``p1|p2|…`` — alternative."""

    parts: Tuple[PropertyPath, ...]

    def children(self):
        return self.parts

    def to_string(self) -> str:
        rendered = []
        for part in self.parts:
            text = part.to_string()
            if isinstance(part, (PathAlternative, PathSequence)):
                text = f"({text})"
            rendered.append(text)
        return "|".join(rendered)


class _PathUnary(PropertyPath):
    __slots__ = ()
    _suffix = "?"

    def children(self):
        return (self.child,)  # type: ignore[attr-defined]

    def to_string(self) -> str:
        child = self.child  # type: ignore[attr-defined]
        inner = child.to_string()
        if not isinstance(child, PathAtom):
            inner = f"({inner})"
        return inner + self._suffix


@dataclass(frozen=True, slots=True)
class PathStar(_PathUnary):
    child: PropertyPath
    _suffix = "*"


@dataclass(frozen=True, slots=True)
class PathPlus(_PathUnary):
    child: PropertyPath
    _suffix = "+"


@dataclass(frozen=True, slots=True)
class PathOptional(_PathUnary):
    child: PropertyPath
    _suffix = "?"


@dataclass(frozen=True, slots=True)
class PathNegatedSet(PropertyPath):
    """``!(p1|…|^q1|…)`` — any predicate not in the listed sets.

    ``forward`` lists forbidden forward predicates; ``inverse`` the
    forbidden inverse predicates.
    """

    forward: Tuple[str, ...]
    inverse: Tuple[str, ...] = ()

    def to_string(self) -> str:
        atoms = list(self.forward) + [f"^{iri}" for iri in self.inverse]
        if len(atoms) == 1:
            return f"!{atoms[0]}"
        return "!(" + "|".join(atoms) + ")"


def path_to_regex(path: PropertyPath, predicates: Iterable[str]) -> Regex:
    """Translate a property path to a word regex over atom symbols.

    Atoms map to their IRI and inverse atoms to ``^iri``.  A negated set
    ``!(F|^I)`` is ``!(F)|^!(I)``, as SPARQL 1.1 translates it, each half
    present only when its list is non-empty: the union of the
    ``predicates`` outside ``F`` and of the ``^p`` atoms for the
    ``predicates`` outside ``I`` (the empty language when nothing is
    left).  Inverse of a composite path is pushed down by the usual
    rewriting (reverse of a sequence is the reversed sequence of
    reversed parts).
    """
    return _to_regex(path, False, sorted(set(predicates)))


def _to_regex(
    path: PropertyPath, inverted: bool, vocabulary: List[str]
) -> Regex:
    if isinstance(path, PathAtom):
        return Symbol(f"^{path.iri}" if inverted else path.iri)
    if isinstance(path, PathInverse):
        return _to_regex(path.child, not inverted, vocabulary)
    if isinstance(path, PathSequence):
        parts = [_to_regex(p, inverted, vocabulary) for p in path.parts]
        if inverted:
            parts.reverse()
        return smart_concat(*parts)
    if isinstance(path, PathAlternative):
        return smart_union(
            *[_to_regex(p, inverted, vocabulary) for p in path.parts]
        )
    if isinstance(path, PathStar):
        return smart_star(_to_regex(path.child, inverted, vocabulary))
    if isinstance(path, PathPlus):
        return smart_plus(_to_regex(path.child, inverted, vocabulary))
    if isinstance(path, PathOptional):
        return smart_optional(_to_regex(path.child, inverted, vocabulary))
    if isinstance(path, PathNegatedSet):
        forward, backward = path.forward, path.inverse
        if inverted:
            forward, backward = backward, forward
        atoms = []
        if forward:
            atoms += [Symbol(p) for p in vocabulary if p not in forward]
        if backward:
            atoms += [
                Symbol(f"^{p}") for p in vocabulary if p not in backward
            ]
        return smart_union(*atoms)
    raise TypeError(f"unknown path node {path!r}")


def sequence(*parts: PropertyPath) -> PropertyPath:
    flat: List[PropertyPath] = []
    for part in parts:
        if isinstance(part, PathSequence):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if len(flat) == 1:
        return flat[0]
    return PathSequence(tuple(flat))


def alternative(*parts: PropertyPath) -> PropertyPath:
    flat: List[PropertyPath] = []
    for part in parts:
        if isinstance(part, PathAlternative):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if len(flat) == 1:
        return flat[0]
    return PathAlternative(tuple(flat))
