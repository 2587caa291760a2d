"""XML corpus generation with calibrated error injection — the stand-in
for the 180k crawled files of the Grijzenhout & Marx study (DESIGN.md §2).

The study's headline numbers, which the generator is calibrated to:

* 85% of the files are well-formed;
* the three dominant error categories — tag mismatch, premature end of
  data in a tag, improper UTF-8 encoding — account for 79.9% of errors;
* only 25% of the files reference a schema, and just over 10% of the
  well-formed documents are valid against it.

Generated documents come from random DTDs (so schema-validity studies
compose), serialized to text, then optionally corrupted with one of the
study's error types.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional as Opt, Set, Tuple, Union as TUnion

from ..errors import SchemaError
from ..regex.sampling import sample_word
from .dtd import DTD
from .tree import Tree, TreeNode

#: injection kinds and their calibrated shares *among erroneous files*
DEFAULT_ERROR_MIX = (
    ("tag-mismatch", 0.42),
    ("premature-end", 0.25),
    ("bad-encoding", 0.13),
    ("unescaped-char", 0.08),
    ("stray-end-tag", 0.06),
    ("multiple-roots", 0.06),
)


def random_tree(
    dtd: DTD,
    rng: Opt[random.Random] = None,
    max_nodes: int = 300,
    max_depth: int = 24,
) -> Tree:
    """A random tree valid w.r.t. ``dtd`` (content words are sampled from
    each rule's expression; recursion is depth-capped by resampling).

    Raises :class:`~repro.errors.SchemaError` when the chosen start label
    reaches a label that roots no finite tree: the sampler could pick it
    and never close the subtree.
    """
    rng = rng or random.Random()
    start = sorted(dtd.start_labels)[rng.randrange(len(dtd.start_labels))]
    unproductive = sorted(_reachable(dtd, start) - dtd.productive_labels)
    if unproductive:
        raise SchemaError(
            f"no finite tree from start label {start!r}: "
            f"{', '.join(unproductive)} root no finite tree"
        )
    budget = [max_nodes]

    def grow(label: str, depth: int) -> TreeNode:
        node = TreeNode(label)
        budget[0] -= 1
        body = dtd.expression_for(label)
        if budget[0] <= 0 or depth >= max_depth:
            # try hard to close the subtree: prefer the shortest word
            from ..regex.ast import shortest_word_length

            if shortest_word_length(body) != 0:
                word = _shortest_word(dtd, label)
            else:
                word = ()
        else:
            word = sample_word(body, rng, star_continue=0.4, max_repeat=4)
        for child_label in word:
            node.add_child(grow(child_label, depth + 1))
        return node

    return Tree(grow(start, 1))


def _reachable(dtd: DTD, start: str) -> Set[str]:
    seen = {start}
    stack = [start]
    while stack:
        for successor in dtd.expression_for(stack.pop()).alphabet():
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return seen


def _shortest_word(dtd: DTD, label: str) -> Tuple[str, ...]:
    from ..regex.automata import glushkov

    word = glushkov(dtd.expression_for(label)).shortest_accepted_word()
    return word or ()


def serialize(tree: Tree, indent: bool = False) -> str:
    """Serialize a tree back to XML text."""
    out: List[str] = []

    def emit(node: TreeNode, depth: int) -> None:
        pad = "  " * depth if indent else ""
        attrs = "".join(
            f' {name}="{value}"' for name, value in node.attributes.items()
        )
        if not node.children and node.value is None:
            out.append(f"{pad}<{node.label}{attrs}/>")
            return
        out.append(f"{pad}<{node.label}{attrs}>")
        if node.value is not None:
            out.append(f"{pad}{_escape(str(node.value))}")
        for child in node.children:
            emit(child, depth + 1)
        out.append(f"{pad}</{node.label}>")

    emit(tree.root, 0)
    separator = "\n" if indent else ""
    return separator.join(out)


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def inject_error(
    text: str, kind: str, rng: random.Random
) -> TUnion[str, bytes]:
    """Corrupt a serialized document with one classified error.

    Returns bytes for encoding errors (they live below the text layer)
    and str otherwise.
    """
    if kind == "bad-encoding":
        raw = text.encode("utf-8")
        cut = rng.randrange(max(1, len(raw) - 1))
        return raw[:cut] + b"\xff\xfe" + raw[cut:]
    if kind == "premature-end":
        angle = text.rfind("<")
        inside = angle + 1 + rng.randrange(
            max(1, len(text) - angle - 1)
        ) if angle >= 0 else len(text) // 2
        return text[: max(1, min(inside, len(text) - 1))]
    if kind == "tag-mismatch":
        import re as _re

        ends = list(_re.finditer(r"</([^>]+)>", text))
        if not ends:
            return text + "</mismatch>"
        victim = rng.choice(ends)
        return (
            text[: victim.start()]
            + f"</{victim.group(1)}X>"
            + text[victim.end() :]
        )
    if kind == "unescaped-char":
        middle = text.find(">") + 1
        return text[:middle] + "a & b < c" + text[middle:]
    if kind == "stray-end-tag":
        return "</stray>" + text
    if kind == "multiple-roots":
        return text + "<extra/>"
    raise ValueError(f"unknown error kind {kind!r}")


@dataclass
class CorpusDocument:
    """One generated corpus file."""

    content: TUnion[str, bytes]
    injected_error: Opt[str]  # None for clean documents
    source_dtd_index: int


@dataclass
class XMLCorpus:
    """A generated corpus plus the ground truth of what was injected."""

    documents: List[CorpusDocument] = field(default_factory=list)
    dtds: List[DTD] = field(default_factory=list)


def generate_corpus(
    size: int,
    seed: int = 0,
    well_formed_rate: float = 0.85,
    error_mix: Tuple[Tuple[str, float], ...] = DEFAULT_ERROR_MIX,
    num_dtds: int = 8,
) -> XMLCorpus:
    """Generate a corpus calibrated to the Grijzenhout–Marx rates."""
    from .schema_corpus import DTDCorpusProfile, random_dtd_corpus

    rng = random.Random(seed)
    profile = DTDCorpusProfile(recursion_rate=0.3)
    dtds = random_dtd_corpus(num_dtds, seed=seed + 1, profile=profile)
    kinds = [kind for kind, _weight in error_mix]
    weights = [weight for _kind, weight in error_mix]
    corpus = XMLCorpus(dtds=dtds)
    for _ in range(size):
        dtd_index = rng.randrange(len(dtds))
        tree = random_tree(dtds[dtd_index], rng, max_nodes=60)
        text = serialize(tree)
        if rng.random() < well_formed_rate:
            corpus.documents.append(CorpusDocument(text, None, dtd_index))
        else:
            kind = rng.choices(kinds, weights=weights)[0]
            corpus.documents.append(
                CorpusDocument(inject_error(text, kind, rng), kind, dtd_index)
            )
    return corpus


def corpus_study(corpus: XMLCorpus) -> Dict[str, object]:
    """Re-run the Grijzenhout–Marx analysis on a generated corpus:
    well-formedness rate and the distribution of error categories."""
    from collections import Counter

    from .xml_parser import check_well_formedness

    well_formed = 0
    categories: Counter = Counter()
    for document in corpus.documents:
        report = check_well_formedness(document.content)
        if report.well_formed:
            well_formed += 1
        else:
            categories[report.primary_category] += 1
    total = len(corpus.documents)
    return {
        "documents": total,
        "well_formed_fraction": well_formed / total if total else 0.0,
        "error_categories": dict(categories),
    }
