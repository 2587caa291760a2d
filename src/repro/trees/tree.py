"""Node-labeled ordered trees — the paper's abstraction of XML and JSON
data (Section 3).

A tree ``T = (V, E, lab)`` has a finite node set, a child relation and a
labeling function.  Our representation keeps children in order (XML trees
are always ordered; for JSON the order of object keys is preserved as
read), supports the statistics reported in practical studies (depth,
branching, label distributions), and is the input type of the validators
in :mod:`repro.trees.dtd` and :mod:`repro.trees.edtd`.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional as Opt, Tuple


@dataclass
class TreeNode:
    """One node of a labeled ordered tree.

    Attributes
    ----------
    label:
        The node label (an XML element name, a JSON key, …).
    children:
        Ordered child list.
    value:
        Optional data value attached to the node (text content of an XML
        element, a JSON scalar).  The theoretical abstraction ignores
        values (Example 3.1 discusses the modelling choice); they are kept
        for round-tripping.
    attributes:
        Optional XML attributes; like values, ignored by validators.
    """

    label: str
    children: List["TreeNode"] = field(default_factory=list)
    value: Opt[object] = None
    attributes: Dict[str, str] = field(default_factory=dict)

    def add_child(self, child: "TreeNode") -> "TreeNode":
        self.children.append(child)
        return child

    def child_word(self) -> Tuple[str, ...]:
        """The label word ``lab(v1) … lab(vn)`` of the ordered children —
        what a DTD rule's regular expression must match."""
        return tuple(child.label for child in self.children)

    def is_leaf(self) -> bool:
        return not self.children

    # -- traversal -------------------------------------------------------------

    def walk(self) -> Iterator["TreeNode"]:
        """Pre-order (document-order) traversal."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def events(self) -> Iterator[Tuple[str, str]]:
        """The subtree's ``("start"|"end", label)`` events in document
        order (iterative, so recursion never limits the depth)."""
        stack: List[object] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                yield ("end", node)
            else:
                yield ("start", node.label)
                stack += (node.label, *reversed(node.children))

    def walk_with_depth(self) -> Iterator[Tuple["TreeNode", int]]:
        stack = [(self, 1)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            stack.extend((child, depth + 1) for child in reversed(node.children))

    def __repr__(self) -> str:
        return f"TreeNode({self.label!r}, {len(self.children)} children)"


@dataclass
class Tree:
    """A node-labeled ordered tree with a designated root."""

    root: TreeNode

    @classmethod
    def build(cls, label: str, *children) -> "Tree":
        """Convenience constructor from nested tuples/strings::

            Tree.build("persons",
                       ("person", "name", ("birthplace", "city", "state")))
        """

        def make(spec) -> TreeNode:
            if isinstance(spec, str):
                return TreeNode(spec)
            head, *rest = spec
            node = TreeNode(head)
            for sub in rest:
                node.add_child(make(sub))
            return node

        root = TreeNode(label)
        for child in children:
            root.add_child(make(child))
        return cls(root)

    # -- statistics (the metrics practical studies report, Section 3.1) -------

    def node_count(self) -> int:
        return sum(1 for _ in self.root.walk())

    def depth(self) -> int:
        """Height of the tree: 1 for a single root node.

        The paper cites DBLP depth 7, Treebank depth 37, Swissprot 6.
        """
        return max(depth for _node, depth in self.root.walk_with_depth())

    def max_branching(self) -> int:
        return max(len(node.children) for node in self.root.walk())

    def average_branching(self) -> float:
        internal = [
            len(node.children)
            for node in self.root.walk()
            if node.children
        ]
        if not internal:
            return 0.0
        return sum(internal) / len(internal)

    def label_distribution(self) -> Counter:
        return Counter(node.label for node in self.root.walk())

    def labels(self) -> frozenset:
        return frozenset(node.label for node in self.root.walk())

    # -- structural operations --------------------------------------------------

    def relabel(self, mapping: Callable[[str], str]) -> "Tree":
        """A new tree with every label passed through ``mapping`` — used
        by EDTD validation (the ``µ`` homomorphism of Definition 4.10)."""

        def copy(node: TreeNode) -> TreeNode:
            out = TreeNode(
                mapping(node.label), value=node.value,
                attributes=dict(node.attributes),
            )
            out.children = [copy(child) for child in node.children]
            return out

        return Tree(copy(self.root))

    def equal_structure(self, other: "Tree") -> bool:
        """Label-and-shape equality (ignores values and attributes)."""

        def eq(a: TreeNode, b: TreeNode) -> bool:
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            return all(eq(x, y) for x, y in zip(a.children, b.children))

        return eq(self.root, other.root)

    def nodes_breadth_first(self) -> Iterator[TreeNode]:
        queue = deque([self.root])
        while queue:
            node = queue.popleft()
            yield node
            queue.extend(node.children)

    def __repr__(self) -> str:
        return f"Tree(root={self.root.label!r}, nodes={self.node_count()})"


def is_broad_and_shallow(
    tree: Tree, depth_limit: int = 40, min_ratio: float = 2.0
) -> bool:
    """The structural observation of Section 3.1: real XML data sets with
    millions of nodes have bounded depth ("broad and shallow").

    Returns true when depth ≤ ``depth_limit`` and the node/depth ratio is
    at least ``min_ratio``.
    """
    depth = tree.depth()
    return depth <= depth_limit and tree.node_count() >= min_ratio * depth
