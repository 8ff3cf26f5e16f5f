"""Arrow presentations of ribbon graphs.

A ribbon graph is stored as an *arrow presentation*: a set of closed curves
(the vertices), each carrying a cyclic sequence of labelled, directed arrows.
Every label appears on exactly two arrows; the pair forms one edge.  An arrow
either points ALONG the curve's written order or AGAINST it; the relative
directions of the two arrows of an edge encode whether the edge band is
twisted.

The text format (.arp) is one line per curve: whitespace-separated tokens,
``x`` for an arrow along the written order and ``x'`` for one against it.
``()`` denotes a curve with no arrows (an isolated vertex) and ``#`` starts a
comment.  For example the one-edge orientable and non-orientable loops are::

    a a     # annulus
    a a'    # Moebius band

Presentations are immutable values: every operation returns a new one, curves
are rotation-normalized on construction, and equality is structural.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    EmptyLabelError,
    LabelCountError,
    NotConnected,
    ParseError,
    UnknownLabel,
    UnknownVertex,
)

_TOKEN_RE = re.compile(r"^([A-Za-z0-9_]+)(')?$")


class Arrow(NamedTuple):
    label: str
    along: bool

    def reversed(self) -> "Arrow":
        return Arrow(self.label, not self.along)


Curve = tuple[Arrow, ...]


def _min_rotation(curve: Curve) -> Curve:
    """The lexicographically least rotation of a curve word.

    That rotation begins with the least arrow, which a valid curve carries
    at most twice (each label occurs twice in the whole presentation), so
    only the rotations starting there are compared: O(n) for n arrows.
    """
    if len(curve) < 2:
        return curve
    least = min(curve)
    return min(
        curve[i:] + curve[:i] for i, arrow in enumerate(curve) if arrow == least
    )


@dataclass(frozen=True)
class ArrowPresentation:
    """An immutable multiset of closed curves with labelled arrows."""

    curves: tuple[Curve, ...]

    # -- basic queries ----------------------------------------------------

    def labels(self) -> tuple[str, ...]:
        """All edge labels, sorted."""
        seen = set()
        for curve in self.curves:
            for arrow in curve:
                seen.add(arrow.label)
        return tuple(sorted(seen))

    @property
    def vertex_count(self) -> int:
        return len(self.curves)

    @property
    def edge_count(self) -> int:
        return sum(len(c) for c in self.curves) // 2

    def arrow_positions(self, label: str) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two (curve index, position) slots carrying ``label``."""
        hits = [
            (ci, pi)
            for ci, curve in enumerate(self.curves)
            for pi, arrow in enumerate(curve)
            if arrow.label == label
        ]
        if len(hits) != 2:
            raise UnknownLabel(f"label {label!r} not present exactly twice")
        return hits[0], hits[1]

    def endpoints(self, label: str) -> tuple[int, int]:
        """The (unordered) pair of curve indices an edge joins."""
        (c1, _), (c2, _) = self.arrow_positions(label)
        return (c1, c2) if c1 <= c2 else (c2, c1)

    def is_loop(self, label: str) -> bool:
        a, b = self.endpoints(label)
        return a == b

    def isolated_vertices(self) -> tuple[int, ...]:
        """Indices of curves carrying no arrows."""
        return tuple(i for i, c in enumerate(self.curves) if not c)

    def words(self) -> list[list[str]]:
        """Curves as token lists (``x`` / ``x'``), mostly for tests."""
        return [
            [a.label if a.along else a.label + "'" for a in curve]
            for curve in self.curves
        ]

    def __iter__(self) -> Iterator[Curve]:
        return iter(self.curves)


def presentation(curves: Iterable[Iterable[Arrow]]) -> ArrowPresentation:
    """Validate and normalize raw curves into an ArrowPresentation.

    Checks that labels are nonempty and appear exactly twice overall, and
    rotates each curve to a fixed representative so structurally equal inputs
    compare equal.
    """
    raw = [tuple(curve) for curve in curves]
    counts: dict[str, int] = {}
    for curve in raw:
        for arrow in curve:
            if not arrow.label:
                raise EmptyLabelError("arrow with empty label")
            counts[arrow.label] = counts.get(arrow.label, 0) + 1
    bad = sorted(l for l, n in counts.items() if n != 2)
    if bad:
        raise LabelCountError(
            f"labels must appear exactly twice, violated by: {', '.join(bad)}"
        )
    return ArrowPresentation(tuple(_min_rotation(curve) for curve in raw))


def from_words(words: Iterable[Iterable[str]]) -> ArrowPresentation:
    """Build a presentation from token lists, e.g. ``[["a", "b'", "a"], []]``."""
    curves = []
    for word in words:
        curve = []
        for token in word:
            if token.endswith("'"):
                curve.append(Arrow(token[:-1], False))
            else:
                curve.append(Arrow(token, True))
        curves.append(curve)
    return presentation(curves)


EMPTY = ArrowPresentation(())


# -- .arp text format ------------------------------------------------------


def parse_arp(text: str) -> ArrowPresentation:
    """Parse the .arp text format (one curve per line)."""
    curves: list[list[Arrow]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "()":
            curves.append([])
            continue
        curve = []
        for token in line.split():
            m = _TOKEN_RE.match(token)
            if m is None:
                raise ParseError(f"line {lineno}: bad token {token!r}")
            curve.append(Arrow(m.group(1), m.group(2) is None))
        curves.append(curve)
    return presentation(curves)


def serialize_arp(pres: ArrowPresentation) -> str:
    """Render a presentation in .arp form (inverse of parse_arp)."""
    lines = []
    for curve in pres.curves:
        if not curve:
            lines.append("()")
            continue
        for arrow in curve:
            if _TOKEN_RE.match(arrow.label) is None or arrow.label.endswith("'"):
                raise ParseError(f"label {arrow.label!r} not serializable")
        lines.append(" ".join(a.label if a.along else a.label + "'" for a in curve))
    return "\n".join(lines)


# -- graph-level structure -------------------------------------------------


def arrow_slots(pres: ArrowPresentation) -> dict[str, list[tuple[int, int]]]:
    """label -> its two (curve, position) slots in reading order, in one pass."""
    slots: dict[str, list[tuple[int, int]]] = {}
    for ci, curve in enumerate(pres.curves):
        for pi, arrow in enumerate(curve):
            slots.setdefault(arrow.label, []).append((ci, pi))
    return slots


def underlying_edges(pres: ArrowPresentation) -> dict[str, tuple[int, int]]:
    """label -> (curve, curve) incidence map of the underlying multigraph."""
    slots = arrow_slots(pres)
    return {label: (slots[label][0][0], slots[label][1][0]) for label in sorted(slots)}


class CurveForest(NamedTuple):
    """A breadth-first spanning forest of the curve graph.

    Each component is rooted at its least curve and searched breadth-first,
    taking at every curve its non-loop edges in (label, far curve) order.
    ``order`` lists the curves as visited; ``root``, ``parent`` (a root is
    its own parent) and ``label`` (the tree edge to the parent, None at a
    root) are indexed by curve; ``incident`` holds the sorted non-loop
    (label, far curve) pairs of each curve.
    """

    order: list[int]
    root: list[int]
    parent: list[int]
    label: list[str | None]
    incident: list[list[tuple[str, int]]]

    def components(self) -> list[list[int]]:
        """Curve indices of each component, sorted, in root order."""
        groups: dict[int, list[int]] = {}
        for ci, r in enumerate(self.root):
            groups.setdefault(r, []).append(ci)
        return list(groups.values())


def curve_forest(
    pres: ArrowPresentation, slots: dict[str, list[tuple[int, int]]]
) -> CurveForest:
    """The breadth-first forest of ``pres``, given its ``arrow_slots``."""
    n = len(pres.curves)
    incident: list[list[tuple[str, int]]] = [[] for _ in range(n)]
    for label, ((a, _), (b, _)) in slots.items():
        if a != b:
            incident[a].append((label, b))
            incident[b].append((label, a))
    for lst in incident:
        lst.sort()
    root = [-1] * n
    parent = list(range(n))
    tree_label: list[str | None] = [None] * n
    order: list[int] = []
    for r in range(n):
        if root[r] >= 0:
            continue
        root[r] = r
        i = len(order)
        order.append(r)
        while i < len(order):
            v = order[i]
            i += 1
            for label, w in incident[v]:
                if root[w] < 0:
                    root[w], parent[w], tree_label[w] = r, v, label
                    order.append(w)
    return CurveForest(order, root, parent, tree_label, incident)


def component_vertex_sets(pres: ArrowPresentation) -> list[set[int]]:
    """Vertex sets of connected components, each sorted by smallest member."""
    return [set(c) for c in curve_forest(pres, arrow_slots(pres)).components()]


def component_count(pres: ArrowPresentation) -> int:
    return len(component_vertex_sets(pres))


def components(pres: ArrowPresentation) -> list[ArrowPresentation]:
    """Split into connected components (curve order preserved within each).

    The curves are already rotation-normalized and no label crosses
    components, so the parts are built without validating them again.
    """
    forest = curve_forest(pres, arrow_slots(pres))
    return [
        ArrowPresentation(tuple(pres.curves[i] for i in comp))
        for comp in forest.components()
    ]


def restriction(pres: ArrowPresentation, labels: Iterable[str]) -> ArrowPresentation:
    """The ribbon subgraph on a set of edges and their incident vertices.

    Curves keep only the arrows whose label is in the set; curves left with
    no arrows that had none of the labels to begin with are dropped (the
    subgraph contains only vertices incident with a retained edge).
    """
    keep = set(labels)
    unknown = keep - set(pres.labels())
    if unknown:
        raise UnknownLabel(f"labels not present: {', '.join(sorted(unknown))}")
    curves = []
    for curve in pres.curves:
        touched = [a for a in curve if a.label in keep]
        if touched:
            curves.append(touched)
    return presentation(curves)


def delete_vertex(pres: ArrowPresentation, index: int) -> ArrowPresentation:
    """Remove one curve and every edge with an end on it."""
    if not 0 <= index < len(pres.curves):
        raise UnknownVertex(f"no curve with index {index}")
    doomed = {a.label for a in pres.curves[index]}
    curves = [
        [a for a in curve if a.label not in doomed]
        for i, curve in enumerate(pres.curves)
        if i != index
    ]
    return presentation(curves)


def spanning_tree(pres: ArrowPresentation) -> tuple[str, ...]:
    """Edge labels of a deterministic spanning tree of a connected graph.

    The tree edges of ``curve_forest``: breadth-first from curve 0, taking
    the lexicographically smallest label reaching a new curve at each step.
    Returns the sorted tuple of chosen labels (empty for a single vertex).
    """
    if not pres.curves:
        raise NotConnected("empty presentation has no spanning tree")
    forest = curve_forest(pres, arrow_slots(pres))
    if any(r != 0 for r in forest.root):
        raise NotConnected("presentation is not connected")
    return tuple(sorted(label for label in forest.label if label is not None))


def disjoint_union(*parts: ArrowPresentation) -> ArrowPresentation:
    """Place presentations side by side, renaming labels that would collide.

    Labels of earlier operands win; a colliding label ``x`` in a later
    operand becomes ``x_2``, ``x_3``, ... (first free suffix).
    """
    used: set[str] = set()
    curves: list[list[Arrow]] = []
    for part in parts:
        rename: dict[str, str] = {}
        for label in part.labels():
            fresh = label
            k = 2
            while fresh in used:
                fresh = f"{label}_{k}"
                k += 1
            rename[label] = fresh
            used.add(fresh)
        for curve in part.curves:
            curves.append([Arrow(rename[a.label], a.along) for a in curve])
    return presentation(curves)
