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
are rotation-normalized on construction, and equality is structural.  Input
from outside the package is validated once, by ``presentation``; operations
on a valid presentation build their results with ``_trusted``, which only
rotates.

Everything read from the positions of arrows reads the *slot table*
(``_slot_table``), the one index of them, built in one pass and kept for
the last four presentations asked for; no reader mutates one.  The arrows
are numbered curve by curve as slots 0, 1, ..., and each slot records its
curve, its direction, the *mate* slot carrying the same label, and its
label.  An end of an arrow is the *dart* 2·slot + end (0 = tail, 1 = head),
so sorting darts sorts the (curve, position, end) nodes they stand for, and
each dart records the far end of its *plain arc* to the next arrow along
the curve, so that one lookup steps along a curve either way.  A label on
other than two arrows, which only a bug inside the package can produce, is
caught by every build.  ``_curve_graph`` alone reads a label's two slots
as an edge (curve, curve, twisted) of the signed curve graph, and every
reader of that graph takes its list: ``_curve_roots``, through
``_parity``, the one parity union-find over a signed multigraph on
numbered nodes, gives each curve's component root and whether the graph
is balanced, behind components, their counts and orientability;
``curve_forest`` gives the breadth-first trees and each curve's side, for
spanning trees and odd-twist cycles; ``twists``, ``underlying_edges``,
separating vertices and the minor search's step oracle read it whole.
The two-colouring of interlacement graphs and the stack colouring of a
one-vertex graph's word (``oddcycles``) read ``_parity``.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    EmptyLabelError,
    InternalInvariantViolation,
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
    only the rotations starting there are compared: ``min`` finds the least
    arrow, and ``tuple.count`` and ``tuple.index`` its places, all in C, so
    O(n) for n arrows.
    """
    if len(curve) < 2:
        return curve
    least = min(curve)
    i = curve.index(least)
    best = curve[i:] + curve[:i]
    for _ in range(curve.count(least) - 1):
        i = curve.index(least, i + 1)
        best = min(best, curve[i:] + curve[:i])
    return best


@dataclass(frozen=True, slots=True)
class ArrowPresentation:
    """An immutable multiset of closed curves with labelled arrows.

    Direct construction does no checking: it must be given valid curves
    (every label nonempty and on exactly two arrows), each already
    rotation-normalized.  Use ``presentation`` for anything else.
    """

    curves: tuple[Curve, ...]

    # -- basic queries ----------------------------------------------------

    def labels(self) -> tuple[str, ...]:
        """All edge labels, sorted."""
        return tuple(sorted({arrow.label for curve in self.curves for arrow in curve}))

    @property
    def vertex_count(self) -> int:
        return len(self.curves)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.curves)) // 2

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
    return _trusted(raw)


def _trusted(curves: Iterable[Iterable[Arrow]]) -> ArrowPresentation:
    """Rotation-normalize curves that are already valid, without checking.

    For results built from a valid presentation, which keep every label on
    exactly two arrows.
    """
    return ArrowPresentation(tuple(_min_rotation(tuple(curve)) for curve in curves))


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
            if _TOKEN_RE.fullmatch(arrow.label) is None or arrow.label.endswith("'"):
                raise ParseError(f"label {arrow.label!r} not serializable")
        lines.append(" ".join(a.label if a.along else a.label + "'" for a in curve))
    return "\n".join(lines)


# -- graph-level structure -------------------------------------------------


def _miscounted(label: str, count: int) -> InternalInvariantViolation:
    return InternalInvariantViolation(
        f"label {label!r} seen {'more' if count > 2 else 'less'} than twice"
    )


class _SlotTable(NamedTuple):
    """The arrows of a presentation as slots numbered curve by curve.

    Curve c holds slots ``start[c]`` to ``start[c + 1] - 1`` in reading
    order.  Per slot: ``curve``, ``along`` (whether the arrow points along
    its curve), ``mate`` (the other slot of its label), ``label`` and
    ``arrow`` itself.  Per dart: ``plain``, the dart at the other end of its
    plain arc, so that ``plain[2 * s + along[s]] >> 1`` is the next slot on
    s's curve and ``plain[2 * s + 1 - along[s]] >> 1`` the previous one.
    ``first`` maps each label to its first slot.
    """

    start: list[int]
    curve: list[int]
    along: tuple[bool, ...]
    plain: list[int]
    mate: list[int]
    label: tuple[str, ...]
    arrow: tuple[Arrow, ...]
    first: dict[str, int]


_RECENT: tuple[tuple[ArrowPresentation, _SlotTable], ...] = ()


def _slot_table(pres: ArrowPresentation) -> _SlotTable:
    """The slot table of ``pres``, kept if ``pres`` itself was among the
    last four asked for (``_RECENT``, latest first), else built in one pass.

    A label on other than two arrows raises ``InternalInvariantViolation``.
    """
    global _RECENT
    recent = _RECENT  # replaced whole, never mutated, so threads can share it
    for i, entry in enumerate(recent):
        if entry[0] is pres:
            _RECENT = (entry,) + recent[:i] + recent[i + 1:]
            return entry[1]
    curves = pres.curves
    start, curve = [0], []
    for ci, arrows in enumerate(curves):
        curve += [ci] * len(arrows)
        start.append(len(curve))
    n = len(curve)
    arrow = tuple(chain.from_iterable(curves))
    label, along = zip(*arrow) if n else ((), ())
    # an arrow along its curve is left at its head and entered at its tail,
    # one against it the other way round
    plain = [0] * (2 * n)
    for b, e in zip(start, start[1:]):
        if b != e:
            d = 2 * e - 2 + along[e - 1]  # where the last arrow is left
            for t in range(b, e):
                x = 2 * t + 1 - along[t]  # where arrow t is entered
                plain[d], plain[x] = x, d
                d = x ^ 1
    mate = list(range(n))
    first: dict[str, int] = {}
    for t, lab in enumerate(label):
        u = first.setdefault(lab, t)
        if u != t:
            if mate[u] != u:
                break
            mate[u], mate[t] = t, u
    else:
        if 2 * len(first) == n:
            table = _SlotTable(start, curve, along, plain, mate, label, arrow, first)
            _RECENT = ((pres, table),) + recent[:3]
            return table
    # the first label, in order of first occurrence, on other than two arrows
    raise next(_miscounted(lab, k) for lab, k in Counter(label).items() if k != 2)


def _parity(
    n: int, edges: list[tuple[int, int, bool]]
) -> tuple[list[int], list[int], list[int]]:
    """Each node's root and side in a signed multigraph on nodes 0, ...,
    n − 1 whose edge i is ``edges[i] = (a, b, twisted)``, and the indices
    of the *clash* edges, each closing a cycle of odd twist with the edges
    before it.

    A union-find keeps each node's side relative to its parent, with path
    halving, and links the larger root under the smaller.  So every root
    is its component's least node, with side 0, every other node's parent
    is smaller than it, and one forward sweep gives the final roots and
    sides.  A component is balanced, with no cycle of odd twist (Zaslavsky,
    *Signed graphs*, 1982), exactly when none of its edges clashes, and its
    sides are then its one two-colouring with the root at 0.
    """
    parent = list(range(n))
    side = [0] * n
    clashes = []
    for i, (a, b, twisted) in enumerate(edges):
        while parent[a] != a:
            p = parent[a]
            side[a] ^= side[p]
            twisted ^= side[a]
            parent[a] = a = parent[p]
        while parent[b] != b:
            p = parent[b]
            side[b] ^= side[p]
            twisted ^= side[b]
            parent[b] = b = parent[p]
        if a < b:
            parent[b], side[b] = a, twisted
        elif b < a:
            parent[a], side[a] = b, twisted
        elif twisted:
            clashes.append(i)
    for v in range(n):
        p = parent[v]
        side[v] ^= side[p]
        parent[v] = parent[p]
    return parent, side, clashes


def _curve_graph(table: _SlotTable) -> list[tuple[int, int, bool]]:
    """The signed curve graph, one edge per label in ``first``'s order: the
    curves of the label's two arrows, twisted when they point opposite
    ways."""
    curve, along, mate = table.curve, table.along, table.mate
    return [
        (curve[s], curve[mate[s]], along[s] != along[mate[s]])
        for s in table.first.values()
    ]


def _curve_roots(table: _SlotTable) -> tuple[list[int], bool]:
    """The root (least curve) of each curve's component, and whether the
    curves can be read so that every edge is untwisted, that is whether no
    cycle of the curve graph, a loop included, has an odd number of twisted
    edges: ``_parity`` over ``_curve_graph``."""
    root, _, clashes = _parity(len(table.start) - 1, _curve_graph(table))
    return root, not clashes


def underlying_edges(pres: ArrowPresentation) -> dict[str, tuple[int, int]]:
    """label -> (curve, curve) incidence map of the underlying multigraph."""
    table = _slot_table(pres)
    return {
        label: (a, b)
        for label, (a, b, _) in sorted(zip(table.first, _curve_graph(table)))
    }


class CurveForest(NamedTuple):
    """A breadth-first spanning forest of the curve graph.

    Each component is rooted at its least curve and searched breadth-first,
    taking at every curve its non-loop edges of ``_curve_graph`` in label
    order.  Indexed by curve: ``root``, ``parent`` (a root is its own
    parent), ``label`` (the tree edge to the parent, None at a root) and
    ``side``, the parity of the twisted tree edges on the path from the root.
    """

    root: list[int]
    parent: list[int]
    label: list[str | None]
    side: list[int]


def _group_by_root(root: list[int]) -> list[list[int]]:
    """Curve indices sharing each root, sorted, in order of least curve."""
    groups: dict[int, list[int]] = {}
    for ci, r in enumerate(root):
        groups.setdefault(r, []).append(ci)
    return list(groups.values())


def curve_forest(table: _SlotTable) -> CurveForest:
    """The breadth-first forest of the presentation whose slot table is given."""
    n = len(table.start) - 1
    incident: list[list[tuple[str, int, bool]]] = [[] for _ in range(n)]
    for lab, (a, b, twisted) in zip(table.first, _curve_graph(table)):
        if a != b:
            incident[a].append((lab, b, twisted))
            incident[b].append((lab, a, twisted))
    for lst in incident:
        lst.sort()
    root = [-1] * n
    parent = list(range(n))
    tree_label: list[str | None] = [None] * n
    side = [0] * n
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
            for lab, w, twisted in incident[v]:
                if root[w] < 0:
                    root[w], parent[w], tree_label[w] = r, v, lab
                    side[w] = side[v] ^ twisted
                    order.append(w)
    return CurveForest(root, parent, tree_label, side)


def component_vertex_sets(pres: ArrowPresentation) -> list[set[int]]:
    """Vertex sets of connected components, each sorted by smallest member."""
    return [set(c) for c in _group_by_root(_curve_roots(_slot_table(pres))[0])]


def component_count(pres: ArrowPresentation) -> int:
    return len(set(_curve_roots(_slot_table(pres))[0]))


def components(pres: ArrowPresentation) -> list[ArrowPresentation]:
    """Split into connected components (curve order preserved within each).

    The curves are already rotation-normalized and no label crosses
    components, so the parts are built without validating them again.
    """
    root, _ = _curve_roots(_slot_table(pres))
    return [
        ArrowPresentation(tuple(pres.curves[i] for i in comp))
        for comp in _group_by_root(root)
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
        missing = sorted(map(str, unknown))
        raise UnknownLabel(f"labels not present: {', '.join(missing)}")
    curves = []
    for curve in pres.curves:
        touched = [a for a in curve if a.label in keep]
        if touched:
            curves.append(touched)
    return _trusted(curves)


def _check_vertex(pres: ArrowPresentation, index: int) -> None:
    """Refuse an ``index`` that names no curve; a bool names none."""
    if type(index) is not int or not 0 <= index < len(pres.curves):
        raise UnknownVertex(f"no curve with index {index!r}")


def delete_vertex(pres: ArrowPresentation, index: int) -> ArrowPresentation:
    """Remove one curve and every edge with an end on it."""
    _check_vertex(pres, index)
    doomed = {a.label for a in pres.curves[index]}
    curves = [
        [a for a in curve if a.label not in doomed]
        for i, curve in enumerate(pres.curves)
        if i != index
    ]
    return _trusted(curves)


def spanning_tree(pres: ArrowPresentation) -> tuple[str, ...]:
    """Edge labels of a deterministic spanning tree of a connected graph.

    The tree edges of ``curve_forest``: breadth-first from curve 0, taking
    the lexicographically smallest label reaching a new curve at each step.
    Returns the sorted tuple of chosen labels (empty for a single vertex).
    """
    if not pres.curves:
        raise NotConnected("empty presentation has no spanning tree")
    forest = curve_forest(_slot_table(pres))
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
