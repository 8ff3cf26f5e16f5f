"""The arc complex of a presentation: boundary, splices and orientability.

Each arrow contributes two darts, its tail and its head, numbered from the
slot table (see ``presentation``): dart 2·slot + end, with end 0 for the
tail and 1 for the head.  The *arc complex* of some curves joins the darts
by two involutions, as the flag model of a graph on a surface does (Lando
and Zvonkin, 2004): the *plain arc* from each arrow to the next along its
curve, the slot table's ``plain``, and the *cross arc*, each arrow itself
from tail to head, except that an *opened* edge replaces its two arrows α
and β by its two *free sides*, which join {head α, tail β} and {head β,
tail α}; ``_open`` sets the walkers' flags for a set of labels.  So the
complex falls into cycles, each leaving its first dart by its plain arc,
the arcs alternating from there.  Three walkers follow them, one per job,
each taking a plain arc with one lookup:

- ``_splice_words`` writes the arrows on their cross arcs as it goes, one
  new curve per cycle, for the splice that contracts a set of edges or
  takes the partial dual at it (see ``moves``), and for
  ``links.represents_link``, which reads the word of each component's
  spanning-tree partial dual.  It is the one walker that takes a set of
  curves, those carrying the set, and it starts each cycle where
  ``_starts``, the one statement of the start rule, says;
- ``trace_boundary`` opens every edge and records the darts of each cycle
  in order as (curve, position, end) nodes, the boundary components,
  numbering each dart with its component as it goes;
- ``_cycles`` counts them, in one pass over every dart, starting each at
  its least dart, and marks each dart with its cycle, negated where the
  cycle leaves it by its cross arc.  With every edge opened, the cycles
  are the boundary components, with one full circle more for every curve
  with no arrows: ``_surface_walk`` counts them for ``surface_summary``,
  and ``_steps`` reads off the same marks the Euler genus and the
  orientability of every one-edge deletion and contraction, for the minor
  search.  With a set A opened on every curve, they and the bare curves
  number f(V, A), the boundary components of the spanning subgraph
  (V, A).  The vertices of the partial dual G^A are the boundary
  components of (V, A) and its faces those of (V, E − A) (Chmutov, JCTB
  2009), so  ε(G^A) = 2k + e − f(V, A) − f(V, E − A)  with no G^A built:
  ``_dual_genus`` counts it for one A, for the decision's plane witness,
  and ``_spanning_boundaries`` counts f(V, A) for every A, for the minor
  search's floor on the least Euler genus of a partial dual.

An edge is twisted when its two arrows point opposite ways
(``_curve_graph``).  The graph is orientable unless some cycle has an odd
number of twisted edges.  ``_surface_walk`` reads connected components
and orientability from ``_curve_roots``, the parity union-find ``_parity``
over the curve graph; ``_steps`` asks the same union-find about each
child; ``odd_twist_cycle`` finds such a cycle at the least edge by (root,
lesser end, label) that clashes with the sides of ``curve_forest``.

Euler's formula for a ribbon graph with v vertices, e edges, f boundary
components and k connected components reads  v − e + f = 2k − γ  where γ is
the Euler genus (2·genus when orientable, the cross-cap count otherwise).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InternalInvariantViolation
from .presentation import (
    Arrow,
    ArrowPresentation,
    Curve,
    _curve_graph,
    _curve_roots,
    _parity,
    _slot_table,
    _SlotTable,
    curve_forest,
)

# A node of the arc complex: (curve index, arrow position, end), 0=tail, 1=head.
Node = tuple[int, int, int]
# A boundary walk: either a cycle of nodes, or ("vertex", i) for a bare curve.
Walk = tuple


def _node(table: _SlotTable, dart: int) -> Node:
    """The (curve, position, end) node of a dart."""
    slot = dart >> 1
    ci = table.curve[slot]
    return ci, slot - table.start[ci], dart & 1


def _starts(
    table: _SlotTable, curves: Iterable[int], opened: Sequence[int], seen: list[int]
) -> Iterator[int]:
    """The first dart of each cycle of the arc complex of some curves, taken
    in the order given, for a walker that marks its darts in ``seen``: the
    least dart of its curve not yet walked, except that at the entry dart
    of a curve's first arrow, when the curve has more than one arrow and
    that edge is not opened, it starts one dart on, at the arrow's other
    end, so that the cycle runs the way the curve is read."""
    start, along = table.start, table.along
    for ci in curves:
        b, e = start[ci], start[ci + 1]
        entry = 2 * b + 1 - along[b] if e - b > 1 and not opened[b] else -1
        for first in range(2 * b, 2 * e):
            if not seen[first]:
                yield first ^ 1 if first == entry else first


def _splice_words(
    table: _SlotTable, curves: Iterable[int], opened: Sequence[int], dual: bool
) -> list[Curve]:
    """The new curves of a splice, in walk order: the cycles of the arc
    complex of some curves, with ``opened`` set at the slots of the opened
    edges, each started by ``_starts`` and written as it is walked from the
    arrows on its cross arcs, pointing the way it runs.  A closed edge's
    arrow runs forward when left at its tail, and an opened edge's free
    side, which carries an arrow only when ``dual`` is set, when left at
    its head; an arrow of the label that already points that way is reused
    rather than built again."""
    along, plain, mate = table.along, table.plain, table.mate
    label, arrow = table.label, table.arrow
    words: list[Curve] = []
    seen = [0] * (2 * len(mate))
    for first in _starts(table, curves, opened, seen):
        word = []
        d = first
        while True:
            seen[d] = 1
            d = plain[d]
            seen[d] = 1
            s = d >> 1
            forward = d & 1 == opened[s]
            if dual or not opened[s]:
                m = mate[s]
                word.append(
                    arrow[s] if along[s] == forward
                    else arrow[m] if along[m] == forward
                    else Arrow(label[s], forward)
                )
            d = 2 * mate[s] + 1 - (d & 1) if opened[s] else d ^ 1
            if d == first:
                break
        words.append(tuple(word))
    return words


def _cycles(table: _SlotTable, opened: Sequence[int]) -> tuple[int, list[int]]:
    """The cycles of the arc complex of every curve, with ``opened`` set at
    the slots of the opened edges, not recorded: their number, and each
    dart's mark, c + 1 on the c-th cycle, negated at the darts the cycle
    leaves by their cross arcs.  A cycle is the same set of darts whichever
    dart it starts from, so each starts at the least dart not yet walked,
    leaving it by its plain arc."""
    plain, mate = table.plain, table.mate
    marks = [0] * (2 * len(mate))
    cycles = 0
    for first in range(len(marks)):
        if marks[first]:
            continue
        cycles += 1
        cross = -cycles
        d = first
        while True:
            marks[d] = cycles
            d = plain[d]
            marks[d] = cross
            s = d >> 1
            d = 2 * mate[s] + 1 - (d & 1) if opened[s] else d ^ 1
            if d == first:
                break
    return cycles, marks


def _bare(table: _SlotTable) -> int:
    """The number of curves with no arrows."""
    start = table.start
    return sum(b == e for b, e in zip(start, start[1:]))


def _dual_genus(table: _SlotTable, opened: Sequence[int], k: int) -> int:
    """The Euler genus of the partial dual G^A of a graph with k connected
    components, A the edges whose slots ``opened`` sets, by Euler's formula
    with v = f(V, A) and f = f(V, E − A): two ``_cycles`` walks, and no
    G^A built."""
    bare = _bare(table)
    v = _cycles(table, opened)[0] + bare
    f = _cycles(table, [1 - o for o in opened])[0] + bare
    return 2 * k + len(table.mate) // 2 - v - f


def _spanning_boundaries(table: _SlotTable) -> list[int]:
    """f(V, A) for every subset A of the labels, indexed by the bitmask of A
    over the sorted labels: the ``_cycles`` cycles with A's slots
    opened, plus the bare curves.

    The subsets are taken in Gray-code order, so each walk follows the last
    with one edge's two slot flags toggled in the one flags list.
    """
    mate = table.mate
    bare = _bare(table)
    slots = [table.first[label] for label in sorted(table.first)]
    opened = [0] * len(mate)
    out = [0] * (1 << len(slots))
    mask = 0
    for i in range(len(out)):
        if i:
            bit = (i & -i).bit_length() - 1
            s = slots[bit]
            opened[s] = opened[mate[s]] = 1 - opened[s]
            mask ^= 1 << bit
        out[mask] = _cycles(table, opened)[0] + bare
    return out


def _open(table: _SlotTable, labels: Iterable[str]) -> list[int]:
    """The walker's slot flags that open the edges of ``labels``."""
    first, mate = table.first, table.mate
    opened = [0] * len(mate)
    for label in labels:
        s = first[label]
        opened[s] = opened[mate[s]] = 1
    return opened


def trace_boundary(pres: ArrowPresentation):
    """All boundary walks, and the walk pair met by each edge's free sides.

    Returns ``(walks, edge_walks)`` where ``walks`` is a list of boundary
    components (cycles of nodes, or ``("vertex", i)`` markers for isolated
    vertices) and ``edge_walks`` maps each label to the sorted pair of walk
    indices containing its two free sides.  Each walk starts at its least
    dart not yet walked, as ``_starts`` has it when no edge is closed.
    """
    table = _slot_table(pres)
    plain, mate = table.plain, table.mate
    walks: list[Walk] = []
    walk_of = [-1] * (2 * len(mate))
    for first in range(len(walk_of)):
        if walk_of[first] >= 0:
            continue
        c, walk = len(walks), []
        d = first
        while True:
            walk_of[d] = c
            walk.append(_node(table, d))
            d = plain[d]
            walk_of[d] = c
            walk.append(_node(table, d))
            s = d >> 1
            d = 2 * mate[s] + 1 - (d & 1)  # the free side to the mate slot
            if d == first:
                break
        walks.append(tuple(walk))
    walks.extend(("vertex", i) for i, curve in enumerate(pres.curves) if not curve)
    edge_walks = {
        label: tuple(sorted((walk_of[2 * s + 1], walk_of[2 * mate[s] + 1])))
        for label, s in sorted(table.first.items())
    }
    return walks, edge_walks


def twists(pres: ArrowPresentation) -> dict[str, int]:
    """Edge twist signs: +1 if the two arrows agree in direction, else -1.

    Signs are relative to the written traversal of each curve; re-encoding a
    curve backwards toggles the sign of every non-loop edge at it, which is
    exactly the gauge freedom the orientability test quotients out.
    """
    table = _slot_table(pres)
    return {
        label: -1 if twisted else 1
        for label, (_, _, twisted) in sorted(zip(table.first, _curve_graph(table)))
    }


def odd_twist_cycle(pres: ArrowPresentation) -> tuple[list[str], str] | None:
    """A cycle with an odd number of twisted edges, or None if orientable.

    Returns (labels to contract in order, label kept as the final twisted
    loop).  The least twisted loop is returned as ([], its label).
    Otherwise an edge of ``_curve_graph`` *clashes* when the sides of its
    ends in ``curve_forest`` differ by other than its twist, as no tree edge
    does, and the least clash by (root, lesser end v, label), that is taking
    components in root order, then curves by index, then labels, closes the
    cycle: its chain runs up the tree from v to where the root paths of v
    and the greater end w meet and down to w.
    """
    table = _slot_table(pres)
    edges = list(zip(table.first, _curve_graph(table)))
    loops = [lab for lab, (a, b, twisted) in edges if a == b and twisted]
    if loops:
        return [], min(loops)
    root, parent, tree_label, side = curve_forest(table)
    clashes = [
        (root[a], min(a, b), lab, max(a, b))
        for lab, (a, b, twisted) in edges
        if side[a] ^ side[b] ^ twisted
    ]
    if not clashes:
        return None
    _, v, lab, w = min(clashes)
    up, down = [v], [w]
    for path in (up, down):
        while parent[path[-1]] != path[-1]:
            path.append(parent[path[-1]])
    while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
        up.pop()
        down.pop()
    return [tree_label[x] for x in [*up[:-1], *reversed(down[:-1])]], lab


def is_orientable(pres: ArrowPresentation) -> bool:
    """True unless some cycle, a twisted loop included, has odd twist.

    Read from the slot table's curve pass, as ``surface_summary`` reads it,
    without the boundary walk that only the summary needs.
    """
    return _curve_roots(_slot_table(pres))[1]


@dataclass(frozen=True, slots=True)
class SurfaceSummary:
    vertices: int
    edges: int
    boundary: int
    components: int
    euler_genus: int
    genus: int
    orientable: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _surface_walk(
    pres: ArrowPresentation,
) -> tuple[SurfaceSummary, _SlotTable, tuple[int, list[int]]]:
    """The surface summary of ``pres``, with the slot table and the all-open
    ``_cycles`` it was read from, for ``_steps`` to reuse.

    Boundary components, connected components and orientability come from
    the one slot table: the cycles, plus one more component of both kinds
    for every bare curve.  Euler-formula sanity checks raise
    ``InternalInvariantViolation``.
    """
    table = _slot_table(pres)
    walk = _cycles(table, [1] * len(table.mate))
    root, orientable = _curve_roots(table)
    f = pres.curves.count(()) + walk[0]
    v = pres.vertex_count
    e = pres.edge_count
    k = len(set(root))
    euler_genus = 2 * k - v + e - f
    if euler_genus < 0:
        raise InternalInvariantViolation(
            f"negative Euler genus {euler_genus} (v={v} e={e} f={f} k={k})"
        )
    if orientable and euler_genus % 2:
        raise InternalInvariantViolation(
            f"odd Euler genus {euler_genus} on an orientable surface"
        )
    genus = euler_genus // 2 if orientable else euler_genus
    return SurfaceSummary(v, e, f, k, euler_genus, genus, orientable), table, walk


@lru_cache(maxsize=1 << 18)
def surface_summary(pres: ArrowPresentation) -> SurfaceSummary:
    """Vertex/edge/boundary counts and genus, with Euler-formula sanity
    checks (``_surface_walk``), cached per presentation."""
    return _surface_walk(pres)[0]


def _steps(
    table: _SlotTable, walk: tuple[int, list[int]], gamma: int
) -> tuple[Callable[[str, bool], int], Callable[[str, bool], bool]]:
    """The Euler genus and the orientability of deleting (False) or
    contracting (True) each label of G, as two tests read off G's slot
    table, its all-open ``_cycles`` count and marks and its Euler genus γ,
    as ``_surface_walk`` gives them.

    Contraction is deletion in the dual: (G/e)* = G* − e (Chmutov, JCTB
    2009), and duality keeps γ, the component count and orientability.  So
    both steps read two signed multigraphs with the edges of G.  In
    ``graph``, G's curve graph, e joins the curves of its arrows and is
    twisted when they point opposite ways.  In ``dual``, the graph of G's
    boundary walks, which are the vertices of G*, e joins the walks of its
    two free sides and is twisted when they run the same way.  A deletion
    reads (near, far) = (dual, graph) and a contraction (graph, dual):

    - e's ends in near differ: γ;
    - e is twisted in near: γ − 1;
    - otherwise γ − 2, unless e is a bridge of far, which leaves γ.

    A deletion keeps the vertices, so γ moves with the boundary and
    component counts alone, and e's two free sides set those: on two
    walks, which deleting e merges; on one walk, run the same way, which
    stays one walk; or run opposite ways, which splits in two, and deleting
    a bridge adds a component too.  A graph is orientable exactly when its
    signed curve graph is balanced, with no cycle of an odd number of
    twisted edges (Zaslavsky, *Signed graphs*, Discrete Appl. Math. 1982),
    so the child is orientable exactly when far without e is.  One parity
    union-find (``_parity``) over far's edge list without e tells both
    whether e's ends stay joined, so that e is no bridge, and whether what
    is left is balanced: O(E) per question.

    With every edge opened, a dart's ``_cycles`` mark m gives its walk,
    |m| − 1, and whether the walk leaves it by its free side, m < 0.  Of
    e's first arrow, the side at the head leads to the second arrow's tail
    and the side at the tail comes from the second arrow's head, so the two
    sides run the same way exactly when both ends of the first arrow are
    left by their free sides or neither is.
    """
    mate = table.mate
    walks, marks = walk
    index, walk_edges = {}, []
    for label, s in table.first.items():
        index[label] = len(walk_edges)
        head, tail = marks[2 * s + 1], marks[2 * s]
        same_way = (head < 0) == (tail < 0)
        walk_edges.append((abs(head) - 1, abs(marks[2 * mate[s] + 1]) - 1, same_way))
    # (node count, signed edges)
    graph = len(table.start) - 1, _curve_graph(table)
    dual = walks, walk_edges

    def genus(label: str, contracted: bool) -> int:
        near, far = (graph, dual) if contracted else (dual, graph)
        i = index[label]
        a, b, twisted = near[1][i]
        if a != b:
            return gamma
        if twisted:
            return gamma - 1
        n, edges = far
        root = _parity(n, edges[:i] + edges[i + 1:])[0]
        a, b, _ = edges[i]
        return gamma - 2 if root[a] == root[b] else gamma

    def orientable(label: str, contracted: bool) -> bool:
        i = index[label]
        n, edges = dual if contracted else graph
        return not _parity(n, edges[:i] + edges[i + 1:])[2]

    return genus, orientable


def boundary_component_count(pres: ArrowPresentation) -> int:
    return surface_summary(pres).boundary


def euler_genus(pres: ArrowPresentation) -> int:
    return surface_summary(pres).euler_genus


def is_plane(pres: ArrowPresentation) -> bool:
    """Whether every component embeds in the sphere (Euler genus zero)."""
    return surface_summary(pres).euler_genus == 0
