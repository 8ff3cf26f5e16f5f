"""The arc complex of a presentation: boundary, splices and orientability.

Each arrow contributes two darts, its tail and its head, numbered from the
slot table (see ``presentation``): dart 2·slot + end, with end 0 for the
tail and 1 for the head.  The *arc complex* of some curves joins the darts
by the *plain arc* from each arrow to the next along its curve and by each
arrow itself, from tail to head, except that an *opened* edge replaces its
two arrows α and β by its two *free sides*, which join {head α, tail β} and
{head β, tail α}.  Each dart then lies on one plain arc and one *cross*
arc, so the complex falls into cycles.  ``walk_arcs`` is the one walker of
them; it leaves every other dart by its plain arc and the rest by their
cross arcs.  What its cycles give:

- with every edge opened, they are the boundary components, with one full
  circle more for every curve with no arrows: ``surface_summary`` counts
  them, ``trace_boundary`` turns them into (curve, position, end) nodes,
  and ``_step_genera`` reads off the same walk (``_surface_walk`` hands it
  on) the Euler genus of every one-edge deletion and contraction, for the
  minor search, and ``_step_orientability`` whether such a child of a
  non-orientable graph is orientable;
- with a set of edges opened on the curves carrying them, the arrows met
  along each cycle (``_cross_arrows``) form one new curve of the splice
  that contracts the set or takes the partial dual at it (see ``moves``);
- with a set A opened on every curve, they and the bare curves number
  f(V, A), the boundary components of the spanning subgraph (V, A):
  ``_spanning_boundaries`` counts them for every A, one walk each and no
  presentation built, for the minor search's floor on the least Euler
  genus of a partial dual, ε(G^A) = 2k + e − f(V, A) − f(V, E − A).

An edge is twisted when its two arrows point opposite ways.  The graph
is orientable unless some cycle has an odd number of twisted edges.
``surface_summary`` reads connected components and orientability from
``_curve_roots`` over the slot table that it walks; ``odd_twist_cycle``
finds such a cycle, for certificates, on the breadth-first
``curve_forest`` of the same kind of table.

Euler's formula for a ribbon graph with v vertices, e edges, f boundary
components and k connected components reads  v − e + f = 2k − γ  where γ is
the Euler genus (2·genus when orientable, the cross-cap count otherwise).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .errors import InternalInvariantViolation
from .presentation import (
    Arrow,
    ArrowPresentation,
    Curve,
    _blocks,
    _curve_roots,
    _group_by_root,
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


def walk_arcs(
    table: _SlotTable, curves: Iterable[int], opened: Sequence[int]
) -> tuple[list[int], list[int]]:
    """The cycles of the arc complex of some curves, with ``opened`` set at
    the slots of the opened edges: every dart of the curves in walking
    order, and the index in that list just past each cycle's last dart.

    Curves are taken in the order given.  A cycle starts at the least dart
    of its curve not yet walked and leaves it by the plain arc, except at
    the entry dart of a curve's first arrow when the curve has more than one
    arrow and that edge is not opened: there it starts one dart on, at the
    arrow's other end, so that it runs the way the curve is read.  The arcs
    alternate from there, so a cycle's odd places hold the darts it leaves
    by their cross arcs.
    """
    start, _, along, nxt, prv, mate, _, _, _ = table
    order: list[int] = []
    ends: list[int] = []
    seen = [0] * (2 * len(mate))  # a list indexes faster than a bytearray
    for ci in curves:
        b, e = start[ci], start[ci + 1]
        entry = 2 * b + 1 - along[b] if e - b > 1 and not opened[b] else -1
        for first in range(2 * b, 2 * e):
            if seen[first]:
                continue
            if first == entry:
                first ^= 1
            d = first
            while True:
                seen[d] = 1
                order.append(d)
                s = d >> 1
                if d & 1 == along[s]:
                    # the plain arc: an arrow along its curve is left at its head
                    t = nxt[s]
                    d = 2 * t + 1 - along[t]
                else:
                    t = prv[s]
                    d = 2 * t + along[t]
                seen[d] = 1
                order.append(d)
                # the cross arc: a free side to the mate slot, or the arrow
                s = d >> 1
                d = 2 * mate[s] + 1 - (d & 1) if opened[s] else d ^ 1
                if d == first:
                    break
            ends.append(len(order))
    return order, ends


def _spanning_boundaries(table: _SlotTable) -> list[int]:
    """f(V, A) for every subset A of the labels, indexed by the bitmask of A
    over the sorted labels: the ``walk_arcs`` cycles of every curve with
    A's slots opened, plus the bare curves.

    The subsets are taken in Gray-code order, so each walk follows the last
    with one edge's two slot flags toggled in the one flags list.
    """
    start, mate = table.start, table.mate
    curves = range(len(start) - 1)
    bare = sum(b == e for b, e in zip(start, start[1:]))
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
        out[mask] = len(walk_arcs(table, curves, opened)[1]) + bare
    return out


def _opened(table: _SlotTable, curves: Iterable[int], slots: list[int]) -> list[int]:
    """The walker's per-slot flags for opening ``slots``, both slots of each
    opened edge, all on ``curves``; anything else is refused."""
    curve, mate = table.curve, table.mate
    given = set(curves)
    flags = [0] * len(curve)
    for s in slots:
        if not 0 <= s < len(curve) or flags[s] or curve[s] not in given:
            raise InternalInvariantViolation(f"bad slot {s} for an opened edge")
        flags[s] = 1
    for s in slots:
        if not flags[mate[s]]:
            raise InternalInvariantViolation(f"slot {s} opened without its mate")
    return flags


def _cross_arrows(
    table: _SlotTable, opened: Sequence[int], dual: bool, darts: Iterable[int]
) -> Curve:
    """The arrows on the cross arcs leaving ``darts``, each pointing the way
    the walk runs: a closed edge's arrow runs forward from its tail, and an
    opened edge's free side, which carries an arrow only when ``dual`` is
    set, from the head it leaves.  An arrow of the label that already
    points that way is reused rather than built again."""
    along, mate, label, arrow = table.along, table.mate, table.label, table.arrow
    out = []
    for d in darts:
        s = d >> 1
        if opened[s] and not dual:
            continue
        forward = d & 1 == opened[s]
        m = mate[s]
        out.append(
            arrow[s] if along[s] == forward
            else arrow[m] if along[m] == forward
            else Arrow(label[s], forward)
        )
    return tuple(out)


def trace_boundary(pres: ArrowPresentation):
    """All boundary walks, and the walk pair met by each edge's free sides.

    Returns ``(walks, edge_walks)`` where ``walks`` is a list of boundary
    components (cycles of nodes, or ``("vertex", i)`` markers for isolated
    vertices) and ``edge_walks`` maps each label to the sorted pair of walk
    indices containing its two free sides.
    """
    table = _slot_table(pres)
    order, ends = walk_arcs(table, range(len(pres.curves)), [1] * len(table.mate))
    walks: list[Walk] = []
    dart_walk = [0] * len(order)
    for b, e in zip([0, *ends], ends):
        for d in order[b:e]:
            dart_walk[d] = len(walks)
        walks.append(tuple(_node(table, d) for d in order[b:e]))
    walks.extend(("vertex", i) for i, curve in enumerate(pres.curves) if not curve)
    mate = table.mate
    edge_walks = {
        label: tuple(sorted((dart_walk[2 * s + 1], dart_walk[2 * mate[s] + 1])))
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
    along, mate = table.along, table.mate
    return {
        label: 1 if along[s] == along[mate[s]] else -1
        for label, s in sorted(table.first.items())
    }


def odd_twist_cycle(pres: ArrowPresentation) -> tuple[list[str], str] | None:
    """A cycle with an odd number of twisted edges, or None if orientable.

    Returns (labels to contract in order, label kept as the final twisted
    loop).  The least twisted loop is returned as ([], its label).
    Otherwise the parity of each curve along ``curve_forest`` is compared
    across the non-tree edges, taking components in root order, then curves
    by index, then labels; the first conflict w-v closes the cycle, whose
    chain runs up the tree from v to where the root paths of v and w meet
    and down to w.
    """
    table = _slot_table(pres)
    curve, along, mate, label = table.curve, table.along, table.mate, table.label
    twisted = {label[s] for s, t in enumerate(mate) if along[s] != along[t]}
    loops = [label[s] for s, t in enumerate(mate) if curve[s] == curve[t]]
    loops = twisted.intersection(loops)
    if loops:
        return [], min(loops)
    forest = curve_forest(table)
    parity = [False] * len(pres.curves)
    for v in forest.order:
        if forest.label[v] is not None:
            parity[v] = parity[forest.parent[v]] ^ (forest.label[v] in twisted)
    for comp in _group_by_root(forest.root):
        for v in comp:
            for lab, w in forest.incident[v]:
                if w > v and parity[v] ^ parity[w] ^ (lab in twisted):
                    up, down = [v], [w]
                    for path in (up, down):
                        while forest.parent[path[-1]] != path[-1]:
                            path.append(forest.parent[path[-1]])
                    while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
                        up.pop()
                        down.pop()
                    chain = [forest.label[x] for x in up[:-1]]
                    chain += [forest.label[x] for x in reversed(down[:-1])]
                    return chain, lab
    return None


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
) -> tuple[SurfaceSummary, _SlotTable, tuple[list[int], list[int]]]:
    """The surface summary of ``pres`` with the slot table and the all-open
    ``walk_arcs`` cycles it was read from, for ``_step_genera`` to reuse.

    Boundary components, connected components and orientability come from
    one slot table: the cycles of the walk with every edge opened, plus one
    more component of both kinds for every bare curve.  Euler-formula sanity
    checks raise ``InternalInvariantViolation``.
    """
    table = _slot_table(pres)
    root, orientable = _curve_roots(table)
    walk = walk_arcs(table, range(len(pres.curves)), [1] * len(table.mate))
    f = pres.curves.count(()) + len(walk[1])
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


def _step_genera(
    table: _SlotTable, walk: tuple[list[int], list[int]], gamma: int
) -> dict[str, tuple[int, int]]:
    """Each label's (γ(G − e), γ(G/e)), read off G's slot table, its
    all-open ``walk_arcs`` cycles and its Euler genus γ, as ``_surface_walk``
    gives them.

    One rule gives both.  Deleting e keeps the vertices and drops one edge,
    so γ moves with the boundary and component counts alone, and those are
    set by e's two free sides:

    - on different boundary walks, which e's removal merges: γ;
    - on the same walk, run the same way, which stays one walk: γ − 1;
    - on the same walk, run opposite ways, which splits in two: γ − 2,
      unless e is a bridge, whose removal also adds a component: γ.

    Contraction is deletion in the dual: (G/e)* = G* − e (Chmutov, JCTB
    2009), and duality keeps γ and the component count.  The vertices of G*
    are the boundary walks of G, its boundary walks are the curves of G, and
    e's two arrows play the part of its free sides.  So the rule on G* reads:
    on different curves (e is not a loop), γ; on one curve pointing the same
    way as read along it (a twisted loop), γ − 1; otherwise γ − 2, unless e
    is a bridge of G*, which leaves γ.

    With every edge opened, ``walk_arcs`` gives each dart's walk, and as
    each walk has even length, the darts at odd places are those it leaves
    by their free sides.  Of e's first arrow, the side at the head leads to
    the second arrow's tail and the side at the tail comes from the second
    arrow's head, so the two sides run the same way exactly when both ends
    of the first arrow are left by their free sides or neither is.  The
    bridges of G are the one-edge blocks (``_blocks``) of its curve graph,
    where e joins the curves of its arrows, and those of G* the one-edge
    blocks of the graph of walks, where e joins the walks of its free sides.
    """
    curve, along, mate = table.curve, table.along, table.mate
    walk_of, side = _walk_sides(walk)
    slots = table.first.values()
    bridges = _bridges(len(table.start) - 1, [(curve[s], curve[mate[s]]) for s in slots])
    dual_bridges = _bridges(
        len(walk[1]), [(walk_of[2 * s + 1], walk_of[2 * mate[s] + 1]) for s in slots]
    )
    out: dict = {}
    for i, (label, s) in enumerate(table.first.items()):
        t = mate[s]
        if walk_of[2 * s + 1] != walk_of[2 * t + 1]:
            deleted = gamma
        elif side[2 * s + 1] == side[2 * s]:
            deleted = gamma - 1
        else:
            deleted = gamma if i in bridges else gamma - 2
        if curve[s] != curve[t]:
            contracted = gamma
        elif along[s] != along[t]:
            contracted = gamma - 1
        else:
            contracted = gamma if i in dual_bridges else gamma - 2
        out[label] = deleted, contracted
    return out


def _walk_sides(walk: tuple[list[int], list[int]]) -> tuple[list[int], list[int]]:
    """Each dart's walk among the all-open ``walk_arcs`` cycles, and 1 where
    its walk leaves it by its free side (the odd places), else 0."""
    order, ends = walk
    walk_of = [0] * len(order)
    for w, (b, e) in enumerate(zip([0, *ends], ends)):
        for d in order[b:e]:
            walk_of[d] = w
    side = [0] * len(order)
    for d in order[1::2]:
        side[d] = 1
    return walk_of, side


def _step_orientability(
    table: _SlotTable, walk: tuple[list[int], list[int]]
) -> Callable[[str, bool], bool]:
    """A test of whether deleting (False) or contracting (True) a label of
    a non-orientable G leaves an orientable graph, read off G's slot table
    and its all-open ``walk_arcs`` cycles, as ``_step_genera`` reads them.

    A ribbon graph is orientable exactly when its curve graph, each edge
    signed by its twist, is balanced: no cycle has an odd number of twisted
    edges (Zaslavsky, *Signed graphs*, Discrete Appl. Math. 1982).  So G − e
    is orientable iff G's signed curve graph without e is balanced.
    Contracting a non-loop keeps the surface, so G/e stays non-orientable.
    For a loop, (G/e)* = G* − e (Chmutov, JCTB 2009) and duality keeps
    orientability, so G/e is orientable iff G* − e is balanced, where G* is
    the graph of boundary walks of ``_step_genera``: e joins the walks of
    its two free sides, and is twisted when they run the same way.  Each
    answer is one parity pass over one of the two edge lists.
    """
    curve, along, mate = table.curve, table.along, table.mate
    walk_of, side = _walk_sides(walk)
    index: dict[str, tuple[int, bool]] = {}
    graph, dual = [], []
    for i, (label, s) in enumerate(table.first.items()):
        t = mate[s]
        index[label] = i, curve[s] == curve[t]
        graph.append((curve[s], curve[t], along[s] != along[t]))
        twisted = side[2 * s + 1] == side[2 * s]  # its free sides run one way
        dual.append((walk_of[2 * s + 1], walk_of[2 * t + 1], twisted))
    curves, walks = len(table.start) - 1, len(walk[1])

    def orientable(label: str, contracted: bool) -> bool:
        i, loop = index[label]
        if not contracted:
            return _balanced(curves, graph, i)
        return loop and _balanced(walks, dual, i)

    return orientable


def _balanced(n: int, signed: list[tuple[int, int, bool]], skip: int) -> bool:
    """Whether a signed multigraph on nodes 0, ..., n − 1, edge i joining
    ``signed[i][:2]`` with twist ``signed[i][2]``, has no cycle of odd twist
    once edge ``skip`` is left out: a union-find that keeps each node's
    twist parity to its root."""
    root = list(range(n))
    odd = [False] * n
    for i, (a, b, twisted) in enumerate(signed):
        if i == skip:
            continue
        while root[a] != a:
            twisted ^= odd[a]
            a = root[a]
        while root[b] != b:
            twisted ^= odd[b]
            b = root[b]
        if a != b:
            root[a], odd[a] = b, twisted
        elif twisted:
            return False
    return True


def _bridges(n: int, ends: list[tuple[int, int]]) -> set[int]:
    """The edges of a multigraph whose removal disconnects their ends."""
    return {block[0] for block in _blocks(n, ends) if len(block) == 1}


def boundary_component_count(pres: ArrowPresentation) -> int:
    return surface_summary(pres).boundary


def euler_genus(pres: ArrowPresentation) -> int:
    return surface_summary(pres).euler_genus


def is_plane(pres: ArrowPresentation) -> bool:
    """Whether every component embeds in the sphere (Euler genus zero)."""
    return surface_summary(pres).euler_genus == 0
