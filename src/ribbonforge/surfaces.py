"""The arc complex of a presentation: boundary, splices and orientability.

Each arrow contributes two nodes, its tail and its head.  The *arc complex*
of some curves joins them by the *plain arc* from each arrow to the next
along its curve and by each arrow itself, from tail to head, except that an
*opened* edge replaces its two arrows α and β by its two *free sides*, which
join {head α, tail β} and {head β, tail α}.  Each node then lies on one plain
arc and one *cross* arc, and ``walk_arcs`` walks the cycles in place.  Two
walks of it do all the work on curves:

- opening every edge of every curve gives the boundary of the surface: its
  cycles, plus one full circle for every curve with no arrows, are the
  boundary components (``trace_boundary``);
- opening a set of edges on the curves carrying them splices the set: the
  arrows met along each cycle form one new curve.  With bare free sides
  this contracts a single edge; when each free side carries a fresh arrow
  of its edge it is the partial dual at the whole set (see ``moves``).

An edge is twisted when its two arrows point opposite ways.  The graph is
orientable unless some cycle has an odd number of twisted edges, which
``odd_twist_cycle`` finds on the breadth-first curve forest.

Euler's formula for a ribbon graph with v vertices, e edges, f boundary
components and k connected components reads  v − e + f = 2k − γ  where γ is
the Euler genus (2·genus when orientable, the cross-cap count otherwise).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InternalInvariantViolation
from .presentation import (
    Arrow,
    ArrowPresentation,
    arrow_slots,
    component_vertex_sets,
    curve_forest,
)

# A node of the arc complex: (curve index, arrow position, end), 0=tail, 1=head.
Node = tuple[int, int, int]
# A boundary walk: either a cycle of nodes, or ("vertex", i) for a bare curve.
Walk = tuple


def walk_arcs(
    pres: ArrowPresentation,
    curve_indices: Iterable[int],
    opened: dict[str, Sequence[tuple[int, int]]],
    sides_labelled: bool,
) -> list[tuple[list[Node], list[Arrow]]]:
    """The cycles of the arc complex of some curves with some edges opened.

    ``opened`` maps each opened label to its two (curve, position) slots,
    which must lie on the given curves and carry that label; its free sides
    carry the label when ``sides_labelled`` is set.  A node's plain arc goes
    to the previous or next arrow on its curve, and its cross arc to the
    other end of its own arrow or, for an opened edge, along the free side
    to the other slot; each cycle alternates the two.  Cycles start at the
    least node not yet walked and leave it by the plain arc, except at the
    entry node of a curve's first arrow when the curve has more than one
    arrow and that edge is not opened: there it crosses first.  Each cycle
    is returned as the nodes it passes and the arrows its labelled arcs
    carry, each pointing the way the cycle runs along it.
    """
    curves = pres.curves
    given = set(curve_indices)
    partner: dict[tuple[int, int], tuple[int, int]] = {}
    for label, (a, b) in opened.items():
        if a == b or not all(
            c in given and 0 <= p < len(curves[c]) and curves[c][p].label == label
            for c, p in (a, b)
        ):
            raise InternalInvariantViolation(f"bad slots {a}, {b} for opened {label!r}")
        partner[a], partner[b] = b, a

    cycles: list[tuple[list[Node], list[Arrow]]] = []
    seen: set[Node] = set()
    for ci in sorted(given):
        curve = curves[ci]
        crosses_first = len(curve) > 1 and (ci, 0) not in partner
        for start in ((ci, pi, end) for pi in range(len(curve)) for end in (0, 1)):
            if start in seen:
                continue
            nodes, arrows, node = [], [], start
            cross = crosses_first and start[1:] == (0, 1 - curve[0].along)
            while True:
                seen.add(node)
                nodes.append(node)
                c, p, end = node
                on = curves[c]
                if cross and (c, p) in partner:
                    if sides_labelled:
                        arrows.append(Arrow(on[p].label, end == 1))
                    node = (*partner[c, p], 1 - end)
                elif cross:
                    arrows.append(Arrow(on[p].label, end == 0))
                    node = (c, p, 1 - end)
                elif end == on[p].along:
                    # an arrow along its curve is left at its head
                    p = (p + 1) % len(on)
                    node = (c, p, 0 if on[p].along else 1)
                else:
                    p = (p - 1) % len(on)
                    node = (c, p, 1 if on[p].along else 0)
                cross = not cross
                if node == start:
                    break
            cycles.append((nodes, arrows))
    return cycles


def trace_boundary(pres: ArrowPresentation):
    """All boundary walks, and the walk pair met by each edge's free sides.

    Returns ``(walks, edge_walks)`` where ``walks`` is a list of boundary
    components (cycles of nodes, or ``("vertex", i)`` markers for isolated
    vertices) and ``edge_walks`` maps each label to the sorted pair of walk
    indices containing its two free sides.
    """
    slots = arrow_slots(pres)
    walks: list[Walk] = []
    node_walk: dict[Node, int] = {}
    for nodes, _ in walk_arcs(pres, range(len(pres.curves)), slots, False):
        for node in nodes:
            node_walk[node] = len(walks)
        walks.append(tuple(nodes))
    walks.extend(("vertex", i) for i, curve in enumerate(pres.curves) if not curve)
    edge_walks = {
        label: tuple(sorted(node_walk[ci, pi, 1] for ci, pi in slots[label]))
        for label in sorted(slots)
    }
    return walks, edge_walks


def boundary_component_count(pres: ArrowPresentation) -> int:
    walks, _ = trace_boundary(pres)
    return len(walks)


def _flips(
    pres: ArrowPresentation, slots: dict[str, list[tuple[int, int]]]
) -> dict[str, bool]:
    """label -> whether the edge's two arrows point opposite ways."""
    curves = pres.curves
    return {
        label: curves[c1][p1].along != curves[c2][p2].along
        for label, ((c1, p1), (c2, p2)) in slots.items()
    }


def twists(pres: ArrowPresentation) -> dict[str, int]:
    """Edge twist signs: +1 if the two arrows agree in direction, else -1.

    Signs are relative to the written traversal of each curve; re-encoding a
    curve backwards toggles the sign of every non-loop edge at it, which is
    exactly the gauge freedom the orientability test quotients out.
    """
    flips = _flips(pres, arrow_slots(pres))
    return {label: -1 if flips[label] else 1 for label in sorted(flips)}


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
    slots = arrow_slots(pres)
    flips = _flips(pres, slots)
    loops = sorted(
        label for label, ((c1, _), (c2, _)) in slots.items()
        if c1 == c2 and flips[label]
    )
    if loops:
        return [], loops[0]
    forest = curve_forest(pres, slots)
    parity = [False] * len(pres.curves)
    for v in forest.order:
        if forest.label[v] is not None:
            parity[v] = parity[forest.parent[v]] ^ flips[forest.label[v]]
    for comp in forest.components():
        for v in comp:
            for label, w in forest.incident[v]:
                if w > v and parity[v] ^ parity[w] ^ flips[label]:
                    up, down = [v], [w]
                    for path in (up, down):
                        while forest.parent[path[-1]] != path[-1]:
                            path.append(forest.parent[path[-1]])
                    while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
                        up.pop()
                        down.pop()
                    chain = [forest.label[x] for x in up[:-1]]
                    chain += [forest.label[x] for x in reversed(down[:-1])]
                    return chain, label
    return None


def is_orientable(pres: ArrowPresentation) -> bool:
    """True unless some cycle, a twisted loop included, has odd twist."""
    return odd_twist_cycle(pres) is None


@dataclass(frozen=True)
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


@lru_cache(maxsize=1 << 18)
def surface_summary(pres: ArrowPresentation) -> SurfaceSummary:
    """Vertex/edge/boundary counts and genus, with Euler-formula sanity checks."""
    v = pres.vertex_count
    e = pres.edge_count
    f = boundary_component_count(pres)
    k = len(component_vertex_sets(pres))
    orientable = is_orientable(pres)
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
    return SurfaceSummary(v, e, f, k, euler_genus, genus, orientable)


def euler_genus(pres: ArrowPresentation) -> int:
    return surface_summary(pres).euler_genus


def is_plane(pres: ArrowPresentation) -> bool:
    """Whether every component embeds in the sphere (Euler genus zero)."""
    return surface_summary(pres).euler_genus == 0
