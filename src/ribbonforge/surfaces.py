"""The arc complex of a presentation: boundary, splices and orientability.

Each arrow contributes two nodes, its tail and its head.  The *arc complex*
of some curves joins them by the *plain arc* from each arrow to the next
along its curve and by each arrow itself, from tail to head, except that an
*opened* edge replaces its two arrows α and β by its two *free sides*, which
join {head α, tail β} and {head β, tail α}.  Every node then has degree
two, and ``walk_arcs`` reads the complex off as cycles.  Two walks of it do
all the work on curves:

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
# An arc: (node, node, label or None); a label means it carries an arrow
# drawn from its first node to its second.
Arc = tuple[Node, Node, str | None]
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
    which lie on the given curves; its free sides carry the label when
    ``sides_labelled`` is set.  Arcs are numbered curve by curve, each
    position giving its plain arc and then its arrow, and then the free
    sides in label order.  Each cycle starts at the least node not yet
    walked and leaves it by its lower-numbered arc.  It is returned as the
    nodes it passes and the arrows its labelled arcs carry, each pointing
    the way the cycle runs along it.
    """
    arcs: list[Arc] = []
    for ci in curve_indices:
        curve = pres.curves[ci]
        m = len(curve)
        for pi, arrow in enumerate(curve):
            nxt = (pi + 1) % m
            # An arrow pointing along the curve is left at its head, and the
            # next one is entered at its tail if it points along too.
            arcs.append((
                (ci, pi, 1 if arrow.along else 0),
                (ci, nxt, 0 if curve[nxt].along else 1),
                None,
            ))
            if arrow.label not in opened:
                arcs.append(((ci, pi, 0), (ci, pi, 1), arrow.label))
    for label in sorted(opened):
        (c1, p1), (c2, p2) = opened[label]
        carried = label if sides_labelled else None
        arcs.append(((c1, p1, 1), (c2, p2, 0), carried))
        arcs.append(((c2, p2, 1), (c1, p1, 0), carried))

    adjacency: dict[Node, list[tuple[int, Node]]] = {}
    for aid, (x, y, _) in enumerate(arcs):
        adjacency.setdefault(x, []).append((aid, y))
        adjacency.setdefault(y, []).append((aid, x))
    for node, conns in adjacency.items():
        if len(conns) != 2:
            raise InternalInvariantViolation(
                f"arc complex node {node} has degree {len(conns)}"
            )

    cycles: list[tuple[list[Node], list[Arrow]]] = []
    seen: set[Node] = set()
    for start in sorted(adjacency):
        if start in seen:
            continue
        nodes: list[Node] = []
        arrows: list[Arrow] = []
        node, (aid, ahead) = start, adjacency[start][0]
        while True:
            seen.add(node)
            nodes.append(node)
            tail, _, label = arcs[aid]
            if label is not None:
                arrows.append(Arrow(label, node == tail))
            if ahead == start:
                break
            node = ahead
            first, second = adjacency[node]
            aid, ahead = second if first[0] == aid else first
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
