"""Boundary components, orientability and genus of a ribbon graph.

The boundary of the surface is traced combinatorially.  Each arrow contributes
two endpoint nodes (tail and head).  Walking a curve in its written order, the
stretches between consecutive arrows are *plain arcs* of boundary; each edge
additionally contributes its two *free sides* — for e-labelled arrows α and β
these connect {head(α), tail(β)} and {head(β), tail(α)}.  Every node then has
degree exactly two, and the boundary components of the surface are the cycles
of this graph, plus one full circle for every curve with no arrows.

Euler's formula for a ribbon graph with v vertices, e edges, f boundary
components and k connected components reads  v − e + f = 2k − γ  where γ is
the Euler genus (2·genus when orientable, the cross-cap count otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InternalInvariantViolation
from .presentation import ArrowPresentation, component_vertex_sets

# A boundary node: (curve index, arrow position, end) with end 0=tail, 1=head.
Node = tuple[int, int, int]
# A boundary walk: either a cycle of nodes, or ("vertex", i) for a bare curve.
Walk = tuple


def _arrow_ends(pres: ArrowPresentation):
    """Per-arrow IN/OUT nodes in walking order, plus tail/head nodes."""
    ins: dict[tuple[int, int], Node] = {}
    outs: dict[tuple[int, int], Node] = {}
    tails: dict[tuple[int, int], Node] = {}
    heads: dict[tuple[int, int], Node] = {}
    for ci, curve in enumerate(pres.curves):
        for pi, arrow in enumerate(curve):
            tail: Node = (ci, pi, 0)
            head: Node = (ci, pi, 1)
            tails[ci, pi] = tail
            heads[ci, pi] = head
            # An arrow pointing along the curve is entered at its tail;
            # one pointing against it is met head first.
            ins[ci, pi] = tail if arrow.along else head
            outs[ci, pi] = head if arrow.along else tail
    return ins, outs, tails, heads


def trace_boundary(pres: ArrowPresentation):
    """All boundary walks, and the walk pair met by each edge's free sides.

    Returns ``(walks, edge_walks)`` where ``walks`` is a list of boundary
    components (cycles of nodes, or ``("vertex", i)`` markers for isolated
    vertices) and ``edge_walks`` maps each label to the sorted pair of walk
    indices containing its two free sides.
    """
    ins, outs, tails, heads = _arrow_ends(pres)

    adjacency: dict[Node, list[tuple[int, Node]]] = {}
    conn_count = 0

    def connect(a: Node, b: Node) -> None:
        nonlocal conn_count
        cid = conn_count
        conn_count += 1
        adjacency.setdefault(a, []).append((cid, b))
        adjacency.setdefault(b, []).append((cid, a))

    for ci, curve in enumerate(pres.curves):
        m = len(curve)
        for pi in range(m):
            connect(outs[ci, pi], ins[ci, (pi + 1) % m])

    free_sides: dict[str, list[tuple[Node, Node]]] = {}
    for label in pres.labels():
        (c1, p1), (c2, p2) = pres.arrow_positions(label)
        s1 = (heads[c1, p1], tails[c2, p2])
        s2 = (heads[c2, p2], tails[c1, p1])
        connect(*s1)
        connect(*s2)
        free_sides[label] = [s1, s2]

    for node, conns in adjacency.items():
        if len(conns) != 2:
            raise InternalInvariantViolation(
                f"boundary node {node} has degree {len(conns)}"
            )

    walks: list[Walk] = []
    node_walk: dict[Node, int] = {}
    for start in sorted(adjacency):
        if start in node_walk:
            continue
        index = len(walks)
        walk = [start]
        node_walk[start] = index
        cid, cur = adjacency[start][0]
        while cur != start:
            walk.append(cur)
            node_walk[cur] = index
            first, second = adjacency[cur]
            cid, cur = second if first[0] == cid else first
        walks.append(tuple(walk))

    for i, curve in enumerate(pres.curves):
        if not curve:
            walks.append(("vertex", i))

    edge_walks = {
        label: tuple(sorted(node_walk[s[0]] for s in sides))
        for label, sides in free_sides.items()
    }
    return walks, edge_walks


def boundary_component_count(pres: ArrowPresentation) -> int:
    walks, _ = trace_boundary(pres)
    return len(walks)


def twists(pres: ArrowPresentation) -> dict[str, int]:
    """Edge twist signs: +1 if the two arrows agree in direction, else -1.

    Signs are relative to the written traversal of each curve; re-encoding a
    curve backwards toggles the sign of every non-loop edge at it, which is
    exactly the gauge freedom the orientability test quotients out.
    """
    out = {}
    for label in pres.labels():
        (c1, p1), (c2, p2) = pres.arrow_positions(label)
        a = pres.curves[c1][p1]
        b = pres.curves[c2][p2]
        out[label] = 1 if a.along == b.along else -1
    return out


def is_orientable(pres: ArrowPresentation) -> bool:
    """True unless some cycle has an odd number of twisted edges.

    A twisted loop is immediately non-orientable; otherwise a parity
    union-find over the curves detects any odd-twist cycle.
    """
    parent: dict[int, int] = {i: i for i in range(len(pres.curves))}
    parity: dict[int, int] = {i: 0 for i in parent}

    def find(x: int) -> tuple[int, int]:
        p = 0
        while parent[x] != x:
            p ^= parity[x]
            x = parent[x]
        return x, p

    for label, twist in twists(pres).items():
        (c1, _), (c2, _) = pres.arrow_positions(label)
        flip = 1 if twist == -1 else 0
        if c1 == c2:
            if flip:
                return False
            continue
        r1, p1 = find(c1)
        r2, p2 = find(c2)
        if r1 == r2:
            if p1 ^ p2 != flip:
                return False
        else:
            parent[r1] = r2
            parity[r1] = p1 ^ p2 ^ flip
    return True


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
        return {
            "vertices": self.vertices,
            "edges": self.edges,
            "boundary": self.boundary,
            "components": self.components,
            "euler_genus": self.euler_genus,
            "genus": self.genus,
            "orientable": self.orientable,
        }


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
