"""Link diagrams, their state ribbon graphs, and representability.

A link diagram in PD (planar diagram) notation is smoothed at every
crossing; the circles of the all-A state become the vertices of a ribbon
graph and every crossing contributes one edge.  A ribbon graph arises this
way from some diagram exactly when it has no minor equivalent to the
twisted loop, the bouquet of three pairwise interlaced loops, or the
toroidal theta.  This module builds the state graph, decides
representability, and backs every verdict with either a plane partial-dual
witness or a replayable minor certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable

from .errors import (
    InternalInvariantViolation,
    NotABouquet,
    OrientabilityViolation,
    ParseError,
    RibbonError,
    StrandCountError,
    UnknownLabel,
    UnknownVertex,
)
from .limits import PLANE_DUAL_MAX_EDGES, check_size
from .minors import (
    MinorScript,
    Step,
    bbar1_script,
    build_B,
    build_theta_t,
    trim_steps,
    verified_script,
)
from .moves import partial_dual
from .presentation import (
    Arrow,
    ArrowPresentation,
    component_count,
    component_vertex_sets,
    components,
    delete_vertex,
    presentation,
    restriction,
    spanning_tree,
    underlying_edges,
)
from .surfaces import is_orientable, surface_summary

# -- PD codes ----------------------------------------------------------------

Crossing = tuple[str, str, str, str]


@dataclass(frozen=True)
class PDCode:
    """A link diagram: 4-tuples of strand labels, one per crossing.

    Labels are listed counterclockwise around the crossing starting at the
    incoming understrand.  Every strand label appears exactly twice across
    the whole diagram.
    """

    crossings: tuple[Crossing, ...]

    @property
    def strand_labels(self) -> tuple[str, ...]:
        return tuple(sorted({s for cr in self.crossings for s in cr}))


def pd_code(crossings: Iterable[Iterable[str]]) -> PDCode:
    """Validated PDCode constructor."""
    rows = []
    counts: dict[str, int] = {}
    for cr in crossings:
        row = tuple(str(s) for s in cr)
        if len(row) != 4:
            raise ParseError(f"crossing needs 4 strand labels, got {row!r}")
        rows.append(row)
        for s in row:
            counts[s] = counts.get(s, 0) + 1
    bad = sorted(s for s, k in counts.items() if k != 2)
    if bad:
        raise StrandCountError(
            f"strand labels must appear exactly twice; violated by: {', '.join(bad)}"
        )
    return PDCode(tuple(rows))


def parse_pd(text: str) -> PDCode:
    """Parse PD notation: ``X(a,b,c,d)`` or ``X a b c d``, ``#`` comments."""
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.replace("(", " ").replace(")", " ").replace(",", " ").split())
    crossings = []
    i = 0
    while i < len(tokens):
        if tokens[i] != "X":
            raise ParseError(f"expected 'X', found {tokens[i]!r}")
        if i + 4 >= len(tokens) or "X" in tokens[i + 1 : i + 5]:
            raise ParseError("crossing needs exactly 4 strand labels")
        crossings.append(tokens[i + 1 : i + 5])
        i += 5
    return pd_code(crossings)


def serialize_pd(code: PDCode) -> str:
    return " ".join("X({})".format(",".join(cr)) for cr in code.crossings)


# -- the all-A (or all-B) state ribbon graph ---------------------------------

# Smoothing arcs pair the crossing's slot positions; the first slot of each
# pair is the tail of that arc's arrow, following one counterclockwise sweep.
_SMOOTHINGS = {"A": ((0, 1), (2, 3)), "B": ((1, 2), (3, 0))}


def all_A_ribbon_graph(code: PDCode, convention: str = "A") -> ArrowPresentation:
    """The ribbon graph of the all-A (or all-B) smoothing state.

    State circles become vertices; every crossing becomes one edge whose
    two arrows mark where its smoothing arcs run along the circles.  The
    result is always orientable; a violation means the arrow-direction
    convention is broken and is raised, never papered over.
    """
    if convention not in _SMOOTHINGS:
        raise RibbonError(f"smoothing convention must be 'A' or 'B', not {convention!r}")
    pairs = _SMOOTHINGS[convention]

    slot_of: dict[str, list[tuple[int, int]]] = {}
    for ci, crossing in enumerate(code.crossings):
        for k, s in enumerate(crossing):
            slot_of.setdefault(s, []).append((ci, k))
    strand: dict[tuple[int, int], tuple[int, int]] = {}
    for s, slots in slot_of.items():
        if len(slots) != 2:
            raise StrandCountError(f"strand {s!r} does not appear exactly twice")
        strand[slots[0]] = slots[1]
        strand[slots[1]] = slots[0]

    partner: dict[tuple[int, int], tuple[int, int]] = {}
    tails: set[tuple[int, int]] = set()
    for ci in range(len(code.crossings)):
        for p, q in pairs:
            partner[(ci, p)] = (ci, q)
            partner[(ci, q)] = (ci, p)
            tails.add((ci, p))

    visited: set[tuple[int, int]] = set()
    curves: list[list[Arrow]] = []
    for start in sorted(partner):
        if start in visited:
            continue
        word: list[Arrow] = []
        cur = start
        while True:
            nxt = partner[cur]
            visited.add(cur)
            visited.add(nxt)
            word.append(Arrow(str(cur[0] + 1), cur in tails))
            cur = strand[nxt]
            if cur == start:
                break
        curves.append(word)
    state = presentation(curves)
    if not is_orientable(state):
        raise OrientabilityViolation(
            "state ribbon graph came out non-orientable; "
            "the smoothing arrow convention is broken"
        )
    return state


# -- interlacement -----------------------------------------------------------


@dataclass(frozen=True)
class IntersectionGraph:
    """Which loops of a bouquet interlace: e ~ f iff they read e f e f."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def adjacent(self, e: str, f: str) -> bool:
        return tuple(sorted((e, f))) in self.edges

    def neighbours(self, e: str) -> list[str]:
        out = [b if a == e else a for a, b in self.edges if e in (a, b)]
        return sorted(out)

    def as_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [list(pair) for pair in sorted(self.edges)],
        }


def intersection_graph(pres: ArrowPresentation) -> IntersectionGraph:
    """The interlacement graph of a one-vertex ribbon graph.

    One scan of the word keeps the open labels in a chain, each linked to
    the one opened just before it.  When e closes, the labels opened after
    it and still open are exactly those with one end between e's ends, so
    the walk down the chain from the last opened label to e lists e's new
    neighbours, and e is unlinked: O(L + |edges|) for a word of length L.
    """
    if len(pres.curves) != 1:
        raise NotABouquet(
            f"interlacement needs a single vertex, found {len(pres.curves)}"
        )
    below: dict[str, str | None] = {}
    top: str | None = None
    edges = set()
    for arrow in pres.curves[0]:
        e = arrow.label
        if e not in below:
            below[e], top = top, e
            continue
        above, f = None, top
        while f != e:
            edges.add((e, f) if e < f else (f, e))
            above, f = f, below[f]
        if above is None:
            top = below[e]
        else:
            below[above] = below[e]
        del below[e]
    return IntersectionGraph(pres.labels(), frozenset(edges))


def _two_colour(
    graph: IntersectionGraph,
) -> tuple[dict[str, int] | None, tuple[str, ...] | None]:
    """Bipartition or a minimal odd cycle.

    Colours each interlacement component from its smallest label (colour 0).
    On success returns (colouring, None); otherwise (None, cycle) with the
    shortest odd cycle, ties broken lexicographically.
    """
    adj: dict[str, list[str]] = {v: [] for v in graph.vertices}
    for a, b in graph.edges:
        adj[a].append(b)
        adj[b].append(a)
    for lst in adj.values():
        lst.sort()
    colour: dict[str, int] = {}
    bipartite = True
    for root in graph.vertices:
        if root in colour:
            continue
        colour[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in colour:
                        colour[w] = colour[v] ^ 1
                        nxt.append(w)
                    elif colour[w] == colour[v]:
                        bipartite = False
            frontier = nxt
    if bipartite:
        return colour, None
    return None, _shortest_odd_cycle(adj)


def _parity_distances(
    adj: dict[str, list[str]], start: str, limit: int | None
) -> dict[tuple[str, int], int]:
    """BFS on the parity double cover of the subgraph on vertices >= start.

    Maps (vertex, parity) to the length of the shortest walk from ``start``
    of that parity.  Stops once (start, 1) is reached, or before walks of
    length ``limit``; every state closer than the stopping depth is present.
    """
    dist = {(start, 0): 0}
    frontier = [(start, 0)]
    depth = 0
    while frontier and (start, 1) not in dist:
        depth += 1
        if limit is not None and depth >= limit:
            break
        nxt = []
        for v, p in frontier:
            for w in adj[v]:
                state = (w, p ^ 1)
                if w >= start and state not in dist:
                    dist[state] = depth
                    nxt.append(state)
        frontier = nxt
    return dist


def _shortest_odd_cycle(adj: dict[str, list[str]]) -> tuple[str, ...]:
    """The lexicographically least shortest odd cycle of a non-bipartite graph.

    One parity BFS per start vertex s, on the vertices >= s, finds the
    shortest odd closed walk through s (Itai & Rodeh style, O(V(V+E))); the
    least s reaching the global minimum length L starts the answer.  The
    cycle is then grown greedily from s: each step takes the smallest
    neighbour w > s from which a walk of the remaining length and parity
    returns to s.  A closed odd walk of the minimum odd length is a simple
    cycle, so the greedy walk is the least cycle in the old order: length
    first, then the label sequence read from its least vertex.
    """
    best: tuple[int, str, dict[tuple[str, int], int]] | None = None
    for start in sorted(adj):
        dist = _parity_distances(adj, start, best[0] if best else None)
        length = dist.get((start, 1))
        if length is not None and (best is None or length < best[0]):
            best = (length, start, dist)
    if best is None:
        raise InternalInvariantViolation("non-bipartite graph with no odd cycle")
    length, start, dist = best
    cycle = [start]
    for remaining in range(length - 1, 0, -1):
        cycle.append(next(
            w for w in adj[cycle[-1]]
            if w > start and dist.get((w, remaining % 2), length) <= remaining
        ))
    return tuple(cycle)


# -- plane-biseparations ------------------------------------------------------


def is_separating_vertex(pres: ArrowPresentation, index: int) -> bool:
    """Whether the edges at a vertex split into two or more blocks.

    Each loop at the vertex is its own block; non-loop edges fall in the
    same block exactly when their far endpoints are connected after the
    vertex is removed.  Two or more blocks means the vertex separates.
    """
    if not 0 <= index < len(pres.curves):
        raise UnknownVertex(f"no curve with index {index}")
    edges = underlying_edges(pres)
    loops = sum(1 for a, b in edges.values() if a == b == index)
    far = sorted(
        {a if b == index else b for a, b in edges.values() if (a == index) != (b == index)}
    )
    blocks = loops
    if far:
        remainder = component_vertex_sets(delete_vertex(pres, index))
        shifted = [w - 1 if w > index else w for w in far]
        blocks += len({next(i for i, comp in enumerate(remainder) if w in comp)
                       for w in shifted})
    return blocks >= 2


def _spanning_piece_count(pres: ArrowPresentation, side: set[str]) -> int:
    """Components of the spanning subgraph on one edge side (all vertices kept)."""
    parent = list(range(len(pres.curves)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = underlying_edges(pres)
    for label in side:
        a, b = edges[label]
        parent[find(a)] = find(b)
    return len({find(i) for i in range(len(parent))})


def defines_plane_biseparation(
    pres: ArrowPresentation, labels: Iterable[str]
) -> bool:
    """Whether an edge subset splits the graph into plane pieces glued tree-wise.

    True iff (1) every component of the subgraph on the chosen edges and of
    the subgraph on the rest is plane, and (2) the pieces — components of
    the two spanning subgraphs, one per side — meet in a tree pattern:
    counting one link per vertex between the piece of each side holding it,
    the piece structure of each component must be acyclic, which happens
    exactly when the two piece counts sum to vertices + components.  The
    tree pattern forces every vertex shared by the two sides to be a
    separating vertex, and moreover rules out closed chains of pieces,
    whose extra homology would push the genus of the partial dual above
    zero even though all pieces are plane.
    """
    chosen = {str(l) for l in labels}
    unknown = chosen - set(pres.labels())
    if unknown:
        raise UnknownLabel(f"labels not present: {', '.join(sorted(unknown))}")
    rest = set(pres.labels()) - chosen
    for side in (chosen, rest):
        if surface_summary(restriction(pres, side)).euler_genus != 0:
            return False
    pieces = _spanning_piece_count(pres, chosen) + _spanning_piece_count(pres, rest)
    return pieces == pres.vertex_count + component_count(pres)


def brute_force_plane_dual(
    pres: ArrowPresentation, max_edges: int | None = None
) -> tuple[str, ...] | None:
    """The lexicographically least edge subset whose partial dual is plane.

    Exhaustive over all subsets; the authoritative but exponential oracle
    that the decision procedure is tested against.
    """
    check_size(pres.edge_count, PLANE_DUAL_MAX_EDGES, max_edges, "plane-dual search")
    labels = pres.labels()
    subsets = chain.from_iterable(
        combinations(labels, r) for r in range(len(labels) + 1)
    )
    for sub in sorted(subsets):
        if surface_summary(partial_dual(pres, set(sub))).euler_genus == 0:
            return sub
    return None


# -- the decision procedure ---------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of the representability decision, with supporting evidence.

    Exactly one of witness (an edge subset whose partial dual is plane) or
    certificate (a replayed minor script to a forbidden pattern, named in
    certificate_target) is present — unless certificate extraction was
    explicitly declined.  odd_cycle reports the interlacement obstruction
    when one exists.
    """

    representable: bool
    witness: tuple[str, ...] | None = None
    certificate: MinorScript | None = None
    certificate_target: str | None = None
    odd_cycle: tuple[str, ...] | None = None

    def as_dict(self) -> dict:
        return {
            "representable": self.representable,
            "witness": list(self.witness) if self.witness is not None else None,
            "certificate": (
                {"target": self.certificate_target, "steps": self.certificate.as_json()}
                if self.certificate is not None
                else None
            ),
            "odd_cycle": list(self.odd_cycle) if self.odd_cycle is not None else None,
        }


def _bouquet_reduction(
    cycle: tuple[str, ...], tree: set[str]
) -> tuple[list[Step], bool]:
    """Steps taking H down to B3 or the toroidal theta, where H^S = B_L.

    ``cycle`` is B_L's interlacement cycle and S = ``tree`` & cycle.  Each
    stage removes two loops consecutive in the cycle left so far, which
    turns B_m into B_{m-2} on the remaining cycle.  Removing loop f of the
    bouquet is a contraction; by G/e = G^e - e and (G - e)^A = G^A - e, on
    H's side that is contracting f if f is outside S and deleting it if f
    is in S.  The end point B3^S' is B3 when |S'| is even and the toroidal
    theta when it is odd.  Unless S is the whole cycle (or L = 3) the stages
    leave |S'| even: one mixed pair first if |S| is odd, then pairs with
    equal membership, which an odd cycle always has.  Returns the steps and
    whether |S'| is even.
    """
    rest = list(cycle)
    marked = sum(1 for label in rest if label in tree)
    steps: list[Step] = []
    while len(rest) > 3:
        m = len(rest)
        mixed = marked % 2 == 1 and marked < m
        i = next(
            i for i in range(m)
            if ((rest[i] in tree) != (rest[(i + 1) % m] in tree)) == mixed
        )
        pair = (rest[i], rest[(i + 1) % m])
        for label in pair:
            if label in tree:
                marked -= 1
                steps.append(("delete_edge", label))
            else:
                steps.append(("contract_edge", label))
        rest = [label for label in rest if label not in pair]
    return steps, marked % 2 == 0


def _pattern_certificate(
    pres: ArrowPresentation,
    tree: tuple[str, ...],
    cycle: tuple[str, ...],
) -> tuple[MinorScript, str]:
    """A minor script from ``pres`` to B3 or the toroidal theta.

    An explicit, polynomial script: no minor search and no size bound.  The
    shortest odd interlacement cycle C has no chords, so deleting the edges
    outside C and the spanning tree T (and the vertices left bare) and
    contracting T - C leaves a graph H with H^S = B_L, S = T & C, L = |C|;
    ``_bouquet_reduction`` takes H the rest of the way.  The target is B3
    unless C lies inside T, or L = 3 and |S| is odd (H is then the toroidal
    theta itself).  The final replay is the only check.
    """
    in_tree = set(tree)
    steps = trim_steps(pres, set(cycle) | in_tree)
    steps += [("contract_edge", label) for label in sorted(in_tree - set(cycle))]
    reduction, even = _bouquet_reduction(cycle, in_tree)
    name, target = ("b3", build_B(3)) if even else ("theta_t", build_theta_t())
    return verified_script(pres, steps + reduction, target), name


def represents_link(
    pres: ArrowPresentation, *, certificates: bool = True
) -> Verdict:
    """Decide whether the ribbon graph is the all-A state of some diagram.

    The decision is polynomial: the graph must be orientable and, component
    by component, the interlacement graph of its spanning-tree partial dual
    must be bipartite.  A positive answer carries a verified plane-dual
    witness; a negative one carries a verified minor certificate to one of
    the three forbidden patterns (unless ``certificates`` is off, which
    skips the extraction and its replay).  Certificates are explicit
    scripts, polynomial in the size of the graph; extraction never searches
    and never meets a size bound.
    """
    if not is_orientable(pres):
        cert = bbar1_script(pres) if certificates else None
        return Verdict(
            representable=False,
            certificate=cert,
            certificate_target="bbar1" if cert else None,
        )
    witness: list[str] = []
    for comp in components(pres):
        tree = spanning_tree(comp)
        bouquet = partial_dual(comp, set(tree))
        if len(bouquet.curves) != 1:
            raise InternalInvariantViolation(
                "spanning-tree partial dual is not a one-vertex graph"
            )
        graph = intersection_graph(bouquet)
        colouring, cycle = _two_colour(graph)
        if colouring is None:
            cert, name = (None, None)
            if certificates:
                cert, name = _pattern_certificate(pres, tree, cycle)
            return Verdict(
                representable=False,
                certificate=cert,
                certificate_target=name,
                odd_cycle=cycle,
            )
        marked = {label for label, c in colouring.items() if c == 0}
        witness.extend(sorted(set(tree) ^ marked))
    if surface_summary(partial_dual(pres, set(witness))).euler_genus != 0:
        raise InternalInvariantViolation("bipartite witness is not plane")
    return Verdict(representable=True, witness=tuple(sorted(witness)))
