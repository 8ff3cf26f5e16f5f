"""Link diagrams, their state ribbon graphs, and representability.

A link diagram in PD (planar diagram) notation is smoothed at every
crossing; the circles of the all-A state become the vertices of a ribbon
graph and every crossing contributes one edge.  A ribbon graph arises this
way from some diagram exactly when it has no minor equivalent to the
twisted loop, the bouquet of three pairwise interlaced loops, or the
toroidal theta.  This module builds the state graph, decides
representability, and backs every verdict with either a plane partial-dual
witness or a replayable minor certificate.  The decision two-colours the
word of each component's spanning-tree partial dual on the package's
parity union-find (``oddcycles._colour_word`` over
``presentation._parity``); only a component that is not bipartite has its
interlaced pairs listed, for a chordless odd cycle
(``oddcycles._odd_cycle``).
"""

from __future__ import annotations

from collections import Counter
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
)
from .limits import PLANE_DUAL_MAX_EDGES, check_size
from .minors import (
    MinorScript,
    Step,
    _b3_theta_t,
    bbar1_script,
    trim_steps,
    verified_script,
)
from .moves import partial_dual
from .presentation import (
    Arrow,
    ArrowPresentation,
    _check_vertex,
    _curve_graph,
    _group_by_root,
    _parity,
    _slot_table,
    _trusted,
    component_count,
    curve_forest,
    restriction,
)
from .oddcycles import _colour_word, _interlaced, _odd_cycle
from .surfaces import _dual_genus, _open, _splice_words, is_orientable, surface_summary

# -- PD codes ----------------------------------------------------------------

Crossing = tuple[str, str, str, str]


@dataclass(frozen=True)
class PDCode:
    """A link diagram: 4-tuples of strand labels, one per crossing.

    Labels are listed counterclockwise around the crossing starting at the
    incoming understrand.  Construction checks that every crossing has 4
    labels (else ``ParseError``) and every label is on exactly two slots
    (else ``StrandCountError``), but not that the code is planar.
    """

    crossings: tuple[Crossing, ...]

    def __post_init__(self) -> None:
        for row in self.crossings:
            if len(row) != 4:
                raise ParseError(f"crossing needs 4 strand labels, got {row!r}")
        counts = Counter(chain.from_iterable(self.crossings))
        bad = sorted(s for s, k in counts.items() if k != 2)
        if bad:
            raise StrandCountError(
                "strand labels must appear exactly twice; violated by: "
                + ", ".join(map(str, bad))
            )

    @property
    def strand_labels(self) -> tuple[str, ...]:
        return tuple(sorted({s for cr in self.crossings for s in cr}))


def pd_code(crossings: Iterable[Iterable[str]]) -> PDCode:
    """A PDCode with every label converted to ``str``; ``PDCode`` validates."""
    return PDCode(tuple(tuple(str(s) for s in cr) for cr in crossings))


def _tokens(text: str) -> list[str]:
    """The tokens of PD text, ``#`` comments dropped."""
    lines = " ".join(line.split("#", 1)[0] for line in text.splitlines())
    return lines.replace("(", " ").replace(")", " ").replace(",", " ").split()


def parse_pd(text: str) -> PDCode:
    """Parse PD notation: ``X(a,b,c,d)`` or ``X a b c d``, ``#`` comments."""
    tokens = _tokens(text)
    for i in range(0, len(tokens), 5):
        if tokens[i] != "X":
            raise ParseError(f"expected 'X', found {tokens[i]!r}")
        if i + 4 >= len(tokens) or "X" in tokens[i + 1 : i + 5]:
            raise ParseError("crossing needs exactly 4 strand labels")
    return pd_code(tokens[i + 1 : i + 5] for i in range(0, len(tokens), 5))


def serialize_pd(code: PDCode) -> str:
    """PD text that ``parse_pd`` reads back; other labels raise ``ParseError``."""
    for label in code.strand_labels:
        if label == "X" or _tokens(label) != [label]:
            raise ParseError(f"label {label!r} not serializable")
    return " ".join("X({})".format(",".join(cr)) for cr in code.crossings)


# -- the all-A (or all-B) state ribbon graph ---------------------------------

# Smoothing arcs pair the crossing's slot positions; the first slot of each
# pair is the tail of that arc's arrow, following one counterclockwise sweep.
_SMOOTHINGS = {"A": ((0, 1), (2, 3)), "B": ((1, 2), (3, 0))}


def all_A_ribbon_graph(code: PDCode, convention: str = "A") -> ArrowPresentation:
    """The ribbon graph of the all-A (or all-B) smoothing state.

    State circles become vertices; crossing c (from 0) becomes edge
    ``str(c + 1)``, whose arrows mark where its smoothing arcs run along the
    circles.  Slot 4c + k is position k of crossing c.  Each circle is read
    from its least unseen slot, across an arc and along a strand in turn.
    The result is always orientable; a violation means the arrow-direction
    convention is broken and is raised, never papered over.
    """
    if convention not in _SMOOTHINGS:
        raise RibbonError(f"smoothing convention must be 'A' or 'B', not {convention!r}")
    # per position: the step across its smoothing arc, and whether it is the tail
    arc = [(0, False)] * 4
    for p, q in _SMOOTHINGS[convention]:
        arc[p], arc[q] = (q - p, True), (p - q, False)

    strand = [0] * (4 * len(code.crossings))
    first: dict[str, int] = {}
    for s, label in enumerate(chain.from_iterable(code.crossings)):
        t = first.setdefault(label, s)
        strand[s], strand[t] = t, s

    seen = bytearray(len(strand))
    curves: list[list[Arrow]] = []
    for start in range(len(strand)):
        cur, word = start, []
        while not seen[cur]:
            step, tail = arc[cur & 3]
            seen[cur] = seen[cur + step] = 1
            word.append(Arrow(str((cur >> 2) + 1), tail))
            cur = strand[cur + step]
        if word:
            curves.append(word)
    state = _trusted(curves)
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
    """The interlacement graph of a one-vertex ribbon graph (``_interlaced``)."""
    if len(pres.curves) != 1:
        raise NotABouquet(
            f"interlacement needs a single vertex, found {len(pres.curves)}"
        )
    pairs = _interlaced(arrow.label for arrow in pres.curves[0])
    return IntersectionGraph(pres.labels(), pairs)


# -- plane-biseparations ------------------------------------------------------


def is_separating_vertex(pres: ArrowPresentation, index: int) -> bool:
    """Whether the edges at a vertex split into two or more blocks.

    Each loop at the vertex is its own block.  Two non-loop edges at it lie
    on a common cycle, and so share a block, exactly when their far ends are
    joined in the graph less the vertex.  So the blocks at the vertex number
    its loops plus the components of that graph its non-loop edges reach,
    read from one ``_parity`` pass over the edges off the vertex: O(V + E)
    up to the union-find's log factor.  Two or more blocks means the vertex
    separates.  A label on other than two arrows, which only a bug inside
    the package can produce, raises ``InternalInvariantViolation``.
    """
    _check_vertex(pres, index)
    ends = [(a, b) for a, b, _ in _curve_graph(_slot_table(pres))]
    off = [(a, b, False) for a, b in ends if index not in (a, b)]
    root = _parity(len(pres.curves), off)[0]
    reached = {
        root[b if a == index else a] for a, b in ends if (a == index) != (b == index)
    }
    return ends.count((index, index)) + len(reached) >= 2


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
    zero even though all pieces are plane.  Unknown labels raise
    ``UnknownLabel`` from ``restriction``.
    """
    chosen = {str(l) for l in labels}
    rest = set(pres.labels()) - chosen
    pieces = 0
    for side in (chosen, rest):
        summary = surface_summary(restriction(pres, side))
        if summary.euler_genus != 0:
            return False
        # a vertex the side does not touch is a piece of its own
        pieces += summary.components + pres.vertex_count - summary.vertices
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
    equal membership, which an odd cycle always has.  Each stage takes the
    first such pair read from the cycle's first remaining loop.  Returns the
    steps and whether |S'| is even.

    The remaining cycle is a ring of links, so the whole reduction is
    O(L).  A scan for an equal pair resumes one position before the last
    pair removed: the pairs ahead of that are unchanged and were passed
    over.  It starts from the first loop again after the mixed stage, and
    after a stage that removed the first loop.
    """
    m = len(cycle)
    nxt = [(i + 1) % m for i in range(m)]
    prv = [(i - 1) % m for i in range(m)]
    inside = [label in tree for label in cycle]
    marked = sum(inside)
    head = scan = 0
    steps: list[Step] = []
    while m > 3:
        mixed = marked % 2 == 1 and marked < m
        i = scan
        while (inside[i] != inside[nxt[i]]) != mixed:
            i = nxt[i]
        j = nxt[i]
        for k in (i, j):
            if inside[k]:
                marked -= 1
                steps.append(("delete_edge", cycle[k]))
            else:
                steps.append(("contract_edge", cycle[k]))
        before, after = prv[i], nxt[j]
        nxt[before], prv[after] = after, before
        m -= 2
        restart = mixed or i == head
        if head in (i, j):
            head = after
        scan = head if restart else before
    return steps, marked % 2 == 0


def _pattern_certificate(
    pres: ArrowPresentation,
    tree: tuple[str, ...],
    cycle: tuple[str, ...],
) -> tuple[MinorScript, str]:
    """A minor script from ``pres`` to B3 or the toroidal theta.

    An explicit, polynomial script: no minor search and no size bound.
    ``cycle`` is a chordless odd interlacement cycle C, so deleting the edges
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
    b3, theta_t = _b3_theta_t()
    name, target = ("b3", b3) if even else ("theta_t", theta_t)
    return verified_script(pres, steps + reduction, target), name


def represents_link(
    pres: ArrowPresentation, *, certificates: bool = True
) -> Verdict:
    """Decide whether the ribbon graph is the all-A state of some diagram.

    The decision is polynomial: the graph must be orientable and, component
    by component, the interlacement graph of its spanning-tree partial dual
    must be bipartite.  One splice walk, the one ``partial_dual`` makes
    (``surfaces._splice_words``), opens every spanning-tree edge and writes
    each component's spanning-tree partial dual as the word of its one
    curve, which ``_colour_word`` two-colours without listing interlaced
    pairs; only a component that fails lists its pairs, for
    ``_odd_cycle``'s chordless odd cycle, in O(L + pairs) for its word of
    length L.  A positive answer carries a witness W whose partial dual is
    checked to be plane without building it: Euler's formula for G^W reads
    its vertices and faces as two cycle counts on G's own slot table
    (``surfaces._dual_genus``).  A negative
    answer carries a verified minor certificate to one of the three
    forbidden patterns (unless ``certificates`` is off, which skips the
    extraction and its replay).  Certificates are explicit scripts,
    polynomial in the size of the graph; extraction never searches and
    never meets a size bound.
    """
    if not is_orientable(pres):
        cert = bbar1_script(pres) if certificates else None
        return Verdict(
            representable=False,
            certificate=cert,
            certificate_target="bbar1" if cert else None,
        )
    # each component's breadth-first tree in the whole graph's forest is
    # its own ``spanning_tree``: the incidence is ordered by label first
    table = _slot_table(pres)
    forest = curve_forest(table)
    groups = _group_by_root(forest.root)
    # a bare curve is a component of its own, with no word
    trees = [
        tuple(sorted(forest.label[i] for i in group[1:]))
        for group in groups
        if pres.curves[group[0]]
    ]
    # the spanning-tree partial dual of every component at once: one splice
    # walk with the tree edges opened, one new curve per component in group
    # order
    opened = _open(table, chain.from_iterable(trees))
    curves = _splice_words(table, range(len(pres.curves)), opened, True)
    if len(curves) != len(trees):
        raise InternalInvariantViolation(
            "spanning-tree partial dual is not a one-vertex graph"
        )
    witness: list[str] = []
    for tree, curve in zip(trees, curves):
        word = [arrow.label for arrow in curve]
        colouring = _colour_word(word)
        if colouring is None:
            cycle = _odd_cycle(word)
            if cycle is None:
                raise InternalInvariantViolation(
                    "non-bipartite graph with no odd cycle"
                )
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
    if _dual_genus(table, _open(table, witness), len(groups)):
        raise InternalInvariantViolation("bipartite witness is not plane")
    return Verdict(representable=True, witness=tuple(sorted(witness)))
