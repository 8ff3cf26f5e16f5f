"""Ribbon-graph minors: scripts, search, and the genus obstruction families.

A minor is reached by deleting edges, contracting edges, and deleting isolated
vertices.  Minor operations never raise the Euler genus and never make an
orientable graph non-orientable, a step that makes a graph orientable lowers
its Euler genus, and only vertex deletions keep the edge count; the search
prunes by all of these, looking for several targets at once.  Each child's
Euler genus, and where it matters whether it is orientable, is read off its
parent before the child is built, so a child below every target's genus,
or a non-orientable child below the floor of non-orientable states, is
never built at all.

The same holds for the least Euler genus of a partial dual, pd: 0 exactly
on the graphs that represent links, and 2 on B3 and theta_t.  One table of
the start's spanning boundaries f(V, A), for every edge set A
(``surfaces._spanning_boundaries``), gives the pd of every state and child
by one bitmask loop, so the search neither expands nor builds a minor whose
pd lies below every target's; a search from a representable graph for B3
or theta_t stops at its start.

The three patterns whose absence characterizes link-diagram representability
are built here: ``BBAR1`` (the twisted loop), ``B3`` (the bouquet of three
pairwise interlaced loops) and ``THETA_T`` (the toroidal theta: two vertices
joined by three parallel edges with one boundary component).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from math import inf
from typing import Iterable

from .canonical import _key, canonical_key, equivalent
from .enumeration import enumerate_presentations
from .errors import (
    InternalInvariantViolation,
    RibbonError,
    SizeBoundExceeded,
    UnknownVertex,
)
from .limits import (
    CANONICAL_MAX_EDGES,
    MINOR_SEARCH_MAX_EDGES,
    MINOR_SEARCH_MEMO_LIMIT,
    check_count,
    check_size,
)
from .moves import _contract_edges, _delete_edges, partial_dual
from .presentation import ArrowPresentation, from_words
from .surfaces import (
    _spanning_boundaries,
    _steps,
    _surface_walk,
    is_orientable,
    odd_twist_cycle,
    surface_summary,
)

Step = tuple  # ("delete_edge", label) | ("contract_edge", label) | ("delete_vertex", i)


@dataclass(frozen=True)
class MinorScript:
    """A replayable witness that some graph is a minor of another."""

    steps: tuple[Step, ...]

    def as_json(self) -> list[list]:
        return [list(step) for step in self.steps]


def apply_step(pres: ArrowPresentation, step: Step) -> ArrowPresentation:
    op = _run_kind(step)
    if op is None:
        raise RibbonError(f"unknown script step {step!r}")
    return _RUNS[op](pres, [step[1]])


def _run_kind(step) -> str | None:
    """The kind of run a step joins in ``replay``; None for a malformed step
    or an unknown op, which ``apply_step`` refuses."""
    try:
        op, arg = step
    except (TypeError, ValueError):
        return None
    if op in ("delete_edge", "contract_edge") and isinstance(arg, str):
        return op
    if op == "delete_vertex" and isinstance(arg, int) and not isinstance(arg, bool):
        return op
    return None


def _delete_vertices(pres: ArrowPresentation, indices: list[int]) -> ArrowPresentation:
    alive = list(range(len(pres.curves)))
    for index in indices:
        if not 0 <= index < len(alive):
            raise UnknownVertex(f"no curve with index {index!r}")
        if pres.curves[alive[index]]:
            raise UnknownVertex(f"script deletes non-isolated vertex {index}")
        del alive[index]
    # dropping bare curves leaves every other curve as it was
    return ArrowPresentation(tuple(pres.curves[i] for i in alive))


_RUNS = {
    "delete_edge": _delete_edges,
    "contract_edge": _contract_edges,
    "delete_vertex": _delete_vertices,
}


def replay(pres: ArrowPresentation, script: MinorScript) -> ArrowPresentation:
    """Apply a script and return the resulting minor.

    Each maximal run of steps of one kind is applied in one pass: edge
    deletions as one filter and contractions as one splice of the whole
    run (``moves``), and vertex deletions as one pass over the curves.
    The spliced result can be presented differently from contracting edge
    by edge, though it is always ``equivalent``; vertex deletions name
    curves by their index in the edge-by-edge result, so a contraction run
    followed anywhere later by a vertex deletion is applied edge by edge.
    Deletion runs give exactly the step-by-step presentation.  A bad
    script raises what step-by-step replay raises at its first bad step.
    """
    steps = script.steps
    kinds = [_run_kind(step) for step in steps]
    last_vertex = max(
        (i for i, kind in enumerate(kinds) if kind == "delete_vertex"), default=-1
    )
    start = 0
    for kind, group in groupby(kinds):
        end = start + sum(1 for _ in group)
        run = steps[start:end]
        if kind is None or (kind == "contract_edge" and last_vertex > start):
            for step in run:
                pres = apply_step(pres, step)
        else:
            pres = _RUNS[kind](pres, [arg for _, arg in run])
        start = end
    return pres


def verified_script(
    source: ArrowPresentation,
    steps: Iterable[Step],
    target: ArrowPresentation,
) -> MinorScript:
    """Build a script and check by replay that it lands on ``target``.

    ``replay`` takes each run of same-kind steps in one pass, so the check
    costs one pass over the graph per run, not per step.  It is bounded by
    the target's own size, which never refuses it: ``equivalent`` compares
    edge counts before computing any key.
    """
    script = MinorScript(tuple(steps))
    result = replay(source, script)
    if not equivalent(result, target, target.edge_count):
        raise InternalInvariantViolation("minor script does not reach its target")
    return script


# -- the standard patterns --------------------------------------------------


def build_B(n: int) -> ArrowPresentation:
    """The bouquet whose loops interlace in an n-cycle pattern.

    One curve with word  e2 e1 e3 e2 e4 e3 ... en e(n-1) e1 en;  for n = 1
    this degenerates to ``e1 e1``.  Every arrow points along the curve, so
    the result is orientable.  For odd n it has two boundary components and
    Euler genus n - 1; for even n, three boundary components and Euler genus
    n - 2.
    """
    check_count(n, "n", 1)
    word = []
    for i in range(2, n + 1):
        word += [f"e{i}", f"e{i - 1}"]
    word += ["e1", f"e{n}"]
    return from_words([word])


def build_Bbar1() -> ArrowPresentation:
    """The one-edge bouquet with a twisted loop (projective plane)."""
    return from_words([["a", "a'"]])


def build_theta_t() -> ArrowPresentation:
    """The toroidal theta graph: the partial dual of B3 at one edge."""
    return partial_dual(build_B(3), {"e1"})


@lru_cache(maxsize=None)
def _b3_theta_t() -> tuple[ArrowPresentation, ArrowPresentation]:
    """B3 and theta_t, built once per process for the searches that target them."""
    return build_B(3), build_theta_t()


# -- one-step minors and search ---------------------------------------------


def one_step_minors(
    pres: ArrowPresentation, max_edges: int | None = None
) -> dict[bytes, tuple[Step, ArrowPresentation]]:
    """All single-operation minors, one per equivalence class, by canonical key.

    Operations are tried in a fixed order (edge deletions and contractions,
    each sorted, then deleting the first isolated vertex: any other isolated
    vertex gives the same class); the first step reaching each class is
    kept, and the classes are listed in the order reached.  The canonical
    form's size bound is checked once, before any child is built, against
    the largest child: E edges if the graph has an isolated vertex, else
    E - 1.  So a bad bound raises even for a graph with no child.
    """
    edges = pres.edge_count
    largest = edges if pres.isolated_vertices() else max(edges - 1, 0)
    check_size(largest, CANONICAL_MAX_EDGES, max_edges, "canonical-form")
    out: dict[bytes, tuple[Step, ArrowPresentation]] = {}
    for step in _one_step_order(pres):
        child = apply_step(pres, step)
        out.setdefault(_key(child), (step, child))
    return out


def _one_step_order(pres: ArrowPresentation, edges: bool = True) -> list[Step]:
    """The steps of ``one_step_minors`` in its order, or without ``edges``
    the vertex deletion alone."""
    labels = pres.labels() if edges else []
    steps: list[Step] = [("delete_edge", label) for label in labels]
    steps += [("contract_edge", label) for label in labels]
    steps += [("delete_vertex", idx) for idx in pres.isolated_vertices()[:1]]
    return steps


def _floors(invariants: list[tuple[int, bool]]) -> tuple[float, float]:
    """From each target's (invariant, orientable), the least invariant of a
    non-orientable state and of an orientable one that some target can lie
    below, when a minor step never raises the invariant and lowers it by
    at least 1 when it makes a non-orientable graph orientable: the least
    x(t) + [t orientable] over all targets t, and the least x(t) over the
    orientable ones (infinite if there are none)."""
    orientable = min((x for x, o in invariants if o), default=inf)
    return min(x + o for x, o in invariants), orientable


def _genus_floors(targets: list[ArrowPresentation]) -> tuple[float, float]:
    """The least Euler genus of a state that some target can lie below, for
    a non-orientable state and for an orientable one, in that order.

    Minor steps never raise the Euler genus ε and never make an orientable
    graph non-orientable, so an orientable state needs an orientable target
    of at most its genus.  A step from a non-orientable graph G to an
    orientable one lowers ε by at least 1.  For a deletion: ε(G − e) = ε(G)
    only when e joins G − e within one of its faces, which keeps the
    surface and so its non-orientability.  For a contraction, by duality:
    (G/e)* = G* − e (Ellis-Monaghan and Moffatt, *Graphs on Surfaces*,
    2013), and duality keeps ε and orientability.  Vertex deletions keep
    both.  So a non-orientable state needs ε(t) + 1 for an orientable target
    t and ε(t) for a non-orientable one.
    """
    summaries = [surface_summary(t) for t in targets]
    return _floors([(s.euler_genus, s.orientable) for s in summaries])


def _dual_genus_drop(boundaries: list[int], live: int, contracted: int) -> int:
    """ε(S) − pd(S) for the minor S of a graph G that keeps the edges of
    bitmask ``live``, contracts those of ``contracted`` and deletes the
    rest, and any bare vertices, given G's ``_spanning_boundaries``.

    pd(S), the least Euler genus of a partial dual S^B, is reached at some
    B ⊆ E(S), and ε(S^B) = 2k + |E| − f_S(B) − f_S(E ∖ B) (Chmutov,
    *Generalized duality for graphs on surfaces*, JCTB 2009), where f_S(X)
    counts the boundary components of the spanning subgraph (V, X) of S.
    Contraction keeps the boundary components, and a bare vertex is one of
    its own, so f_S(X) = f_G(X ∪ C) − b for C the contracted edges and b
    the bare vertices deleted.  At B = ∅ the formula is Euler's for S, so
    ε(S) − pd(S) is the most that f_S(B) + f_S(E ∖ B) exceeds
    f_S(∅) + f_S(E), where b cancels.  B and E ∖ B score alike, so each
    pair is scored once, from the B without the least live edge.
    """
    low = live & -live
    rest = live ^ low
    best, b = 0, rest
    while True:
        score = boundaries[b | contracted] + boundaries[(live ^ b) | contracted]
        if score > best:
            best = score
        if not b:
            return best - boundaries[contracted] - boundaries[live | contracted]
        b = (b - 1) & rest


@lru_cache(maxsize=64)
def _least_dual_genus(pres: ArrowPresentation) -> int:
    """pd(G), the least Euler genus of a partial dual of G: 0 exactly when G
    represents a link, and 2 on B3 and theta_t; cached per target."""
    summary, table, _ = _surface_walk(pres)
    boundaries = _spanning_boundaries(table)
    return summary.euler_genus - _dual_genus_drop(boundaries, len(boundaries) - 1, 0)


def _dual_genus_floors(targets: list[ArrowPresentation]) -> tuple[float, float]:
    """The least pd of a state that some target can lie below, for a
    non-orientable state and for an orientable one, in that order.

    No minor step raises pd: (S − e)^(A ∖ e) and (S / e)^(A ∖ e) are each
    S^A − e or S^A / e, neither of which raises ε.  Every partial dual of S
    is orientable exactly when S is, so a step from a non-orientable S to
    an orientable child takes each S^A to an orientable graph, which lowers
    ε(S^A) by at least 1 (``_genus_floors``), and so lowers pd by at least 1.
    """
    orientable = [surface_summary(t).orientable for t in targets]
    return _floors([(_least_dual_genus(t), o) for t, o in zip(targets, orientable)])


def _minor_search(
    pres: ArrowPresentation,
    targets: list[ArrowPresentation],
    max_edges: int | None,
) -> list[MinorScript | None]:
    """The search of ``has_minor`` for several targets at once; a script or None each.

    A state is pruned only when no target can lie below it.  Each script is
    the first path to its target's class, and a found target stays in the
    search like any other class, so it is the script a search for that
    target alone finds.  ``MINOR_SEARCH_MEMO_LIMIT`` caps remembered classes;
    a child skipped unbuilt, as below, is neither counted against it nor
    remembered by its operation set.

    Deletions and contractions of distinct edges commute and isolated
    vertices are interchangeable, so the class of a minor is fixed by its
    operation set: the bitmasks, over the start's sorted labels, of the
    edges kept and of those contracted, and how many vertices were deleted.
    Each state carries its set on the frontier.  A child whose operation
    set this search already built is skipped, as its class was streamed,
    and so visited, when that set was first built.

    Every child's Euler genus is read off its parent (``_steps``), and
    a child below every target's genus is never built: no target lies below
    it, and every class on the first path to a target has that target below
    it, so no script changes.  By the same argument a state below its genus
    floor is not expanded: an orientable state needs the least genus of the
    orientable targets, and a non-orientable one the least ε(t) + 1 over
    orientable targets t and ε(t) over the others, since a step that makes
    a graph orientable lowers its genus (``_genus_floors``).  So with B3 and
    theta_t the targets, no non-orientable state of Euler genus 2 or less
    is expanded.  Nor is such a child built: a child of a non-orientable
    state whose genus lies below that floor is first tested for
    orientability off its parent, by the same ``_steps``, and skipped if it
    is not orientable.  Its class would have been visited and never
    expanded; orientability and genus are class invariants, so every other
    path to that class skips it too, and no target is non-orientable below
    the floor, so again no script changes.

    The least partial-dual genus pd prunes alike, right after the Euler
    genus: it never rises along a minor step, and falls by at least 1 on a
    step that makes a graph orientable (``_dual_genus_floors``), so a state
    needs the pd floor of its orientability, 2 for an orientable state and
    3 for another with B3 and theta_t the targets.  The state's pd, and
    before it is built each child's, comes from one table of the start's
    spanning boundaries (``_spanning_boundaries``), made when the start is
    expanded, and the operation set (``_dual_genus_drop``); a child's
    Euler genus is the one predicted, and where its orientability is not
    known, the lower of the two floors holds.  A class below its pd floor
    has no target below it, and no target is below its own floor, so again
    no script changes.  The table is not made where the floors cannot
    prune: for B̄1 alone no orientable state is expanded anyway, and every
    non-orientable graph has pd at least 1.

    The level loop prunes by edge count alone.  A state is expanded by one
    loop over its steps in ``one_step_minors``' order, after one slot table
    and one boundary walk (``_surface_walk``): the walk's summary must
    carry the genus the state's parent predicted, and reach the state's
    floors, and the same walk gives the state's one step oracle
    (``_steps``), which answers every child's genus and, for the few
    children that need it, their orientability.  The loop skips a step as
    above, and otherwise builds the child, keys it and streams it to the
    level loop, which drops a class already visited.  So once the last
    target is found, no further child is built.

    The start and the targets are keyed under the bound; a child never has
    more edges than the start, so children are keyed without a check.
    """
    index = {canonical_key(t, max_edges): i for i, t in enumerate(targets)}
    min_edges = min(t.edge_count for t in targets)
    floors = _genus_floors(targets)
    # min ε(t): a least-genus target's own floor, and no floor is lower
    min_genus = min(floors)
    dual_floors = _dual_genus_floors(targets)
    # pd is at least 0, and at least 1 on a non-orientable graph; an
    # infinite floor for orientable states is the genus floor's already
    prunes = 0 < dual_floors[1] < inf or dual_floors[0] > 1
    min_dual = min(dual_floors)
    bit = {label: 1 << i for i, label in enumerate(pres.labels())}
    boundaries: list[int] = []  # the start's, made at its expansion
    scripts: list[MinorScript | None] = [None] * len(targets)
    built: set[tuple[int, int, int]] = set()

    def children(
        state: ArrowPresentation,
        steps: tuple[Step, ...],
        genus: int | None,
        live: int,
        contracted: int,
        bare: int,
    ):
        """(key, path, child, predicted genus, operation set) for the
        children of a state whose parent predicts Euler genus ``genus``
        (None for the start), if it reaches its floors: those neither below
        a floor nor built before.  An operation set is the bitmasks of the
        start's edges kept and contracted, and the bare vertices deleted."""
        summary, table, walk = _surface_walk(state)
        gamma = summary.euler_genus
        if genus is not None and gamma != genus:
            raise InternalInvariantViolation(
                f"Euler genus {gamma} where its parent predicts {genus}"
            )
        if gamma < floors[summary.orientable]:
            return
        if prunes:
            if not boundaries:
                boundaries.extend(_spanning_boundaries(table))
            drop = _dual_genus_drop(boundaries, live, contracted)
            if gamma - drop < dual_floors[summary.orientable]:
                return
        step_genus, step_orientable = _steps(table, walk, gamma)
        # below this a child counts only if orientable, which a child of an
        # orientable state always is
        floor = min_genus if summary.orientable else floors[0]
        # At the least target edge count only vertex deletions can help.
        for step in _one_step_order(state, state.edge_count > min_edges):
            op, arg = step
            if op == "delete_vertex":
                predicted, ops = gamma, (live, contracted, bare + 1)
            else:
                predicted = step_genus(arg, op == "contract_edge")
                if predicted < min_genus:
                    continue
                x = bit[arg]
                kept = contracted | x if op == "contract_edge" else contracted
                ops = live ^ x, kept, bare
            if ops in built:
                continue
            # a child of an orientable state is orientable, and one of a
            # non-orientable state unknown unless tested: then the lower floor
            dual_floor = dual_floors[1] if summary.orientable else min_dual
            if predicted < floor:
                if not step_orientable(arg, op == "contract_edge"):
                    continue
                dual_floor = dual_floors[1]
            # deleting a bare vertex keeps the state's pd, which reached its floor
            if prunes and op != "delete_vertex":
                drop = _dual_genus_drop(boundaries, ops[0], ops[1])
                if predicted - drop < dual_floor:
                    continue
            built.add(ops)
            child = apply_step(state, step)
            yield (_key(child), steps + (step,), child, predicted, *ops)

    # Each level streams (key, path, state, predicted genus, operation set)
    # for the classes it reaches: the start, then the children of the
    # previous level's expanded states.
    level: Iterable = [
        (canonical_key(pres, max_edges), (), pres, None, (1 << len(bit)) - 1, 0, 0)
    ]
    visited: set[bytes] = set()
    while True:
        frontier: list[tuple] = []
        for key, steps, state, *carried in level:
            if key in visited:
                continue
            if len(visited) >= MINOR_SEARCH_MEMO_LIMIT:
                raise SizeBoundExceeded(
                    f"minor search visited more than {MINOR_SEARCH_MEMO_LIMIT} classes"
                )
            visited.add(key)
            if key in index:
                i = index[key]
                scripts[i] = verified_script(pres, steps, targets[i])
                if None not in scripts:
                    return scripts
            # at the least target edge count only a bare vertex keeps it alive
            edges = state.edge_count
            if edges > min_edges or edges == min_edges and state.isolated_vertices():
                frontier.append((state, steps, *carried))
        if not frontier:
            return scripts
        level = (found for entry in frontier for found in children(*entry))


def has_minor(
    pres: ArrowPresentation,
    target: ArrowPresentation,
    max_edges: int | None = None,
) -> tuple[bool, MinorScript | None]:
    """Search for a minor equivalent to ``target``; returns a verified script.

    Breadth-first over the canonically deduplicated minor space.  States
    with too few edges, dead ends (the target's edge count and no isolated
    vertex to delete) and states below their genus floor are not expanded;
    other states at the target's edge count only have their isolated
    vertices deleted.  The floor is the target's Euler genus, except that
    an orientable state never reaches a non-orientable target, and a
    non-orientable state needs one more than an orientable target's: a
    step that makes a graph orientable lowers its Euler genus, as a
    deletion that keeps the genus leaves the edge inside a face, and
    contraction is deletion in the dual (``_genus_floors``).  The least
    Euler genus of a partial dual has a floor by the same rule, read off
    one table of the start's spanning boundaries (``_dual_genus_floors``):
    a state below it is not expanded either, so a graph that represents a
    link is not searched for B3 or theta_t beyond itself.  A child of
    smaller Euler genus than the target's is never built, nor is a
    non-orientable child below a non-orientable state's floor (both read
    off the parent by ``surfaces._steps``), nor a child below its
    partial-dual genus floor; none of these counts against
    ``MINOR_SEARCH_MEMO_LIMIT``.  No set of operations is built twice.
    """
    check_size(pres.edge_count, MINOR_SEARCH_MAX_EDGES, max_edges, "minor-search")
    (script,) = _minor_search(pres, [target], max_edges)
    return script is not None, script


# -- the twisted-loop shortcut ----------------------------------------------


def trim_steps(pres: ArrowPresentation, keep: set[str]) -> list[Step]:
    """Steps deleting every edge outside ``keep``, then the vertices left bare.

    Edge deletion keeps curve indices, so the bare vertices are read off the
    arrows directly, without building the intermediate graphs.
    """
    steps: list[Step] = [
        ("delete_edge", label) for label in sorted(set(pres.labels()) - keep)
    ]
    bare = [
        i for i, curve in enumerate(pres.curves)
        if not any(a.label in keep for a in curve)
    ]
    steps += [("delete_vertex", i) for i in reversed(bare)]
    return steps


def bbar1_script(pres: ArrowPresentation) -> MinorScript:
    """A direct witness that a non-orientable graph has a twisted-loop minor.

    Finds a cycle with an odd number of twisted edges, deletes everything
    outside it, and contracts all cycle edges but one; the survivor is a
    twisted loop.  Polynomial, unlike the generic search.
    """
    found = odd_twist_cycle(pres)
    if found is None:
        raise RibbonError("graph is orientable; it has no twisted-loop minor")
    chain, kept = found
    steps = trim_steps(pres, set(chain) | {kept})
    steps += [("contract_edge", label) for label in chain]
    return verified_script(pres, steps, build_Bbar1())


def excluded_minor_scan(
    pres: ArrowPresentation, max_edges: int | None = None
) -> dict[str, MinorScript]:
    """Which of the three forbidden patterns occur as minors, with witnesses.

    Keys are drawn from {"bbar1", "b3", "theta_t"}.  The twisted loop is
    detected by the orientability shortcut; B3 and theta_t by one minor
    search for both, which finds the scripts ``has_minor`` would.
    """
    check_size(pres.edge_count, MINOR_SEARCH_MAX_EDGES, max_edges, "minor-search")
    found: dict[str, MinorScript] = {}
    if not is_orientable(pres):
        found["bbar1"] = bbar1_script(pres)
    scripts = _minor_search(pres, list(_b3_theta_t()), max_edges)
    for name, script in zip(("b3", "theta_t"), scripts):
        if script is not None:
            found[name] = script
    return found


# -- one-boundary bouquet families ------------------------------------------


def b_family_members(n: int, max_edges: int) -> list[ArrowPresentation]:
    """Equivalence classes of the n-th genus obstruction family, by size.

    Members are graphs whose components are all bouquets (single vertex)
    with one boundary walk and at least one edge, with total Euler genus
    n + 1 — except that orientable members of an even family need n + 2,
    since their genus is even.  Such a bouquet component has Euler genus
    equal to its edge count, so members with at most ``max_edges`` edges
    are found by filtering exhaustive enumeration.
    """
    check_count(n, "family index", 0)
    out: list[ArrowPresentation] = []
    for pres in enumerate_presentations(max_edges):
        s = surface_summary(pres)
        # one vertex and one boundary walk per component, none of them bare;
        # the empty graph fails on its Euler genus of 0
        bouquets = s.vertices == s.components == s.boundary
        required = n + 2 if n % 2 == 0 and s.orientable else n + 1
        if bouquets and not pres.isolated_vertices() and s.euler_genus == required:
            out.append(pres)
    return out

