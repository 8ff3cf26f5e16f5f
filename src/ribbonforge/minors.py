"""Ribbon-graph minors: scripts, search, and the genus obstruction families.

A minor is reached by deleting edges, contracting edges, and deleting isolated
vertices.  Minor operations never raise the Euler genus and never make an
orientable graph non-orientable, which the search uses for pruning.

The three patterns whose absence characterizes link-diagram representability
are built here: ``BBAR1`` (the twisted loop), ``B3`` (the bouquet of three
pairwise interlaced loops) and ``THETA_T`` (the toroidal theta: two vertices
joined by three parallel edges with one boundary component).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .canonical import canonical_key, equivalent
from .errors import (
    ClaimViolation,
    InternalInvariantViolation,
    RibbonError,
    SizeBoundExceeded,
)
from .limits import MINOR_SEARCH_MAX_EDGES, check_size
from .moves import contract_edge, delete_edge, partial_dual
from .presentation import (
    ArrowPresentation,
    component_vertex_sets,
    components,
    delete_vertex,
    from_words,
    spanning_tree,
    underlying_edges,
)
from .surfaces import (
    boundary_component_count,
    is_orientable,
    odd_twist_cycle,
    surface_summary,
    trace_boundary,
)

Step = tuple  # ("delete_edge", label) | ("contract_edge", label) | ("delete_vertex", i)


@dataclass(frozen=True)
class MinorScript:
    """A replayable witness that some graph is a minor of another."""

    steps: tuple[Step, ...]

    def as_json(self) -> list[list]:
        return [list(step) for step in self.steps]


def apply_step(pres: ArrowPresentation, step: Step) -> ArrowPresentation:
    op, arg = step
    if op == "delete_edge":
        return delete_edge(pres, arg)
    if op == "contract_edge":
        return contract_edge(pres, arg)
    if op == "delete_vertex":
        if not (0 <= arg < len(pres.curves)) or pres.curves[arg]:
            raise InternalInvariantViolation(
                f"script deletes non-isolated vertex {arg}"
            )
        return delete_vertex(pres, arg)
    raise RibbonError(f"unknown script step {op!r}")


def replay(pres: ArrowPresentation, script: MinorScript) -> ArrowPresentation:
    """Apply a script and return the resulting minor."""
    for step in script.steps:
        pres = apply_step(pres, step)
    return pres


def verified_script(
    source: ArrowPresentation,
    steps: Iterable[Step],
    target: ArrowPresentation,
) -> MinorScript:
    """Build a script and check by replay that it lands on ``target``.

    The check is bounded by the target's own size, which never refuses it:
    ``equivalent`` compares edge counts before computing any key.
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
    if n < 1:
        raise RibbonError("n must be >= 1")
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


# -- one-step minors and search ---------------------------------------------


def one_step_minors(
    pres: ArrowPresentation, max_edges: int | None = None
) -> list[tuple[Step, ArrowPresentation]]:
    """All single-operation minors, deduplicated up to equivalence.

    Operations are tried in a fixed order (edge deletions, contractions,
    then isolated-vertex deletions, each sorted), and the first step reaching
    each equivalence class is kept.
    """
    out: list[tuple[Step, ArrowPresentation]] = []
    seen: set[bytes] = set()
    candidates: list[tuple[Step, ArrowPresentation]] = []
    for label in pres.labels():
        candidates.append((("delete_edge", label), delete_edge(pres, label)))
    for label in pres.labels():
        candidates.append((("contract_edge", label), contract_edge(pres, label)))
    for idx in pres.isolated_vertices():
        candidates.append((("delete_vertex", idx), delete_vertex(pres, idx)))
    for step, result in candidates:
        key = canonical_key(result, max_edges)
        if key not in seen:
            seen.add(key)
            out.append((step, result))
    return out


def has_minor(
    pres: ArrowPresentation,
    target: ArrowPresentation,
    max_edges: int | None = None,
    memo_limit: int = 1_000_000,
) -> tuple[bool, MinorScript | None]:
    """Search for a minor equivalent to ``target``; returns a verified script.

    Breadth-first over the canonically deduplicated minor space, pruning
    states with too few edges, smaller Euler genus than the target, or the
    wrong orientability class (minors of orientable graphs stay orientable).
    ``memo_limit`` caps the number of remembered equivalence classes.
    """
    check_size(pres.edge_count, MINOR_SEARCH_MAX_EDGES, max_edges, "minor-search")
    target_key = canonical_key(target, max_edges)
    target_edges = target.edge_count
    target_genus = surface_summary(target).euler_genus
    target_orientable = is_orientable(target)

    def prunable(state: ArrowPresentation) -> bool:
        if state.edge_count < target_edges:
            return True
        if surface_summary(state).euler_genus < target_genus:
            return True
        if not target_orientable and is_orientable(state):
            return True
        return False

    if canonical_key(pres, max_edges) == target_key:
        return True, verified_script(pres, (), target)
    if prunable(pres):
        return False, None

    frontier: list[tuple[ArrowPresentation, tuple[Step, ...]]] = [(pres, ())]
    visited = {canonical_key(pres, max_edges)}
    while frontier:
        nxt: list[tuple[ArrowPresentation, tuple[Step, ...]]] = []
        for state, steps in frontier:
            for step, child in one_step_minors(state, max_edges):
                if step[0] != "delete_vertex" and state.edge_count <= target_edges:
                    continue
                key = canonical_key(child, max_edges)
                if key in visited:
                    continue
                if len(visited) >= memo_limit:
                    raise SizeBoundExceeded(
                        f"minor search visited more than {memo_limit} classes"
                    )
                visited.add(key)
                if key == target_key:
                    return True, verified_script(pres, steps + (step,), target)
                if not prunable(child):
                    nxt.append((child, steps + (step,)))
        frontier = nxt
    return False, None


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


def contraction_chain_Bn(n: int) -> MinorScript:
    """The explicit two-contractions-per-stage script taking B_n down to B3.

    Contracts e_n then e_{n-1}, checks the result is equivalent to B_{n-2},
    and repeats until three edges remain.
    """
    if n < 5 or n % 2 == 0:
        raise RibbonError("n must be odd and >= 5")
    cur = build_B(n)
    steps: list[Step] = []
    bound = max(n, 8)
    for m in range(n, 3, -2):
        for label in (f"e{m}", f"e{m - 1}"):
            steps.append(("contract_edge", label))
            cur = contract_edge(cur, label)
        if not equivalent(cur, build_B(m - 2), bound):
            raise InternalInvariantViolation(
                f"contracting e{m}, e{m - 1} did not reproduce B{m - 2}"
            )
    return MinorScript(tuple(steps))


def excluded_minor_scan(
    pres: ArrowPresentation, max_edges: int | None = None
) -> dict[str, MinorScript]:
    """Which of the three forbidden patterns occur as minors, with witnesses.

    Keys are drawn from {"bbar1", "b3", "theta_t"}.  The twisted loop is
    detected by the orientability shortcut; the other two by generic search.
    """
    check_size(pres.edge_count, MINOR_SEARCH_MAX_EDGES, max_edges, "minor-search")
    found: dict[str, MinorScript] = {}
    if not is_orientable(pres):
        found["bbar1"] = bbar1_script(pres)
    for name, target in (("b3", build_B(3)), ("theta_t", build_theta_t())):
        present, script = has_minor(pres, target, max_edges)
        if present:
            found[name] = script
    return found


# -- genus reduction --------------------------------------------------------


def _delete_two_walk_edges(
    pres: ArrowPresentation, steps: list[Step]
) -> ArrowPresentation:
    """Delete boundary-merging edges, then isolated vertices; genus is kept.

    An edge whose two free sides lie on distinct boundary walks can be
    deleted without changing the Euler genus (the two walks merge).  Repeats
    until every component has one boundary walk, then drops bare vertices.
    """
    before = surface_summary(pres).euler_genus
    while True:
        _, edge_walks = trace_boundary(pres)
        mergers = sorted(l for l, (w1, w2) in edge_walks.items() if w1 != w2)
        if not mergers:
            break
        steps.append(("delete_edge", mergers[0]))
        pres = delete_edge(pres, mergers[0])
    for idx in sorted(pres.isolated_vertices(), reverse=True):
        steps.append(("delete_vertex", idx))
        pres = delete_vertex(pres, idx)
    if surface_summary(pres).euler_genus != before:
        raise InternalInvariantViolation("boundary-merging deletion changed genus")
    for comp in components(pres):
        if boundary_component_count(comp) != 1:
            raise InternalInvariantViolation(
                "component left with several boundary walks and no mergeable edge"
            )
    return pres


def _lower_to_genus(
    start: ArrowPresentation, target: int, key_bound: int
) -> tuple[Step, ...]:
    """Deletion steps taking a one-boundary bouquet union to an exact genus.

    Depth-first search over normalized deletion minors.  Children are tried
    in the greedy order (orientable-component edge for a drop of two, then
    boundary-preserving edges of non-orientable components for a drop of
    one, then the remaining deletions), so when greedy choices suffice the
    script matches them, and the search backtracks only when an early
    deletion would strand the target behind the orientable parity wall.
    Every expanded state with a non-orientable component must offer a
    boundary-preserving deletion in that component; a miss is reported as
    ClaimViolation, never repaired silently.
    """
    seen: set[bytes] = set()

    def visit(state: ArrowPresentation, genus: int) -> tuple[Step, ...] | None:
        if genus == target:
            return ()
        if genus < target:
            return None
        if is_orientable(state) and (genus - target) % 2:
            return None  # deletions move an all-orientable genus in twos
        key = canonical_key(state, max_edges=key_bound)
        if key in seen:
            return None
        seen.add(key)
        comp_sets = component_vertex_sets(state)
        comp_of = {v: cid for cid, vs in enumerate(comp_sets) for v in vs}
        comp_orientable = [is_orientable(c) for c in components(state)]
        deficit = genus - target
        drop_one_seen = [False] * len(comp_sets)
        candidates = []
        for label, (end, _) in underlying_edges(state).items():
            cid = comp_of[end]
            extra: list[Step] = []
            child = _delete_two_walk_edges(delete_edge(state, label), extra)
            child_genus = surface_summary(child).euler_genus
            drop = genus - child_genus
            if comp_orientable[cid]:
                if drop != 2:
                    raise InternalInvariantViolation(
                        "deleting an edge of an orientable one-boundary "
                        f"bouquet changed the Euler genus by {drop}, not 2"
                    )
                rank = 0 if deficit >= 2 else 3
            elif drop == 1:
                drop_one_seen[cid] = True
                rank = 1
            elif drop == 2:
                rank = 2
            else:
                raise InternalInvariantViolation(
                    f"an edge deletion changed the Euler genus by {drop}"
                )
            steps_here = (("delete_edge", label), *extra)
            candidates.append((rank, label, child, child_genus, steps_here))
        for cid, orientable in enumerate(comp_orientable):
            if not orientable and not drop_one_seen[cid]:
                raise ClaimViolation(
                    "non-orientable one-boundary bouquet with no "
                    "boundary-preserving edge deletion"
                )
        for _, _, child, child_genus, steps_here in sorted(
            candidates, key=lambda c: (c[0], c[1])
        ):
            tail = visit(child, child_genus)
            if tail is not None:
                return steps_here + tail
        return None

    found = visit(start, surface_summary(start).euler_genus)
    if found is None:
        if is_orientable(start):
            raise RibbonError(
                "target genus unreachable: all components orientable, "
                "so the Euler genus can only change in steps of two"
            )
        raise RibbonError(f"no deletion minor of Euler genus {target}")
    return found


def extract_genus_minor(pres: ArrowPresentation, target_genus: int) -> MinorScript:
    """A minor of prescribed Euler genus, by the tree-contract-and-trim plan.

    Contract a spanning tree in each component, delete boundary-merging
    edges until every component is a one-boundary bouquet, then lower the
    genus one deletion at a time: an edge of an orientable component drops
    it by two, and a non-orientable component always contains an edge whose
    deletion keeps the boundary connected, dropping it by one.  The latter
    existence claim is checked by exhaustive search and its failure is
    reported as ClaimViolation, never repaired silently.  When the greedy
    choice of deletion would make the exact target unreachable (dropping
    the last non-orientable component with an odd deficit left), the search
    backtracks and picks a different edge.
    """
    if target_genus < 0:
        raise RibbonError("target Euler genus must be >= 0")
    start = surface_summary(pres).euler_genus
    if start <= target_genus:
        raise RibbonError(
            f"graph has Euler genus {start}, already <= target {target_genus}"
        )
    steps: list[Step] = []
    cur = pres
    tree_edges: list[str] = []
    for comp in components(pres):
        if comp.edge_count:
            tree_edges.extend(spanning_tree(comp))
    for label in sorted(tree_edges):
        steps.append(("contract_edge", label))
        cur = contract_edge(cur, label)
    if surface_summary(cur).euler_genus != start:
        raise InternalInvariantViolation("spanning-tree contraction changed genus")
    cur = _delete_two_walk_edges(cur, steps)
    steps.extend(_lower_to_genus(cur, target_genus, max(pres.edge_count, 1)))
    return MinorScript(tuple(steps))


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
    from .enumeration import enumerate_presentations

    if n < 0:
        raise RibbonError("family index must be >= 0")
    out: list[ArrowPresentation] = []
    for pres in enumerate_presentations(max_edges):
        if not pres.edge_count or pres.isolated_vertices():
            continue
        if any(a != b for a, b in underlying_edges(pres).values()):
            continue
        if any(boundary_component_count(c) != 1 for c in components(pres)):
            continue
        genus = surface_summary(pres).euler_genus
        required = n + 1
        if n % 2 == 0 and is_orientable(pres):
            required = n + 2
        if genus == required:
            out.append(pres)
    return out

