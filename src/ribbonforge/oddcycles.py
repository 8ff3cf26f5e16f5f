"""Two-colourings and shortest odd cycles of interlacement graphs.

A ribbon graph represents a link exactly when, component by component, the
interlacement graph of its spanning-tree partial dual is bipartite (see
``links``).  ``_colour_word`` decides that from the one-vertex graph's word
with a stack, without listing the interlaced pairs.  When the graph is not
bipartite, the certificate is built from a shortest odd cycle, which lies
inside one biconnected block; ``_two_colour`` finds it on the pairs.  Both
take the colouring from the package's one parity union-find
(``presentation._parity``), and ``_two_colour`` the blocks from its one
block decomposition (``presentation._blocks``), searching only the blocks
that hold an odd cycle.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Sequence

from .errors import InternalInvariantViolation
from .presentation import _blocks, _parity

if TYPE_CHECKING:
    from .links import IntersectionGraph


def _colour_word(word: Sequence[str]) -> dict[str, int] | None:
    """The two-colouring ``_two_colour`` gives the interlacement graph of a
    one-vertex graph whose curve reads ``word``, label by label, or None
    when that graph is not bipartite.

    Open chords lie on a stack in the order they opened; when chord e
    closes, those above it are exactly its neighbours that close later
    (Even and Itai, *Queues, stacks and graphs*, 1971).  They must all take
    e's opposite colour, so the stack is kept as *groups*, contiguous runs
    of chords forced to one colour: at e's close every group above e's own
    merges into one, smaller into larger, with one twisted edge from e to a
    chord of each.  A chord of e's own group above e is a same-colour
    neighbour, so the graph is not bipartite.  Every recorded edge joins
    interlaced chords, and every interlaced pair is coloured apart once the
    groups are, so the graph is bipartite exactly when no group clashes and
    ``_parity`` over the recorded edges, on the sorted labels, finds no
    clash either; its sides then root each component at its least label
    with colour 0, as ``_two_colour`` does.  O(L log L) for a word of
    length L: a chord changes group O(log L) times, each recorded edge
    pops one group, and ``_parity`` links by least node without union by
    rank.
    """
    labels = sorted(set(word))
    number = {label: i for i, label in enumerate(labels)}
    group: list[deque[int] | None] = [None] * len(labels)
    stack: list[deque[int]] = []
    edges: list[tuple[int, int, bool]] = []
    for label in word:
        e = number[label]
        own = group[e]
        if own is None:
            own = group[e] = deque((e,))
            stack.append(own)
            continue
        merged = None
        while stack[-1] is not own:
            above = stack.pop()
            edges.append((e, above[0], True))
            if merged is None:
                merged = above
            elif len(above) < len(merged):
                merged.extendleft(reversed(above))
                for f in above:
                    group[f] = merged
            else:
                above.extend(merged)
                for f in merged:
                    group[f] = above
                merged = above
        if own.pop() != e:
            return None
        if not own:
            stack.pop()
        if merged is not None:
            stack.append(merged)
    _, side, clashes = _parity(len(labels), edges)
    return None if clashes else dict(zip(labels, side))


def _two_colour(
    graph: IntersectionGraph,
) -> tuple[dict[str, int] | None, tuple[str, ...] | None]:
    """Bipartition or a minimal odd cycle.

    Colours each interlacement component from its smallest label (colour
    0), by ``_parity`` with every edge twisted.  On success returns
    (colouring, None); otherwise (None, cycle) with the shortest odd cycle,
    ties broken lexicographically.  Every cycle lies in one biconnected
    block (``_blocks``).  The union-find's linking edges form a spanning
    forest, which meets each block in a spanning tree of it, so a block
    holds an odd cycle exactly when one of its fundamental cycles is odd,
    that is when it holds a clash edge; only those blocks are searched, and
    the least (length, cycle) over them is the answer.  A block with as
    many edges as vertices is a chordless cycle, read off directly from its
    least vertex towards its smaller neighbour.
    """
    pairs = sorted(graph.edges)
    number = {v: i for i, v in enumerate(graph.vertices)}
    edges = [(number[a], number[b], True) for a, b in pairs]
    _, side, clashes = _parity(len(number), edges)
    if not clashes:
        return dict(zip(graph.vertices, side)), None
    odd = set(clashes)
    best: tuple[str, ...] | None = None
    for block in _blocks(len(number), [(a, b) for a, b, _ in edges]):
        if odd.isdisjoint(block):
            continue
        sub: dict[str, list[str]] = {}
        for i in block:
            a, b = pairs[i]
            sub.setdefault(a, []).append(b)
            sub.setdefault(b, []).append(a)
        if len(block) == len(sub):
            cycle = [min(sub)]
            here = min(sub[cycle[0]])
            while here != cycle[0]:
                prev = cycle[-1]
                cycle.append(here)
                a, b = sub[here]
                here = b if a == prev else a
            found = tuple(cycle)
        else:
            for lst in sub.values():
                lst.sort()
            found = _shortest_odd_cycle(sub)
        if best is None or (len(found), found) < (len(best), best):
            best = found
    return None, best


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

    ``_two_colour`` calls it on one biconnected block at a time.  One parity
    BFS per start vertex s, on the vertices >= s, finds the shortest odd
    closed walk through s (Itai & Rodeh style, O(V(V+E))); the
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
