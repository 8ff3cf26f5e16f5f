"""Two-colourings and chordless odd cycles of interlacement graphs.

A ribbon graph represents a link exactly when, component by component, the
interlacement graph of its spanning-tree partial dual is bipartite (see
``links``).  ``_colour_word`` decides that from the one-vertex graph's word
with a stack, without listing the interlaced pairs, on the package's one
parity union-find (``presentation._parity``).  When the graph is not
bipartite, the certificate is built from a chordless odd cycle, which
``_odd_cycle`` finds with one breadth-first search over the pairs
(``_interlaced``) and one pass over the chords of the cycle it closes.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Sequence

from .presentation import _parity

if TYPE_CHECKING:
    from .links import IntersectionGraph


def _interlaced(word: Iterable[str]) -> frozenset[tuple[str, str]]:
    """The interlaced pairs (e, f), e < f, of a curve reading ``word``.

    One scan of the word keeps the open labels in a chain, each linked to
    the one opened just before it.  When e closes, the labels opened after
    it and still open are exactly those with one end between e's ends, so
    the walk down the chain from the last opened label to e lists e's new
    neighbours, and e is unlinked: O(L + pairs) for a word of length L.
    """
    below: dict[str, str | None] = {}
    top: str | None = None
    edges = set()
    for e in word:
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
    return frozenset(edges)


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


def _two_colour(graph: IntersectionGraph) -> dict[str, int] | None:
    """The two-colouring of an interlacement graph, or None when it is not
    bipartite: the pairs' reference for ``_colour_word``.

    Colours each component from its least label (colour 0), by ``_parity``
    with every edge twisted.
    """
    number = {v: i for i, v in enumerate(graph.vertices)}
    edges = [(number[a], number[b], True) for a, b in graph.edges]
    _, side, clashes = _parity(len(number), edges)
    return None if clashes else dict(zip(graph.vertices, side))


def _odd_cycle(word: Sequence[str]) -> tuple[str, ...] | None:
    """A chordless odd cycle of the interlacement graph of a one-vertex
    graph whose curve reads ``word``, or None when that graph is bipartite.

    The tree paths a = u … w and b = v … w from the ends of
    ``_same_depth_edge``'s edge (u, v) up to their common ancestor w close
    an odd cycle.  Every edge joins depths at most one apart, and an edge
    a[i] b[i] with i > 0 would have been met before (u, v).  The search
    reached u before v, so a[i] before b[i] at every depth, and an edge
    a[i + 1] b[i] would have made a[i + 1] the parent of b[i].  So every
    chord joins a[i] to b[i + 1], and the least such i, found with O(1)
    interlace tests on the arrow positions, cuts off the odd cycle
    a[0..i] b[i+1..0] of length 2i + 3, which has no chord; with no chord
    at all the whole cycle is chordless.  It is read from its least label
    towards the smaller of that label's two neighbours.  O(L + pairs) for
    a word of length L.
    """
    labels = sorted(set(word))
    number = {label: i for i, label in enumerate(labels)}
    ends: list[list[int]] = [[] for _ in labels]
    for p, label in enumerate(word):
        ends[number[label]].append(p)
    adj: list[list[int]] = [[] for _ in labels]
    # sorted pairs list each label's neighbours in increasing order
    for e, f in sorted(_interlaced(word)):
        adj[number[e]].append(number[f])
        adj[number[f]].append(number[e])
    found = _same_depth_edge(adj)
    if found is None:
        return None
    u, v, parent = found
    a, b = [u], [v]
    while a[-1] != b[-1]:
        a.append(parent[a[-1]])
        b.append(parent[b[-1]])
    for i in range(len(a) - 2):
        (p, q), (r, s) = ends[a[i]], ends[b[i + 1]]
        if (p < r < q) != (p < s < q):
            del a[i + 1:], b[i + 2:]
            break
    else:
        b.pop()
    cycle = a + b[::-1]
    least = cycle.index(min(cycle))
    cycle = cycle[least:] + cycle[:least]
    if cycle[-1] < cycle[1]:
        cycle[1:] = cycle[:0:-1]
    return tuple(labels[i] for i in cycle)


def _same_depth_edge(
    adj: list[list[int]],
) -> tuple[int, int, list[int]] | None:
    """The first edge (u, v) joining two nodes of the same depth met by a
    breadth-first search from each node in turn over the sorted lists
    ``adj``, with the search's parents; None when the graph is bipartite.
    """
    depth = [-1] * len(adj)
    parent = list(range(len(adj)))
    for root in range(len(adj)):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = [root]
        for u in queue:
            for v in adj[u]:
                if depth[v] < 0:
                    depth[v], parent[v] = depth[u] + 1, u
                    queue.append(v)
                elif depth[v] == depth[u]:
                    return u, v, parent
    return None
