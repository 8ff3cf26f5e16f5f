"""Canonical keys for ribbon-graph equivalence.

Two arrow presentations describe the same ribbon graph exactly when one can be
turned into the other by relabelling edges, permuting curves, rotating a
curve's word, reversing a curve's word while flipping every arrow on it (the
two ways of reading the same circle), or flipping both arrows of one edge (the
two ways of orienting an edge disc).  ``canonical_key`` returns a byte string
constant on each orbit of that group and distinct across orbits: the
lexicographically least encoding over all curve orders and readings, where
labels are numbered by first occurrence and each edge's first arrow is read
"along" (flag 1), so the flag of its second arrow records the twist.

Keys are computed per connected component and joined sorted, which is valid
because equivalences map components to components.  Isolated vertices key as
``()`` with no lookup and sort first, since every other component key starts
with a digit.  The rest of the graph, its body, is keyed by one cached
function: on a miss it builds one slot table (see ``presentation``), which
serves both its connectivity check and its chains.  A disconnected body is
split into the parts that the table's curve graph found, and its key joins
the parts' own cached keys, sorted.  So a connected graph is never split, a
disconnected one has its curve graph walked once and each part keyed once,
and a repeated body of either kind is one cache hit.  The minor search,
which makes most calls, never builds the same set of operations twice, so
it keys each of those sets once.  ``canonical_key`` checks the size bound;
a search that checked its own input, whose children are never larger, keys
them through the unchecked ``_key``.

A reading is a start slot and a direction, backward reading every arrow's
direction flipped.  Either way the table's ``plain`` arc from the end an
arrow points to as read enters the next slot, so both directions step
alike.  The relabelling is kept per slot, in a list of integers: when a
label's first arrow is read, its number goes to its unread mate slot
together with the direction that slot must match, and a list of those mate
slots in number order gives the least label still waiting for its second
arrow.

Within a component only the first curve read is a choice.  After it, some
unread curve carries the second arrow of a label already numbered; let m be
the least such number.  The reading that starts at that arrow, in the
direction that gives it flag 0, begins with the pair (m, 0), below the first
pair of every other reading: those begin with a larger number, with a new
label (numbered above every old one) or with (m, 1).  So each least first
reading fixes one chain of readings, and the key is the least of at most 4E
chains for E edges.  Every first reading begins with code 1.  Its second
code is 0 or 1 when the next arrow carries the same label and 3 otherwise,
and a one-arrow curve reads (1,), below every longer reading.  So only the
readings that reach the least second code over all of them are rendered:
forward from such a slot, and backward from the slot after it, whose
second code is the same.
"""

from __future__ import annotations

from functools import lru_cache

from .limits import CANONICAL_MAX_EDGES, check_size
from .presentation import (
    ArrowPresentation,
    _curve_roots,
    _group_by_root,
    _slot_table,
)


def _first_starts(table, ci, second, least):
    """The readings of curve ``ci`` whose second code is ``least``, as
    (start slot, forward): forward from such a slot, backward from the one
    after it."""
    along, plain = table.along, table.plain
    return [
        (t, forward)
        for s in range(table.start[ci], table.start[ci + 1])
        if second[s] == least
        for t, forward in ((s, True), (plain[2 * s + along[s]] >> 1, False))
    ]


def _render(s, forward, table, tag, order, bound=None):
    """Encode the reading of a curve from slot ``s``, extending a relabelling.

    ``tag`` holds, at the unread slot of each label read once, 2 * its
    number + the direction that slot must match, and -1 at every other slot;
    ``order`` lists those slots in number order.  Both are extended in
    place.  Each arrow becomes 2 * number + flag, where every first
    occurrence gets the flag 1, so the second occurrence's flag records the
    twist.  Returns the encoding, or None as soon as its prefix is above
    ``bound``.
    """
    along, plain, mate = table.along, table.plain, table.mate
    back = not forward
    enc = []
    t = s
    while True:
        a = along[t] ^ back
        v = tag[t]
        if v < 0:
            code = 2 * len(order) + 1
            tag[mate[t]] = code - 1 + a
            order.append(mate[t])
        else:
            code = v ^ a ^ 1
        if bound is not None:
            k = len(enc)
            if k == len(bound) or code > bound[k]:
                return None
            if code != bound[k]:
                bound = None
        enc.append(code)
        t = plain[2 * t + a] >> 1
        if t == s:
            return tuple(enc)


@lru_cache(maxsize=1 << 18)
def _component_key(pres: ArrowPresentation) -> bytes:
    """The key of a nonempty body with no bare curves."""
    curves = pres.curves
    table = _slot_table(pres)
    if len(curves) > 1:
        root, _ = _curve_roots(table)
        if any(root):  # a curve not reached from curve 0
            return b";".join(sorted(
                _component_key(ArrowPresentation(tuple(curves[i] for i in comp)))
                for comp in _group_by_root(root)
            ))
    curve_of, along, plain, mate = table.curve, table.along, table.plain, table.mate

    # the second code of the reading forward from each slot; -1 reads (1,)
    second = [-1 if (t := plain[2 * s + a] >> 1) == s else a == along[t]
              if t == mate[s] else 3 for s, a in enumerate(along)]
    least = min(second)
    # the least first readings, each with the relabelling it leaves
    first = None
    starts = []
    tried = set()
    for ci, curve in enumerate(curves):
        if curve in tried:
            continue
        tried.add(curve)
        for s, forward in _first_starts(table, ci, second, least):
            tag, order = [-1] * len(mate), []
            piece = _render(s, forward, table, tag, order, first)
            if piece is None:
                continue
            if piece != first:
                first, starts = piece, []
            starts.append((ci, tag, order))

    # each start forces one chain; keep the least, dropping a chain once above it
    encoding = None
    for ci, tag, order in starts:
        used = [False] * len(curves)
        used[ci] = True
        chain = [first]
        below = encoding is None
        p = 0
        for level in range(1, len(curves)):
            # read from the unread slot of the least pending label, so it gets flag 0
            while used[curve_of[order[p]]]:
                p += 1
            s = order[p]
            bound = None if below else encoding[level]
            piece = _render(s, along[s] != tag[s] & 1, table, tag, order, bound)
            if piece is None:
                break
            below = below or piece != bound
            chain.append(piece)
            used[curve_of[s]] = True
        else:
            encoding = chain
    return "|".join(
        " ".join(f"{v >> 1}{'-+'[v & 1]}" for v in piece) for piece in encoding
    ).encode("ascii")


def _key(pres: ArrowPresentation) -> bytes:
    """``canonical_key`` without its size check, for a search that made it."""
    bare = pres.curves.count(())
    keys = [b"()"] * bare
    if bare < len(pres.curves):
        body = ArrowPresentation(tuple(c for c in pres.curves if c)) if bare else pres
        keys.append(_component_key(body))
    return b";".join(keys)


def canonical_key(pres: ArrowPresentation, max_edges: int | None = None) -> bytes:
    """A complete equivalence invariant, as a printable byte string."""
    check_size(pres.edge_count, CANONICAL_MAX_EDGES, max_edges, "canonical-form")
    return _key(pres)


def equivalent(
    a: ArrowPresentation, b: ArrowPresentation, max_edges: int | None = None
) -> bool:
    """Whether two presentations describe equivalent ribbon graphs.  A bad
    bound raises first; other sizes are never equivalent, even above it."""
    same = a.edge_count == b.edge_count and a.vertex_count == b.vertex_count
    size = a.edge_count if same else 0
    check_size(size, CANONICAL_MAX_EDGES, max_edges, "canonical-form")
    return same and (a == b or _key(a) == _key(b))
