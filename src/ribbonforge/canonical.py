"""Canonical keys for ribbon-graph equivalence.

Two arrow presentations describe the same ribbon graph exactly when one can be
turned into the other by relabelling edges, permuting curves, rotating a
curve's word, reversing a curve's word while flipping every arrow on it (the
two ways of reading the same circle), or flipping both arrows of one edge (the
two ways of orienting an edge disc).  ``canonical_key`` returns a byte string
constant on each orbit of that group and distinct across orbits, computed by
branch-and-bound over curve orders and readings: labels are numbered by first
occurrence, each edge is flipped so its first arrow reads "along", and the
lexicographically least full encoding wins.

Keys are computed per connected component and joined sorted, which is valid
because equivalences map components to components.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import SizeBoundExceeded
from .limits import CANONICAL_MAX_EDGES, check_size
from .presentation import ArrowPresentation, components

_STATE_CAP = 2_000_000


def _curve_variants(curve):
    """All distinct readings of one curve: rotations x (reverse + flip)."""
    out = []
    n = len(curve)
    forward = tuple(curve)
    backward = tuple(a.reversed() for a in reversed(curve))
    for base in (forward, backward):
        for r in range(n):
            out.append(base[r:] + base[:r])
    return set(out)


def _render(variant, assign, pending):
    """Encode one curve reading under a partial relabelling.

    Returns (encoding, new_assign, new_pending); the encoding numbers labels
    by first occurrence and gives every first occurrence the flag 1, so the
    second occurrence's flag records the twist.
    """
    assign = dict(assign)
    pending = dict(pending)
    enc = []
    for label, along in variant:
        if label in pending:
            enc.append((assign[label], 1 if along == pending.pop(label) else 0))
        elif label in assign:
            raise AssertionError("label seen more than twice")
        else:
            assign[label] = len(assign)
            pending[label] = along
            enc.append((assign[label], 1))
    return tuple(enc), assign, pending


@lru_cache(maxsize=1 << 18)
def _component_key(pres: ArrowPresentation) -> bytes:
    if pres.edge_count == 0:
        return b"()" * len(pres.curves)

    curves = pres.curves
    # state: (encoding so far, used curve mask, assign, pending-first-flags)
    states = [((), 0, {}, {})]
    for _ in range(len(curves)):
        best = None
        next_states = {}
        for enc, used, assign, pending in states:
            tried = set()
            for ci, curve in enumerate(curves):
                if used >> ci & 1 or curve in tried:
                    continue
                tried.add(curve)
                for variant in _curve_variants(curve):
                    piece, assign2, pending2 = _render(variant, assign, pending)
                    cand = enc + (piece,)
                    if best is not None and cand > best:
                        continue
                    if best is None or cand < best:
                        best = cand
                        next_states = {}
                    dedup = (
                        used | 1 << ci,
                        tuple(sorted(assign2.items())),
                        tuple(sorted(pending2.items())),
                    )
                    next_states[dedup] = (cand, used | 1 << ci, assign2, pending2)
        states = list(next_states.values())
        if len(states) > _STATE_CAP:
            raise SizeBoundExceeded("canonical-form search exploded")
    encoding = states[0][0]
    return "|".join(
        " ".join(f"{i}{'+' if f else '-'}" for i, f in piece) for piece in encoding
    ).encode("ascii")


def canonical_key(pres: ArrowPresentation, max_edges: int | None = None) -> bytes:
    """A complete equivalence invariant, as a printable byte string."""
    check_size(pres.edge_count, CANONICAL_MAX_EDGES, max_edges, "canonical-form")
    return b";".join(sorted(_component_key(c) for c in components(pres)))


def equivalent(
    a: ArrowPresentation, b: ArrowPresentation, max_edges: int | None = None
) -> bool:
    """Whether two presentations describe equivalent ribbon graphs."""
    if a.edge_count != b.edge_count or a.vertex_count != b.vertex_count:
        return False
    return canonical_key(a, max_edges) == canonical_key(b, max_edges)
