"""Exhaustive and random generation of ribbon graphs.

Two independent generators produce every equivalence class up to a size cap:

* ``enumerate_presentations`` grows graphs edge by edge — every class on
  n edges arises from some class on n - 1 edges by re-inserting a removed
  edge's two arrows (removing also any vertices that became bare), so
  inserting one new edge in each cyclic gap of all smaller classes is
  complete.  A curve is read up to rotation, so the gap after its last arrow
  is its first gap; that gap is tried first, so skipping its repeat leaves
  every representative as it was.  The new edge's first arrow always
  points along and its second either way, so a placement can be reached
  from either arrow placed first: as the same curves when both point
  along, and otherwise as its twin, the same curves with both new arrows
  reversed, which is the same ribbon graph.  A parent builds each
  placement only the first time it reaches it or its twin, so a skipped
  child's class was already reached and every representative stays.
  Each layer (the classes with n edges) is built once per process, from
  the layer below, and every call filters the cached layers.
* ``enumerate_by_slots`` builds raw configurations directly: cyclic
  arrangements of 2n arrow slots (one permutation per arrangement, via its
  cycle decomposition), slots 2i and 2i+1 as the two arrows of edge e(i+1)
  (the fixed edge involution of a rotation system, onto which a renaming
  of the slots carries any other pairing), and a direction bit per edge.

Their agreement on small sizes is an acceptance check.  Except for the two
zero-edge classes (the empty graph and the bare vertex), emitted classes
never contain isolated vertices: any graph is such a class plus bare
vertices, which affect no invariant computed here.

``random_ribbon_graph`` draws uniformly over raw configurations (not over
equivalence classes — popular classes appear more often), which is the
right trade-off for seeding property tests.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations, product
from typing import Iterator

from .canonical import _key
from .limits import (
    ENUMERATION_MAX_EDGES,
    SLOT_ENUMERATION_MAX_EDGES,
    check_count,
    check_size,
)
from .presentation import (
    EMPTY,
    Arrow,
    ArrowPresentation,
    _trusted,
    component_count,
    presentation,
)
from .surfaces import is_orientable

SINGLE_VERTEX = presentation([[]])

RawCurves = tuple[tuple[Arrow, ...], ...]


def _gaps(curves: RawCurves) -> Iterator[tuple[int, int]]:
    """(curve index, gap) for each cyclic gap of every curve, then a new vertex."""
    for ci, curve in enumerate(curves):
        for g in range(max(1, len(curve))):
            yield ci, g
    yield len(curves), 0


def _insert(curves: RawCurves, ci: int, g: int, arrow: Arrow) -> RawCurves:
    """The arrow placed in gap g of curve ci, or on a new vertex past the last."""
    if ci == len(curves):
        return curves + ((arrow,),)
    curve = curves[ci]
    return curves[:ci] + (curve[:g] + (arrow,) + curve[g:],) + curves[ci + 1 :]


def _children(parent: ArrowPresentation, label: str) -> Iterator[ArrowPresentation]:
    """All ways to add one new edge to a parent class, each placement once.

    A placement is the pair of final slots of the new edge's two arrows and
    whether the second points along; the first always does.  Either arrow
    can be the one placed first, so a placement is built only the first
    time it is reached (see the module docstring).
    """
    placed: set[tuple[tuple[int, int], tuple[int, int], bool]] = set()
    for ci, g in _gaps(parent.curves):
        half = _insert(parent.curves, ci, g, Arrow(label, True))
        for along in (True, False):
            second = Arrow(label, along)
            for cj, h in _gaps(half):
                # the first arrow moves up one if the second goes before it
                first = (ci, g + 1) if cj == ci and h <= g else (ci, g)
                placement = (min(first, (cj, h)), max(first, (cj, h)), along)
                if placement in placed:
                    continue
                placed.add(placement)
                child = _trusted(_insert(half, cj, h, second))
                if not child.isolated_vertices():
                    yield child


@lru_cache(maxsize=None)
def _layer(n: int) -> tuple[ArrowPresentation, ...]:
    """The classes with n edges, one representative each, in key order."""
    if n == 0:
        return (EMPTY, SINGLE_VERTEX)
    seen: dict[bytes, ArrowPresentation] = {}
    for parent in _layer(n - 1):
        for child in _children(parent, f"e{n}"):
            seen.setdefault(_key(child), child)
    return tuple(seen[key] for key in sorted(seen))


def enumerate_presentations(
    max_edges: int,
    connected_only: bool = False,
    orientable_only: bool = False,
    bouquets_only: bool = False,
) -> list[ArrowPresentation]:
    """Every equivalence class with at most ``max_edges`` edges, exactly once.

    Classes appear in increasing edge count, then canonical-key order.  The
    flags keep only connected graphs, orientable graphs, or bouquets (one
    vertex).
    """
    check_count(max_edges, "max_edges", 0)
    check_size(max_edges, ENUMERATION_MAX_EDGES, None, "enumeration")
    return [
        pres
        for n in range(max_edges + 1)
        for pres in _layer(n)
        if (not connected_only or component_count(pres) == 1)
        and (not bouquets_only or len(pres.curves) == 1)
        and (not orientable_only or is_orientable(pres))
    ]


# -- the independent cross-check generator ------------------------------------


def enumerate_by_slots(n: int) -> list[ArrowPresentation]:
    """Classes with exactly n >= 1 edges, built from raw slot configurations.

    Independent of the augmentation generator: arranges the 2n arrow slots
    into directed cycles (one arrangement per permutation of the slots, via
    its cycle decomposition), labels slots 2i and 2i+1 as edge e(i+1), and
    chooses the second arrow's direction per edge.  One pairing suffices:
    renaming the slots carries any other pairing onto it and the
    arrangement onto another permutation, which is enumerated too.
    Walks (2n)! * 2^n configurations, so it is meant for cross-checking at
    tiny sizes and refuses n above ``SLOT_ENUMERATION_MAX_EDGES``.
    """
    check_count(n, "n", 1)
    check_size(n, SLOT_ENUMERATION_MAX_EDGES, None, "slot enumeration")
    slots = range(2 * n)
    arrows = {(s, d): Arrow(f"e{s // 2 + 1}", d) for s in slots for d in (True, False)}
    seen: dict[bytes, ArrowPresentation] = {}
    for perm in permutations(slots):
        cycles: list[list[int]] = []
        done: set[int] = set()
        for s in slots:
            cyc = []
            while s not in done:
                done.add(s)
                cyc.append(s)
                s = perm[s]
            if cyc:
                cycles.append(cyc)
        for flags in product((True, False), repeat=n):
            pres = presentation(
                [arrows[s, s % 2 == 0 or flags[s // 2]] for s in cyc]
                for cyc in cycles
            )
            seen.setdefault(_key(pres), pres)
    return [seen[key] for key in sorted(seen)]


# -- seeded random graphs ------------------------------------------------------


def random_ribbon_graph(n: int, seed) -> ArrowPresentation:
    """A valid presentation with n edges, deterministic in (n, seed).

    Uniform over raw configurations: shuffled arrow order, random
    directions, and a random split into between 1 and n vertices.  Not
    uniform over equivalence classes.
    """
    check_count(n, "edge count", 0, 32)
    if n == 0:
        return EMPTY
    rng = random.Random(f"{n}|{seed}")
    order = [f"e{i}" for i in range(1, n + 1)] * 2
    rng.shuffle(order)
    arrows = [Arrow(label, rng.random() < 0.5) for label in order]
    curve_count = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, 2 * n), curve_count - 1))
    bounds = [0] + cuts + [2 * n]
    return _trusted(arrows[a:b] for a, b in zip(bounds, bounds[1:]))
