"""Exhaustive and random generation of ribbon graphs.

Two independent generators produce every equivalence class up to a size cap:

* ``enumerate_all`` grows graphs edge by edge — every class on n edges
  arises from some class on n - 1 edges by re-inserting a removed edge's
  two arrows (removing also any vertices that became bare), so inserting
  one new edge in all positions of all smaller classes is complete.
* ``enumerate_by_slots`` builds raw configurations directly: cyclic
  arrangements of 2n arrow slots (one permutation per arrangement, via its
  cycle decomposition), a perfect matching of slots into edges, and a
  direction bit per edge.

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
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator

from .canonical import canonical_key
from .errors import RibbonError
from .limits import ENUMERATION_MAX_EDGES, check_size
from .presentation import (
    EMPTY,
    Arrow,
    ArrowPresentation,
    component_count,
    presentation,
)
from .surfaces import is_orientable

SINGLE_VERTEX = presentation([[]])


@dataclass(frozen=True)
class EnumerationFilter:
    max_edges: int
    connected_only: bool = False
    orientable_only: bool = False
    bouquets_only: bool = False

    def admits(self, pres: ArrowPresentation) -> bool:
        if self.connected_only and component_count(pres) != 1:
            return False
        if self.bouquets_only and len(pres.curves) != 1:
            return False
        if self.orientable_only and not is_orientable(pres):
            return False
        return True


RawCurves = tuple[tuple[Arrow, ...], ...]


def _insertions(curves: RawCurves, arrow: Arrow) -> Iterator[RawCurves]:
    """The arrow placed in every gap of every curve, and on a new vertex."""
    for ci, curve in enumerate(curves):
        for g in range(len(curve) + 1):
            patched = curve[:g] + (arrow,) + curve[g:]
            yield curves[:ci] + (patched,) + curves[ci + 1 :]
    yield curves + ((arrow,),)


def _children(parent: ArrowPresentation, label: str) -> Iterator[ArrowPresentation]:
    """All ways to add one new edge to a parent class."""
    for half in _insertions(parent.curves, Arrow(label, True)):
        for along in (True, False):
            for full in _insertions(half, Arrow(label, along)):
                child = presentation(full)
                if not child.isolated_vertices():
                    yield child


def _layers(max_edges: int) -> Iterator[list[ArrowPresentation]]:
    """Classes with 0, 1, ..., max_edges edges, one representative each."""
    layer = [EMPTY, SINGLE_VERTEX]
    yield layer
    for n in range(1, max_edges + 1):
        seen: dict[bytes, ArrowPresentation] = {}
        for parent in layer:
            for child in _children(parent, f"e{n}"):
                key = canonical_key(child, max_edges)
                if key not in seen:
                    seen[key] = child
        layer = [seen[key] for key in sorted(seen)]
        yield layer


def enumerate_all(filt: EnumerationFilter) -> Iterator[ArrowPresentation]:
    """Every equivalence class within the filter, exactly once.

    Classes appear in increasing edge count, then canonical-key order.
    """
    check_size(filt.max_edges, ENUMERATION_MAX_EDGES, None, "enumeration")
    if filt.max_edges < 0:
        raise RibbonError("max_edges must be >= 0")
    for layer in _layers(filt.max_edges):
        for pres in layer:
            if filt.admits(pres):
                yield pres


def enumerate_presentations(
    max_edges: int,
    connected_only: bool = False,
    orientable_only: bool = False,
    bouquets_only: bool = False,
) -> list[ArrowPresentation]:
    """List form of :func:`enumerate_all`."""
    return list(
        enumerate_all(
            EnumerationFilter(
                max_edges=max_edges,
                connected_only=connected_only,
                orientable_only=orientable_only,
                bouquets_only=bouquets_only,
            )
        )
    )


# -- the independent cross-check generator ------------------------------------


def _matchings(slots: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    if not slots:
        yield ()
        return
    first, rest = slots[0], slots[1:]
    for i, second in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1 :]):
            yield ((first, second),) + tail


def enumerate_by_slots(n: int) -> list[ArrowPresentation]:
    """Classes with exactly n >= 1 edges, built from raw slot configurations.

    Independent of the augmentation generator: arranges the 2n arrow slots
    into directed cycles (one arrangement per permutation of the slots, via
    its cycle decomposition), matches slots into label pairs, and chooses
    the second arrow's direction per edge.  Exponential in n; meant for
    cross-checking at tiny sizes.
    """
    if n < 1:
        raise RibbonError("slot enumeration needs n >= 1")
    slots = tuple(range(2 * n))
    arrangements: list[tuple[tuple[int, ...], ...]] = []
    for perm in permutations(slots):
        cycles: list[tuple[int, ...]] = []
        seen_slots: set[int] = set()
        for s in slots:
            if s in seen_slots:
                continue
            cyc = [s]
            seen_slots.add(s)
            t = perm[s]
            while t != s:
                cyc.append(t)
                seen_slots.add(t)
                t = perm[t]
            cycles.append(tuple(cyc))
        arrangements.append(tuple(cycles))
    seen: dict[bytes, ArrowPresentation] = {}
    for match in _matchings(slots):
        label_of = {}
        first_slot = {}
        for idx, (a, b) in enumerate(match):
            name = f"e{idx + 1}"
            label_of[a] = label_of[b] = name
            first_slot[name] = min(a, b)
        for cycles in arrangements:
            for flags in product((True, False), repeat=n):
                flip = {f"e{i + 1}": flags[i] for i in range(n)}
                curves = [
                    tuple(
                        Arrow(
                            label_of[s],
                            True if s == first_slot[label_of[s]] else flip[label_of[s]],
                        )
                        for s in cyc
                    )
                    for cyc in cycles
                ]
                pres = presentation(curves)
                key = canonical_key(pres)
                if key not in seen:
                    seen[key] = pres
    return [seen[key] for key in sorted(seen)]


# -- seeded random graphs ------------------------------------------------------


def random_ribbon_graph(n: int, seed) -> ArrowPresentation:
    """A valid presentation with n edges, deterministic in (n, seed).

    Uniform over raw configurations: shuffled arrow order, random
    directions, and a random split into between 1 and n vertices.  Not
    uniform over equivalence classes.
    """
    if not 0 <= n <= 32:
        raise RibbonError("edge count must be between 0 and 32")
    if n == 0:
        return EMPTY
    rng = random.Random(f"{n}|{seed}")
    order = [f"e{i}" for i in range(1, n + 1)] * 2
    rng.shuffle(order)
    arrows = [Arrow(label, rng.random() < 0.5) for label in order]
    curve_count = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, 2 * n), curve_count - 1))
    bounds = [0] + cuts + [2 * n]
    curves = [arrows[a:b] for a, b in zip(bounds, bounds[1:])]
    return presentation(curves)
