"""Edit operations: edge deletion, contraction, and partial duality.

Deletion and contraction take runs of edges (``_delete_edges``, one filter
pass, and ``_contract_edges``, one splice), as ``minors.replay`` batches
them; ``delete_edge`` and ``contract_edge`` are their one-label cases.  A
run is refused at its first absent or repeated label, as step by step.

Contraction and partial duality are one splice: a walk of the arc complex
(see ``surfaces``) of the curves carrying a set of edges, with every edge of
the set opened.  Opening an edge e removes its two arrows α and β and joins
the loose ends by its free sides, from the head of α to the tail of β and
from the head of β to the tail of α.  The affected curves fall apart into
the cycles of the walk, each written during the walk itself
(``surfaces._splice_words``) as the arrows on the cross arcs it takes: for
contraction the free sides are bare, and for partial duality each carries
a fresh e-labelled arrow pointing the way it is walked.  Only the new
curves are then rotation-normalized; all other curves pass through
unchanged.

Partial duality over a set opens all of its edges in the one walk, as in
Chmutov's construction of G^A, so it costs one pass over the affected curves
whatever the size of the set.  The classical identities  G^∅ = G,
(G^A)^B = G^(AΔB),  G* = G^E  and  G/e = G^e − e  are exercised by the test
suite.
"""

from __future__ import annotations

from typing import Collection, Iterable

from .errors import UnknownLabel
from .presentation import ArrowPresentation, _min_rotation, _slot_table
from .surfaces import _open, _splice_words


def _unknown(pres: ArrowPresentation, labels: list[str]) -> UnknownLabel:
    """The refusal of a run of edge steps with a bad label: at its first
    label that is absent or already used by the run, as step by step."""
    present = set(pres.labels())
    for label in labels:
        if label not in present:
            break
        present.remove(label)
    return UnknownLabel(f"label {label!r} not present exactly twice")


def _delete_edges(pres: ArrowPresentation, labels: list[str]) -> ArrowPresentation:
    """Remove both arrows of each edge of a run; the vertices stay.  Only
    the curves that lose an arrow are filtered and rotation-normalized
    again; the others are kept as they are."""
    doomed = set(labels)
    curves = []
    removed = 0
    for curve in pres.curves:
        kept = tuple(a for a in curve if a.label not in doomed)
        if len(kept) < len(curve):
            removed += len(curve) - len(kept)
            curve = _min_rotation(kept)
        curves.append(curve)
    if removed != 2 * len(labels):
        raise _unknown(pres, labels)
    return ArrowPresentation(tuple(curves))


def delete_edge(pres: ArrowPresentation, label: str) -> ArrowPresentation:
    """Remove both arrows of an edge; the vertices stay (possibly isolated)."""
    return _delete_edges(pres, [label])


def _splice(
    pres: ArrowPresentation, labels: Collection[str], dual: bool
) -> ArrowPresentation:
    """Open every edge of ``labels``, a set for a dual and a run for a
    contraction, in one walk, which writes the new curves as it goes; they
    take the place of the first affected curve.  The slot table finds the
    slots of those labels, and refuses an absent label, or for a
    contraction run a repeated one, as step by step.  Untouched curves are
    reused as they are, and only the new ones are rotation-normalized."""
    if not labels:
        return pres
    table = _slot_table(pres)
    first, mate, curve_of = table.first, table.mate, table.curve
    run = labels if dual else set(labels)
    if not first.keys() >= run or len(run) < len(labels):
        if not dual:
            raise _unknown(pres, labels)
        missing = sorted(map(str, run - first.keys()))
        raise UnknownLabel(f"labels not present: {', '.join(missing)}")
    affected = sorted(
        {curve_of[s] for label in run for s in (first[label], mate[first[label]])}
    )
    opened = _open(table, run)
    new_curves = map(_min_rotation, _splice_words(table, affected, opened, dual))
    out: list = []
    hit = set(affected)
    for ci, curve in enumerate(pres.curves):
        if ci == affected[0]:
            out.extend(new_curves)
        elif ci not in hit:
            out.append(curve)
    return ArrowPresentation(tuple(out))


def _contract_edges(pres: ArrowPresentation, labels: list[str]) -> ArrowPresentation:
    """Contract each edge of a run, all in one splice."""
    return _splice(pres, labels, dual=False)


def contract_edge(pres: ArrowPresentation, label: str) -> ArrowPresentation:
    """Contract an edge.  Contracting a loop may split or keep its vertex."""
    return _contract_edges(pres, [label])


def partial_dual(pres: ArrowPresentation, labels: Iterable[str]) -> ArrowPresentation:
    """The partial dual with respect to a set of edge labels."""
    return _splice(pres, set(labels), dual=True)


def geometric_dual(pres: ArrowPresentation) -> ArrowPresentation:
    """The full dual: partial dual with respect to every edge."""
    return partial_dual(pres, pres.labels())
