"""Edit operations: edge deletion, contraction, and partial duality.

Contraction and partial duality are one splice: a walk of the arc complex
(see ``surfaces``) of the curves carrying a set of edges, with every edge of
the set opened.  Opening an edge e removes its two arrows α and β and joins
the loose ends by its free sides, from the head of α to the tail of β and
from the head of β to the tail of α.  For contraction the free sides are
plain; for partial duality each carries a fresh e-labelled arrow pointing
the way it was drawn.  The affected curves fall apart into the cycles of the
walk, each read off as the arrows met along it; all other curves pass
through unchanged.

Partial duality over a set opens all of its edges in the one walk, as in
Chmutov's construction of G^A, so it costs one pass over the affected curves
whatever the size of the set.  The classical identities  G^∅ = G,
(G^A)^B = G^(AΔB),  G* = G^E  and  G/e = G^e − e  are exercised by the test
suite.
"""

from __future__ import annotations

from typing import Iterable

from .errors import UnknownLabel
from .presentation import ArrowPresentation, arrow_slots, presentation
from .surfaces import walk_arcs


def delete_edge(pres: ArrowPresentation, label: str) -> ArrowPresentation:
    """Remove both arrows of an edge; the vertices stay (possibly isolated)."""
    pres.arrow_positions(label)  # validates presence
    return presentation(
        [a for a in curve if a.label != label] for curve in pres.curves
    )


def _splice(
    pres: ArrowPresentation, labels: set[str], dual: bool
) -> ArrowPresentation:
    """Open every edge of ``labels`` in one walk; the new curves take the
    place of the first affected curve."""
    if not labels:
        return pres
    slots = arrow_slots(pres)
    missing = sorted(labels - slots.keys())
    if missing:
        raise UnknownLabel(
            f"labels not present: {', '.join(missing)}" if dual
            else f"label {missing[0]!r} not present exactly twice"
        )
    opened = {label: slots[label] for label in labels}
    affected = sorted({ci for pair in opened.values() for ci, _ in pair})
    new_curves = [arrows for _, arrows in walk_arcs(pres, affected, opened, dual)]
    out: list = []
    hit = set(affected)
    for ci, curve in enumerate(pres.curves):
        if ci == affected[0]:
            out.extend(new_curves)
        elif ci not in hit:
            out.append(curve)
    return presentation(out)


def contract_edge(pres: ArrowPresentation, label: str) -> ArrowPresentation:
    """Contract an edge.  Contracting a loop may split or keep its vertex."""
    return _splice(pres, {label}, dual=False)


def partial_dual(pres: ArrowPresentation, labels: Iterable[str]) -> ArrowPresentation:
    """The partial dual with respect to a set of edge labels."""
    return _splice(pres, set(labels), dual=True)


def geometric_dual(pres: ArrowPresentation) -> ArrowPresentation:
    """The full dual: partial dual with respect to every edge."""
    return partial_dual(pres, pres.labels())
