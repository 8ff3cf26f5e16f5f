"""Edit operations: edge deletion, contraction, and partial duality.

Contraction and partial duality of an edge e are one splice: a walk of the
arc complex (see ``surfaces``) of the curves carrying e, with e opened.
Opening e removes its two arrows α and β and joins the loose ends by its
free sides, from the head of α to the tail of β and from the head of β to
the tail of α.  For contraction the free sides are plain; for partial
duality each carries a fresh e-labelled arrow pointing the way it was
drawn.  The affected curves fall apart into the cycles of the walk, each
read off as the arrows met along it; all other curves pass through
unchanged.

Partial duality over a set is the splice applied edge by edge (the result is
independent of the order up to equivalence; labels are processed sorted for
determinism).  The classical identities  G^∅ = G,  (G^A)^B = G^(AΔB),
G* = G^E  and  G/e = G^e − e  are exercised by the test suite.
"""

from __future__ import annotations

from typing import Iterable

from .errors import UnknownLabel
from .presentation import ArrowPresentation, presentation
from .surfaces import walk_arcs


def delete_edge(pres: ArrowPresentation, label: str) -> ArrowPresentation:
    """Remove both arrows of an edge; the vertices stay (possibly isolated)."""
    pres.arrow_positions(label)  # validates presence
    return presentation(
        [a for a in curve if a.label != label] for curve in pres.curves
    )


def _splice(pres: ArrowPresentation, label: str, dual: bool) -> ArrowPresentation:
    slots = pres.arrow_positions(label)
    affected = sorted({ci for ci, _ in slots})
    new_curves = [
        arrows for _, arrows in walk_arcs(pres, affected, {label: slots}, dual)
    ]
    out: list = []
    for ci, curve in enumerate(pres.curves):
        if ci == affected[0]:
            out.extend(new_curves)
        elif ci not in affected:
            out.append(curve)
    return presentation(out)


def contract_edge(pres: ArrowPresentation, label: str) -> ArrowPresentation:
    """Contract an edge.  Contracting a loop may split or keep its vertex."""
    return _splice(pres, label, dual=False)


def partial_dual(pres: ArrowPresentation, labels: Iterable[str]) -> ArrowPresentation:
    """The partial dual with respect to a set of edge labels."""
    wanted = sorted(set(labels))
    present = set(pres.labels())
    missing = [l for l in wanted if l not in present]
    if missing:
        raise UnknownLabel(f"labels not present: {', '.join(missing)}")
    out = pres
    for label in wanted:
        out = _splice(out, label, dual=True)
    return out


def geometric_dual(pres: ArrowPresentation) -> ArrowPresentation:
    """The full dual: partial dual with respect to every edge."""
    return partial_dual(pres, pres.labels())
