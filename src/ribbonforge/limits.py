"""Size bounds for the exhaustive searches.

All brute-force machinery (minor search, plane-dual sweeps, enumeration,
and the slot-configuration cross-check ``enumerate_by_slots``, which walks
(2n)! * 2^n configurations for n edges) refuses inputs above a configured
edge count so that runaway searches fail fast instead of hanging; canonical
forms are polynomial but keep a bound too.  The one ``check_size`` makes
every refusal.  A search checks its bound once, at its start: what it
builds from its input never has more edges, so its own canonical keys are
taken unchecked.  The edge-count bounds can be raised globally through the
``RIBBONFORGE_MAX_EDGES`` environment variable, which never lowers a
default, and, except the two enumerations', set per call via a
``max_edges=`` argument (the ``--max-edges`` flag).
``MINOR_SEARCH_MEMO_LIMIT`` caps the equivalence classes one minor search
remembers (B3 and theta_t share one in a scan); it has no override.  It
counts the classes of the children the search builds and keys.  A child
whose Euler genus is below every target's is never built, nor is a
non-orientable child of a non-orientable state below that state's genus
floor (both read off the parent by one step oracle, ``surfaces._steps``),
nor a child whose least partial-dual genus, read off the start's table of
spanning boundaries, is below its floor, so such classes are not counted.
A search also remembers the operation set (edges kept and contracted as
two bitmasks, vertices deleted as a count) of each child it builds, at
most 2E + 1 per expanded state of E edges, and of no child it skips; the
cap counts only classes.  The table itself holds 2^E counts for a start
of E edges, one per search.  ``check_count`` refuses a count, such as a family
index or a size to generate, that is not an int in range; a bool is not.
"""

from __future__ import annotations

import os

from .errors import RibbonError, SizeBoundExceeded

CANONICAL_MAX_EDGES = 8
MINOR_SEARCH_MAX_EDGES = 8
MINOR_SEARCH_MEMO_LIMIT = 1_000_000
PLANE_DUAL_MAX_EDGES = 12
ENUMERATION_MAX_EDGES = 5
SLOT_ENUMERATION_MAX_EDGES = 4


def env_override() -> int | None:
    """The global bound override from RIBBONFORGE_MAX_EDGES, if set.

    A value that is not a positive integer is bad input and raises.
    """
    raw = os.environ.get("RIBBONFORGE_MAX_EDGES")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise RibbonError(
            f"RIBBONFORGE_MAX_EDGES must be a positive integer, not {raw!r}"
        )
    return value


def check_count(value, name: str, least: int, most: int | None = None) -> None:
    """Refuse a count that is not an int from ``least`` to ``most``: a bool
    or a float is bad input even where it equals an int."""
    if type(value) is not int or value < least or most is not None and value > most:
        span = f">= {least}" if most is None else f"from {least} to {most}"
        raise RibbonError(f"{name} must be an int {span}, not {value!r}")


def check_size(size: int, default: int, max_edges: int | None, search: str) -> None:
    """Refuse a ``size``-edge input to ``search`` above its bound.

    The bound is ``max_edges`` if given, else the larger of ``default`` and
    the environment override.  A ``max_edges`` that is a bool, not an int,
    or negative is bad input, whatever the size; 0 is a bound like any
    other.  The refusal names only what can raise the bound: not the
    environment past an explicit ``max_edges``, and no flag for the two
    enumerations, which take no per-call bound.
    """
    if max_edges is None:
        bound = max(default, env_override() or 0)
    elif type(max_edges) is not int:
        raise RibbonError(f"max_edges must be an int, not {max_edges!r}")
    elif max_edges < 0:
        raise RibbonError(f"max_edges must be >= 0, not {max_edges}")
    else:
        bound = max_edges
    if size > bound:
        flag = [] if search in ("enumeration", "slot enumeration") else ["--max-edges"]
        env = [] if max_edges is not None else ["RIBBONFORGE_MAX_EDGES"]
        raise SizeBoundExceeded(
            f"{size} edges exceeds {search} bound {bound}; "
            f"raise it with {' or '.join(flag + env)}"
        )
