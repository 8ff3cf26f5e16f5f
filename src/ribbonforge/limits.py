"""Size bounds for the exhaustive searches.

All brute-force machinery (canonical forms, minor search, plane-dual sweeps,
enumeration) refuses inputs above a configured edge count so that runaway
searches fail fast instead of hanging.  Each bound can be overridden per call
via a ``max_edges=`` argument, or globally through the ``RIBBONFORGE_MAX_EDGES``
environment variable.
"""

from __future__ import annotations

import os

from .errors import RibbonError, SizeBoundExceeded

CANONICAL_MAX_EDGES = 8
MINOR_SEARCH_MAX_EDGES = 8
PLANE_DUAL_MAX_EDGES = 12
ENUMERATION_MAX_EDGES = 5


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


def check_size(size: int, default: int, max_edges: int | None, search: str) -> None:
    """Refuse a ``size``-edge input to ``search`` above its bound.

    The bound is ``max_edges`` if given, else the environment override, else
    ``default``.
    """
    bound = max_edges if max_edges is not None else env_override() or default
    if size > bound:
        raise SizeBoundExceeded(
            f"{size} edges exceeds {search} bound {bound}; "
            "raise it with --max-edges or RIBBONFORGE_MAX_EDGES"
        )
