"""Growth gates: the near-linear claims, checked by the growth exponent of
the package's executed lines (``growth.exponent``), never by a count or a
time."""

import random

import pytest
from closures import braid_closure_pd
from growth import exponent

from ribbonforge import (
    all_A_ribbon_graph,
    parse_pd,
    represents_link,
    surface_summary,
)
from ribbonforge.presentation import _parity


def _descending_chain(n):
    """Edges (n − 2, n − 1), ..., (0, 1), each linking the root of the one
    before under the next smaller node, so that node v ends v deep; then
    every node tied back to node 0 from the deepest up, so that the first
    find halves the whole chain."""
    chain = [(v, v + 1, v % 2 == 0) for v in reversed(range(n - 1))]
    return n, chain + [(v, 0, False) for v in reversed(range(n))]


def _random_multigraph(n):
    rng = random.Random(n)
    node = rng.randrange
    return n, [(node(n), node(n), rng.random() < 0.5) for _ in range(2 * n)]


@pytest.mark.parametrize("make", [_descending_chain, _random_multigraph])
def test_the_parity_union_find_is_near_linear(make):
    sizes = [1000, 2000, 4000, 8000]
    assert exponent(lambda graph: _parity(*graph), make, sizes) <= 1.15


def _closure_state_graph(crossings):
    """The all-A state graph of a random-sign 20-strand braid closure, with
    the surface summaries of earlier graphs dropped, so that every count
    starts cold."""
    surface_summary.cache_clear()
    return all_A_ribbon_graph(parse_pd(braid_closure_pd(crossings, 20, crossings)))


def test_represents_link_is_near_linear_on_braid_closures():
    sizes = [500, 1000, 2000, 4000]
    assert exponent(represents_link, _closure_state_graph, sizes) <= 1.15
