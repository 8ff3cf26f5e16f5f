"""Growth gates: the near-linear claims, checked by the growth exponent of
the package's executed lines (``growth.exponent``), never by a line count
or a time; where the work is done inside builtins, which executes no line
of the package, by a count of that work."""

import random

import pytest
from closures import braid_closure_pd
from growth import executed_lines, exponent, slope
from plant import planted

from ribbonforge import (
    Arrow,
    all_A_ribbon_graph,
    bbar1_script,
    build_B,
    from_words,
    is_separating_vertex,
    parse_pd,
    partial_dual,
    represents_link,
    surface_summary,
)
from ribbonforge.links import _bouquet_reduction
from ribbonforge.moves import _contract_edges
from ribbonforge.presentation import _min_rotation, _parity, _slot_table
from ribbonforge.surfaces import _spanning_boundaries, _steps, _surface_walk


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


def _closure_pd(crossings):
    """PD text of a random-sign 20-strand braid closure."""
    return braid_closure_pd(crossings, 20, crossings)


def _closure_state_graph(crossings):
    """The all-A state graph of ``_closure_pd``, with the surface summaries
    of earlier graphs dropped, so that every count starts cold."""
    surface_summary.cache_clear()
    return all_A_ribbon_graph(parse_pd(_closure_pd(crossings)))


def test_represents_link_is_near_linear_on_braid_closures():
    sizes = [500, 1000, 2000, 4000]
    assert exponent(represents_link, _closure_state_graph, sizes) <= 1.15


def test_parse_pd_is_near_linear_on_braid_closures():
    sizes = [500, 1000, 2000, 4000]
    assert exponent(parse_pd, _closure_pd, sizes) <= 1.15


def test_all_A_ribbon_graph_is_near_linear_on_braid_closures():
    def code(crossings):
        return parse_pd(_closure_pd(crossings))

    sizes = [500, 1000, 2000, 4000]
    assert exponent(all_A_ribbon_graph, code, sizes) <= 1.15


def _bipartite_bouquet(k):
    """The bouquet K_{k,k}, a1 … ak b1 … bk ak … a1 bk … b1: every a
    interlaces every b and nothing else, k² pairs over 2k loops."""
    a = [f"a{i}" for i in range(k)]
    b = [f"b{i}" for i in range(k)]
    return from_words([a + b + a[::-1] + b[::-1]])


def test_represents_link_is_near_linear_on_bipartite_bouquets():
    sizes = [250, 500, 1000, 2000]
    assert exponent(represents_link, _bipartite_bouquet, sizes) <= 1.15


def _odd_bouquet(k):
    """K_{k,k} with a loop x that interlaces a0 and every b: not bipartite,
    with k² + k pairs over 2k + 1 loops."""
    a = [f"a{i}" for i in range(k)]
    b = [f"b{i}" for i in range(k)]
    return from_words([a[:1] + ["x"] + a[1:] + b + a[::-1] + ["x"] + b[::-1]])


def test_represents_link_is_linear_in_the_pairs_on_odd_bouquets():
    # linear in the k² + k pairs reads 2 in k
    sizes = [16, 32, 64, 128]
    assert exponent(represents_link, _odd_bouquet, sizes) <= 2.15


def _positive_closure_state_graph(crossings):
    """The all-B state graph of a positive 3-strand braid closure, whose
    spanning-tree dual has about crossings² / 10 interlaced pairs."""
    surface_summary.cache_clear()
    pd = braid_closure_pd(crossings, 3, crossings, positive=True)
    return all_A_ribbon_graph(parse_pd(pd), "B")


def test_represents_link_is_near_linear_on_positive_braids_under_b():
    sizes = [500, 1000, 2000, 4000]
    assert exponent(represents_link, _positive_closure_state_graph, sizes) <= 1.15


def _random_curve(n):
    """A bouquet word of n arrows on n / 2 labels, in random order and
    with random directions."""
    rng = random.Random(n)
    arrows = [Arrow(str(i // 2), rng.random() < 0.5) for i in range(n)]
    rng.shuffle(arrows)
    return tuple(arrows)


def test_min_rotation_is_linear_on_random_curves():
    sizes = [1000, 2000, 4000, 8000]
    assert exponent(_min_rotation, _random_curve, sizes) <= 1.15


class _SliceCounting(tuple):
    """A curve that counts the slices taken of it: two per rotation built."""

    slices = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            type(self).slices += 1
        return super().__getitem__(key)


def _rotations_built(min_rotation, n):
    """The rotations ``min_rotation`` builds of a random curve of n arrows,
    whose result is checked against brute force."""
    curve = _random_curve(n)
    least = min(curve[i:] + curve[:i] for i in range(n))
    counted = _SliceCounting(curve)
    _SliceCounting.slices = 0
    assert min_rotation(counted) == least
    return _SliceCounting.slices // 2


@pytest.mark.parametrize("n", [1000, 2000, 4000, 8000])
def test_min_rotation_builds_at_most_two_rotations(n):
    # a line count cannot see rotations built and compared inside min
    assert _rotations_built(_min_rotation, n) <= 2


def test_a_planted_all_rotations_fault_fails_the_rotation_count():
    # min over every rotation: the same answer, and the same line count up
    # to a constant, from n rotations
    every_rotation = planted(
        _min_rotation,
        ("range(curve.count(least) - 1)", "range(len(curve) - 1)"),
        ("curve.index(least, i + 1)", "(i + 1) % len(curve)"),
    )
    assert _rotations_built(every_rotation, 1000) > 2


def _cycle_and_tree(loops):
    """An interlacement cycle of ``loops`` loops and a random tree set."""
    rng = random.Random(loops)
    cycle = tuple(f"e{i}" for i in range(loops))
    return cycle, {label for label in cycle if rng.random() < 0.5}


def test_bouquet_reduction_is_linear_on_odd_cycles():
    sizes = [501, 1001, 2001, 4001]
    growth = exponent(lambda args: _bouquet_reduction(*args), _cycle_and_tree, sizes)
    assert growth <= 1.15


def _ring_of_loops(n):
    """A ring of n curves, each with one loop: every curve separates."""
    return from_words(
        [[f"l{i}", f"l{i}", f"r{i}", f"r{(i - 1) % n}"] for i in range(n)]
    )


def test_is_separating_vertex_is_linear_on_rings_of_loops():
    sizes = [1000, 2000, 4000, 8000]
    growth = exponent(lambda g: is_separating_vertex(g, 0), _ring_of_loops, sizes)
    assert growth <= 1.15


def _twisted_ring(n):
    """A ring of n curves, e_i joining curves i and i + 1, with e_0's second
    arrow reversed: one cycle, of odd twist, through every curve."""
    words = [[f"e{i}", f"e{(i - 1) % n}"] for i in range(n)]
    words[1][1] += "'"
    return from_words(words)


def test_bbar1_script_is_linear_on_twisted_rings():
    # the refusal path: the odd-twist cycle is the whole ring, so the script
    # contracts n − 1 edges and replays them
    sizes = [1000, 2000, 4000, 8000]
    assert exponent(bbar1_script, _twisted_ring, sizes) <= 1.15


def _plane_bouquet_genus(n):
    """The step oracle's genus test of the plane bouquet a0 a0 … an−1 an−1,
    built outside the count."""
    word = [f"a{i}" for i in range(n) for _ in range(2)]
    summary, table, walk = _surface_walk(from_words([word]))
    return _steps(table, walk, summary.euler_genus)[0]


def test_a_contraction_genus_question_is_linear_on_plane_bouquets():
    # contracting an untwisted loop asks whether it is a bridge of the dual:
    # one parity pass over the other edges
    sizes = [1000, 2000, 4000, 8000]
    growth = exponent(lambda genus: genus("a0", True), _plane_bouquet_genus, sizes)
    assert growth <= 1.15


def _bouquet_and_half(n):
    """The bouquet B_n and a seeded random half of its labels."""
    g = build_B(n)
    return g, random.Random(n).sample(g.labels(), n // 2)


def test_a_partial_dual_is_linear_on_bouquets():
    sizes = [1001, 2001, 4001, 8001]
    growth = exponent(lambda args: partial_dual(*args), _bouquet_and_half, sizes)
    assert growth <= 1.15


def test_a_contraction_run_is_linear_on_bouquets():
    sizes = [1001, 2001, 4001, 8001]
    growth = exponent(lambda args: _contract_edges(*args), _bouquet_and_half, sizes)
    assert growth <= 1.15


def test_the_spanning_table_takes_linear_lines_per_subset_on_bouquets():
    # its stated c·2^E·E lines: one walk of the 4E darts for each of the 2^E
    # subsets, so the lines per subset grow linearly in E.  B_E keeps its
    # shape as E grows, where the shape of a random graph does not
    sizes = [6, 8, 10, 12]
    per_subset = [
        executed_lines(_spanning_boundaries, _slot_table(build_B(n))) / 2**n
        for n in sizes
    ]
    assert slope(per_subset, sizes) <= 1.15
