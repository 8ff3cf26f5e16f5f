"""Boundary tracing, genus, orientability: frozen small oracles + identities."""

import random
from itertools import product

from ribbonforge import (
    EMPTY,
    boundary_component_count,
    build_B,
    build_Bbar1,
    build_theta_t,
    equivalent,
    euler_genus,
    from_words,
    is_orientable,
    is_plane,
    random_ribbon_graph,
    surface_summary,
    trace_boundary,
    twists,
)
from ribbonforge.surfaces import odd_twist_cycle

# (words, vertices, edges, boundary, euler_genus, orientable) — hand-traced
FROZEN = [
    ([["a", "a"]], 1, 1, 2, 0, True),  # untwisted loop: annulus
    ([["a", "a'"]], 1, 1, 1, 1, False),  # twisted loop: Moebius band
    ([["a"], ["a"]], 2, 1, 1, 0, True),  # single edge between two vertices
    ([["a", "b", "a", "b"]], 1, 2, 1, 2, True),  # interlaced pair: torus
    ([["a", "a", "b", "b"]], 1, 2, 3, 0, True),  # two trivial loops: plane
    # interlaced twisted pair: the crosscaps merge (projective plane),
    # unlike the non-interlaced row below where they stack (Klein bottle)
    ([["a", "b", "a'", "b'"]], 1, 2, 2, 1, False),
    ([["a", "a'", "b", "b'"]], 1, 2, 1, 2, False),  # two twisted loops
    ([["e2", "e1", "e3", "e2", "e1", "e3"]], 1, 3, 2, 2, True),  # B3
    ([["e2", "e1'", "e3"], ["e3", "e2", "e1'"]], 2, 3, 1, 2, True),  # theta
    ([["a", "b"], ["a", "b"]], 2, 2, 2, 0, True),  # bigon
    ([["a", "b"], ["a", "b'"]], 2, 2, 1, 1, False),  # twisted bigon
]


def test_frozen_surface_oracles():
    for words, v, e, f, genus, orient in FROZEN:
        s = surface_summary(from_words(words))
        got = (s.vertices, s.edges, s.boundary, s.euler_genus, s.orientable)
        assert got == (v, e, f, genus, orient), (words, got)


def test_empty_and_bare_vertex():
    assert surface_summary(EMPTY).boundary == 0
    assert surface_summary(EMPTY).euler_genus == 0
    one = from_words([[]])
    s = surface_summary(one)
    assert (s.vertices, s.edges, s.boundary, s.euler_genus) == (1, 0, 1, 0)
    assert is_plane(one)


def test_boundary_walks_cover_every_edge_twice():
    rng = random.Random("walks")
    for i in range(100):
        g = random_ribbon_graph(rng.randint(1, 6), f"bw-{i}")
        walks, edge_walks = trace_boundary(g)
        assert len(walks) == boundary_component_count(g)
        assert set(edge_walks) == set(g.labels())
        for w1, w2 in edge_walks.values():
            assert 0 <= w1 < len(walks) and 0 <= w2 < len(walks)


def test_trace_boundary_walk_order_is_pinned():
    walks, edge_walks = trace_boundary(from_words([["a", "b", "a", "b"]]))
    assert walks == [(
        (0, 0, 0), (0, 3, 1), (0, 1, 0), (0, 0, 1),
        (0, 2, 0), (0, 1, 1), (0, 3, 0), (0, 2, 1),
    )]
    assert edge_walks == {"a": (0, 0), "b": (0, 0)}


def test_twists_and_orientability():
    g = from_words([["a", "b", "a'", "b"]])
    t = twists(g)
    assert t["a"] == -1 and t["b"] == 1
    assert not is_orientable(g)
    assert is_orientable(build_B(3))
    assert not is_orientable(build_Bbar1())


def test_twisted_non_loop_edge_alone_is_orientable():
    # a single twisted edge between two vertices flattens by flipping one side
    g = from_words([["a"], ["a'"]])
    assert is_orientable(g)
    assert euler_genus(g) == 0


def test_odd_twist_cycle_takes_components_in_root_order():
    # components {0, 2, 3} and {1, 4} interleave; the conflict at curve 1
    # has the least endpoint overall, but the component of curve 0 comes first
    g = from_words([["a", "b"], ["d", "e"], ["a", "c"], ["b", "c'"], ["d", "e'"]])
    assert odd_twist_cycle(g) == (["a", "b"], "c")
    assert odd_twist_cycle(from_words([["a", "b'", "b", "a'"]])) == ([], "a")
    assert odd_twist_cycle(build_B(5)) is None


def test_orientability_against_curve_flips():
    # orientable exactly when reversing some curves untwists every edge
    rng = random.Random("flips")
    for i in range(200):
        g = random_ribbon_graph(rng.randint(1, 8), f"of-{i}")
        ends = {}
        for ci, curve in enumerate(g.curves):
            for arrow in curve:
                ends.setdefault(arrow.label, []).append((ci, arrow.along))
        flattenable = any(
            all((a ^ flip[c]) == (b ^ flip[d]) for (c, a), (d, b) in ends.values())
            for flip in product((False, True), repeat=g.vertex_count)
        )
        assert is_orientable(g) == flattenable == (odd_twist_cycle(g) is None), g


def test_euler_formula_on_random_graphs():
    rng = random.Random("euler")
    for i in range(300):
        g = random_ribbon_graph(rng.randint(0, 6), f"ef-{i}")
        s = surface_summary(g)
        # Euler characteristic of the glued surface: 2·components − genus
        assert s.vertices - s.edges + s.boundary == 2 * s.components - s.euler_genus
        if s.orientable:
            assert s.euler_genus % 2 == 0
            assert s.genus == s.euler_genus // 2
        else:
            assert s.genus == s.euler_genus


def test_genus_additive_over_components():
    a = from_words([["a", "b", "a", "b"]])
    b = build_Bbar1()
    both = from_words([["a", "b", "a", "b"], ["c", "c'"]])
    assert euler_genus(both) == euler_genus(a) + euler_genus(b)


def test_equivalent_presentations_share_summary():
    theta = build_theta_t()
    b3 = build_B(3)
    relabeled = from_words([["x2", "x1", "x3", "x2", "x1", "x3"]])
    assert equivalent(b3, relabeled)
    assert surface_summary(b3).as_dict() == surface_summary(relabeled).as_dict()
    assert surface_summary(theta).boundary == 1


def test_summary_as_dict_keys():
    d = surface_summary(build_B(3)).as_dict()
    assert set(d) == {
        "vertices",
        "edges",
        "boundary",
        "components",
        "euler_genus",
        "genus",
        "orientable",
    }
