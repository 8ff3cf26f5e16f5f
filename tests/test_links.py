"""Diagram ingestion, interlacement, biseparations, the representability verdict."""

import random
import re
from importlib import resources
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonforge import (
    MinorScript,
    NotABouquet,
    OrientabilityViolation,
    ParseError,
    RibbonError,
    StrandCountError,
    UnknownLabel,
    all_A_ribbon_graph,
    brute_force_plane_dual,
    build_B,
    build_Bbar1,
    build_theta_t,
    components,
    contract_edge,
    defines_plane_biseparation,
    disjoint_union,
    enumerate_presentations,
    equivalent,
    euler_genus,
    from_words,
    has_minor,
    intersection_graph,
    is_orientable,
    is_separating_vertex,
    parse_pd,
    partial_dual,
    pd_code,
    random_ribbon_graph,
    replay,
    represents_link,
    restriction,
    serialize_pd,
    spanning_tree,
)
from ribbonforge.links import IntersectionGraph, _bouquet_reduction, _two_colour

TORUS = from_words([["a", "b", "a", "b"]])
PATTERN = {
    "bbar1": build_Bbar1,
    "b3": lambda: build_B(3),
    "theta_t": build_theta_t,
}


def fixture(name: str) -> str:
    return resources.files("ribbonforge").joinpath("data", name).read_text()


# -- PD codes -----------------------------------------------------------------


def test_pd_parse_and_serialize_round_trip():
    code = parse_pd("X(1,4,2,5) X(3,6,4,1)  # comment\nX 5 2 6 3")
    assert len(code.crossings) == 3
    assert parse_pd(serialize_pd(code)) == code
    assert code.strand_labels == ("1", "2", "3", "4", "5", "6")


def test_pd_validation_errors():
    with pytest.raises(StrandCountError):
        pd_code([("1", "2", "2", "3")])
    with pytest.raises(ParseError):
        pd_code([("1", "2", "3")])
    with pytest.raises(ParseError):
        parse_pd("Y(1,2,2,1)")
    with pytest.raises(ParseError):
        parse_pd("X(1,2,2)")


def test_curl_state_graphs():
    curl = parse_pd("X(1,2,2,1)")
    assert all_A_ribbon_graph(curl).words() == [["1", "1"]]
    b_side = all_A_ribbon_graph(curl, "B")
    assert equivalent(b_side, from_words([["1"], ["1"]]))
    with pytest.raises(RibbonError):
        all_A_ribbon_graph(curl, "Z")


def test_fixture_diagrams():
    oracle = re.search(r"state_circles:\s*(\d+)", fixture("trefoil.pd"))
    trefoil = all_A_ribbon_graph(parse_pd(fixture("trefoil.pd")))
    assert trefoil.vertex_count == int(oracle.group(1)) == 3
    assert trefoil.edge_count == 3
    for name, circles, crossings in (
        ("trefoil.pd", 3, 3),
        ("figure8.pd", 3, 4),
        ("hopf.pd", 2, 2),
    ):
        g = all_A_ribbon_graph(parse_pd(fixture(name)))
        assert (g.vertex_count, g.edge_count) == (circles, crossings)
        assert is_orientable(g)
        verdict = represents_link(g)
        assert verdict.representable
        assert euler_genus(partial_dual(g, set(verdict.witness))) == 0


def test_state_graphs_of_honest_diagrams_are_orientable():
    # split unions of the fixture diagrams, with strands renamed apart
    codes = [parse_pd(fixture(n)) for n in ("trefoil.pd", "figure8.pd", "hopf.pd")]
    rows = []
    for i, code in enumerate(codes):
        rows.extend(tuple(f"{i}.{s}" for s in cr) for cr in code.crossings)
    union = pd_code(rows)
    for conv in ("A", "B"):
        g = all_A_ribbon_graph(union, conv)
        assert is_orientable(g)
        assert g.edge_count == len(rows)
        assert represents_link(g, certificates=False).representable


def test_unrealizable_code_trips_the_orientability_guard():
    # a strand passing straight through both slots encodes a twisted band;
    # no link diagram produces it, and it must be rejected, not returned
    with pytest.raises(OrientabilityViolation):
        all_A_ribbon_graph(pd_code([("1", "2", "1", "2")]))


def test_random_codes_never_yield_broken_state_graphs():
    # arbitrary label-valid codes either build an orientable graph or trip
    # the guard; nothing non-orientable ever escapes
    rng = random.Random("pd")
    built = rejected = 0
    for i in range(60):
        n = rng.randint(1, 5)
        strands = [str(s) for s in range(1, 2 * n + 1)] * 2
        rng.shuffle(strands)
        code = pd_code([strands[4 * k : 4 * k + 4] for k in range(n)])
        try:
            g = all_A_ribbon_graph(code)
        except OrientabilityViolation:
            rejected += 1
            continue
        built += 1
        assert is_orientable(g)
        assert g.edge_count == n
    assert built and rejected


# -- interlacement ------------------------------------------------------------


def test_intersection_graph_small():
    assert intersection_graph(TORUS).as_dict() == {
        "vertices": ["a", "b"],
        "edges": [["a", "b"]],
    }
    triangle = intersection_graph(build_B(3))
    assert len(triangle.edges) == 3
    assert triangle.adjacent("e1", "e2")
    assert triangle.neighbours("e1") == ["e2", "e3"]
    nested = intersection_graph(from_words([["a", "b", "b", "a"]]))
    assert nested.edges == frozenset()
    with pytest.raises(NotABouquet):
        intersection_graph(from_words([["a"], ["a"]]))


def test_intersection_graph_of_odd_cycle_family():
    for n in (3, 5, 7):
        graph = intersection_graph(build_B(n))
        assert all(len(graph.neighbours(v)) == 2 for v in graph.vertices)
        assert len(graph.edges) == n


def _interlacement_by_pairs(pres):
    """Reference: e ~ f iff exactly one end of f lies between the ends of e."""
    pos = {}
    for i, arrow in enumerate(pres.curves[0]):
        pos.setdefault(arrow.label, []).append(i)
    edges = set()
    for e, f in combinations(sorted(pos), 2):
        i, j = pos[e]
        if sum(1 for p in pos[f] if i < p < j) == 1:
            edges.add((e, f))
    return IntersectionGraph(tuple(sorted(pos)), frozenset(edges))


@st.composite
def _bouquets(draw):
    n = draw(st.integers(min_value=0, max_value=14))
    tokens = [f"e{i}" for i in range(n)] * 2  # "e10" < "e2": order as strings
    word = draw(st.permutations(tokens))
    flips = draw(st.lists(st.booleans(), min_size=2 * n, max_size=2 * n))
    return from_words([[t + "'" if f else t for t, f in zip(word, flips)]])


@settings(max_examples=400, deadline=None)
@given(_bouquets())
def test_intersection_graph_matches_pairwise_definition(bouquet):
    assert intersection_graph(bouquet) == _interlacement_by_pairs(bouquet)


# -- separating vertices and plane biseparations -------------------------------


def test_is_separating_vertex():
    # a one-vertex graph with two or more edges always splits at its vertex
    assert is_separating_vertex(TORUS, 0)
    assert is_separating_vertex(from_words([["a", "a", "b", "b"]]), 0)
    assert not is_separating_vertex(from_words([["a"], ["a"]]), 0)
    assert not is_separating_vertex(from_words([[]]), 0)
    # two loop blocks hanging off each end of a path edge: ends separate
    barbell = from_words([["a", "a", "c"], ["b", "b", "c"]])
    assert is_separating_vertex(barbell, 0)
    assert is_separating_vertex(barbell, 1)
    from ribbonforge import UnknownVertex

    with pytest.raises(UnknownVertex):
        is_separating_vertex(TORUS, 5)


def test_plane_biseparation_examples():
    assert defines_plane_biseparation(TORUS, {"a"})
    assert defines_plane_biseparation(TORUS, {"b"})
    assert not defines_plane_biseparation(TORUS, set())
    b3 = build_B(3)
    for r in range(4):
        for sub in combinations(b3.labels(), r):
            assert not defines_plane_biseparation(b3, set(sub))
    assert not defines_plane_biseparation(build_theta_t(), {"e1"})
    with pytest.raises(UnknownLabel):
        defines_plane_biseparation(TORUS, {"z"})


def test_plane_pieces_meeting_in_a_cycle_are_rejected():
    # both sides are plane and every shared vertex separates, yet the two
    # pieces meet at both vertices, closing a chain whose extra homology
    # lifts the genus of the partial dual — so no biseparation
    g = from_words([["e1", "e2", "e3", "e3"], ["e1", "e2'", "e4", "e4"]])
    side = {"e1"}
    assert euler_genus(restriction(g, side)) == 0
    assert euler_genus(restriction(g, {"e2", "e3", "e4"})) == 0
    assert euler_genus(partial_dual(g, side)) != 0
    assert not defines_plane_biseparation(g, side)


def test_biseparation_matches_plane_partial_duals():
    rng = random.Random("bisep")
    for i in range(150):
        g = random_ribbon_graph(rng.randint(1, 5), f"bs-{i}")
        labels = g.labels()
        for _ in range(4):
            sub = {l for l in labels if rng.random() < 0.5}
            expected = euler_genus(partial_dual(g, sub)) == 0
            assert defines_plane_biseparation(g, sub) == expected


def test_brute_force_plane_dual():
    assert brute_force_plane_dual(TORUS) == ("a",)
    assert brute_force_plane_dual(build_B(3)) is None
    assert brute_force_plane_dual(from_words([["a", "a"]])) == ()
    assert brute_force_plane_dual(build_Bbar1()) is None


# -- the representability verdict ----------------------------------------------


def test_verdict_on_the_three_patterns():
    for name, build in PATTERN.items():
        verdict = represents_link(build())
        assert not verdict.representable
        assert verdict.witness is None
        assert verdict.certificate_target == name
        assert equivalent(replay(build(), verdict.certificate), build())
    assert represents_link(build_B(3)).odd_cycle is not None
    assert len(represents_link(build_B(5)).odd_cycle) == 5


def test_verdict_positive_carries_plane_witness():
    verdict = represents_link(TORUS)
    assert verdict.representable
    assert verdict.certificate is None
    assert euler_genus(partial_dual(TORUS, set(verdict.witness))) == 0


def test_verdict_non_orientable_certificate():
    g = disjoint_union(build_Bbar1(), from_words([["a", "a"]]))
    verdict = represents_link(g)
    assert not verdict.representable
    assert verdict.certificate_target == "bbar1"
    assert equivalent(replay(g, verdict.certificate), build_Bbar1())


def test_verdict_certificates_can_be_skipped():
    verdict = represents_link(build_B(3), certificates=False)
    assert not verdict.representable
    assert verdict.certificate is None and verdict.certificate_target is None


def test_verdict_as_dict_shape():
    d = represents_link(TORUS).as_dict()
    assert set(d) == {"representable", "witness", "certificate", "odd_cycle"}
    d = represents_link(build_B(3)).as_dict()
    assert d["certificate"]["target"] == "b3"
    assert isinstance(d["certificate"]["steps"], list)


def test_verdict_agrees_with_brute_force_and_evidence_verifies():
    total = checked_neg = 0
    for g in enumerate_presentations(3):
        total += 1
        verdict = represents_link(g)
        subset = brute_force_plane_dual(g)
        assert verdict.representable == (subset is not None), g.words()
        if verdict.representable:
            assert euler_genus(partial_dual(g, set(verdict.witness))) == 0
        else:
            checked_neg += 1
            target = PATTERN[verdict.certificate_target]()
            assert equivalent(replay(g, verdict.certificate), target)
            if is_orientable(g):
                assert verdict.odd_cycle is not None
                assert len(verdict.odd_cycle) % 2 == 1
    assert total == 128
    assert checked_neg > 30


# -- the polynomial odd-cycle search and certificate layer ----------------------


def _two_colour_by_path_search(graph):
    """Reference: colour by BFS, else the least shortest odd cycle by DFS.

    The DFS enumerates simple paths from each start through larger labels
    only, so it is exponential; it is kept as the oracle for the BFS search.
    """
    adj = {v: graph.neighbours(v) for v in graph.vertices}
    colour = {}
    bipartite = True
    for root in graph.vertices:
        if root in colour:
            continue
        colour[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in colour:
                        colour[w] = colour[v] ^ 1
                        nxt.append(w)
                    elif colour[w] == colour[v]:
                        bipartite = False
            frontier = nxt
    if bipartite:
        return colour, None
    best = None
    for start in graph.vertices:
        stack = [(start,)]
        while stack:
            path = stack.pop()
            tip = path[-1]
            if len(path) >= 3 and len(path) % 2 == 1 and start in adj[tip]:
                key = (len(path), path)
                if best is None or key < best:
                    best = key
            if best is not None and len(path) >= best[0]:
                continue
            for w in adj[tip]:
                if w > start and w not in path:
                    stack.append(path + (w,))
    return None, best[1]


@st.composite
def _simple_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    labels = [f"v{i}" for i in range(n)]  # "v10" < "v2": ties read as strings
    pairs = list(combinations(labels, 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = frozenset(tuple(sorted(p)) for p, keep in zip(pairs, chosen) if keep)
    return IntersectionGraph(tuple(sorted(labels)), edges)


@settings(max_examples=400, deadline=None)
@given(_simple_graphs())
def test_odd_cycle_search_matches_path_search(graph):
    assert _two_colour(graph) == _two_colour_by_path_search(graph)


def _pattern_of(verdict):
    return PATTERN[verdict.certificate_target]()


def test_thirty_loop_bouquet_gets_a_certified_verdict():
    # the simple-path search ran for more than 30 s on this shuffle
    word = [f"e{i}" for i in range(30)] * 2
    random.Random("30-4").shuffle(word)
    g = from_words([word])
    verdict = represents_link(g)
    assert not verdict.representable
    assert len(verdict.odd_cycle) % 2 == 1
    assert equivalent(replay(g, verdict.certificate), _pattern_of(verdict))


@pytest.mark.parametrize("n", [9, 11, 21, 101])
def test_large_odd_bouquets_certify_b3(n):
    # above the 8-edge search bound; the certificate never searches
    g = build_B(n)
    verdict = represents_link(g)
    assert verdict.certificate_target == "b3"
    assert len(verdict.odd_cycle) == n
    assert equivalent(replay(g, verdict.certificate), build_B(3))


def test_bouquet_reduction_on_partial_duals_of_odd_bouquets():
    # H = B_L^S: the target is the toroidal theta exactly when S is every loop
    rng = random.Random("reduction")
    cases = [(5, set(sub)) for r in range(6) for sub in combinations(build_B(5).labels(), r)]
    for _ in range(24):
        cases.append((7, {f"e{i}" for i in range(1, 8) if rng.random() < 0.5}))
    cases.append((7, {f"e{i}" for i in range(1, 8)}))
    for n, sub in cases:
        h = partial_dual(build_B(n), sub)
        cycle = tuple(f"e{i}" for i in range(1, n + 1))
        steps, even = _bouquet_reduction(cycle, sub)
        assert even == (len(sub) < n), (n, sorted(sub))
        end = build_B(3) if even else build_theta_t()
        assert equivalent(replay(h, MinorScript(tuple(steps))), end)
        if not even:
            assert not has_minor(h, build_B(3))[0]


def _trimmed_search_target(g):
    """The pattern a minor search on the trimmed odd-cycle graph finds first."""
    for comp in components(g):
        tree = spanning_tree(comp)
        _, cycle = _two_colour(intersection_graph(partial_dual(comp, set(tree))))
        if cycle is not None:
            break
    cur = restriction(comp, set(cycle) | set(tree))
    for label in sorted(set(tree) - set(cycle)):
        cur = contract_edge(cur, label)
    return "b3" if has_minor(cur, build_B(3))[0] else "theta_t"


def _random_orientable(rng, edges):
    arrows = [f"e{i}" for i in range(edges)] * 2
    rng.shuffle(arrows)
    cuts = sorted(rng.sample(range(1, 2 * edges), rng.randint(0, 2)))
    bounds = [0, *cuts, 2 * edges]
    return from_words([arrows[a:b] for a, b in zip(bounds, bounds[1:])])


def test_certificate_target_is_the_trimmed_search_pick():
    rng = random.Random("trimmed")
    graphs = list(enumerate_presentations(4))
    graphs += [_random_orientable(rng, rng.randint(3, 8)) for _ in range(80)]
    for n in (5, 7):
        labels = build_B(n).labels()
        full = partial_dual(build_B(n), set(labels))
        assert represents_link(full).certificate_target == "theta_t"
        graphs += [full] + [
            partial_dual(build_B(n), {l for l in labels if rng.random() < 0.5})
            for _ in range(12)
        ]
    checked = 0
    for g in graphs:
        if not is_orientable(g):
            continue
        verdict = represents_link(g)
        if verdict.representable:
            continue
        checked += 1
        assert verdict.certificate_target == _trimmed_search_target(g), g.words()
        assert equivalent(replay(g, verdict.certificate), _pattern_of(verdict))
    assert checked > 70
