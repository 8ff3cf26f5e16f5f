"""Diagram ingestion, interlacement, biseparations, the representability verdict."""

import random
import re
from importlib import import_module, resources
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from closures import B3_WORDS, THETA_T_WORDS, braid_closure_pd, glue, twist
from plant import plant
from ribbonforge import (
    MinorScript,
    NotABouquet,
    OrientabilityViolation,
    ParseError,
    PDCode,
    RibbonError,
    StrandCountError,
    UnknownLabel,
    UnknownVertex,
    all_A_ribbon_graph,
    brute_force_plane_dual,
    build_B,
    build_Bbar1,
    build_theta_t,
    component_count,
    components,
    contract_edge,
    defines_plane_biseparation,
    delete_edge,
    delete_vertex,
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
    surface_summary,
)
from ribbonforge.links import IntersectionGraph, _bouquet_reduction
from ribbonforge.oddcycles import _two_colour
from ribbonforge.presentation import _slot_table
from ribbonforge.surfaces import _dual_genus

ODDCYCLES = import_module("ribbonforge.oddcycles")

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
    # a code built directly is checked as well, before any state walk
    with pytest.raises(ParseError):
        PDCode((("1", "2", "1"), ("2", "3", "3", "4", "4")))
    with pytest.raises(ParseError):
        PDCode((("1", "2", "1", "2", "3", "3"),))
    with pytest.raises(StrandCountError):
        PDCode((("1", "2", "2", "3"),))
    with pytest.raises(StrandCountError):
        PDCode(((1, 2, 2, 3),))


@pytest.mark.parametrize("label", ["a,b", "a b", "X", "1#", "", "(", "a)", "a\nb"])
def test_serialize_pd_refuses_labels_it_cannot_read_back(label):
    code = pd_code([(label, label, "y", "y")])
    with pytest.raises(ParseError):
        serialize_pd(code)


PD_LABELS = st.text("aX1_'ü#(),\t ", max_size=3)


@given(st.lists(PD_LABELS, min_size=2, max_size=6, unique=True))
def test_serialize_pd_reads_back_exactly_the_token_labels(labels):
    code = pd_code(
        [labels[i], labels[i], labels[i + 1], labels[i + 1]]
        for i in range(0, len(labels) - 1, 2)
    )
    token = re.compile(r"[^\s(),#]+")
    if all(token.fullmatch(l) and l != "X" for l in code.strand_labels):
        assert parse_pd(serialize_pd(code)) == code
    else:
        with pytest.raises(ParseError):
            serialize_pd(code)


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
    with pytest.raises(UnknownVertex):
        is_separating_vertex(TORUS, 5)


@pytest.mark.parametrize("index", [False, True, "0", 0.0, None])
def test_a_curve_index_must_be_an_int(index):
    # unchecked, a bool names curve 0 or 1 and a str, float or None raises
    # TypeError; each is bad input, as an index out of range is
    g = from_words([["a"], ["a"]])
    message = f"no curve with index {index!r}"
    with pytest.raises(UnknownVertex) as got:
        is_separating_vertex(g, index)
    assert str(got.value) == message
    with pytest.raises(UnknownVertex) as got:
        delete_vertex(g, index)
    assert str(got.value) == message


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


def _curve_ends(pres):
    """label -> the curves of its two arrows, read from the words."""
    ends = {}
    for ci, curve in enumerate(pres.curves):
        for arrow in curve:
            ends.setdefault(arrow.label, []).append(ci)
    return ends


def _roots_by_union_find(pres, side):
    """Oracle: a representative of each vertex's component in the spanning
    subgraph on ``side``, by union-find over the words."""
    parent = list(range(len(pres.curves)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ends = _curve_ends(pres)
    for label in side:
        a, b = ends[label]
        parent[find(a)] = find(b)
    return [find(i) for i in range(len(parent))]


def _separating_by_deletion(pres, index):
    """Oracle: blocks read off the components of the graph minus the vertex."""
    edges = _curve_ends(pres).values()
    loops = sum(1 for a, b in edges if a == b == index)
    far = {a if b == index else b for a, b in edges if (a == index) != (b == index)}
    blocks = loops
    if far:
        rest = delete_vertex(pres, index)
        root = _roots_by_union_find(rest, rest.labels())
        blocks += len({root[w - 1 if w > index else w] for w in far})
    return blocks >= 2


def _oracle_graphs():
    yield from enumerate_presentations(4)
    for s in range(300):
        yield random_ribbon_graph(5 + s % 16, f"forest-{s}")


def test_forest_readings_match_the_deletion_and_union_find_oracles():
    for g in _oracle_graphs():
        for v in range(len(g.curves)):
            assert is_separating_vertex(g, v) == _separating_by_deletion(g, v)


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
    assert _two_colour(graph) == _two_colour_by_path_search(graph)[0]


def _check_colour_word(word):
    """The stack colouring of a word against ``_two_colour`` on the
    interlaced pairs of the bouquet that reads it: the same colouring, or
    None exactly when the pairs are not bipartite."""
    colouring = _two_colour(intersection_graph(from_words([word])))
    assert ODDCYCLES._colour_word(word) == colouring, word


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 30), st.data())
def test_the_stack_colouring_matches_the_pairs_on_random_bouquets(n, data):
    # the labels are renamed at random, so that orders like "e10" < "e2"
    # decide the roots, and the word is cut at a random place
    names = [f"e{i}" for i in data.draw(st.permutations(range(n)))]
    word = data.draw(st.permutations(names + names))
    cut = data.draw(st.integers(0, 2 * n - 1))
    _check_colour_word(word[cut:] + word[:cut])


@settings(max_examples=30, deadline=None)
@given(
    st.integers(50, 400),
    st.integers(2, 12),
    st.integers(0, 10**6),
    st.sampled_from([None, B3_WORDS, THETA_T_WORDS]),
)
def test_the_stack_colouring_matches_the_pairs_on_closure_duals(
    crossings, strands, seed, pattern
):
    # the words represents_link colours: spanning-tree duals of state
    # graphs, bipartite, and with B3 or the toroidal theta glued on, not
    g = all_A_ribbon_graph(parse_pd(braid_closure_pd(crossings, strands, seed)))
    if pattern is not None:
        g = from_words(glue(g.words(), pattern, seed))
    for comp in components(g):
        bouquet = partial_dual(comp, set(spanning_tree(comp)))
        _check_colour_word([arrow.label for arrow in bouquet.curves[0]])


@pytest.mark.parametrize(
    "old, new, word",
    [
        # no same-group check: B3's third loop closes inside the group of
        # the second, and the triangle reads as bipartite
        (
            "if own.pop() != e:\n            return None\n",
            "own.remove(e)\n",
            B3_WORDS[0],
        ),
        # merged groups left untied to e: a and b interlace but stay apart
        ("edges.append((e, above[0], True))\n", "\n", ["a", "b", "a", "b"]),
    ],
    ids=["no same-group clash", "merged groups untied"],
)
def test_a_planted_stack_fault_fails_the_colouring_oracle(monkeypatch, old, new, word):
    plant(monkeypatch, ODDCYCLES._colour_word, (old, new), into=[ODDCYCLES])
    with pytest.raises(AssertionError):
        _check_colour_word(word)


def _check_odd_cycle(word):
    """``_odd_cycle`` against the pairs of the bouquet that reads ``word``:
    None exactly when they are bipartite, else an odd cycle of interlaced
    labels with no chord, read from its least label towards the smaller of
    its two neighbours, and no shorter than the least odd cycle the path
    search finds in its interlacement component."""
    graph = intersection_graph(from_words([word]))
    cycle = ODDCYCLES._odd_cycle(word)
    assert (cycle is None) == (_two_colour(graph) is not None), word
    if cycle is None:
        return
    n = len(cycle)
    assert n % 2 == 1 and len(set(cycle)) == n, (word, cycle)
    assert all(graph.adjacent(cycle[i - 1], cycle[i]) for i in range(n)), (word, cycle)
    inside = [pair for pair in graph.edges if set(pair) <= set(cycle)]
    assert len(inside) == n, (word, cycle)
    assert cycle[0] == min(cycle) and cycle[1] < cycle[-1], (word, cycle)
    component, frontier = set(), [cycle[0]]
    while frontier:
        v = frontier.pop()
        if v not in component:
            component.add(v)
            frontier += graph.neighbours(v)
    sub = IntersectionGraph(
        tuple(sorted(component)),
        frozenset(pair for pair in graph.edges if pair[0] in component),
    )
    assert n >= len(_two_colour_by_path_search(sub)[1]), (word, cycle)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 12), st.data())
def test_the_odd_cycle_is_odd_and_chordless_on_random_bouquets(n, data):
    # renamed at random, so that orders like "e10" < "e2" decide the
    # search, and cut at a random place
    names = [f"e{i}" for i in data.draw(st.permutations(range(n)))]
    word = data.draw(st.permutations(names + names))
    assume(ODDCYCLES._colour_word(word) is None)
    cut = data.draw(st.integers(0, 2 * n - 1))
    _check_odd_cycle(word[cut:] + word[:cut])


@settings(max_examples=20, deadline=None)
@given(
    st.integers(50, 400),
    st.integers(2, 12),
    st.integers(0, 10**6),
    st.sampled_from([B3_WORDS, THETA_T_WORDS]),
)
def test_the_odd_cycle_is_odd_and_chordless_on_glued_closure_duals(
    crossings, strands, seed, pattern
):
    # the words represents_link searches: spanning-tree duals of state
    # graphs with B3 or the toroidal theta glued on
    g = all_A_ribbon_graph(parse_pd(braid_closure_pd(crossings, strands, seed)))
    g = from_words(glue(g.words(), pattern, seed))
    for comp in components(g):
        bouquet = partial_dual(comp, set(spanning_tree(comp)))
        _check_odd_cycle([arrow.label for arrow in bouquet.curves[0]])


# the search from a meets the same-depth edge (b, e) first; the chord b d
# cuts its fundamental cycle b c a d e down to the triangle b d e
CHORDED = "d b e a d c a b c e".split()


@pytest.mark.parametrize(
    "old, new",
    [
        ("for i in range(len(a) - 2):", "for i in range(0):"),
        ("del a[i + 1:], b[i + 2:]", "del a[i + 1:], b[i + 1:]"),
    ],
    ids=["chord pass skipped", "cut one label short"],
)
def test_a_planted_chord_fault_fails_the_odd_cycle_property(monkeypatch, old, new):
    _check_odd_cycle(CHORDED)
    plant(monkeypatch, ODDCYCLES._odd_cycle, (old, new), into=[ODDCYCLES])
    with pytest.raises(AssertionError):
        _check_odd_cycle(CHORDED)


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


@pytest.mark.parametrize("n", [5, 7, 9, 11, 21, 101])
def test_large_odd_bouquets_certify_b3(n):
    # from n = 9 above the 8-edge search bound; the certificate never searches
    g = build_B(n)
    verdict = represents_link(g)
    assert verdict.certificate_target == "b3"
    assert len(verdict.odd_cycle) == n
    assert [op for op, _ in verdict.certificate.steps] == ["contract_edge"] * (n - 3)
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


def _bouquet_reduction_by_lists(cycle, tree):
    """The reduction as first written, rebuilding the cycle list at every
    stage and scanning it from the start: the oracle for the ring."""
    rest = list(cycle)
    marked = sum(1 for label in rest if label in tree)
    steps = []
    while len(rest) > 3:
        m = len(rest)
        mixed = marked % 2 == 1 and marked < m
        i = next(
            i for i in range(m)
            if ((rest[i] in tree) != (rest[(i + 1) % m] in tree)) == mixed
        )
        pair = (rest[i], rest[(i + 1) % m])
        for label in pair:
            if label in tree:
                marked -= 1
                steps.append(("delete_edge", label))
            else:
                steps.append(("contract_edge", label))
        rest = [label for label in rest if label not in pair]
    return steps, marked % 2 == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 20), st.data())
def test_bouquet_reduction_ring_matches_the_list_version(half, data):
    # B_L^S for odd L <= 41: S is drawn at random, or the whole cycle
    n = 2 * half + 1
    cycle = ODDCYCLES._odd_cycle(build_B(n).words()[0])
    inside = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if data.draw(st.booleans()):
        inside = [True] * n
    sub = {label for label, keep in zip(cycle, inside) if keep}
    assert _bouquet_reduction(cycle, sub) == _bouquet_reduction_by_lists(cycle, sub)


def _trimmed_search_target(g):
    """The pattern a minor search on the trimmed odd-cycle graph finds first."""
    for comp in components(g):
        tree = spanning_tree(comp)
        bouquet = partial_dual(comp, set(tree))
        cycle = ODDCYCLES._odd_cycle([arrow.label for arrow in bouquet.curves[0]])
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


def test_a_connected_graph_keeps_its_own_slot_table(monkeypatch):
    # the words of the spanning-tree dual are walked, and the witness's
    # partial dual counted, on the table the curve forest was read from:
    # no dual is built for either
    g = all_A_ribbon_graph(parse_pd(braid_closure_pd(400, 6, "connected-400")))
    assert len(components(g)) == 1
    module = import_module("ribbonforge.presentation")
    built = []
    table = module._SlotTable

    def counted(*fields):
        built.append(fields)
        return table(*fields)

    def splice(*args):
        raise AssertionError("the positive path built a splice")

    monkeypatch.setattr(module, "_RECENT", ())
    monkeypatch.setattr(module, "_SlotTable", counted)
    monkeypatch.setattr(import_module("ribbonforge.moves"), "_splice", splice)
    assert represents_link(g).representable
    assert len(built) == 1  # the graph's own


# -- metamorphic checks at scale ----------------------------------------------


@st.composite
def _state_graphs(draw):
    """The all-A state graph of a seeded braid closure of 50 to 400 crossings."""
    crossings = draw(st.integers(50, 400))
    strands = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 10**6))
    return all_A_ribbon_graph(parse_pd(braid_closure_pd(crossings, strands, seed)))


def _some(labels, rng):
    return {label for label in labels if rng.random() < 0.5}


@settings(max_examples=30, deadline=None)
@given(_state_graphs(), st.randoms(use_true_random=False))
def test_state_graphs_stay_representable_under_duals_and_minors(g, rng):
    # the family is closed under partial duality and under minors
    labels = g.labels()
    dual = partial_dual(g, _some(labels, rng))
    verdict = represents_link(dual)
    assert verdict.representable
    plane = surface_summary(partial_dual(dual, set(verdict.witness)))
    assert plane.orientable and plane.euler_genus == 0
    assert represents_link(delete_edge(g, rng.choice(labels))).representable
    assert represents_link(contract_edge(g, rng.choice(labels))).representable


@settings(max_examples=30, deadline=None)
@given(_state_graphs(), st.randoms(use_true_random=False))
def test_the_dual_genus_count_holds_on_partial_duals_of_state_graphs(g, rng):
    # the count that checks the witness, against the built dual, at a random
    # set A of a random partial dual H, where ε(H^A) is mostly far from 0
    h = partial_dual(g, _some(g.labels(), rng))
    chosen = _some(h.labels(), rng)
    table = _slot_table(h)
    flags = [int(label in chosen) for label in table.label]
    genus = _dual_genus(table, flags, component_count(h))
    assert genus == euler_genus(partial_dual(h, chosen))


@settings(max_examples=10, deadline=None)
@given(_state_graphs(), st.randoms(use_true_random=False))
def test_a_glued_b3_stays_refused_under_partial_duals(g, rng):
    # G^A represents a link exactly when G does, so no dual of the glued
    # closure does; its certificate replays to the pattern it names
    glued = from_words(glue(g.words(), B3_WORDS, rng.random()))
    dual = partial_dual(glued, _some(glued.labels(), rng))
    verdict = represents_link(dual)
    assert not verdict.representable
    assert equivalent(replay(dual, verdict.certificate), _pattern_of(verdict))


@settings(max_examples=10, deadline=None)
@given(_state_graphs(), st.randoms(use_true_random=False))
def test_a_glued_theta_and_a_twisted_edge_stay_refused(g, rng):
    # the toroidal theta joined at one point is its own interlacement
    # component, one of its loops in the spanning tree; a twisted edge on a
    # cycle makes the graph non-orientable, under every partial dual
    glued = from_words(glue(g.words(), THETA_T_WORDS, rng.random()))
    verdict = represents_link(glued)
    assert not verdict.representable
    assert verdict.certificate_target == "theta_t"
    assert equivalent(replay(glued, verdict.certificate), build_theta_t())
    twisted = from_words(twist(g.words(), rng.random()))
    dual = partial_dual(twisted, _some(twisted.labels(), rng))
    verdict = represents_link(dual)
    assert not verdict.representable
    assert verdict.certificate_target == "bbar1"
    assert equivalent(replay(dual, verdict.certificate), build_Bbar1())
