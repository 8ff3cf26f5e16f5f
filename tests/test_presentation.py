"""Arrow presentations: construction, validation, text format, structure."""

import random
import sys
import threading
from collections import Counter
from importlib import import_module
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from plant import plant

from ribbonforge import (
    EMPTY,
    Arrow,
    ArrowPresentation,
    EmptyLabelError,
    InternalInvariantViolation,
    LabelCountError,
    NotConnected,
    ParseError,
    UnknownLabel,
    UnknownVertex,
    all_A_ribbon_graph,
    component_count,
    components,
    contract_edge,
    delete_edge,
    delete_vertex,
    disjoint_union,
    equivalent,
    from_words,
    parse_arp,
    parse_pd,
    partial_dual,
    presentation,
    random_ribbon_graph,
    restriction,
    serialize_arp,
    spanning_tree,
    underlying_edges,
)
from ribbonforge.presentation import _min_rotation, _slot_table

# the module, which the package's ``presentation`` function shadows
PRESENTATION = import_module("ribbonforge.presentation")
LINKS = import_module("ribbonforge.links")


def test_presentation_normalizes_rotation():
    a = from_words([["x", "y", "x", "y"]])
    b = from_words([["y", "x", "y", "x"]])
    assert a == b


def test_each_label_needs_exactly_two_arrows():
    with pytest.raises(LabelCountError):
        from_words([["a"]])
    with pytest.raises(LabelCountError):
        from_words([["a", "a", "a"]])
    with pytest.raises(LabelCountError):
        from_words([["a", "a", "b"]])


def test_empty_label_rejected():
    with pytest.raises(EmptyLabelError):
        presentation([[Arrow("", True), Arrow("", True)]])


def test_words_round_trip_tokens():
    g = from_words([["a", "b'"], ["b", "a'"]])
    assert g.words() == [["a", "b'"], ["a'", "b"]] or g.words() == [
        ["a", "b'"],
        ["b", "a'"],
    ]


def test_parse_arp_comments_blank_lines_and_isolated_vertices():
    text = """
    # a loop plus an isolated vertex
    a a   # trailing comment
    ()
    """
    g = parse_arp(text)
    assert g.vertex_count == 2
    assert g.edge_count == 1
    assert g.isolated_vertices() == (1,)


def test_parse_arp_rejects_bad_tokens():
    with pytest.raises(ParseError):
        parse_arp("a a!")
    with pytest.raises(ParseError):
        parse_arp("a ''")


@pytest.mark.parametrize("label", ["a'", "a b", "#x", "()", "x-y", "a\n", "a\nb", "é"])
def test_serialize_arp_refuses_labels_it_cannot_read_back(label):
    # the whole label must be a token: one ending in a newline, which the
    # token pattern's ``$`` lets through, would be written across two lines
    g = presentation([[Arrow(label, True), Arrow(label, False)]])
    with pytest.raises(ParseError, match="not serializable"):
        serialize_arp(g)


def test_parse_empty_text_gives_empty_presentation():
    assert parse_arp("") == EMPTY
    assert parse_arp("# nothing here") == EMPTY
    assert serialize_arp(EMPTY) == ""


def test_serialize_parse_round_trip_random():
    rng = random.Random("round-trip")
    for i in range(200):
        g = random_ribbon_graph(rng.randint(0, 6), f"rt-{i}")
        assert parse_arp(serialize_arp(g)) == g


def test_min_rotation_matches_brute_force():
    # a small alphabet makes repeated and periodic words common, beyond the
    # two copies of an arrow a valid presentation allows
    rng = random.Random("rotation")
    alphabet = [Arrow(label, along) for label in "abc" for along in (True, False)]
    for _ in range(400):
        curve = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))
        brute = min((curve[i:] + curve[:i] for i in range(len(curve))), default=())
        assert _min_rotation(curve) == brute


def test_loop_and_endpoint_queries():
    g = from_words([["a", "b", "a"], ["b"]])
    assert underlying_edges(g) == {"a": (0, 0), "b": (0, 1)}


def test_components_and_counts():
    g = from_words([["a", "a"], ["b", "c"], ["c", "b"], []])
    comps = components(g)
    assert component_count(g) == 3
    sizes = sorted(c.vertex_count for c in comps)
    assert sizes == [1, 1, 2]
    assert sorted(c.edge_count for c in comps) == [0, 1, 2]


def test_restriction_keeps_only_touched_vertices():
    g = from_words([["a", "a"], ["b", "c"], ["c", "b"]])
    r = restriction(g, {"a"})
    assert r.vertex_count == 1 and r.edge_count == 1
    r2 = restriction(g, {"b"})
    assert r2.vertex_count == 2 and r2.edge_count == 1
    with pytest.raises(UnknownLabel):
        restriction(g, {"zz"})


def test_restriction_sides_partition_labels():
    rng = random.Random("restrict")
    for i in range(50):
        g = random_ribbon_graph(rng.randint(1, 5), f"part-{i}")
        labels = set(g.labels())
        side = {l for l in labels if rng.random() < 0.5}
        a = restriction(g, side)
        b = restriction(g, labels - side)
        assert set(a.labels()) | set(b.labels()) == labels
        assert not set(a.labels()) & set(b.labels())


def test_delete_vertex_shifts_indices():
    g = from_words([["a", "a"], [], ["b", "b"]])
    h = delete_vertex(g, 1)
    assert h.vertex_count == 2 and h.edge_count == 2
    with pytest.raises(UnknownVertex):
        delete_vertex(g, 7)


def test_spanning_tree_of_connected_graph():
    g = from_words([["a", "b"], ["a", "c"], ["b", "c", "d", "d"]])
    tree = spanning_tree(g)
    assert len(tree) == g.vertex_count - 1
    assert set(tree) <= set(g.labels())
    assert tree == ("a", "b")
    with pytest.raises(NotConnected):
        spanning_tree(from_words([["a", "a"], ["b", "b"]]))
    with pytest.raises(NotConnected):
        spanning_tree(EMPTY)


def test_components_of_interleaved_curves():
    g = from_words([["a", "b"], ["d", "e"], ["a", "c"], ["b", "c'"], ["d", "e'"]])
    assert [c.words() for c in components(g)] == [
        [["a", "b"], ["a", "c"], ["b", "c'"]],
        [["d", "e"], ["d", "e'"]],
    ]
    assert [spanning_tree(c) for c in components(g)] == [("a", "b"), ("d",)]
    assert underlying_edges(g) == {
        "a": (0, 2), "b": (0, 3), "c": (2, 3), "d": (1, 4), "e": (1, 4),
    }


def test_disjoint_union_renames_collisions():
    g = from_words([["a", "a"]])
    u = disjoint_union(g, g, g)
    assert u.vertex_count == 3 and u.edge_count == 3
    assert len(set(u.labels())) == 3
    assert equivalent(restriction(u, {u.labels()[1]}), g)


def test_operations_on_valid_presentations_are_not_revalidated(monkeypatch):
    g = random_ribbon_graph(8, "trusted")
    labels = g.labels()
    code = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    operations = [
        lambda: delete_edge(g, labels[0]),
        lambda: contract_edge(g, labels[1]),
        lambda: partial_dual(g, {labels[2]}),
        lambda: partial_dual(g, labels[::2]),
        lambda: delete_vertex(g, 0),
        lambda: restriction(g, labels[1::2]),
        lambda: random_ribbon_graph(6, "trusted"),
        lambda: all_A_ribbon_graph(code),
    ]
    expected = [op() for op in operations]

    def refuse(curves):
        raise AssertionError("a valid result was validated again")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "ribbonforge":
            if getattr(module, "presentation", None) is presentation:
                monkeypatch.setattr(module, "presentation", refuse)
    assert [op() for op in operations] == expected


# -- the ring of recent slot tables -------------------------------------------


def test_recent_tables_match_fresh_builds_and_stay_four():
    pool = [random_ribbon_graph(n, f"ring-{n}") for n in range(1, 8)]
    pool.append(from_words([["a"], ["a"], []]))
    # an equal but distinct presentation is another object, so it misses
    fresh = [_slot_table(ArrowPresentation(g.curves)) for g in pool]
    rng = random.Random("ring")
    hits = 0
    for i in [rng.randrange(len(pool)) for _ in range(400)]:
        before = [entry[1] for entry in PRESENTATION._RECENT]
        table = _slot_table(pool[i])
        hits += any(table is t for t in before)
        assert table == fresh[i]
        assert len(PRESENTATION._RECENT) <= 4
        assert PRESENTATION._RECENT[0][0] is pool[i]
    assert 0 < hits < 400
    assert _slot_table(pool[0]) is _slot_table(pool[0])
    copy = ArrowPresentation(pool[0].curves)
    assert _slot_table(copy) is not _slot_table(pool[0])


@pytest.mark.parametrize("curves", [[["a", "a", "a"]], [["a", "b"], ["a"]]])
def test_a_miscounted_table_raises_on_every_call_and_is_never_kept(curves):
    broken = ArrowPresentation(
        tuple(tuple(Arrow(label, True) for label in curve) for curve in curves)
    )
    for _ in range(3):
        with pytest.raises(InternalInvariantViolation, match="seen"):
            _slot_table(broken)
        assert all(entry[0] is not broken for entry in PRESENTATION._RECENT)


def test_threads_share_the_ring_safely():
    pool = [random_ribbon_graph(n, f"threads-{n}") for n in range(1, 13)]
    fresh = [_slot_table(ArrowPresentation(g.curves)) for g in pool]
    wrong = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(10000):
            i = rng.randrange(len(pool))
            try:
                if _slot_table(pool[i]) != fresh[i]:
                    wrong.append(i)
            except Exception as error:  # a ring mutated under a reader
                wrong.append(error)
            if len(PRESENTATION._RECENT) > 4:
                wrong.append("more than four tables kept")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# -- blocks and separating vertices ---------------------------------------------


def _component_count(n, ends):
    """Oracle: the components of the multigraph, by union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in ends:
        parent[find(a)] = find(b)
    return len({find(v) for v in range(n)})


def _simple_cycles(ends):
    """Oracle: the edge sets of the simple cycles other than loops, by brute
    force: the connected sets of two or more edges in which every node they
    meet meets exactly two of them."""
    proper = [i for i, (a, b) in enumerate(ends) if a != b]
    for r in range(2, len(proper) + 1):
        for subset in combinations(proper, r):
            degree = Counter(v for i in subset for v in ends[i])
            if set(degree.values()) != {2}:
                continue
            nodes = sorted(degree)
            number = {v: k for k, v in enumerate(nodes)}
            within = [(number[a], number[b]) for a, b in (ends[i] for i in subset)]
            if _component_count(len(nodes), within) == 1:
                yield set(subset)


def _blocks_by_cycles(ends):
    """Oracle: the blocks of a multigraph as sets of edge indices, from
    ``_simple_cycles``: edges that lie on a common simple cycle share a
    block, a bridge is a block of its own, and a loop lies in no block."""
    block = {i: {i} for i, (a, b) in enumerate(ends) if a != b}
    for cycle in _simple_cycles(ends):
        merged = set().union(*(block[i] for i in cycle))
        for i in merged:
            block[i] = merged
    return list({min(b): b for b in block.values()}.values())


@st.composite
def _ribbon_multigraphs(draw):
    """A ribbon graph of up to 8 edges on up to 6 curves, loops and parallel
    edges included, with ``ends[i]`` the curves of edge ``e{i}``."""
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    ends = draw(st.lists(st.tuples(node, node), max_size=8))
    words = [[] for _ in range(n)]
    for i, (a, b) in enumerate(ends):
        words[a].append(f"e{i}")
        words[b].append(f"e{i}'" if draw(st.booleans()) else f"e{i}")
    return from_words([draw(st.permutations(word)) for word in words]), ends


@settings(max_examples=300, deadline=None)
@given(_ribbon_multigraphs())
def test_separating_vertices_match_the_block_oracle(graph):
    _check_separating(*graph)


def test_a_planted_unskipped_vertex_fails_the_separating_oracle(monkeypatch):
    # the vertex's own edges left in the parity pass: every far end then
    # shares the vertex's component, so the middle of a path reads as one
    # block
    plant(
        monkeypatch, LINKS.is_separating_vertex,
        ("for a, b in ends if index not in (a, b)]", "for a, b in ends]"),
        into=[LINKS],
    )
    with pytest.raises(AssertionError):
        _check_separating(from_words([["e0"], ["e0", "e1"], ["e1"]]), [(0, 1), (1, 2)])


def _check_separating(g, ends):
    """``is_separating_vertex`` at every curve against the definition: a
    vertex separates when two or more blocks meet it, where each loop at it
    is a block of its own and the other blocks are ``_blocks_by_cycles``'."""
    blocks = _blocks_by_cycles(ends)
    for v in range(g.vertex_count):
        at = ends.count((v, v)) + sum(any(v in ends[i] for i in b) for b in blocks)
        assert LINKS.is_separating_vertex(g, v) == (at >= 2), (ends, v)


# -- the parity union-find ------------------------------------------------------


def _balanced(n, edges):
    """Oracle: the first of all 2^n assignments of a 0/1 side to each node
    under which every edge joins two sides that differ exactly when it is
    twisted, or None if there is none."""
    for sides in product((0, 1), repeat=n):
        if all(sides[a] ^ sides[b] == twisted for a, b, twisted in edges):
            return sides
    return None


def _least_reachable(n, edges):
    """Oracle: the least node of each node's component, by propagating the
    least label along the edges until nothing changes."""
    least = list(range(n))
    changed = True
    while changed:
        changed = False
        for a, b, _ in edges:
            low = min(least[a], least[b])
            if least[a] != low or least[b] != low:
                least[a] = least[b] = low
                changed = True
    return least


@st.composite
def _signed_multigraphs(draw):
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node, st.booleans()), max_size=10))


@settings(max_examples=300, deadline=None)
@given(_signed_multigraphs())
def test_parity_matches_the_brute_force_oracles(graph):
    _check_parity(*graph)


@pytest.mark.parametrize(
    "old, new, graph",
    [
        # the smaller root linked under the larger: 0 ends under 1
        (
            ("if a < b:", "if a > b:"),
            ("elif b < a:", "elif b > a:"),
            (2, [(0, 1, False)]),
        ),
        # path halving skipping the parent's side: 2 keeps its side to 1 when
        # it moves under 0, and the even triangle reads as a clash
        (
            ("side[a] ^= side[p]\n", "\n"),
            ("side[b] ^= side[p]\n", "\n"),
            (3, [(1, 2, True), (0, 1, True), (2, 0, False)]),
        ),
    ],
    ids=["larger root kept", "halving without parity"],
)
def test_a_planted_kernel_fault_fails_the_parity_oracles(monkeypatch, old, new, graph):
    plant(monkeypatch, PRESENTATION._parity, old, new, into=[PRESENTATION])
    with pytest.raises(AssertionError):
        _check_parity(*graph)


def _check_parity(n, edges):
    """``_parity`` on a signed multigraph, loops and parallel edges included,
    against brute force: each root is the least node of its component; there
    is no clash exactly when some side assignment satisfies every edge; a
    balanced component's sides are that assignment with its root at 0; the
    first clash is the first edge whose prefix has no such assignment; and
    the ``_blocks_by_cycles`` blocks holding a clash are those with a cycle
    of odd twist."""
    root, side, clashes = PRESENTATION._parity(n, edges)
    assert root == _least_reachable(n, edges)
    assert (not clashes) == (_balanced(n, edges) is not None)
    for r in set(root):
        sides = _balanced(n, [e for e in edges if root[e[0]] == r])
        if sides is not None:
            nodes = [v for v in range(n) if root[v] == r]
            assert [side[v] for v in nodes] == [sides[v] ^ sides[r] for v in nodes]
    unbalanced = [i for i in range(len(edges)) if _balanced(n, edges[: i + 1]) is None]
    assert clashes[:1] == unbalanced[:1]
    ends = [(a, b) for a, b, _ in edges]
    odd = [
        cycle for cycle in _simple_cycles(ends) if sum(edges[i][2] for i in cycle) % 2
    ]
    for block in _blocks_by_cycles(ends):
        assert block.isdisjoint(clashes) == all(not cycle <= block for cycle in odd)
