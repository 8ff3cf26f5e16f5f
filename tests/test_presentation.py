"""Arrow presentations: construction, validation, text format, structure."""

import random

import pytest

from ribbonforge import (
    EMPTY,
    Arrow,
    EmptyLabelError,
    LabelCountError,
    NotConnected,
    ParseError,
    UnknownLabel,
    UnknownVertex,
    component_count,
    components,
    delete_vertex,
    disjoint_union,
    equivalent,
    from_words,
    parse_arp,
    presentation,
    random_ribbon_graph,
    restriction,
    serialize_arp,
    spanning_tree,
    underlying_edges,
)
from ribbonforge.presentation import _min_rotation


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
    assert g.is_loop("a")
    assert not g.is_loop("b")
    assert g.endpoints("a") == (0, 0)
    assert g.endpoints("b") == (0, 1)
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
