"""Class enumeration: counts, filters, dedup, the independent cross-check."""

import hashlib
import json

import pytest

from ribbonforge import (
    EMPTY,
    RibbonError,
    SizeBoundExceeded,
    b_family_members,
    boundary_component_count,
    build_B,
    canonical_key,
    component_count,
    enumerate_by_slots,
    enumerate_presentations,
    euler_genus,
    from_words,
    is_orientable,
    random_ribbon_graph,
)

# class counts by exact edge count, frozen: 2 for zero edges (empty graph and
# the single bare vertex), then 3, 17, 106
COUNTS = {0: 2, 1: 3, 2: 17, 3: 106}


def test_class_counts_by_edge_count():
    per_level = {
        n: len(enumerate_presentations(n)) for n in range(4)
    }
    running = 0
    for n in range(4):
        running += COUNTS[n]
        assert per_level[n] == running


def test_zero_edge_classes_and_no_other_isolated_vertices():
    classes = enumerate_presentations(3)
    zero = [g for g in classes if g.edge_count == 0]
    assert {canonical_key(g) for g in zero} == {
        canonical_key(EMPTY),
        canonical_key(from_words([[]])),
    }
    for g in classes:
        if g.edge_count:
            assert not g.isolated_vertices()


def test_enumeration_is_deduplicated_and_ordered():
    classes = enumerate_presentations(3)
    keys = [canonical_key(g) for g in classes]
    assert len(keys) == len(set(keys))
    by_edges = [g.edge_count for g in classes]
    assert by_edges == sorted(by_edges)


def test_filters():
    connected = enumerate_presentations(3, connected_only=True)
    assert all(component_count(g) <= 1 for g in connected)
    orientable = enumerate_presentations(3, orientable_only=True)
    assert all(is_orientable(g) for g in orientable)
    bouquets = enumerate_presentations(3, bouquets_only=True)
    assert all(len(g.curves) == 1 for g in bouquets if g.edge_count)
    full = {canonical_key(g) for g in enumerate_presentations(3)}
    for subset in (connected, orientable, bouquets):
        assert {canonical_key(g) for g in subset} <= full
    both = enumerate_presentations(
        3, connected_only=True, orientable_only=True
    )
    assert {canonical_key(g) for g in both} == {
        canonical_key(g) for g in connected if is_orientable(g)
    }


def test_enumerate_presentations_respects_bounds():
    from ribbonforge.errors import SizeBoundExceeded

    with pytest.raises(SizeBoundExceeded):
        enumerate_presentations(99)
    with pytest.raises(RibbonError):
        enumerate_presentations(-1)


def test_layers_are_built_once_per_process(monkeypatch):
    from ribbonforge import enumeration

    first = enumerate_presentations(4)
    children = enumeration._children
    built = []

    def counted(parent, label):
        built.append(label)
        return children(parent, label)

    monkeypatch.setattr(enumeration, "_children", counted)
    assert enumerate_presentations(4) == first
    assert enumerate_presentations(4, bouquets_only=True) == [
        g for g in first if len(g.curves) == 1
    ]
    assert built == []


def _insertions(curves, arrow):
    """The arrow placed in each cyclic gap of every curve, and on a new
    vertex, as ``enumeration._children`` places each of its arrows."""
    from ribbonforge.enumeration import _gaps, _insert

    return [_insert(curves, ci, g, arrow) for ci, g in _gaps(curves)]


def test_an_arrow_goes_in_each_cyclic_gap_once():
    from ribbonforge.presentation import Arrow

    x, y, z, a = (Arrow(label, True) for label in "xyza")
    # three gaps of a 3-arrow curve (the one after z is the one before x),
    # then a new vertex
    assert _insertions(((x, y, z),), a) == [
        ((a, x, y, z),),
        ((x, a, y, z),),
        ((x, y, a, z),),
        ((x, y, z), (a,)),
    ]
    # a bare vertex has one gap
    assert _insertions(((),), a) == [((a,),), ((), (a,))]


def test_layer_4_is_built_from_6148_children():
    from ribbonforge import enumeration

    children = sum(
        len(list(enumeration._children(parent, "e4")))
        for parent in enumeration._layer(3)
    )
    # 11,872 with each placement built from either arrow placed first, and
    # 20,980 with both ends of each curve tried
    assert children == 6_148


def _every_ordered_placement(parent, label):
    """A new edge's first arrow along in each gap, then its second arrow
    either way in each gap: each placement from both of its arrows."""
    from ribbonforge.presentation import Arrow, _trusted

    for half in _insertions(parent.curves, Arrow(label, True)):
        for along in (True, False):
            for full in _insertions(half, Arrow(label, along)):
                child = _trusted(full)
                if not child.isolated_vertices():
                    yield child


def test_each_placement_once_keeps_every_representative():
    from ribbonforge import enumeration

    layer = list(enumeration._layer(0))
    for n in range(1, 5):
        seen = {}
        for parent in layer:
            for child in _every_ordered_placement(parent, f"e{n}"):
                seen.setdefault(canonical_key(child), child)
        layer = [seen[key] for key in sorted(seen)]
        assert [g.words() for g in layer] == [
            g.words() for g in enumeration._layer(n)
        ]


def test_slot_generator_agrees_with_augmentation():
    for n in (1, 2, 3):
        by_slots = {canonical_key(g) for g in enumerate_by_slots(n)}
        by_augmentation = {
            canonical_key(g)
            for g in enumerate_presentations(n)
            if g.edge_count == n
        }
        assert by_slots == by_augmentation
        assert len(by_slots) == COUNTS[n]
    with pytest.raises(RibbonError):
        enumerate_by_slots(0)


def test_slot_generator_refuses_five_edges_before_walking(monkeypatch):
    # (10)! * 2^5 configurations would run for hours; the refusal comes first
    # and names only the environment variable, as enumeration takes no flag
    from ribbonforge import enumeration

    def walked(*args):
        raise AssertionError("a slot configuration was walked")

    monkeypatch.setattr(enumeration, "permutations", walked)
    with pytest.raises(SizeBoundExceeded) as refusal:
        enumerate_by_slots(5)
    assert str(refusal.value) == (
        "5 edges exceeds slot enumeration bound 4; raise it with RIBBONFORGE_MAX_EDGES"
    )
    monkeypatch.setenv("RIBBONFORGE_MAX_EDGES", "5")
    with pytest.raises(AssertionError, match="walked"):
        enumerate_by_slots(5)


# sha256 of json.dumps([g.words() for g in enumerate_by_slots(n)]), taken
# when the oracle still ran over every pairing of slots into edges
SLOT_WORDS_SHA256 = {
    1: "1ba6c872bc86e89ff39fc1fe35015a5420943c07e33d8adbee011221d58013bd",
    2: "b435b62644e98ab5eda01f2119423bcbb17d702747d9d9848a36de38d0f37407",
    3: "abd726c845b71739582207a6c287c6e82fa26a23a63aebbecafe26cd521498a6",
}


def test_slot_generator_representatives_are_pinned():
    for n, digest in SLOT_WORDS_SHA256.items():
        words = json.dumps([g.words() for g in enumerate_by_slots(n)])
        assert hashlib.sha256(words.encode()).hexdigest() == digest


def test_one_edge_classes_explicitly():
    expected = {
        canonical_key(from_words([["a", "a"]])),      # trivial loop
        canonical_key(from_words([["a", "a'"]])),     # twisted loop
        canonical_key(from_words([["a"], ["a"]])),    # plain edge
    }
    got = {canonical_key(g) for g in enumerate_by_slots(1)}
    assert got == expected


def test_every_class_is_well_formed():
    for g in enumerate_presentations(3):
        euler_genus(g)  # exercises boundary tracing on every class
        assert boundary_component_count(g) >= 0 or g is EMPTY


def test_random_ribbon_graph_contract():
    assert random_ribbon_graph(0, "x") == EMPTY
    a = random_ribbon_graph(5, "seed")
    assert a == random_ribbon_graph(5, "seed")
    assert a != random_ribbon_graph(5, "other-seed") or canonical_key(
        a
    ) == canonical_key(random_ribbon_graph(5, "other-seed"))
    assert a.edge_count == 5
    assert not a.isolated_vertices()
    with pytest.raises(RibbonError):
        random_ribbon_graph(33, "x")
    with pytest.raises(RibbonError):
        random_ribbon_graph(-1, "x")
    seen = {canonical_key(random_ribbon_graph(3, f"s{i}")) for i in range(40)}
    assert len(seen) > 5  # spread across classes, not stuck on one


COUNTED = {
    "build_B": build_B,
    "enumerate_presentations": enumerate_presentations,
    "enumerate_by_slots": enumerate_by_slots,
    "random_ribbon_graph": lambda n: random_ribbon_graph(n, "x"),
    "b_family_members index": lambda n: b_family_members(n, 2),
    "b_family_members size": lambda n: b_family_members(0, n),
}


@pytest.mark.parametrize("count", [True, False, 3.0, "3", None])
@pytest.mark.parametrize("call", COUNTED.values(), ids=COUNTED.keys())
def test_a_count_that_is_not_an_int_is_bad_input(call, count):
    # a bool once counted as 0 or 1, and a float raised TypeError
    with pytest.raises(RibbonError, match="must be an int"):
        call(count)
