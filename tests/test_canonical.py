"""Canonical keys and the equivalence decision."""

import hashlib
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from importlib import import_module

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ribbonforge import (
    EMPTY,
    InternalInvariantViolation,
    RibbonError,
    SizeBoundExceeded,
    canonical,
    canonical_key,
    contract_edge,
    disjoint_union,
    enumerate_presentations,
    equivalent,
    from_words,
    is_separating_vertex,
    one_step_minors,
    partial_dual,
    random_ribbon_graph,
    surface_summary,
    twists,
    underlying_edges,
)
from ribbonforge.enumeration import _children, _layer
from ribbonforge.minors import build_B
from ribbonforge.presentation import Arrow, ArrowPresentation, _slot_table, components
from ribbonforge.surfaces import odd_twist_cycle


def test_rotation_reversal_and_relabeling_are_invisible():
    base = from_words([["a", "b", "c", "a", "b", "c"]])
    rotated = from_words([["b", "c", "a", "b", "c", "a"]])
    relabeled = from_words([["x", "y", "z", "x", "y", "z"]])
    reversed_flipped = from_words([["c'", "b'", "a'", "c'", "b'", "a'"]])
    for other in (rotated, relabeled, reversed_flipped):
        assert canonical_key(base) == canonical_key(other)


def test_reorienting_one_edge_disc_is_invisible():
    # flipping BOTH arrows of one label is a re-orientation of that edge disc
    assert equivalent(
        from_words([["a", "b", "a", "b"]]),
        from_words([["a'", "b", "a'", "b"]]),
    )
    assert equivalent(
        from_words([["a", "a'"]]),
        from_words([["a'", "a"]]),
    )


def test_flipping_a_single_arrow_changes_the_class():
    assert not equivalent(
        from_words([["a", "a"]]),
        from_words([["a", "a'"]]),
    )


def test_curve_permutation_is_invisible():
    a = from_words([["x", "x"], ["y"], ["y"]])
    b = from_words([["y"], ["x", "x"], ["y"]])
    assert canonical_key(a) == canonical_key(b)


def test_distinct_small_classes_are_separated():
    words = [
        [["a", "a"]],
        [["a", "a'"]],
        [["a"], ["a"]],
        [["a", "b", "a", "b"]],
        [["a", "a", "b", "b"]],
        [["a", "b", "a", "b'"]],
        [["a", "a"], []],
    ]
    keys = {canonical_key(from_words(w)) for w in words}
    assert len(keys) == len(words)


def test_empty_and_isolated_vertices():
    assert canonical_key(EMPTY) == b""
    assert canonical_key(from_words([[]])) == b"()"
    assert not equivalent(EMPTY, from_words([[]]))
    assert not equivalent(from_words([[]]), from_words([[], []]))


def test_equivalence_is_invariant_under_random_re_presentation():
    rng = random.Random("canon")
    for i in range(150):
        g = random_ribbon_graph(rng.randint(1, 5), f"cn-{i}")
        # re-present: rotate each curve, shuffle curve order, rename labels
        names = {l: f"r{j}" for j, l in enumerate(rng.sample(g.labels(), len(g.labels())))}
        curves = []
        for curve in g.words():
            k = rng.randrange(len(curve)) if curve else 0
            rotated = curve[k:] + curve[:k]
            curves.append(
                [
                    names[t.rstrip("'")] + ("'" if t.endswith("'") else "")
                    for t in rotated
                ]
            )
        rng.shuffle(curves)
        h = from_words(curves)
        assert equivalent(g, h), (g.words(), h.words())


def test_equivalent_graphs_share_surface_summary():
    rng = random.Random("canon-surface")
    pool = [random_ribbon_graph(rng.randint(0, 4), f"cs-{i}") for i in range(120)]
    by_key = {}
    for g in pool:
        by_key.setdefault(canonical_key(g), []).append(g)
    for group in by_key.values():
        first = surface_summary(group[0]).as_dict()
        for other in group[1:]:
            assert surface_summary(other).as_dict() == first


def test_size_bound_is_enforced_and_overridable():
    big = from_words([[f"e{i}" for i in range(9)] + [f"e{i}" for i in range(9)]])
    with pytest.raises(SizeBoundExceeded):
        canonical_key(big)
    assert canonical_key(big, max_edges=9)  # explicit override succeeds


NINE = from_words([[f"e{i}" for i in range(9)] * 2])


def test_identical_graphs_keep_every_refusal(monkeypatch):
    # an equal pair is decided without keys, but only once the bound admits it
    with pytest.raises(SizeBoundExceeded):
        equivalent(NINE, NINE)
    assert equivalent(NINE, NINE, max_edges=9)
    monkeypatch.setenv("RIBBONFORGE_MAX_EDGES", "nine")
    with pytest.raises(RibbonError, match="RIBBONFORGE_MAX_EDGES"):
        equivalent(NINE, NINE)


@pytest.mark.parametrize("other", [NINE, from_words([["a", "a"]])])
def test_a_bad_bound_is_refused_whatever_the_sizes(monkeypatch, other):
    with pytest.raises(RibbonError, match="max_edges must be >= 0"):
        equivalent(NINE, other, max_edges=-1)
    monkeypatch.setenv("RIBBONFORGE_MAX_EDGES", "0")
    with pytest.raises(RibbonError, match="RIBBONFORGE_MAX_EDGES"):
        equivalent(NINE, other)


@pytest.mark.parametrize("bound", [True, False, 2.5, "9", 8.0])
def test_a_bound_must_be_an_int(bound):
    # unchecked, a bool bounds at 0 or 1, a float compares as a number and a
    # str raises TypeError; each is bad input, as a negative bound is
    g = from_words([["a", "a"]])
    for call in (canonical_key, one_step_minors):
        with pytest.raises(RibbonError) as got:
            call(g, max_edges=bound)
        assert str(got.value) == f"max_edges must be an int, not {bound!r}"
    with pytest.raises(RibbonError, match="max_edges must be an int"):
        equivalent(NINE, g, max_edges=bound)


def test_equivalent_reads_the_environment_once_per_call(monkeypatch):
    limits = import_module("ribbonforge.limits")
    reads = []
    override = limits.env_override

    def counted():
        reads.append(1)
        return override()

    monkeypatch.setattr(limits, "env_override", counted)
    small = from_words([["a", "a"]])
    assert equivalent(small, from_words([["b", "b"]]))
    assert not equivalent(NINE, small)
    assert len(reads) == 2
    assert equivalent(small, small, max_edges=1)
    assert len(reads) == 2


def test_other_sizes_are_inequivalent_even_above_the_bound():
    # a replayed script above its target's size is wrong, not refused
    small = from_words([["a", "a"]])
    assert not equivalent(NINE, small)
    assert not equivalent(NINE, small, max_edges=1)


# -- the level-by-level search, kept as the oracle ---------------------------


def reference_render(variant, assign, pending):
    assign = dict(assign)
    pending = dict(pending)
    enc = []
    for label, along in variant:
        if label in pending:
            enc.append((assign[label], 1 if along == pending.pop(label) else 0))
        else:
            assign[label] = len(assign)
            pending[label] = along
            enc.append((assign[label], 1))
    return tuple(enc), assign, pending


def reference_component_key(pres):
    """Branch-and-bound over every curve order and reading: each level keeps
    the states whose new piece is least, trying every unused curve."""
    if pres.edge_count == 0:
        return b"()" * len(pres.curves)
    curves = pres.curves
    encoding = []
    states = [(0, {}, {})]
    for _ in range(len(curves)):
        best = None
        next_states = {}
        for used, assign, pending in states:
            tried = set()
            for ci, curve in enumerate(curves):
                if used >> ci & 1 or curve in tried:
                    continue
                tried.add(curve)
                backward = tuple(a.reversed() for a in reversed(curve))
                for variant in {
                    b[r:] + b[:r] for b in (curve, backward) for r in range(len(curve))
                }:
                    piece, assign2, pending2 = reference_render(variant, assign, pending)
                    if best is not None and piece > best:
                        continue
                    if best is None or piece < best:
                        best = piece
                        next_states = {}
                    dedup = (
                        used | 1 << ci,
                        tuple(sorted(assign2.items())),
                        tuple(sorted(pending2.items())),
                    )
                    next_states[dedup] = (used | 1 << ci, assign2, pending2)
        encoding.append(best)
        states = list(next_states.values())
    return "|".join(
        " ".join(f"{i}{'+' if f else '-'}" for i, f in piece) for piece in encoding
    ).encode("ascii")


def oracle_graphs():
    # every child of every class up to three edges, each distinct child once
    yield from dict.fromkeys(
        child
        for n in range(4)
        for parent in _layer(n)
        for child in _children(parent, f"e{n + 1}")
    )
    rng = random.Random("canon-oracle")
    randoms = [random_ribbon_graph(1 + s % 12, f"or{s}") for s in range(300)]
    yield from randoms
    for _ in range(60):
        yield disjoint_union(*rng.sample(randoms, rng.randint(2, 3)))
    for n in range(3, 10):
        yield build_B(n)


def test_key_matches_the_branch_and_bound_oracle():
    reference = {}
    for g in oracle_graphs():
        parts = components(g)
        for part in parts:
            if part not in reference:
                reference[part] = reference_component_key(part)
                assert canonical._component_key(part) == reference[part], part.words()
        assert canonical_key(g, g.edge_count) == b";".join(
            sorted(reference[part] for part in parts)
        )


def test_keys_of_the_four_edge_classes_are_frozen():
    keys = b"\n".join(map(canonical_key, enumerate_presentations(4)))
    assert hashlib.sha256(keys).hexdigest() == (
        "8d08756447e1606f549699831ab7c96911219d43bf884eeecf52d6cd57e445c3"
    )


def test_only_the_first_curve_read_is_searched(monkeypatch):
    # after the first curve every reading is forced, so the level-0 reading
    # pass takes each distinct curve once and no chain calls it again
    calls = []
    readings = canonical._first_starts

    def counted(table, ci, *rest):
        calls.append(table.arrow[table.start[ci]:table.start[ci + 1]])
        return readings(table, ci, *rest)

    monkeypatch.setattr(canonical, "_first_starts", counted)
    g = random_ribbon_graph(8, "w6")
    assert len(components(g)) == 1 and len(set(g.curves)) == len(g.curves) == 6
    canonical._component_key.cache_clear()
    canonical_key(g)
    assert sorted(calls) == sorted(g.curves)
    # two equal curves are one distinct curve
    twins = from_words([["a", "b"], ["a", "b"]])
    canonical._component_key.cache_clear()
    calls.clear()
    canonical_key(twins)
    assert calls == [twins.curves[0]]


def test_threads_share_the_caches_and_get_the_serial_keys(monkeypatch):
    # the threads run first, on cleared caches, so they fill them together
    graphs = [random_ribbon_graph(1 + s % 10, f"thread-{s}") for s in range(300)]
    start = threading.Barrier(4, timeout=60)

    def keys(i):
        # each thread starts a quarter further on, so all of them meet misses
        start.wait()
        turned = graphs[75 * i:] + graphs[:75 * i]
        found = {g: canonical_key(g, 10) for g in turned}
        return [found[g] for g in graphs]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    results = []
    try:
        with ThreadPoolExecutor(4) as pool:
            for _ in range(3):
                canonical._component_key.cache_clear()
                monkeypatch.setattr(import_module("ribbonforge.presentation"), "_RECENT", ())
                results += pool.map(keys, range(4))
    finally:
        sys.setswitchinterval(switch)
    canonical._component_key.cache_clear()
    serial = [canonical_key(g, 10) for g in graphs]
    assert results == [serial] * 12


def _curve_word(draw, labels, period=1):
    # the labels in a drawn order with drawn flips, as tokens, repeated
    word = draw(st.permutations(labels))
    flips = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return [t + "'" if f else t for t, f in zip(word, flips)] * period


@st.composite
def _key_graphs(draw):
    kind = draw(st.sampled_from(["random", "periodic", "lone", "bouquet"]))
    seed = draw(st.integers(0, 10**6))
    if kind == "random":
        return random_ribbon_graph(draw(st.integers(1, 8)), seed)
    if kind == "periodic":
        # a b a b, a b c a b c, ...: rotations that read the same
        k = draw(st.integers(1, 4))
        return from_words([_curve_word(draw, [f"p{i}" for i in range(k)], 2)])
    if kind == "bouquet":
        n = draw(st.integers(1, 6))
        return from_words([_curve_word(draw, [f"e{i}" for i in range(n)] * 2)])
    # one-arrow curves read both ways, hung on the curves of a random graph
    words = random_ribbon_graph(draw(st.integers(1, 5)), seed).words()
    for i in range(draw(st.integers(1, 3))):
        host = draw(st.integers(0, len(words) - 1))
        at = draw(st.integers(0, len(words[host])))
        label, flip = f"x{i}", "'" if draw(st.booleans()) else ""
        words[host] = words[host][:at] + [label] + words[host][at:]
        words.append([label + flip])
    return from_words(words)


@settings(max_examples=300, deadline=None)
@given(_key_graphs())
@example(from_words([["a", "b", "a", "b"]]))
@example(from_words([["a", "b", "c", "a", "b", "c"]]))
@example(from_words([["a", "b'", "a", "b'"], ["c"], ["c"]]))
@example(from_words([["a", "b", "b"], ["a"]]))
@example(from_words([["a", "b", "b"], ["a'"]]))
@example(from_words([["x"], ["x'"]]))
@example(from_words([["x"], ["x"], ["y", "y'"]]))
@example(from_words([["a", "b", "c", "a", "c", "b"]]))
def test_filtered_first_readings_match_the_branch_and_bound_oracle(g):
    for part in components(g):
        got = canonical._component_key.__wrapped__(part)
        assert got == reference_component_key(part), part.words()


@pytest.mark.parametrize(
    "curves",
    [
        [["a", "a", "a"]],
        [["a", "b", "a"], ["b", "a"]],
    ],
)
def test_a_label_on_three_arrows_is_an_internal_error(curves):
    # built directly, past validation, as only a bug inside the package could
    broken = ArrowPresentation(
        tuple(tuple(Arrow(label, True) for label in curve) for curve in curves)
    )
    with pytest.raises(InternalInvariantViolation, match="seen more than twice") as err:
        canonical._component_key(broken)
    assert err.value.exit_code == 3


def _built_directly(curves):
    # past validation, as only a bug inside the package could build it
    return ArrowPresentation(
        tuple(tuple(Arrow(label, True) for label in curve) for curve in curves)
    )


# every entry point that reads the slot table, and the spanning forest's split
MISCOUNT_CALLS = (
    canonical_key,
    components,
    surface_summary,
    lambda g: partial_dual(g, {"a"}),
    lambda g: contract_edge(g, "a"),
    underlying_edges,
    twists,
    odd_twist_cycle,
    lambda g: is_separating_vertex(g, 0),
)


@pytest.mark.parametrize(
    "curves",
    [
        [["a", "a", "a"]],
        [["a", "b", "a"], ["b", "a"]],
        [["a", "b", "a"], ["b", "a"], []],
        [["a", "a", "a"], ["b", "b"]],
    ],
)
def test_keys_and_splits_refuse_a_label_on_three_arrows_alike(curves):
    broken = _built_directly(curves)
    for call in MISCOUNT_CALLS:
        with pytest.raises(InternalInvariantViolation, match="seen more than twice") as e:
            call(broken)
        assert e.value.exit_code == 3


@pytest.mark.parametrize(
    "curves",
    [
        [["a", "b", "a"]],
        [["a", "b"], ["a"]],
        [["a", "a"], ["b"], []],
        [["b"]],
    ],
)
def test_every_entry_point_refuses_a_label_on_one_arrow(curves):
    broken = _built_directly(curves)
    for call in MISCOUNT_CALLS:
        with pytest.raises(InternalInvariantViolation, match="'b' seen less than") as e:
            call(broken)
        assert e.value.exit_code == 3


def _count_tables(monkeypatch):
    """The list of presentations that slot tables are asked for, anywhere;
    each table built walks the curve graph once."""
    tables = []

    def counted(pres):
        tables.append(pres)
        return _slot_table(pres)

    for module in (canonical, import_module("ribbonforge.presentation")):
        monkeypatch.setattr(module, "_slot_table", counted)
    return tables


def test_connected_graphs_are_keyed_without_splitting(monkeypatch):
    tables = _count_tables(monkeypatch)
    g = random_ribbon_graph(8, "w6")
    assert g.vertex_count > 1 and len(components(g)) == 1
    canonical._component_key.cache_clear()
    tables.clear()
    with_bare = from_words(g.words() + [[], []])
    assert canonical_key(with_bare) == b"();();" + canonical_key(g)
    assert tables == [g]
    # isolated vertices key with no lookup at all
    canonical._component_key.cache_clear()
    assert canonical_key(from_words([[], [], []])) == b"();();()"
    assert canonical._component_key.cache_info().misses == 0
    # a disconnected rest is split into the parts its one table found, and
    # each part's one table serves both its connectivity check and its chains
    both = disjoint_union(g, g)
    canonical._component_key.cache_clear()
    tables.clear()
    assert canonical_key(both, 16) == canonical_key(g) + b";" + canonical_key(g)
    assert tables.count(both) == 1
    assert len(tables) == 3 and all(t.vertex_count == 6 for t in tables[1:])


def test_a_repeated_split_body_is_one_cache_hit(monkeypatch):
    # a disconnected body's key is cached like a connected one's, so an
    # equal copy built afresh builds no table and adds no miss
    tables = _count_tables(monkeypatch)
    g = random_ribbon_graph(8, "w6")
    both = disjoint_union(g, g)
    key = canonical_key(both, 16)
    again = disjoint_union(g, g)
    assert again == both and again is not both
    misses = canonical._component_key.cache_info().misses
    tables.clear()
    assert canonical_key(again, 16) == key
    assert tables == []
    assert canonical._component_key.cache_info().misses == misses
