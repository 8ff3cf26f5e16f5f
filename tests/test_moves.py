"""Deletion, contraction, partial duality: frozen oracles and identities."""

import random

import pytest

import ribbonforge.moves as moves
from ribbonforge import (
    EMPTY,
    UnknownLabel,
    build_B,
    build_Bbar1,
    build_theta_t,
    canonical_key,
    contract_edge,
    delete_edge,
    equivalent,
    euler_genus,
    from_words,
    geometric_dual,
    intersection_graph,
    is_orientable,
    partial_dual,
    random_ribbon_graph,
    surface_summary,
)

B1 = from_words([["a", "a"]])
TORUS = from_words([["a", "b", "a", "b"]])
EDGE = from_words([["a"], ["a"]])


def test_delete_edge_small_oracles():
    assert delete_edge(B1, "a") == from_words([[]])
    assert delete_edge(TORUS, "a") == from_words([["b", "b"]])
    g = delete_edge(EDGE, "a")
    assert g.vertex_count == 2 and g.edge_count == 0
    with pytest.raises(UnknownLabel):
        delete_edge(B1, "zz")


def test_contract_edge_small_oracles():
    # trivial untwisted loop: splits its vertex in two
    assert contract_edge(B1, "a") == from_words([[], []])
    # twisted loop: vertex survives as a single bare vertex
    assert contract_edge(build_Bbar1(), "a") == from_words([[]])
    # non-loop edge: merges the endpoints
    assert contract_edge(EDGE, "a") == from_words([[]])
    # interlaced loop of the torus bouquet: leaves a single loop
    assert equivalent(contract_edge(TORUS, "a"), from_words([["b"], ["b"]]))


def test_splice_curve_words_are_pinned():
    assert contract_edge(build_B(5), "e3").words() == [
        ["e1", "e5", "e2", "e1", "e5", "e4"],
        ["e2", "e4"],
    ]


def test_single_label_dual_words_are_pinned():
    assert partial_dual(build_B(5), {"e3"}).words() == [
        ["e1", "e3'", "e5", "e4", "e1", "e5", "e2"],
        ["e2", "e4", "e3'"],
    ]


def test_contract_edge_rejects_unknown_label_from_one_arrow_pass(monkeypatch):
    def forbidden(self, label):
        raise AssertionError("second arrow pass")

    monkeypatch.setattr(moves.ArrowPresentation, "arrow_positions", forbidden)
    assert contract_edge(EDGE, "a") == from_words([[]])
    with pytest.raises(UnknownLabel) as info:
        contract_edge(B1, "zz")
    assert str(info.value) == "label 'zz' not present exactly twice"


def test_partial_dual_over_a_set_is_one_walk(monkeypatch):
    calls = []
    walk = moves.walk_arcs

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(moves, "walk_arcs", counted)
    partial_dual(build_B(7), {"e1", "e2", "e4", "e6"})
    assert len(calls) == 1


def test_partial_dual_over_a_set_matches_label_by_label():
    rng = random.Random("one-walk")
    for i in range(300):
        g = random_ribbon_graph(rng.randint(1, 8), f"ow-{i}")
        subset = {l for l in g.labels() if rng.random() < 0.5}
        stepwise = g
        for label in sorted(subset):
            stepwise = partial_dual(stepwise, {label})
        at_once = partial_dual(g, subset)
        assert canonical_key(at_once) == canonical_key(stepwise)
        if len(at_once.curves) == 1:
            assert intersection_graph(at_once) == intersection_graph(stepwise)


def test_geometric_dual_small_oracles():
    assert equivalent(geometric_dual(B1), EDGE)
    assert equivalent(geometric_dual(EDGE), B1)
    assert equivalent(geometric_dual(build_Bbar1()), build_Bbar1())
    assert equivalent(geometric_dual(TORUS), TORUS)


def test_theta_and_b3_partial_duals():
    b3, theta = build_B(3), build_theta_t()
    assert equivalent(partial_dual(b3, {"e1"}), theta)
    for e in theta.labels():
        assert equivalent(partial_dual(theta, {e}), b3)


def test_partial_dual_at_empty_set_is_identity():
    for g in (B1, TORUS, EDGE, build_theta_t()):
        assert partial_dual(g, set()) == g


def test_partial_dual_can_change_genus_but_not_orientability():
    assert euler_genus(TORUS) == 2
    assert euler_genus(partial_dual(TORUS, {"a"})) == 0
    assert is_orientable(partial_dual(TORUS, {"a"}))
    twisted = from_words([["t", "t'", "a", "a"]])
    for sub in ({"t"}, {"a"}, {"t", "a"}):
        assert not is_orientable(partial_dual(twisted, sub))


def test_full_dual_preserves_genus():
    rng = random.Random("dual-genus")
    for i in range(100):
        g = random_ribbon_graph(rng.randint(0, 6), f"dg-{i}")
        assert euler_genus(geometric_dual(g)) == euler_genus(g)


def test_contraction_is_dual_then_delete():
    rng = random.Random("contract")
    for i in range(100):
        g = random_ribbon_graph(rng.randint(1, 6), f"cd-{i}")
        e = rng.choice(g.labels())
        assert equivalent(contract_edge(g, e), delete_edge(partial_dual(g, {e}), e))


def test_partial_duals_compose_by_symmetric_difference():
    rng = random.Random("compose")
    for i in range(100):
        g = random_ribbon_graph(rng.randint(1, 5), f"pc-{i}")
        labels = list(g.labels())
        a = {l for l in labels if rng.random() < 0.5}
        b = {l for l in labels if rng.random() < 0.5}
        assert equivalent(partial_dual(partial_dual(g, a), b), partial_dual(g, a ^ b))


def test_dual_is_involutive():
    rng = random.Random("involute")
    for i in range(60):
        g = random_ribbon_graph(rng.randint(0, 5), f"inv-{i}")
        assert canonical_key(geometric_dual(geometric_dual(g))) == canonical_key(g)


def test_deletion_and_contraction_commute_on_distinct_edges():
    rng = random.Random("commute")
    for i in range(80):
        g = random_ribbon_graph(rng.randint(2, 6), f"cm-{i}")
        e, f = rng.sample(g.labels(), 2)
        assert delete_edge(delete_edge(g, e), f) == delete_edge(delete_edge(g, f), e)
        assert equivalent(
            contract_edge(delete_edge(g, e), f),
            delete_edge(contract_edge(g, f), e),
        )


def test_operations_preserve_wellformedness():
    rng = random.Random("wf")
    for i in range(80):
        g = random_ribbon_graph(rng.randint(1, 6), f"wfx-{i}")
        e = rng.choice(g.labels())
        for h in (delete_edge(g, e), contract_edge(g, e), partial_dual(g, {e})):
            surface_summary(h)  # validates internally; raises on malformation
            if h != EMPTY:
                assert h.edge_count in (g.edge_count, g.edge_count - 1)
