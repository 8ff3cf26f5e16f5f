"""Minor scripts, containment search, genus extraction, obstruction families."""

import random

import pytest

from ribbonforge import (
    EMPTY,
    InternalInvariantViolation,
    MinorScript,
    RibbonError,
    apply_step,
    b_family_members,
    bbar1_script,
    boundary_component_count,
    build_B,
    build_Bbar1,
    build_theta_t,
    canonical_key,
    components,
    contract_edge,
    contraction_chain_Bn,
    delete_edge,
    disjoint_union,
    equivalent,
    euler_genus,
    excluded_minor_scan,
    extract_genus_minor,
    from_words,
    has_minor,
    is_orientable,
    one_step_minors,
    partial_dual,
    random_ribbon_graph,
    replay,
    verified_script,
)


def test_pattern_builders():
    assert build_Bbar1().words() == [["a", "a'"]] or equivalent(
        build_Bbar1(), from_words([["a", "a'"]])
    )
    assert build_B(3).edge_count == 3 and build_B(3).vertex_count == 1
    theta = build_theta_t()
    assert theta.vertex_count == 2 and theta.edge_count == 3
    assert boundary_component_count(theta) == 1
    with pytest.raises(RibbonError):
        build_B(0)


def test_apply_step_guards_vertex_deletion():
    g = from_words([["a", "a"], []])
    assert apply_step(g, ("delete_vertex", 1)).vertex_count == 1
    with pytest.raises(InternalInvariantViolation):
        apply_step(g, ("delete_vertex", 0))  # not isolated
    with pytest.raises(RibbonError):
        apply_step(g, ("frobnicate", "a"))


def test_replay_and_verified_script():
    g = from_words([["a", "b", "a", "b"]])
    script = MinorScript((("delete_edge", "a"), ("delete_edge", "b"),
                          ("delete_vertex", 0)))
    assert replay(g, script) == EMPTY
    assert script.as_json() == [
        ["delete_edge", "a"],
        ["delete_edge", "b"],
        ["delete_vertex", 0],
    ]
    ok = verified_script(g, script.steps, EMPTY)
    assert ok.steps == script.steps
    with pytest.raises(InternalInvariantViolation):
        verified_script(g, (("delete_edge", "a"),), EMPTY)


def test_one_step_minors_cover_all_operations():
    g = from_words([["a", "a"], [], ["b"], ["b"]])
    steps = {step for step, _ in one_step_minors(g)}
    assert ("delete_edge", "a") in steps
    assert ("delete_vertex", 1) in steps
    assert any(op == "contract_edge" for op, _ in steps)


def test_one_step_minors_dedup_children_by_class():
    # one representative step per resulting class: deleting either trivial
    # loop below lands on the same graph, so only one deletion is offered
    g = from_words([["e1", "e1", "e2", "e2"]])
    children = one_step_minors(g)
    assert len(children) == 2  # one delete, one contract
    rng = random.Random("dedup")
    for i in range(60):
        h = random_ribbon_graph(rng.randint(0, 6), f"dd-{i}")
        keys = [canonical_key(child, 8) for _, child in one_step_minors(h, 8)]
        assert len(keys) == len(set(keys))


def test_one_step_minors_never_raise_genus():
    rng = random.Random("monotone")
    for i in range(120):
        g = random_ribbon_graph(rng.randint(1, 6), f"mono-{i}")
        before = euler_genus(g)
        for _, child in one_step_minors(g):
            assert euler_genus(child) <= before
            if is_orientable(g):
                assert is_orientable(child)


def test_has_minor_is_reflexive_and_finds_small_patterns():
    for g in (build_Bbar1(), build_B(3), build_theta_t()):
        found, script = has_minor(g, g)
        assert found and script.steps == ()
    found, script = has_minor(build_B(5), build_B(3), max_edges=8)
    assert found
    assert equivalent(replay(build_B(5), script), build_B(3))


def test_has_minor_negative_cases():
    b3, theta = build_B(3), build_theta_t()
    assert has_minor(b3, theta) == (False, None)
    assert has_minor(theta, b3)[0] is False
    assert has_minor(from_words([["a", "a"]]), build_Bbar1()) == (False, None)


def test_has_minor_transitivity_spot_check():
    b9, b7, b3 = build_B(9), build_B(7), build_B(3)
    found, s1 = has_minor(b9, b7, max_edges=9)
    assert found
    mid = replay(b9, s1)
    found, s2 = has_minor(mid, b3, max_edges=9)
    assert found
    assert equivalent(replay(mid, s2), b3, 9)


def test_has_minor_memo_limit():
    from ribbonforge.errors import SizeBoundExceeded

    with pytest.raises(SizeBoundExceeded):
        has_minor(build_B(7), build_B(3), max_edges=8, memo_limit=5)


def test_bbar1_script_on_non_orientable_graphs():
    rng = random.Random("bbar1")
    checked = 0
    for i in range(200):
        g = random_ribbon_graph(rng.randint(1, 6), f"nb-{i}")
        if is_orientable(g):
            continue
        checked += 1
        script = bbar1_script(g)
        assert equivalent(replay(g, script), build_Bbar1())
    assert checked > 30
    with pytest.raises(RibbonError):
        bbar1_script(build_B(3))


def test_bbar1_script_steps_are_pinned():
    g = from_words([["a", "b"], ["c", "d"], ["c'", "d"], ["a", "b'"]])
    assert bbar1_script(g).as_json() == [
        ["delete_edge", "c"], ["delete_edge", "d"],
        ["delete_vertex", 2], ["delete_vertex", 1], ["contract_edge", "a"],
    ]
    # interleaved components: the one holding curve 0 is searched first
    g = from_words([["a", "b"], ["d", "e"], ["a", "c"], ["b", "c'"], ["d", "e'"]])
    assert bbar1_script(g).as_json() == [
        ["delete_edge", "d"], ["delete_edge", "e"],
        ["delete_vertex", 4], ["delete_vertex", 1],
        ["contract_edge", "a"], ["contract_edge", "b"],
    ]


def test_contraction_chain_reaches_b3():
    for n in (5, 7):
        script = contraction_chain_Bn(n)
        assert all(op == "contract_edge" for op, _ in script.steps)
        assert equivalent(replay(build_B(n), script), build_B(3), 8)
    with pytest.raises(RibbonError):
        contraction_chain_Bn(4)
    with pytest.raises(RibbonError):
        contraction_chain_Bn(3)


def test_excluded_minor_scan_verdicts():
    assert excluded_minor_scan(from_words([["a", "b", "a", "b"]])) == {}
    assert set(excluded_minor_scan(build_B(3))) == {"b3"}
    assert set(excluded_minor_scan(build_theta_t())) == {"theta_t"}
    assert "bbar1" in excluded_minor_scan(from_words([["a", "a'"]]))
    b5_scan = excluded_minor_scan(build_B(5))
    assert "b3" in b5_scan
    assert equivalent(replay(build_B(5), b5_scan["b3"]), build_B(3))


def test_delete_only_search_cannot_reach_b3_from_b5():
    # loops cannot be contracted here, so interlacement stays an induced
    # subgraph of a 5-cycle and never becomes a triangle
    b3_key = canonical_key(build_B(3), 8)
    frontier = [build_B(5)]
    seen = set()
    while frontier:
        nxt = []
        for g in frontier:
            for step, child in one_step_minors(g, 8):
                if step[0] == "contract_edge" and g.is_loop(step[1]):
                    continue
                key = canonical_key(child, 8)
                if key in seen:
                    continue
                seen.add(key)
                assert key != b3_key
                nxt.append(child)
        frontier = nxt
    # while the unrestricted search does reach it
    assert has_minor(build_B(5), build_B(3), max_edges=8)[0]


def test_extract_genus_minor_orientable():
    torus = from_words([["a", "b", "a", "b"]])
    script = extract_genus_minor(torus, 0)
    end = replay(torus, script)
    assert euler_genus(end) == 0
    with pytest.raises(RibbonError):
        extract_genus_minor(torus, 1)  # orientable graphs move in steps of two
    with pytest.raises(RibbonError):
        extract_genus_minor(torus, 2)  # already there
    with pytest.raises(RibbonError):
        extract_genus_minor(torus, -1)


def test_extract_genus_minor_backtracks_past_parity_trap():
    # the only boundary-preserving deletion kills the twisted loop, so the
    # greedy step order alone would strand the odd target behind parity
    g = from_words([["t", "t'", "a", "b", "a", "b"]])
    script = extract_genus_minor(g, 1)
    end = replay(g, script)
    assert equivalent(end, build_Bbar1())


def test_extract_genus_minor_across_components():
    g = disjoint_union(build_Bbar1(), build_Bbar1())
    end = replay(g, extract_genus_minor(g, 1))
    assert equivalent(end, build_Bbar1())


def test_extract_genus_minor_random_targets():
    rng = random.Random("extract")
    for i in range(150):
        g = random_ribbon_graph(rng.randint(1, 6), f"ex-{i}")
        genus = euler_genus(g)
        if genus == 0:
            continue
        targets = [t for t in range(genus) if is_orientable(g) is False or (genus - t) % 2 == 0]
        for t in targets:
            end = replay(g, extract_genus_minor(g, t))
            assert euler_genus(end) == t
            assert all(
                boundary_component_count(c) == 1 for c in components(end)
            )


def test_b_family_membership():
    fam0 = b_family_members(0, 3)
    keys = {canonical_key(m) for m in fam0}
    assert canonical_key(build_Bbar1()) in keys
    assert canonical_key(from_words([["a", "b", "a", "b"]])) in keys
    assert len(fam0) == 2
    fam1 = b_family_members(1, 3)
    assert canonical_key(disjoint_union(build_Bbar1(), build_Bbar1())) in {
        canonical_key(m) for m in fam1
    }
    assert all(euler_genus(m) == 2 for m in fam1)
    with pytest.raises(RibbonError):
        b_family_members(-1, 3)


def test_minors_of_duals_are_duals_of_minors():
    # the classes of minors of the dual are exactly the classes of duals of
    # minors, for every two-edge graph and every dualized subset; the closure
    # must keep label-distinct minors apart (two isomorphic minors can retain
    # different labels and so dualize differently), hence the exact-form dedup
    from itertools import combinations

    from ribbonforge import enumerate_presentations, serialize_arp

    def raw_children(g):
        for label in g.labels():
            yield delete_edge(g, label)
            yield contract_edge(g, label)
        for i, word in enumerate(g.words()):
            if not word:
                yield apply_step(g, ("delete_vertex", i))

    def concrete_minors(g):
        seen = {serialize_arp(g): g}
        frontier = [g]
        while frontier:
            nxt = []
            for cur in frontier:
                for child in raw_children(cur):
                    form = serialize_arp(child)
                    if form not in seen:
                        seen[form] = child
                        nxt.append(child)
            frontier = nxt
        return seen.values()

    for g in enumerate_presentations(2):
        labels = g.labels()
        for r in range(len(labels) + 1):
            for sub in combinations(labels, r):
                dual = partial_dual(g, set(sub))
                lhs = {
                    canonical_key(
                        partial_dual(j, set(sub) & set(j.labels())), 8
                    )
                    for j in concrete_minors(g)
                }
                rhs = {canonical_key(h, 8) for h in concrete_minors(dual)}
                assert lhs == rhs, (g.words(), sub)
