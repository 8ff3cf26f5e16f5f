"""Minor scripts, run replay, containment search, obstruction families."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closures import braid_closure_pd
from ribbonforge import (
    EMPTY,
    InternalInvariantViolation,
    MinorScript,
    RibbonError,
    UnknownLabel,
    UnknownVertex,
    all_A_ribbon_graph,
    apply_step,
    b_family_members,
    bbar1_script,
    boundary_component_count,
    build_B,
    build_Bbar1,
    build_theta_t,
    canonical_key,
    contract_edge,
    delete_edge,
    disjoint_union,
    enumerate_presentations,
    equivalent,
    euler_genus,
    excluded_minor_scan,
    from_words,
    has_minor,
    is_orientable,
    one_step_minors,
    parse_pd,
    partial_dual,
    random_ribbon_graph,
    replay,
    surface_summary,
    underlying_edges,
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
    with pytest.raises(UnknownVertex):
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


def _replay_step_by_step(pres, script):
    """Replay one ``apply_step`` at a time, as it once was: the oracle."""
    for step in script.steps:
        pres = apply_step(pres, step)
    return pres


def _splices_several(script):
    """Whether replay contracts two or more edges in one splice: a run of
    contractions with no vertex deletion anywhere after it."""
    ops = [op for op, _ in script.steps]
    return any(
        ops[i] == ops[i + 1] == "contract_edge" and "delete_vertex" not in ops[i:]
        for i in range(len(ops) - 1)
    )


@st.composite
def _scripted_graphs(draw):
    """A random graph and a valid script of mixed runs, built step by step."""
    g = random_ribbon_graph(draw(st.integers(3, 12)), draw(st.integers(0, 10**6)))
    cur, steps = g, []
    for _ in range(draw(st.integers(1, 6))):
        kinds = ["delete_edge", "contract_edge"] if cur.edge_count else []
        kinds += ["delete_vertex"] if cur.isolated_vertices() else []
        if not kinds:
            break
        kind = draw(st.sampled_from(kinds))
        for _ in range(draw(st.integers(1, 4))):
            args = cur.isolated_vertices() if kind == "delete_vertex" else cur.labels()
            if not args:
                break
            step = (kind, draw(st.sampled_from(args)))
            steps.append(step)
            cur = apply_step(cur, step)
    return g, MinorScript(tuple(steps))


@settings(max_examples=200, deadline=None)
@given(_scripted_graphs())
def test_replay_by_runs_matches_step_by_step(case):
    _assert_replays_as_step_by_step(*case)


def _assert_replays_as_step_by_step(g, script):
    expected = _replay_step_by_step(g, script)
    result = replay(g, script)
    if _splices_several(script):
        assert equivalent(result, expected, 12)
    else:
        assert result == expected


_RUNS_GRAPH = from_words([["a", "b", "a", "b"], ["c", "d"], ["c", "d"], []])


# Three trivial loops: splicing a and b at once leaves c on curve 0, while
# contracting them one at a time leaves it on curve 1.
_LOOPS = from_words([["a", "a", "b", "b", "c", "c"]])


@pytest.mark.parametrize("steps, spliced", [
    # one contraction run, spliced as a whole: equivalent, not equal
    ([("contract_edge", "a"), ("contract_edge", "b")], True),
    # a vertex deletion after the run names a curve of the edge-by-edge result
    ([("contract_edge", "a"), ("contract_edge", "b"), ("delete_vertex", 0)], False),
])
def test_fixed_scripts_take_both_replay_branches(steps, spliced):
    script = MinorScript(tuple(steps))
    assert _splices_several(script) is spliced
    _assert_replays_as_step_by_step(_LOOPS, script)
    # the branch taken shows: only the splice moves loop c to another curve
    same = replay(_LOOPS, script) == _replay_step_by_step(_LOOPS, script)
    assert same is not spliced


# each bad script with the class its first bad step raises: every one is bad
# input (exit 2), and a bad vertex step is an unknown vertex
BAD_SCRIPTS = [
    ([("frobnicate", "a")], RibbonError),
    ([("delete_edge", "a"), ("frobnicate", "b")], RibbonError),
    ([("delete_edge", "zz")], UnknownLabel),
    ([("delete_edge", "a"), ("delete_edge", "b"), ("delete_edge", "a")], UnknownLabel),
    ([("contract_edge", "c"), ("contract_edge", "zz"), ("contract_edge", "yy")],
     UnknownLabel),
    ([("contract_edge", "a"), ("contract_edge", "a")], UnknownLabel),
    ([("delete_edge", "a"), ("contract_edge", "a")], UnknownLabel),
    ([("delete_vertex", 0)], UnknownVertex),
    ([("delete_vertex", 4)], UnknownVertex),
    ([("delete_vertex", -1)], UnknownVertex),
    ([("delete_vertex", 3), ("delete_vertex", 3)], UnknownVertex),
    ([("delete_edge", "c"), ("delete_edge", "d"),
      ("delete_vertex", 2), ("delete_vertex", 1), ("delete_vertex", 1),
      ("delete_vertex", 1)], UnknownVertex),
    ([("contract_edge", "c"), ("contract_edge", "d"), ("delete_vertex", 0)],
     UnknownVertex),
    ([("delete_edge",)], RibbonError),
    ([("delete_edge", ["a"])], RibbonError),
    ([("delete_vertex", "0")], RibbonError),
    ([("delete_edge", "c"), None], RibbonError),
    ([("delete_vertex", True)], RibbonError),
    ([("delete_edge", "c"), ("delete_edge", "d"), ("delete_vertex", True)],
     RibbonError),
]


@pytest.mark.parametrize(
    "steps, error", BAD_SCRIPTS, ids=[f"steps{i}" for i in range(len(BAD_SCRIPTS))]
)
def test_bad_scripts_raise_as_step_by_step(steps, error):
    script = MinorScript(tuple(steps))
    with pytest.raises(RibbonError) as expected:
        _replay_step_by_step(_RUNS_GRAPH, script)
    with pytest.raises(RibbonError) as got:
        replay(_RUNS_GRAPH, script)
    assert type(expected.value) is error
    assert type(got.value) is error
    assert str(got.value) == str(expected.value)


def test_one_step_minors_cover_all_operations():
    g = from_words([["a", "a"], [], ["b"], ["b"]])
    steps = {step for step, _ in one_step_minors(g).values()}
    assert ("delete_edge", "a") in steps
    assert ("delete_vertex", 1) in steps
    assert any(op == "contract_edge" for op, _ in steps)


def test_one_step_minors_dedup_children_by_class():
    # one representative step per resulting class: deleting either trivial
    # loop below lands on the same graph, so only one deletion is offered
    g = from_words([["e1", "e1", "e2", "e2"]])
    children = one_step_minors(g)
    assert [step for step, _ in children.values()] == [
        ("delete_edge", "e1"),
        ("contract_edge", "e1"),
    ]
    rng = random.Random("dedup")
    for i in range(60):
        h = random_ribbon_graph(rng.randint(0, 6), f"dd-{i}")
        children = one_step_minors(h, 8)
        for key, (_, child) in children.items():
            assert key == canonical_key(child, 8)
        reached = {canonical_key(delete_edge(h, l), 8) for l in h.labels()}
        reached |= {canonical_key(contract_edge(h, l), 8) for l in h.labels()}
        assert reached <= set(children)


def test_one_step_minors_resolve_their_bound_on_entry(monkeypatch):
    from ribbonforge.errors import SizeBoundExceeded

    # a bad bound raises whether or not the graph has a child
    for g in (EMPTY, build_B(3)):
        with pytest.raises(RibbonError, match="max_edges must be >= 0"):
            one_step_minors(g, max_edges=-1)
    # the one check is against the largest child: both edge steps leave no
    # edge, so it is the vertex deletion, keeping one edge
    g = from_words([["a", "a"], []])
    with pytest.raises(SizeBoundExceeded) as got:
        one_step_minors(g, max_edges=0)
    with pytest.raises(SizeBoundExceeded) as expected:
        canonical_key(apply_step(g, ("delete_vertex", 1)), 0)
    assert str(got.value) == str(expected.value)
    monkeypatch.setenv("RIBBONFORGE_MAX_EDGES", "abc")
    for g in (EMPTY, build_B(3)):
        with pytest.raises(RibbonError, match="RIBBONFORGE_MAX_EDGES"):
            one_step_minors(g)


def test_one_step_minors_never_raise_genus():
    rng = random.Random("monotone")
    for i in range(120):
        g = random_ribbon_graph(rng.randint(1, 6), f"mono-{i}")
        before = euler_genus(g)
        for _, child in one_step_minors(g).values():
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


def test_has_minor_memo_limit(monkeypatch):
    from ribbonforge import minors
    from ribbonforge.errors import SizeBoundExceeded

    monkeypatch.setattr(minors, "MINOR_SEARCH_MEMO_LIMIT", 5)
    with pytest.raises(SizeBoundExceeded, match="more than 5 classes"):
        has_minor(build_B(7), build_B(3), max_edges=8)


def reference_has_minor(pres, target, max_edges=None):
    """The one-target breadth-first search that the shared search replaced.

    Kept as the oracle for scripts: it prunes only by edge count, Euler
    genus and orientability, so it still expands dead ends.
    """
    target_key = canonical_key(target, max_edges)
    target_edges = target.edge_count
    target_genus = euler_genus(target)
    target_orientable = is_orientable(target)

    def prunable(state):
        if state.edge_count < target_edges:
            return True
        if euler_genus(state) < target_genus:
            return True
        if not target_orientable and is_orientable(state):
            return True
        return False

    start_key = canonical_key(pres, max_edges)
    if start_key == target_key:
        return True, verified_script(pres, (), target)
    if prunable(pres):
        return False, None

    frontier = [(pres, ())]
    visited = {start_key}
    while frontier:
        nxt = []
        for state, steps in frontier:
            for key, (step, child) in one_step_minors(state, max_edges).items():
                if step[0] != "delete_vertex" and state.edge_count <= target_edges:
                    continue
                if key in visited:
                    continue
                visited.add(key)
                if key == target_key:
                    return True, verified_script(pres, steps + (step,), target)
                if not prunable(child):
                    nxt.append((child, steps + (step,)))
        frontier = nxt
    return False, None


def test_search_scripts_match_the_one_target_oracle():
    targets = {"bbar1": build_Bbar1(), "b3": build_B(3), "theta_t": build_theta_t()}
    graphs = list(enumerate_presentations(3))
    graphs += [random_ribbon_graph(4 + s % 3, f"oracle-{s}") for s in range(60)]
    for g in graphs:
        expected = {}
        for name, target in targets.items():
            found, script = reference_has_minor(g, target)
            assert has_minor(g, target) == (found, script), (g.words(), name)
            if found:
                expected[name] = script
        scan = excluded_minor_scan(g)
        assert list(scan) == list(expected), g.words()
        for name in ("b3", "theta_t"):
            assert scan.get(name) == expected.get(name), (g.words(), name)


def reference_minor_search(pres, targets, max_edges=None):
    """The shared search before it remembered operation sets: every child
    of an expanded state is built and keyed.  Kept as the oracle for the
    scripts of the search that skips repeated operation sets."""
    from ribbonforge import minors

    index = {canonical_key(t, max_edges): i for i, t in enumerate(targets)}
    min_edges = min(t.edge_count for t in targets)
    min_genus = min(euler_genus(t) for t in targets)
    any_orientable = any(is_orientable(t) for t in targets)
    scripts = [None] * len(targets)

    def prunable(state):
        edges = state.edge_count
        if edges < min_edges or edges == min_edges and not state.isolated_vertices():
            return True
        return euler_genus(state) < min_genus or (
            is_orientable(state) and not any_orientable
        )

    def children(state):
        if state.edge_count > min_edges:
            return one_step_minors(state, max_edges).items()
        # at the least target edge count only vertex deletions can help
        return [
            (canonical_key(child, max_edges), (step, child))
            for step in minors._one_step_order(state, edges=False)
            for child in [apply_step(state, step)]
        ]

    level = [(canonical_key(pres, max_edges), (), pres)]
    visited = set()
    while True:
        frontier = []
        for key, steps, state in level:
            if key in visited:
                continue
            visited.add(key)
            if key in index:
                i = index[key]
                scripts[i] = verified_script(pres, steps, targets[i])
                if None not in scripts:
                    return scripts
            if not prunable(state):
                frontier.append((state, steps))
        if not frontier:
            return scripts
        level = [
            (key, steps + (step,), child)
            for state, steps in frontier
            for key, (step, child) in children(state)
        ]


def test_search_scripts_match_the_memo_free_oracle():
    targets = [build_Bbar1(), build_B(3), build_theta_t()]
    graphs = list(enumerate_presentations(3))
    graphs += [random_ribbon_graph(3 + s % 5, f"memo-{s}") for s in range(40)]
    for g in graphs:
        for target in targets:
            (script,) = reference_minor_search(g, [target])
            assert has_minor(g, target) == (script is not None, script), g.words()
        scan = excluded_minor_scan(g)
        expected = reference_minor_search(g, targets[1:])
        for name, script in zip(("b3", "theta_t"), expected):
            assert scan.get(name) == script, (g.words(), name)


def test_search_builds_no_operation_set_twice(monkeypatch):
    # the class of a minor is fixed by its deleted and contracted edges and
    # how many vertices it deleted, so no such set is built twice
    from ribbonforge import minors

    apply, verify = minors.apply_step, minors.verified_script
    g = random_ribbon_graph(8, "w0")
    ops = {id(g): (frozenset(), 0)}
    made = [g]  # keeps every state alive, so no id is reused
    built = []
    replaying = []

    def counted(state, step):
        child = apply(state, step)
        if not replaying:
            done, bare = ops[id(state)]
            if step[0] == "delete_vertex":
                ops[id(child)] = (done, bare + 1)
            else:
                ops[id(child)] = (done | {step}, bare)
            built.append(ops[id(child)])
            made.append(child)
        return child

    def verified(*args):
        replaying.append(True)  # a found script is replayed from the start
        try:
            return verify(*args)
        finally:
            replaying.pop()

    monkeypatch.setattr(minors, "apply_step", counted)
    monkeypatch.setattr(minors, "verified_script", verified)
    assert has_minor(g, build_theta_t())[0]
    assert built and len(built) == len(set(built))


def test_distinct_edge_operations_commute():
    # the theory behind the search's memo: deleting or contracting two
    # distinct edges in either order gives one class, and deleting any
    # isolated vertex gives the class of deleting the first
    ops = (delete_edge, contract_edge)
    for s in range(48):
        g = random_ribbon_graph(3 + s % 6, f"commute-{s}")
        labels = g.labels()
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                for op_a in ops:
                    for op_b in ops:
                        assert equivalent(
                            op_b(op_a(g, a), b), op_a(op_b(g, b), a)
                        ), (g.words(), op_a.__name__, a, op_b.__name__, b)
        rng = random.Random(s)
        words = g.words() + [[], []]
        rng.shuffle(words)
        states = [from_words(words)]
        states += [op(g, label) for op in ops for label in labels]
        for state in states:
            bare = state.isolated_vertices()
            first = apply_step(state, ("delete_vertex", bare[0])) if bare else None
            for idx in bare[1:]:
                assert equivalent(apply_step(state, ("delete_vertex", idx)), first)


@pytest.fixture
def expanded(monkeypatch):
    """Every state the minor search expands, in order: each one whose steps
    it lists."""
    from ribbonforge import minors

    states = []
    order = minors._one_step_order

    def recording(state, *rest):
        states.append(state)
        return order(state, *rest)

    monkeypatch.setattr(minors, "_one_step_order", recording)
    return states


# representable, so of least partial-dual genus 0, below the 2 of B3 and
# theta_t: the search stops at the start
DISJOINT_TORI = ["a b a b c d c d", "a b a b c d c d e f e f"]
# theta_t with one or two tori at a point, curves split at " | ": not
# representable, so the search expands states down to three edges; B3 is
# no minor of them, so a search for it alone runs out like the scan
THETA_T_AND_TORI = [
    "t1 t2' t3' a b a b | t1' t3 t2", "t1 t2' t3' a b a b | t1' t3 t2 c d c d"
]


def _curves(word):
    return from_words([curve.split() for curve in word.split(" | ")])


def _closure_state(crossings, seed):
    return all_A_ribbon_graph(parse_pd(braid_closure_pd(crossings, 3, seed)))


@pytest.mark.parametrize("word", DISJOINT_TORI + THETA_T_AND_TORI)
def test_scan_is_one_search(expanded, word):
    g = _curves(word)
    has_minor(g, build_B(3))
    alone = len(expanded)
    expanded.clear()
    excluded_minor_scan(g)
    assert len(expanded) <= alone
    assert bool(expanded) == (word in THETA_T_AND_TORI)


@pytest.mark.parametrize("word", DISJOINT_TORI + THETA_T_AND_TORI)
def test_search_expands_no_dead_end(expanded, word):
    # at three edges only an isolated-vertex deletion keeps a state alive
    g = _curves(word)
    has_minor(g, build_B(3))
    excluded_minor_scan(g)
    assert bool(expanded) == (word in THETA_T_AND_TORI)
    assert not [
        s.words() for s in expanded if s.edge_count == 3 and not s.isolated_vertices()
    ]


@pytest.mark.parametrize("g", [_curves(word) for word in DISJOINT_TORI] + [
    _closure_state(8, "expand-0"),
    partial_dual(_closure_state(7, "expand-0"), {"1", "3"}),
])
def test_a_representable_start_expands_no_state(monkeypatch, expanded, g):
    # its least partial-dual genus is 0, below every floor of B3 and theta_t,
    # though its Euler genus is not
    from ribbonforge import minors

    apply = minors.apply_step
    built = []

    def counted(state, step):
        built.append(step)
        return apply(state, step)

    monkeypatch.setattr(minors, "apply_step", counted)
    assert euler_genus(g) >= 2
    assert excluded_minor_scan(g) == {}
    assert not has_minor(g, build_B(3))[0] and not has_minor(g, build_theta_t())[0]
    assert expanded == [] and built == []


def test_search_builds_only_vertex_deletions_at_the_target_size(monkeypatch):
    # at three edges a deletion or contraction leaves too few edges, so the
    # search must not build one (expanding such states fully builds 246 here)
    from ribbonforge import minors

    apply = minors.apply_step
    wasted = []

    def counted(state, step):
        if state.edge_count == 3 and step[0] != "delete_vertex":
            wasted.append(step)
        return apply(state, step)

    monkeypatch.setattr(minors, "apply_step", counted)
    g = random_ribbon_graph(8, "w0")
    assert [has_minor(g, t)[0] for t in (build_B(3), build_theta_t())] == [
        False,
        True,
    ]
    assert wasted == []


def test_search_builds_no_child_below_every_target_genus(monkeypatch):
    # B3 and theta_t both have Euler genus 2, and a child's genus is known
    # from its parent, so no child of genus 0 or 1 is built
    from ribbonforge import minors

    apply = minors.apply_step
    genera = []

    def counted(state, step):
        child = apply(state, step)
        genera.append(euler_genus(child))
        return child

    monkeypatch.setattr(minors, "apply_step", counted)
    g = random_ribbon_graph(8, "w0")
    assert has_minor(g, build_theta_t())[0]
    assert set(excluded_minor_scan(g)) >= {"theta_t"}
    assert genera and min(genera) >= 2


@pytest.mark.parametrize("g, target", [
    (random_ribbon_graph(8, "w0"), build_theta_t()),
    (random_ribbon_graph(8, "w2"), None),  # a scan that finds both patterns
])
def test_search_builds_no_child_after_its_last_target(monkeypatch, g, target):
    # children are streamed as they are built, so the child that completes
    # the targets is the last one built
    from ribbonforge import minors

    apply, verify = minors.apply_step, minors.verified_script
    built, replaying = [], []

    def counted(state, step):
        child = apply(state, step)
        if not replaying:
            built.append(child)
        return child

    def verified(*args):
        replaying.append(True)  # a found script is replayed from the start
        try:
            return verify(*args)
        finally:
            replaying.pop()

    monkeypatch.setattr(minors, "apply_step", counted)
    monkeypatch.setattr(minors, "verified_script", verified)
    if target is not None:
        assert has_minor(g, target)[0]
        assert equivalent(built[-1], target)
    else:
        assert set(excluded_minor_scan(g)) >= {"b3", "theta_t"}
        assert any(equivalent(built[-1], t) for t in (build_B(3), build_theta_t()))


def _planted(monkeypatch, fault):
    """Plant ``fault`` in the child genera the minor search reads: it is
    given the graph's slot table, its Euler genus and the true (deletion,
    contraction) pair of one label, and returns the pair the search sees."""
    from ribbonforge import minors

    steps = minors._steps

    def planted(table, walk, gamma):
        genus, orientable = steps(table, walk, gamma)

        def faulty(label, contracted):
            pair = genus(label, False), genus(label, True)
            return fault(table, label, gamma, pair)[contracted]

        return faulty, orientable

    monkeypatch.setattr(minors, "_steps", planted)


def test_a_planted_genus_fault_trips_the_guard(monkeypatch):
    # every deletion predicted one too high: the first kept deletion child
    # that is expanded disagrees with its own surface summary
    def one_high(table, label, gamma, pair):
        deleted, contracted = pair
        return deleted + 1, contracted

    _planted(monkeypatch, one_high)
    with pytest.raises(InternalInvariantViolation, match="parent predicts"):
        has_minor(random_ribbon_graph(8, "w0"), build_theta_t())


def test_a_planted_twisted_edge_fault_fails_the_oracle(monkeypatch):
    # a twisted edge's deletion counted as γ − 2: where that falls below
    # every target the child is dropped unseen, which only the oracle of
    # scripts can catch; where it does not, the guard trips
    def twisted_low(table, label, gamma, pair):
        s = table.first[label]
        twisted = table.along[s] != table.along[table.mate[s]]
        return (gamma - 2 if twisted else pair[0]), pair[1]

    _planted(monkeypatch, twisted_low)
    targets = [build_Bbar1(), build_B(3), build_theta_t()]
    graphs = list(enumerate_presentations(3))
    graphs += [random_ribbon_graph(3 + s % 5, f"memo-{s}") for s in range(40)]
    tripped = differ = 0
    for g in graphs:
        for target in targets:
            (script,) = reference_minor_search(g, [target])
            try:
                found = has_minor(g, target)
            except InternalInvariantViolation:
                tripped += 1
                continue
            differ += found != (script is not None, script)
    assert differ > 0 and tripped > 0


def test_a_step_that_makes_a_graph_orientable_lowers_its_genus():
    # the lemma behind the search's genus floor for non-orientable states:
    # (ε(G), ε(G')) for every non-orientable class G of up to 4 edges and
    # every orientable one-step minor G' of it
    steps = [
        (euler_genus(g), euler_genus(child))
        for g in enumerate_presentations(4) if not is_orientable(g)
        for _, child in one_step_minors(g).values() if is_orientable(child)
    ]
    assert len(steps) == 511
    assert all(child <= parent - 1 for parent, child in steps)


def test_genus_floors_of_the_standard_targets():
    from ribbonforge import minors

    b3, theta, bbar1 = build_B(3), build_theta_t(), build_Bbar1()
    assert minors._genus_floors([b3, theta]) == (3, 2)
    assert minors._genus_floors([bbar1]) == (1, float("inf"))
    assert minors._genus_floors([bbar1, b3]) == (1, 2)


@st.composite
def _small_graphs(draw):
    """Graphs of up to 8 edges: one random graph or two side by side, with
    up to two bare vertices."""
    seed = draw(st.integers(0, 10**6))
    sizes = draw(st.lists(st.integers(0, 8), min_size=1, max_size=2).filter(
        lambda sizes: sum(sizes) <= 8
    ))
    parts = [random_ribbon_graph(n, f"{seed}-{i}") for i, n in enumerate(sizes)]
    parts += [from_words([[]])] * draw(st.integers(0, 2))
    return disjoint_union(*parts)


@settings(max_examples=60, deadline=None)
@given(_small_graphs())
def test_least_dual_genus_is_the_least_genus_of_a_partial_dual(g):
    from ribbonforge import minors

    labels = g.labels()
    genera = [
        euler_genus(partial_dual(g, chosen))
        for n in range(len(labels) + 1)
        for chosen in combinations(labels, n)
    ]
    assert minors._least_dual_genus(g) == min(genera)


@settings(max_examples=100, deadline=None)
@given(_small_graphs(), st.data())
def test_a_minor_reads_its_boundaries_off_its_start(g, data):
    # S keeps the edges of ``live``, contracts those of ``contracted``,
    # loops among them, deletes the rest and then ``bare`` bare vertices:
    # f_S(B) = f_G(B ∪ C) − b for every B, and so pd(S) comes from G's table
    from ribbonforge import minors
    from ribbonforge.presentation import _slot_table
    from ribbonforge.surfaces import _spanning_boundaries

    labels = g.labels()
    fates = data.draw(st.lists(st.sampled_from("kdc"), min_size=len(labels),
                               max_size=len(labels)))
    state = g
    for op, fate in (("delete_edge", "d"), ("contract_edge", "c")):
        for label, f in zip(labels, fates):
            if f == fate:
                state = apply_step(state, (op, label))
    bare = data.draw(st.integers(0, len(state.isolated_vertices())))
    for index in list(reversed(state.isolated_vertices()))[:bare]:
        state = apply_step(state, ("delete_vertex", index))
    live, contracted = (
        sum(1 << i for i, f in enumerate(fates) if f == fate) for fate in "kc"
    )
    kept = [i for i, f in enumerate(fates) if f == "k"]
    assert state.labels() == tuple(labels[i] for i in kept)
    start = _spanning_boundaries(_slot_table(g))
    own = _spanning_boundaries(_slot_table(state))
    for mask, boundaries in enumerate(own):
        chosen = sum(1 << i for j, i in enumerate(kept) if mask >> j & 1)
        assert boundaries == start[chosen | contracted] - bare
    drop = minors._dual_genus_drop(start, live, contracted)
    assert minors._least_dual_genus(state) == euler_genus(state) - drop


@st.composite
def _scan_graphs(draw):
    """Graphs of 5 to 8 edges: random ones, random ones with every edge
    untwisted (orientable, where B3 and theta_t are common), and
    representable ones, each a partial dual of a braid closure's state
    graph."""
    edges, seed = draw(st.integers(5, 8)), draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["random", "orientable", "representable"]))
    if kind == "representable":
        g = _closure_state(edges, seed)
        return partial_dual(g, draw(st.sets(st.sampled_from(g.labels()))))
    g = random_ribbon_graph(edges, seed)
    if kind == "random":
        return g
    return from_words([[token.rstrip("'") for token in word] for word in g.words()])


@settings(max_examples=45, deadline=None)
@given(_scan_graphs())
def test_scan_and_search_match_the_one_target_oracle_up_to_eight_edges(g):
    # the oracle prunes by no floor of partial-dual genus, and searches a
    # representable graph, which the scan stops at, to its end
    expected = {}
    for name, target in (("b3", build_B(3)), ("theta_t", build_theta_t())):
        found, script = reference_has_minor(g, target)
        assert has_minor(g, target) == (found, script), (g.words(), name)
        if found:
            expected[name] = script
    scan = excluded_minor_scan(g)
    assert {name: scan[name] for name in scan if name != "bbar1"} == expected


@pytest.mark.parametrize("g", [random_ribbon_graph(8, f"w{i}") for i in range(4)])
def test_search_expands_no_non_orientable_state_below_its_floor(expanded, g):
    # B3 and theta_t are orientable of Euler genus 2, and a step that makes
    # a graph orientable lowers its genus, so no non-orientable state of
    # genus 2 or less has them below it
    excluded_minor_scan(g)
    assert expanded
    assert not [
        s.words() for s in expanded if not is_orientable(s) and euler_genus(s) <= 2
    ]


@pytest.mark.parametrize("g", [random_ribbon_graph(8, f"w{i}") for i in range(4)])
def test_search_builds_no_non_orientable_child_below_its_floor(monkeypatch, g):
    # such a child would not be expanded, as above, and whether a child is
    # orientable is known from its parent, so it is not built either
    from ribbonforge import minors

    apply, verify = minors.apply_step, minors.verified_script
    built, replaying = [], []

    def counted(state, step):
        child = apply(state, step)
        if not replaying:
            built.append(child)
        return child

    def verified(*args):
        replaying.append(True)  # a found script is replayed from the start
        try:
            return verify(*args)
        finally:
            replaying.pop()

    monkeypatch.setattr(minors, "apply_step", counted)
    monkeypatch.setattr(minors, "verified_script", verified)
    excluded_minor_scan(g)
    assert built
    assert not [
        c.words() for c in built if not is_orientable(c) and euler_genus(c) <= 2
    ]


def test_mixed_target_search_matches_the_memo_free_oracle():
    from ribbonforge import minors

    targets = [build_Bbar1(), build_B(3)]
    graphs = list(enumerate_presentations(3))
    graphs += [random_ribbon_graph(3 + s % 5, f"mixed-{s}") for s in range(40)]
    found = 0
    for g in graphs:
        scripts = minors._minor_search(g, targets, None)
        assert scripts == reference_minor_search(g, targets), g.words()
        found += None not in scripts
    assert found


def _planted_floor(monkeypatch, fault):
    """Plant ``fault`` in the genus floors of the minor search: it is given
    the targets and the true (non-orientable, orientable) floors."""
    from ribbonforge import minors

    floors = minors._genus_floors
    monkeypatch.setattr(minors, "_genus_floors", lambda ts: fault(ts, floors(ts)))


def _fails_both_oracles():
    """Whether some script differs from the one-target oracle's and some
    from the memo-free oracle's, on the graphs of the two oracle tests."""
    targets = [build_Bbar1(), build_B(3), build_theta_t()]
    graphs = list(enumerate_presentations(3))
    graphs += [random_ribbon_graph(4 + s % 3, f"oracle-{s}") for s in range(60)]
    graphs += [random_ribbon_graph(3 + s % 5, f"memo-{s}") for s in range(40)]
    one_target = memo_free = False
    for g in graphs:
        for target in targets:
            got = has_minor(g, target)
            one_target = one_target or got != reference_has_minor(g, target)
            memo_free = memo_free or got[1] != reference_minor_search(g, [target])[0]
            if one_target and memo_free:
                return True
    return False


def test_a_planted_floor_one_too_high_fails_the_oracles(monkeypatch):
    _planted_floor(monkeypatch, lambda ts, floors: (floors[0] + 1, floors[1]))
    assert _fails_both_oracles()


def test_a_planted_crosscap_counted_twice_fails_the_oracles(monkeypatch):
    # an orientable target's genus plus 2, not 1, for non-orientable states
    def twice(targets, floors):
        summaries = [surface_summary(t) for t in targets]
        return min(s.euler_genus + 2 * s.orientable for s in summaries), floors[1]

    _planted_floor(monkeypatch, twice)
    assert _fails_both_oracles()


def test_a_planted_loop_contraction_fault_fails_the_oracles(monkeypatch):
    # every loop contraction of a non-orientable graph taken for a
    # non-orientable child, as without the pass over the dual: an orientable
    # child of the target's genus is then dropped unbuilt
    from ribbonforge import minors

    steps = minors._steps

    def planted(table, walk, gamma):
        genus, orientable = steps(table, walk, gamma)
        return genus, lambda label, contracted: not contracted and orientable(label, False)

    monkeypatch.setattr(minors, "_steps", planted)
    assert _fails_both_oracles()


def test_a_planted_slice_without_the_contracted_edges_fails_the_oracles(monkeypatch):
    # f_G(B) read for f_G(B ∪ C): the partial-dual genus of a state reached
    # by contractions is read as if they were deletions
    from ribbonforge import minors

    drop = minors._dual_genus_drop
    monkeypatch.setattr(minors, "_dual_genus_drop", lambda f, live, _: drop(f, live, 0))
    assert _fails_both_oracles()


def test_a_planted_dual_floor_crosscap_counted_twice_fails_the_oracles(monkeypatch):
    # an orientable target's partial-dual genus plus 2, not 1, for
    # non-orientable states
    from ribbonforge import minors

    floors = minors._dual_genus_floors

    def twice(targets):
        worst = min(minors._least_dual_genus(t) + 2 * is_orientable(t) for t in targets)
        return worst, floors(targets)[1]

    monkeypatch.setattr(minors, "_dual_genus_floors", twice)
    assert _fails_both_oracles()


def test_one_isolated_vertex_deletion_is_built(monkeypatch):
    # deleting any of the three bare vertices gives the same class, so only
    # the first deletion is built: delete a, contract a, delete vertex 1
    from ribbonforge import minors

    apply = minors.apply_step
    steps = []

    def counted(state, step):
        steps.append(step)
        return apply(state, step)

    monkeypatch.setattr(minors, "apply_step", counted)
    g = from_words([["a", "a"], [], [], []])
    children = one_step_minors(g)
    assert steps == [("delete_edge", "a"), ("contract_edge", "a"), ("delete_vertex", 1)]
    assert [step for step, _ in children.values()] == steps


def test_search_step_order_is_pinned():
    # the first step reaching each class wins, so these scripts fix the
    # order in which one_step_minors tries and keeps its children
    assert excluded_minor_scan(build_B(5))["b3"].steps == (
        ("contract_edge", "e1"),
        ("contract_edge", "e2"),
    )
    found, script = has_minor(random_ribbon_graph(6, "pin0"), build_Bbar1())
    assert found and script.steps == (
        ("delete_edge", "e1"),
        ("delete_edge", "e2"),
        ("contract_edge", "e3"),
        ("contract_edge", "e5"),
        ("contract_edge", "e6"),
        ("delete_vertex", 1),
    )


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
            loops = {label for label, (a, b) in underlying_edges(g).items() if a == b}
            for key, (step, child) in one_step_minors(g, 8).items():
                if step[0] == "contract_edge" and step[1] in loops:
                    continue
                if key in seen:
                    continue
                seen.add(key)
                assert key != b3_key
                nxt.append(child)
        frontier = nxt
    # while the unrestricted search does reach it
    assert has_minor(build_B(5), build_B(3), max_edges=8)[0]


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
