"""The acceptance gate: every criterion runs and must pass.

Each criterion is its own parametrized test, so a ``pytest -v`` run shows
one pass/fail line per criterion; the summary line for each is also printed
(visible with ``-s`` or in the captured output of a failure).  The detail
strings are pinned, so a criterion that passes on different counts fails.
"""

from importlib import import_module

import pytest
from plant import plant

import ribbonforge.canonical as canonical
import ribbonforge.enumeration as enumeration
import ribbonforge.links as links
import ribbonforge.minors as minors
import ribbonforge.moves as moves
import ribbonforge.oddcycles as oddcycles
import ribbonforge.surfaces as surfaces
from ribbonforge import (
    acceptance,
    canonical_key,
    contract_edge,
    criterion_numbers,
    enumerate_presentations,
    one_step_minors,
    random_ribbon_graph,
    run_criterion,
)

# the package exports a function of the same name, so the module is looked up
presentation = import_module("ribbonforge.presentation")
# the modules that read the slot table, each through its own binding
SLOT_TABLE_READERS = (presentation, surfaces, canonical, moves, links)

DETAILS = {
    1: "8779 (graph, subset) pairs agree",
    2: "978 graphs, three deciders agree",
    3: "single-edge duals return B3; closure over 8 subsets is {B3, theta}",
    4: "1128 graphs satisfy all operation identities",
    5: "explicit chains and generic search agree for n in {5, 7, 9}",
    6: "trefoil.pd v=3; figure8.pd v=3; hopf.pd v=2",
    7: "128 graphs match",
    8: "384 (graph, bound) pairs agree; family sizes n=0: 2, n=1: 4, n=2: 12",
    9: "58 bouquets all admit a boundary-preserving deletion",
    10: "class counts {1: 3, 2: 17, 3: 106} agree across generators;"
    " 4 subsets reproduced",
}


@pytest.mark.parametrize("number", criterion_numbers())
def test_criterion(number):
    result = run_criterion(number)
    print(result.line)
    assert result.passed, result.line
    assert result.details == DETAILS[number]


def test_genus_families_take_one_search_per_graph_and_bound(monkeypatch):
    searches = []
    search = acceptance._minor_search

    def counted(pres, targets, max_edges):
        searches.append(pres)
        return search(pres, targets, max_edges)

    monkeypatch.setattr(acceptance, "_minor_search", counted)
    assert acceptance._criterion_8()[0]
    assert len(searches) == 384


def test_criterion_4_splices_each_subset_once_per_graph(monkeypatch):
    splices = []
    splice = moves._splice

    def counted(pres, labels, dual):
        splices.append(dual)
        return splice(pres, labels, dual)

    monkeypatch.setattr(moves, "_splice", counted)
    assert run_criterion(4).passed
    assert len(splices) <= 25_197  # 39,522 when each use spliced again


def test_a_planted_dual_fault_fails_criterion_4_first_where_it_did(monkeypatch):
    # a dual at two labels that opens only the lesser one: the reuse of each
    # subset's dual within a graph must neither hide it nor move the first
    # failure
    splice = moves._splice

    def faulty(pres, labels, dual):
        if dual and len(labels) == 2:
            labels = {min(labels)}
        return splice(pres, labels, dual)

    monkeypatch.setattr(moves, "_splice", faulty)
    result = run_criterion(4)
    assert not result.passed
    assert result.details == (
        "G='e1 e1 e2 e2': dual composition failed at ['e1'], ['e2']"
    )


def test_a_planted_trim_fault_fails_criterion_2(monkeypatch):
    # trim_steps forgets the last bare vertex it deletes: the twisted-loop
    # scripts of the minor scan no longer reach their target
    trim = minors.trim_steps

    def faulty(pres, keep):
        steps = trim(pres, keep)
        return steps[:-1] if steps and steps[-1][0] == "delete_vertex" else steps

    monkeypatch.setattr(minors, "trim_steps", faulty)
    monkeypatch.setattr(links, "trim_steps", faulty)
    result = run_criterion(2)
    assert not result.passed
    assert result.details == (
        "raised InternalInvariantViolation: minor script does not reach its target"
    )


def test_a_planted_interlacement_fault_fails_criterion_2(monkeypatch):
    # the odd-cycle search ignores the least interlaced pair: a graph whose
    # interlacement graph is bipartite only without it has no odd cycle
    # where the colouring found a clash
    interlaced = oddcycles._interlaced

    def faulty(word):
        pairs = interlaced(word)
        return pairs - {min(pairs)} if pairs else pairs

    monkeypatch.setattr(oddcycles, "_interlaced", faulty)
    result = run_criterion(2)
    assert not result.passed
    assert result.details == (
        "raised InternalInvariantViolation: non-bipartite graph with no odd cycle"
    )


def test_a_planted_bare_vertex_fault_fails_criterion_2(monkeypatch):
    # the witness's dual counted without the bare curves among its
    # vertices: a representable graph with a bare vertex has its plane
    # witness refused
    plant(
        monkeypatch, surfaces._dual_genus,
        ("v = _cycles(table, opened)[0] + bare", "v = _cycles(table, opened)[0]"),
        into=[links],
    )
    result = run_criterion(2)
    assert not result.passed
    assert result.details == (
        "raised InternalInvariantViolation: bipartite witness is not plane"
    )


def test_a_planted_positive_cross_mark_fails_criteria_7_and_8(monkeypatch):
    # the count walk marks the darts a cycle leaves by their cross arcs
    # positive, as the rest: the step oracle then reads every edge's two
    # free sides as run the same way, and the minor search meets a child
    # whose genus its parent did not predict
    plant(
        monkeypatch, surfaces._cycles, ("cross = -cycles", "cross = cycles"),
        into=[surfaces],
    )
    for number in (7, 8):
        result = run_criterion(number)
        assert not result.passed
        assert result.details == (
            "raised InternalInvariantViolation: Euler genus 0 where its parent"
            " predicts 1"
        )


def test_a_planted_direction_flip_fault_fails_criteria_3_and_4(monkeypatch):
    # the splice walker writes a closed edge's stored arrow whichever way
    # the walk runs through it, dropping its direction flip: a splice that
    # reverses a curve's reading twists or untwists that edge.  The cached
    # minor targets are built before the fault, so that no later test reads
    # them wrong
    minors._b3_theta_t()
    plant(
        monkeypatch, surfaces._splice_words,
        ("arrow[s] if along[s] == forward\n",
         "arrow[s] if along[s] == forward or not opened[s]\n"),
        into=[moves],
    )
    details = {}
    for number in (3, 4):
        result = run_criterion(number)
        assert not result.passed
        details[number] = result.details
    assert details == {
        3: "dual of the toroidal theta at e2 is not B3",
        4: "G='e1 e2 e1 e2': orientability changed under dual at ['e1']",
    }


@pytest.fixture
def fresh_keys():
    """Drop the cached keys and enumeration layers before a planted key
    fault, so that it is seen, and after it, so that no later test reads
    them wrong."""
    for cached in (canonical._component_key, enumeration._layer):
        cached.cache_clear()
    yield
    for cached in (canonical._component_key, enumeration._layer):
        cached.cache_clear()


def test_a_planted_direction_blind_key_fails_five_criteria(monkeypatch, fresh_keys):
    # the canonical code of a label's second arrow drops the direction its
    # first arrow set, so that a twisted edge keys as an untwisted one.
    # Criterion 1 still passes, on fewer pairs
    plant(
        monkeypatch, canonical._render,
        ("code = v ^ a ^ 1", "code = (v & -2) ^ a ^ 1"),
        into=[canonical],
    )
    results = {number: run_criterion(number) for number in criterion_numbers()}
    assert {n for n, result in results.items() if not result.passed} == {2, 3, 7, 8, 10}
    assert {n: results[n].details for n in (1, 3, 7, 10)} == {
        1: "6657 (graph, subset) pairs agree",
        3: "dual of the toroidal theta at e2 is not B3",
        7: "G='e1 e1': orientable=False but twisted-loop minor found=True",
        10: "generators disagree at 2 edges: 8 vs 14 classes",
    }


@pytest.fixture
def fresh_tables(fresh_keys):
    """``fresh_keys``, and the cached surface summaries and target floors
    too, for a planted slot-table fault that every reader sees."""
    for cached in (surfaces.surface_summary, minors._least_dual_genus):
        cached.cache_clear()
    yield
    for cached in (surfaces.surface_summary, minors._least_dual_genus):
        cached.cache_clear()


def test_a_planted_plain_arc_fault_fails_criteria_1_2_and_4(monkeypatch, fresh_tables):
    # the one plain-arc rule pairs each arrow's entry dart with the next
    # arrow's exit dart, as if every arrow pointed the other way.  It stays
    # an involution, so every walk ends (one that is not loops for ever),
    # but the walkers then step along each curve against the directions
    # that the splices write.  The cached minor targets are built before
    # the fault; the planted table keeps its own ring
    minors._b3_theta_t()
    plant(
        monkeypatch, presentation._slot_table,
        ("d = 2 * e - 2 + along[e - 1]", "d = 2 * e - 1 - along[e - 1]"),
        ("x = 2 * t + 1 - along[t]", "x = 2 * t + along[t]"),
        into=SLOT_TABLE_READERS, _RECENT=(),
    )
    results = {number: run_criterion(number) for number in criterion_numbers()}
    assert {n for n, result in results.items() if not result.passed} == {1, 2, 4}
    assert results[1].details.startswith("6 mismatches, e.g. ")
    assert {n: results[n].details for n in (2, 4)} == {
        2: "raised InternalInvariantViolation: Euler genus 0 where its parent"
        " predicts 2",
        4: "random graph 5: Euler genus rose along ('contract_edge', 'e1')",
    }


def test_a_planted_stale_ring_table_fails_seven_criteria(monkeypatch, fresh_tables):
    # the slot-table ring, on a hit that is not its latest entry, hands back
    # the latest entry's table, another presentation's.  The cached minor
    # targets are built before the fault; the planted table keeps its own
    # ring
    minors._b3_theta_t()
    plant(
        monkeypatch, presentation._slot_table,
        ("return entry[1]", "return recent[0][1]"),
        into=SLOT_TABLE_READERS, _RECENT=(),
    )
    results = {number: run_criterion(number) for number in criterion_numbers()}
    assert {n for n, result in results.items() if not result.passed} == {
        1, 2, 3, 4, 5, 7, 8,
    }
    assert {n: results[n].details for n in (1, 2, 3, 4, 5, 7, 8)} == {
        1: "raised InternalInvariantViolation: label 'e1' seen less than twice",
        2: "raised InternalInvariantViolation: odd Euler genus 1 on an"
        " orientable surface",
        3: "dual of the toroidal theta at e3 is not B3",
        4: "G='e1 e1\\ne2 e2': contraction differs from dual-then-delete at e1",
        5: "raised InternalInvariantViolation: minor script does not reach its"
        " target",
        7: "raised UnknownLabel: label 'e2' not present exactly twice",
        8: "raised UnknownLabel: label 'e2' not present exactly twice",
    }


def test_a_planted_dropped_class_fails_criterion_10(monkeypatch):
    # each enumeration layer drops its last class.  The planted layers keep
    # their own cache.  The criteria that check a property of each class
    # pass on fewer classes; only the cross-check of the two generators,
    # which stops at 3 edges, fails
    plant(
        monkeypatch, enumeration._layer,
        ("for key in sorted(seen))", "for key in sorted(seen)[:-1])"),
        into=[enumeration],
    )
    results = {number: run_criterion(number) for number in criterion_numbers()}
    assert {n for n, result in results.items() if not result.passed} == {10}
    assert {n: results[n].details for n in (1, 2, 4, 7, 8, 10)} == {
        1: "7545 (graph, subset) pairs agree",
        2: "856 graphs, three deciders agree",
        4: "1101 graphs satisfy all operation identities",
        7: "101 graphs match",
        8: "303 (graph, bound) pairs agree; family sizes n=0: 2, n=1: 4, n=2: 12",
        10: "generators disagree at 1 edges: 2 vs 3 classes",
    }


def test_the_genus_walk_reaches_each_class_at_its_keyed_first_step():
    # criterion 4 walks every one-step minor unkeyed; its first step into
    # each class must be the step one_step_minors keeps for that class
    graphs = enumerate_presentations(3) + [
        random_ribbon_graph(i % 7, f"identities-{i}") for i in range(200)
    ]
    for g in graphs:
        contracted = {label: contract_edge(g, label) for label in g.labels()}
        first: dict[bytes, tuple] = {}
        for step, child in acceptance._genus_walk(g, contracted):
            first.setdefault(canonical_key(child), step)
        assert list(first.values()) == [
            step for step, _ in one_step_minors(g).values()
        ]
