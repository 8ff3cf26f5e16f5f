"""The acceptance gate: every criterion runs and must pass.

Each criterion is its own parametrized test, so a ``pytest -v`` run shows
one pass/fail line per criterion; the summary line for each is also printed
(visible with ``-s`` or in the captured output of a failure).  The detail
strings are pinned, so a criterion that passes on different counts fails.
"""

import pytest

from ribbonforge import acceptance, criterion_numbers, run_criterion

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
