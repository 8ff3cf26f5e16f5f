"""The reject path at scale, by counts of the work done rather than wall time.

Each replay of a run of same-kind script steps is one pass, and the odd
cycle comes from one breadth-first search and one pass over its chords, so
certificates on graphs of hundreds of crossings stay cheap.  A digest pins
the verdicts, certificates included, that this must leave byte-identical.
"""

import hashlib
import json

import pytest

import ribbonforge.minors as minors
import ribbonforge.moves as moves
from closures import B3_WORDS, THETA_T_WORDS, braid_closure_pd, glue, twist
from ribbonforge import (
    all_A_ribbon_graph,
    build_B,
    build_theta_t,
    equivalent,
    from_words,
    intersection_graph,
    parse_pd,
    partial_dual,
    replay,
    represents_link,
    spanning_tree,
)

DIGEST = "608e42e45906c511974e32b23a0a3ef6e6738c3b647acf6069404220f755db89"


def _host(crossings):
    text = braid_closure_pd(crossings, 6, f"host-{crossings}")
    return all_A_ribbon_graph(parse_pd(text)).words()


def test_b_n_certificate_replays_in_one_splice(monkeypatch):
    g = build_B(401)
    verdict = represents_link(g)
    calls = []
    splice = moves._splice

    def counted(*args, **kwargs):
        calls.append(args[1])
        return splice(*args, **kwargs)

    monkeypatch.setattr(moves, "_splice", counted)
    monkeypatch.setattr(minors, "_splice", counted, raising=False)
    end = replay(g, verdict.certificate)
    assert len(calls) == 1  # one splice per contraction made 398
    assert equivalent(end, build_B(3))


@pytest.mark.parametrize("name, pattern, target", [
    ("b3", B3_WORDS, build_B(3)),
    ("theta_t", THETA_T_WORDS, build_theta_t()),
])
def test_glued_patterns_search_only_their_odd_block(name, pattern, target):
    g = from_words(glue(_host(800), pattern, name))
    verdict = represents_link(g)
    assert verdict.certificate_target == name
    # the odd cycle lies in its interlacement component, which here is the
    # pattern's own
    graph = intersection_graph(partial_dual(g, set(spanning_tree(g))))
    component, frontier = set(), [verdict.odd_cycle[0]]
    while frontier:
        v = frontier.pop()
        if v not in component:
            component.add(v)
            frontier += graph.neighbours(v)
    assert len(component) == 3
    assert equivalent(replay(g, verdict.certificate), target)


def test_reject_verdicts_are_byte_identical():
    graphs = [build_B(n) for n in (5, 7, 9, 21, 101, 401)]
    for crossings in (100, 400):
        host = _host(crossings)
        graphs += [
            from_words(glue(host, B3_WORDS, crossings)),
            from_words(glue(host, THETA_T_WORDS, crossings)),
            from_words(twist(host, crossings)),
        ]
    h = hashlib.sha256()
    for g in graphs:
        record = represents_link(g).as_dict()
        h.update((json.dumps(record, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == DIGEST
