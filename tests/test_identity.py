"""Byte identity of what refactors of the core must leave unchanged.

One digest covers the canonical key, the ``represents_link`` verdict with
its certificate, and the excluded-minor scripts of every 4-edge class, in
enumeration order.  A second covers boundary walks, surface summaries,
contraction and partial-dual words and verdicts on a wider set of graphs.
A third covers what is read from the curve graph: incidence, twists,
odd-twist cycles, components and their spanning trees, separating
vertices and plane-biseparations.  A fourth covers the all-A and all-B
state graphs built from PD codes.  A fifth covers keys and excluded-minor
scripts of graphs at the minor search's size bound.  A sixth covers the
one-step minors and the replayed words of minor certificates.
"""

import hashlib
import json
import random
from importlib import resources

from closures import braid_closure_pd
from ribbonforge import (
    RibbonError,
    all_A_ribbon_graph,
    build_B,
    canonical_key,
    component_count,
    components,
    contract_edge,
    defines_plane_biseparation,
    disjoint_union,
    enumerate_presentations,
    excluded_minor_scan,
    from_words,
    is_separating_vertex,
    one_step_minors,
    parse_pd,
    partial_dual,
    pd_code,
    random_ribbon_graph,
    replay,
    represents_link,
    spanning_tree,
    surface_summary,
    trace_boundary,
    twists,
    underlying_edges,
)
from ribbonforge.presentation import component_vertex_sets
from ribbonforge.surfaces import odd_twist_cycle

DIGEST = "93c8aa62d30cdb6eff063dfd2c18aacdefa174e1c96b40d6252de0d56b4b53cd"


def test_four_edge_classes_are_byte_identical():
    h = hashlib.sha256()
    for g in enumerate_presentations(4):
        verdict = represents_link(g).as_dict()
        scan = {k: v.as_json() for k, v in sorted(excluded_minor_scan(g).items())}
        h.update(canonical_key(g) + b"\n")
        for record in (verdict, scan):
            h.update((json.dumps(record, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == DIGEST


# Covers the arc walk and the surface pass: boundary walks, summaries,
# splice and partial-dual words and verdicts, on small classes, random
# graphs (some with bare vertices or in parts) and bouquets.
WALK_DIGEST = "7415faa00fb86762f51aab0026607d342cb2b011bb8bccdcc657d45be6ac7774"


def _walk_graphs():
    yield from enumerate_presentations(4)
    rng = random.Random("walk-identity")
    for i in range(600):
        g = random_ribbon_graph(rng.randint(0, 10), f"wi-{i}")
        if i % 5 == 1:
            g = from_words(g.words() + [[]])
        elif i % 5 == 2:
            g = disjoint_union(g, random_ribbon_graph(rng.randint(1, 4), f"wj-{i}"))
        yield g
    for n in (5, 21, 101):
        yield build_B(n)


def test_walks_summaries_and_splices_are_byte_identical():
    rng = random.Random("walk-identity-sets")
    h = hashlib.sha256()
    for g in _walk_graphs():
        labels = g.labels()
        walks, edge_walks = trace_boundary(g)
        subset = sorted(l for l in labels if rng.random() < 0.5)
        record = {
            "words": g.words(),
            "walks": [list(w) for w in walks],
            "edge_walks": {l: list(pair) for l, pair in edge_walks.items()},
            "summary": surface_summary(g).as_dict(),
            "contract": [contract_edge(g, l).words() for l in labels],
            "dual": [partial_dual(g, {l}).words() for l in labels],
            "dual_set": partial_dual(g, subset).words(),
            "verdict": represents_link(g).as_dict(),
        }
        h.update((json.dumps(record, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == WALK_DIGEST


# Covers the curve graph readers on small classes, random graphs (some
# with bare vertices or in parts) and bouquets; each graph's biseparation
# check runs on seeded subsets and their complements.
FOREST_DIGEST = "bd134b43776506f8f2a66388ae548c3d0b95920fbd78da7b851fd08cdf539ea8"


def _forest_graphs():
    yield from enumerate_presentations(3)
    rng = random.Random("forest-identity")
    for i in range(500):
        g = random_ribbon_graph(rng.randint(0, 12), f"fi-{i}")
        if i % 4 == 1:
            g = from_words(g.words() + [[]])
        elif i % 4 == 2:
            g = disjoint_union(g, random_ribbon_graph(rng.randint(1, 4), f"fj-{i}"))
        elif i % 4 == 3:
            g = disjoint_union(from_words([[]]), g, from_words([["x", "x'"]]))
        yield g
    for n in (3, 5, 21):
        yield build_B(n)


def test_curve_graph_readings_are_byte_identical():
    rng = random.Random("forest-identity-sets")
    h = hashlib.sha256()
    for g in _forest_graphs():
        labels = set(g.labels())
        parts = components(g)
        subsets = [{l for l in sorted(labels) if rng.random() < 0.5} for _ in range(3)]
        record = {
            "words": g.words(),
            "edges": underlying_edges(g),
            "twists": twists(g),
            "odd": odd_twist_cycle(g),
            "components": [part.words() for part in parts],
            "vertex_sets": [sorted(c) for c in component_vertex_sets(g)],
            "count": component_count(g),
            "trees": [spanning_tree(part) for part in parts],
            "separating": [is_separating_vertex(g, v) for v in range(g.vertex_count)],
            "bisep": [
                [defines_plane_biseparation(g, side) for side in (sub, labels - sub)]
                for sub in subsets
            ],
        }
        h.update((json.dumps(record, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == FOREST_DIGEST


# Covers the state walk on braid closures, the bundled diagrams and seeded
# label-valid codes, under both smoothing conventions; a code that is not a
# diagram records its error instead.  Refusing non-planar codes as bad input
# (ROADMAP item 2) will change the OrientabilityViolation entries on purpose.
PD_DIGEST = "3abec6743bb50f7260e5cd00e60e7b0fbbce61e2bf81859a5f951a81d7fe9420"


def _pd_codes():
    for crossings in (20, 100, 400):
        for strands in (3, 6, 24):
            seed = f"pd-identity-{crossings}-{strands}"
            yield parse_pd(braid_closure_pd(crossings, strands, seed))
    data = resources.files("ribbonforge").joinpath("data")
    for name in ("trefoil.pd", "figure8.pd", "hopf.pd"):
        yield parse_pd(data.joinpath(name).read_text())
    rng = random.Random("pd-identity")
    for _ in range(500):
        n = rng.randint(1, 6)
        strands = [str(s) for s in range(1, 2 * n + 1)] * 2
        rng.shuffle(strands)
        yield pd_code([strands[4 * k : 4 * k + 4] for k in range(n)])


def test_state_graphs_of_pd_codes_are_byte_identical():
    h = hashlib.sha256()
    for code in _pd_codes():
        for convention in ("A", "B"):
            try:
                record = all_A_ribbon_graph(code, convention).words()
            except RibbonError as exc:
                record = [type(exc).__name__, str(exc)]
            h.update((json.dumps(record) + "\n").encode())
    assert h.hexdigest() == PD_DIGEST


# Covers the minor search at its bound: keys and excluded-minor scripts of
# seeded 7- and 8-edge graphs, which key their children unchecked.
BOUND_DIGEST = "9b93c656a50fdf034d9700bcdf6349e5d3fdccf0144abc21bbd3cb6c69c45d0b"


def test_searches_at_the_size_bound_are_byte_identical():
    h = hashlib.sha256()
    for n in (7, 8):
        for i in range(8):
            g = random_ribbon_graph(n, f"bound-{i}")
            scan = {k: v.as_json() for k, v in sorted(excluded_minor_scan(g).items())}
            h.update(canonical_key(g) + b"\n")
            h.update((json.dumps(scan, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == BOUND_DIGEST


# Covers the two users of the edge steps: every class's one-step minors
# (key, step and child words, in order) and the replayed words of each
# excluded-minor and represents_link certificate, on every class up to 4
# edges and seeded graphs of 5 to 8 edges, some with a bare vertex.
STEPS_DIGEST = "638ff14a5816e14b75aaffc9c07609f59c5e72be76fab2065e7bbf18ee5be956"


def _step_graphs():
    yield from enumerate_presentations(4)
    rng = random.Random("steps-identity")
    for i in range(40):
        g = random_ribbon_graph(rng.randint(5, 8), f"si-{i}")
        yield from_words(g.words() + [[]]) if i % 3 == 1 else g


def test_one_step_minors_and_replayed_certificates_are_byte_identical():
    h = hashlib.sha256()
    for g in _step_graphs():
        minors = [
            [key.decode(), list(step), child.words()]
            for key, (step, child) in one_step_minors(g).items()
        ]
        scan = {k: replay(g, v).words() for k, v in sorted(excluded_minor_scan(g).items())}
        verdict = represents_link(g)
        cert = verdict.certificate and replay(g, verdict.certificate).words()
        record = {"minors": minors, "scan": scan, "certificate": cert}
        h.update((json.dumps(record, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == STEPS_DIGEST
