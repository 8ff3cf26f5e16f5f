"""The four benchmark workloads.

Each workload turns a seeded ``random.Random`` into a fixed list of
operations.  An operation is one closed-loop call into ribbonforge (the
``run`` thunk, which the harness times) plus a ``check`` on its result that
the harness runs afterwards, outside the timed region.  A check returns
None when the result is right and a short reason when it is not.  Expected
verdicts come from how each input was built, not from the code under test.

Why these workloads:

* decide -- the accept path on braid closures of 100 to 400 crossings: parse,
  ``presentation`` normalization, ``_splice`` through ``partial_dual`` and
  ``intersection_graph``; the polynomial path that has to scale.
* refute -- the reject path on state graphs with one known defect: the
  certificate layer (``_two_colour``, ``bbar1_script``, the pattern
  certificate, long runs of ``delete_edge``).  Sizes straddle the known
  exponential odd-cycle search and the 8-edge search bound on purpose.
* search -- ``excluded_minor_scan`` and ``canonical_key`` on 7- and 8-edge
  graphs, the exhaustive layer at its bound.  The graphs are a fixed set;
  the seed re-presents them.
* verify -- every acceptance criterion in one process, the headline
  end-to-end number and the only user of enumeration and the brute-force
  plane-dual oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import gen


@dataclass(frozen=True)
class Op:
    id: str  # "r<round>/<slot>"; every round holds the same slots
    run: Callable[[], object]
    check: Callable[[object], str | None]
    size: int | None = None  # input size on the workload's growth ladder

    @property
    def slot(self) -> str:
        return self.id.split("/", 1)[1]


@dataclass(frozen=True)
class Workload:
    name: str
    deadline_s: float  # per operation
    round_s: float  # reference seconds of one round of operations
    build: Callable  # (ribbonforge, rng, rounds) -> list[Op]


# -- decide ------------------------------------------------------------------

DECIDE_SIZES = (100, 200, 400)
# (strands, share of positive generators): few strands give long state
# circles, many give short ones.
DECIDE_SHAPES = ((3, 0.8), (8, 0.5), (24, 0.2))


def _decide(rf, text):
    state = rf.all_A_ribbon_graph(rf.parse_pd(text))
    again = rf.parse_arp(rf.serialize_arp(state))
    return again, rf.represents_link(again, certificates=True)


def _check_decide(rf, result):
    state, verdict = result
    if not gen.orientable(state.words()):
        return "wrong: state graph of a diagram is non-orientable"
    if not verdict.representable or verdict.witness is None:
        return "wrong: braid closure judged not representable"
    if not rf.is_plane(rf.partial_dual(state, set(verdict.witness))):
        return "wrong: witness partial dual is not plane"
    return None


def build_decide(rf, rng, rounds):
    ops = []
    for r in range(rounds):
        for size in DECIDE_SIZES:
            for strands, share in DECIDE_SHAPES:
                text = gen.random_braid_pd(rng, size, strands, share)
                ops.append(Op(f"r{r}/braid{size}x{strands}", partial(_decide, rf, text),
                              partial(_check_decide, rf), size))
    return ops


# -- refute ------------------------------------------------------------------

TWIST_SIZES = (50, 100, 200, 300)
GLUE_HOSTS = (12, 96)  # the odd-cycle search overruns on the larger hosts
B_N = (5, 7, 9, 11)  # minor search is bounded at 8 edges
HOST_STRANDS = 6


def _host_words(rf, rng, crossings):
    text = gen.random_braid_pd(rng, crossings, HOST_STRANDS, 0.5)
    words = rf.all_A_ribbon_graph(rf.parse_pd(text)).words()
    if not gen.orientable(words):
        raise AssertionError("state graph of a braid closure is non-orientable")
    return words


def _refute(rf, pres):
    return rf.represents_link(pres, certificates=True)


def _check_refute(rf, expected, target_words, pres, verdict):
    if verdict.representable:
        return "wrong: defective graph judged representable"
    if verdict.certificate_target != expected:
        return f"wrong: certificate names {verdict.certificate_target}, built {expected}"
    target = rf.from_words(target_words)
    if not rf.equivalent(rf.replay(pres, verdict.certificate), target):
        return "wrong: certificate does not replay to its target"
    return None


def build_refute(rf, rng, rounds):
    ops = []

    def add(op_id, words, expected, target_words, size=None):
        pres = rf.parse_arp(gen.arp_text(words))
        ops.append(Op(op_id, partial(_refute, rf, pres),
                      partial(_check_refute, rf, expected, target_words, pres), size))

    for r in range(rounds):
        for size in TWIST_SIZES:
            words = gen.twist_one_edge(_host_words(rf, rng, size), rng)
            if gen.orientable(words):
                raise AssertionError("twisting an edge on a cycle left the graph orientable")
            add(f"r{r}/twist{size}", words, "bbar1", [["a", "a'"]], size)
        for size in GLUE_HOSTS:
            host = _host_words(rf, rng, size)
            add(f"r{r}/b3@{size}", gen.glue(host, "b3", rng), "b3", [gen.B3_WORD])
            add(f"r{r}/theta_t@{size}", gen.glue(host, "theta_t", rng), "theta_t",
                gen.THETA_T_WORDS)
        for n in B_N:
            add(f"r{r}/B{n}", gen.b_n_words(n), "b3", [gen.B3_WORD])
    return ops


# -- search ------------------------------------------------------------------

# (generator, edges, Euler genus).  Minor-search cost follows the size of the
# minor space, which genus drives, so fixing it per slot keeps rounds alike.
# Twice as many 8-edge slots put the median latency inside one cost level.
SEARCH_SLOTS = (
    ("random", 7, 4), ("random", 8, 4), ("random", 8, 4),
    ("along", 7, 4), ("along", 8, 4), ("along", 8, 4),
)
# The graphs themselves come from this fixed seed; the run's seed re-presents
# them (labels, curve order, rotation, reading direction).  Graphs this small
# differ in search cost by 3x with no shape that predicts it, so graphs drawn
# afresh per seed moved a run's total by 10% between seeds.
SEARCH_POOL_SEED = 1311


def _search(rf, pres):
    return rf.excluded_minor_scan(pres), rf.canonical_key(pres)


def _check_search(rf, pres, copy, result):
    found, key = result
    targets = {"bbar1": [["a", "a'"]], "b3": [gen.B3_WORD], "theta_t": gen.THETA_T_WORDS}
    for name, script in found.items():
        if not rf.equivalent(rf.replay(pres, script), rf.from_words(targets[name])):
            return f"wrong: {name} script does not replay to {name}"
    if (not found) != rf.represents_link(pres, certificates=False).representable:
        return "wrong: minor scan disagrees with represents_link"
    if rf.canonical_key(copy) != key:
        return "wrong: canonical key differs on a re-presented copy"
    return None


def _search_graph(rf, rng, kind, edges, genus, draws=16):
    """The first of ``draws`` candidates (more if none fits) with the genus;
    drawing a fixed number keeps set-up time alike across seeds."""
    found = None
    while found is None:
        for _ in range(draws):
            if kind == "random":
                pres = rf.random_ribbon_graph(edges, rng.random())
            else:
                pres = rf.from_words(gen.along_graph(rng, edges))
            if found is None and rf.euler_genus(pres) == genus:
                found = pres
    return found


def build_search(rf, rng, rounds):
    pool = random.Random(SEARCH_POOL_SEED)
    ops = []
    for r in range(rounds):
        for i, (kind, edges, genus) in enumerate(SEARCH_SLOTS):
            drawn = _search_graph(rf, pool, kind, edges, genus)
            pres = rf.from_words(gen.represent_again(drawn.words(), rng))
            copy = rf.from_words(gen.represent_again(pres.words(), rng))
            ops.append(Op(f"r{r}/{i}-{kind}{edges}g{genus}", partial(_search, rf, pres),
                          partial(_check_search, rf, pres, copy)))
    rf.surface_summary.cache_clear()  # drop what the genus filter cached
    return ops


# -- verify ------------------------------------------------------------------


def _verify(rf, number):
    return rf.run_criterion(number)


def _check_verify(result):
    return None if result.passed else f"wrong: criterion failed: {result.details}"


def build_verify(rf, rng, rounds):
    return [
        Op(f"r{r}/c{n}", partial(_verify, rf, n), _check_verify)
        for r in range(rounds)
        for n in rf.criterion_numbers()
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decide", deadline_s=30.0, round_s=5.0, build=build_decide),
        Workload("refute", deadline_s=1.0, round_s=2.75, build=build_refute),
        Workload("search", deadline_s=30.0, round_s=3.75, build=build_search),
        Workload("verify", deadline_s=120.0, round_s=26.0, build=build_verify),
    )
}


def rounds_for(workload: Workload, seconds: float) -> int:
    """Rounds that take about ``seconds`` on the reference machine."""
    return max(1, round(seconds / workload.round_s))
