"""Seeded braid closures and the defects that make their state graphs fail.

The closure of a braid in which every generator occurs is a connected
planar link diagram, so its all-A state graph represents a link.  Gluing
B3 or the toroidal theta to it at one point, or twisting one edge that
lies on a cycle, gives a graph that does not.  Graphs are handled as the
token lists of ``ArrowPresentation.words``.
"""

import random

B3_WORDS = [["b2", "b1", "b3", "b2", "b1", "b3"]]
# the toroidal theta, the partial dual of B3 at one edge, as two curves
THETA_T_WORDS = [["t1", "t2'", "t3'"], ["t1'", "t3", "t2"]]


def braid_closure_pd(crossings: int, strands: int, seed, positive=False) -> str:
    """PD text of the closure of a random braid word with every generator.

    Strands run upward.  A crossing on positions i, i + 1 takes labels p
    (left) and q (right) in and gives r (left) and s (right) out; its row
    lists them counterclockwise from the incoming understrand, which runs
    p -> s for sigma_i and q -> r for its inverse.  Each crossing is sigma_i
    or its inverse at random, or sigma_i throughout when ``positive`` is set.
    """
    rng = random.Random(seed)
    gens = list(range(1, strands))
    gens += [rng.randrange(1, strands) for _ in range(crossings - len(gens))]
    rng.shuffle(gens)
    top = list(range(1, strands + 1))
    cur = list(top)
    rows = []
    for g in gens:
        p, q = cur[g - 1], cur[g]
        r, s = 2 * len(rows) + strands + 1, 2 * len(rows) + strands + 2
        cur[g - 1], cur[g] = r, s
        rows.append((p, q, s, r) if positive or rng.random() < 0.5 else (q, s, r, p))
    close = dict(zip(cur, top))
    return " ".join(
        "X({},{},{},{})".format(*(close.get(x, x) for x in row)) for row in rows
    )


def glue(words, pattern, seed) -> list[list[str]]:
    """Insert the first curve of ``pattern`` into a random gap of a random
    curve of ``words`` and add its other curves: a one-point join."""
    rng = random.Random(seed)
    out = [list(w) for w in words]
    ci = rng.randrange(len(out))
    gap = rng.randrange(len(out[ci]) + 1)
    out[ci][gap:gap] = pattern[0]
    return out + [list(w) for w in pattern[1:]]


def twist(words, seed) -> list[list[str]]:
    """Reverse one arrow of a random loop or parallel edge."""
    rng = random.Random(seed)
    ends: dict[str, list[tuple[int, int]]] = {}
    for ci, word in enumerate(words):
        for pi, token in enumerate(word):
            ends.setdefault(token.rstrip("'"), []).append((ci, pi))
    pairs: dict[tuple[int, int], list[str]] = {}
    for label, ((c1, _), (c2, _)) in ends.items():
        pairs.setdefault((min(c1, c2), max(c1, c2)), []).append(label)
    on_cycle = sorted(
        label for (a, b), labels in pairs.items() for label in labels
        if a == b or len(labels) > 1
    )
    label = rng.choice(on_cycle)
    ci, pi = ends[label][0]
    out = [list(w) for w in words]
    token = out[ci][pi]
    out[ci][pi] = token[:-1] if token.endswith("'") else token + "'"
    return out
