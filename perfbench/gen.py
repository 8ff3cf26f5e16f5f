"""Seeded input generators for the benchmark.

Nothing here imports ribbonforge: the generators must be correct on their
own, because the package is the thing under test.  Inputs are plain text
(PD codes) or token lists in the ``.arp`` word form, and every generator
takes a ``random.Random`` so that one seed fixes every input of a run.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

# -- braid closures ----------------------------------------------------------


def braid_word(rng: random.Random, crossings: int, strands: int, positive_share: float):
    """A random braid word: ``+i`` is sigma_i, ``-i`` its inverse.

    Every generator 1 .. strands-1 occurs at least once, so the closure is a
    connected diagram in which every strand meets a crossing.
    """
    if strands < 2 or crossings < strands - 1:
        raise ValueError("need strands >= 2 and crossings >= strands - 1")
    gens = list(range(1, strands)) + [
        rng.randrange(1, strands) for _ in range(crossings - strands + 1)
    ]
    rng.shuffle(gens)
    return [g if rng.random() < positive_share else -g for g in gens]


def closure_rows(word, strands: int) -> list[tuple[int, int, int, int]]:
    """PD rows of the closure of a braid word.

    Strands run upward; a crossing on positions i, i+1 takes labels p (left)
    and q (right) in and gives r (left) and s (right) out.  Rows list the
    four labels counterclockwise from the incoming understrand: for sigma_i
    the understrand runs p -> s, for its inverse q -> r.  The closure of a
    braid is always a planar diagram.
    """
    top = list(range(1, strands + 1))
    cur = list(top)
    fresh = strands
    rows = []
    for g in word:
        i = abs(g) - 1
        p, q = cur[i], cur[i + 1]
        r, s = fresh + 1, fresh + 2
        fresh += 2
        cur[i], cur[i + 1] = r, s
        rows.append((p, q, s, r) if g > 0 else (q, s, r, p))
    close = {cur[i]: top[i] for i in range(strands)}
    return [tuple(close.get(x, x) for x in row) for row in rows]


def pd_text(rows) -> str:
    return " ".join("X({},{},{},{})".format(*row) for row in rows)


def face_count(rows) -> int:
    """Faces of the 4-valent graph whose rotation system the rows give."""
    ends: dict[int, list[tuple[int, int]]] = {}
    for ci, row in enumerate(rows):
        for k, label in enumerate(row):
            ends.setdefault(label, []).append((ci, k))
    twin = {}
    for a, b in ends.values():
        twin[a], twin[b] = b, a
    seen = set()
    faces = 0
    for start in twin:
        if start in seen:
            continue
        faces += 1
        dart = start
        while dart not in seen:
            seen.add(dart)
            ci, k = twin[dart]
            dart = (ci, (k + 1) % 4)
    return faces


def check_planar(rows) -> None:
    """A connected diagram with c crossings is planar iff it has c + 2 faces."""
    if face_count(rows) != len(rows) + 2:
        raise AssertionError("generated PD code is not a connected planar diagram")


def _relabelled(rows):
    names: dict[str, int] = {}
    return [tuple(names.setdefault(str(x), len(names)) for x in row) for row in rows]


def _fixture_rows(path: Path):
    text = "\n".join(line.split("#", 1)[0] for line in path.read_text().splitlines())
    return [tuple(m.split(",")) for m in re.findall(r"X\(([^)]*)\)", text)]


def self_check(data_dir: Path) -> None:
    """Reproduce the bundled Hopf and figure-eight fixtures up to relabelling.

    ``figure8.pd`` is the closure of s1 s2^-1 s1 s2^-1 with strands numbered
    from the other side, which is s2 s1^-1 s2 s1^-1 here.
    """
    for name, word, strands in (("hopf.pd", [1, 1], 2), ("figure8.pd", [2, -1, 2, -1], 3)):
        rows = closure_rows(word, strands)
        check_planar(rows)
        if _relabelled(rows) != _relabelled(_fixture_rows(data_dir / name)):
            raise AssertionError(f"braid generator does not reproduce {name}")


def random_braid_pd(rng: random.Random, crossings: int, strands: int,
                    positive_share: float) -> str:
    rows = closure_rows(braid_word(rng, crossings, strands, positive_share), strands)
    check_planar(rows)
    return pd_text(rows)


# -- .arp words --------------------------------------------------------------


def arp_text(words) -> str:
    return "\n".join(" ".join(w) if w else "()" for w in words)


def _arrows(words):
    """label -> [(curve, position, along), (curve, position, along)]."""
    out: dict[str, list[tuple[int, int, bool]]] = {}
    for ci, word in enumerate(words):
        for pi, tok in enumerate(word):
            out.setdefault(tok.rstrip("'"), []).append((ci, pi, not tok.endswith("'")))
    return out


def orientable(words) -> bool:
    """Whether some choice of curve directions untwists every edge."""
    side: dict[int, tuple[int, int]] = {}  # curve -> (parent, parity)

    def find(v):
        p = 0
        while side.get(v, (v, 0))[0] != v:
            v, q = side[v]
            p ^= q
        return v, p

    for (c1, _, a1), (c2, _, a2) in _arrows(words).values():
        flip = int(a1 != a2)
        (r1, p1), (r2, p2) = find(c1), find(c2)
        if r1 == r2:
            if p1 ^ p2 != flip:
                return False
        else:
            side[r1] = (r2, p1 ^ p2 ^ flip)
    return True


# -- refute defects ----------------------------------------------------------


def twist_one_edge(words, rng: random.Random) -> list[list[str]]:
    """Reverse one arrow of an edge that lies on a cycle (a loop, or one of
    two parallel edges), so the result has a twisted-loop minor."""
    arrows = _arrows(words)
    ends: dict[tuple[int, int], list[str]] = {}
    for label, ((c1, _, _), (c2, _, _)) in arrows.items():
        ends.setdefault((min(c1, c2), max(c1, c2)), []).append(label)
    on_cycle = sorted(
        l for (a, b), labels in ends.items() for l in labels if a == b or len(labels) > 1
    )
    if not on_cycle:
        raise ValueError("host has no loop and no parallel edges")
    label = rng.choice(on_cycle)
    ci, pi, along = arrows[label][0]
    out = [list(w) for w in words]
    out[ci][pi] = label + ("'" if along else "")
    return out


B3_WORD = ["b2", "b1", "b3", "b2", "b1", "b3"]
# The toroidal theta: the partial dual of B3 at one edge, as two curves.
THETA_T_WORDS = [["t1", "t2'", "t3'"], ["t1'", "t3", "t2"]]


def glue(words, pattern: str, rng: random.Random) -> list[list[str]]:
    """Join B3 or the toroidal theta to one state circle at a single point.

    The pattern's arrows are inserted as one block into a random gap of a
    random host curve, so the pattern is a minor (delete the host edges and
    the bare vertices they leave) and the host is untouched.
    """
    out = [list(w) for w in words]
    ci = rng.randrange(len(out))
    gap = rng.randrange(len(out[ci]) + 1)
    if pattern == "b3":
        out[ci][gap:gap] = B3_WORD
    elif pattern == "theta_t":
        out[ci][gap:gap] = THETA_T_WORDS[0]
        out.append(list(THETA_T_WORDS[1]))
    else:
        raise ValueError(pattern)
    return out


def b_n_words(n: int) -> list[list[str]]:
    """B_n: one curve reading e2 e1 e3 e2 ... en e(n-1) e1 en."""
    word = []
    for i in range(2, n + 1):
        word += [f"e{i}", f"e{i - 1}"]
    return [word + ["e1", f"e{n}"]]


def represent_again(words, rng: random.Random) -> list[list[str]]:
    """Another presentation of the same ribbon graph.

    Labels are renamed, curves permuted and rotated, and some curves read
    backwards (word reversed, every arrow on it flipped).
    """
    labels = sorted({t.rstrip("'") for w in words for t in w})
    fresh = [f"x{i}" for i in range(len(labels))]
    rng.shuffle(fresh)
    rename = dict(zip(labels, fresh))
    out = []
    for word in words:
        word = [rename[t.rstrip("'")] + t[len(t.rstrip("'")):] for t in word]
        if word:
            k = rng.randrange(len(word))
            word = word[k:] + word[:k]
        if rng.random() < 0.5:
            word = [t[:-1] if t.endswith("'") else t + "'" for t in reversed(word)]
        out.append(word)
    rng.shuffle(out)
    return out


# -- search graphs -----------------------------------------------------------


def along_graph(rng: random.Random, edges: int) -> list[list[str]]:
    """A connected orientable graph with every arrow along its curve.

    A random shuffle of the 2n arrows cut into at most three curves, redrawn
    until the curves are connected.
    """
    while True:
        tokens = [f"e{i}" for i in range(1, edges + 1) for _ in (0, 1)]
        rng.shuffle(tokens)
        cuts = sorted(rng.sample(range(1, 2 * edges), rng.randrange(3)))
        words = [tokens[a:b] for a, b in zip([0] + cuts, cuts + [2 * edges])]
        if _connected(words):
            return words


def _connected(words) -> bool:
    reach = {0}
    arrows = _arrows(words)
    grew = True
    while grew:
        grew = False
        for (c1, _, _), (c2, _, _) in arrows.values():
            if (c1 in reach) != (c2 in reach):
                reach |= {c1, c2}
                grew = True
    return len(reach) == len(words)
