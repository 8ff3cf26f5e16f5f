"""End-to-end checks tying the package to its mathematical contract.

Each criterion is a falsifiable whole-system statement (an exhaustive
cross-check of two independent computations, a frozen hand-derived value,
or an identity that must hold on random inputs).  ``run_all`` executes
them and reports one pass/fail line each; the ``verify`` CLI subcommand
and the test suite both consume it.  A criterion failure is reported,
never repaired or skipped.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass
from importlib import resources
from itertools import combinations
from typing import Iterator

from .canonical import canonical_key, equivalent
from .enumeration import enumerate_by_slots, enumerate_presentations, random_ribbon_graph
from .links import (
    all_A_ribbon_graph,
    brute_force_plane_dual,
    defines_plane_biseparation,
    parse_pd,
    represents_link,
)
from .minors import (
    Step,
    _minor_search,
    _one_step_order,
    apply_step,
    b_family_members,
    build_B,
    build_Bbar1,
    build_theta_t,
    excluded_minor_scan,
    has_minor,
    replay,
)
from .moves import contract_edge, delete_edge, geometric_dual, partial_dual
from .presentation import ArrowPresentation, parse_arp, serialize_arp
from .surfaces import boundary_component_count, is_orientable, surface_summary


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    seconds: float

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.number:>2} [{status}] {self.name}"
            f" ({self.seconds:.1f}s) — {self.details}"
        )


def _fixture_text(name: str) -> str:
    return (
        resources.files("ribbonforge").joinpath("data").joinpath(name).read_text()
    )


def _subsets(labels):
    for r in range(len(labels) + 1):
        yield from combinations(labels, r)


def _criterion_1() -> tuple[bool, str]:
    """Plane-biseparations coincide with plane partial duals (<= 4 edges)."""
    checked = 0
    bad: list[str] = []
    for pres in enumerate_presentations(4, connected_only=True):
        for sub in _subsets(pres.labels()):
            bisep = defines_plane_biseparation(pres, sub)
            plane = surface_summary(partial_dual(pres, set(sub))).euler_genus == 0
            checked += 1
            if bisep != plane:
                bad.append(f"G={serialize_arp(pres)!r} A={sub}")
    if bad:
        return False, f"{len(bad)} mismatches, e.g. {bad[:3]}"
    return True, f"{checked} (graph, subset) pairs agree"


def _criterion_2() -> tuple[bool, str]:
    """Decision procedure == brute-force plane dual == empty minor scan."""
    checked = 0
    bad: list[str] = []
    for pres in enumerate_presentations(4):
        decision = represents_link(pres, certificates=False).representable
        brute = brute_force_plane_dual(pres) is not None
        clean = not excluded_minor_scan(pres)
        checked += 1
        if not (decision == brute == clean):
            bad.append(
                f"G={serialize_arp(pres)!r} decision={decision}"
                f" brute={brute} scan_empty={clean}"
            )
    if bad:
        return False, f"{len(bad)} disagreements, e.g. {bad[:3]}"
    return True, f"{checked} graphs, three deciders agree"


def _criterion_3() -> tuple[bool, str]:
    """The theta graph's partial duals: each edge returns B3; closure is 2 classes."""
    theta = build_theta_t()
    b3 = build_B(3)
    for label in theta.labels():
        if not equivalent(partial_dual(theta, {label}), b3):
            return False, f"dual of the toroidal theta at {label} is not B3"
    closure = {
        canonical_key(partial_dual(b3, set(sub))) for sub in _subsets(b3.labels())
    }
    expected = {canonical_key(b3), canonical_key(theta)}
    if closure != expected:
        return False, f"B3 dual closure has {len(closure)} classes, expected 2"
    return True, "single-edge duals return B3; closure over 8 subsets is {B3, theta}"


def _genus_walk(
    pres: ArrowPresentation, contracted: dict[str, ArrowPresentation]
) -> Iterator[tuple[Step, ArrowPresentation]]:
    """Each step of ``one_step_minors`` with its child, in its order and
    unkeyed; contractions are read from ``contracted``."""
    for step in _one_step_order(pres):
        op, arg = step
        yield step, contracted[arg] if op == "contract_edge" else apply_step(pres, step)


def _identity_failure(pres: ArrowPresentation, subset_pairs) -> str | None:
    summary = surface_summary(pres)
    duals: dict[frozenset[str], ArrowPresentation] = {}

    def dual(labels) -> ArrowPresentation:
        key = frozenset(labels)
        if key not in duals:
            duals[key] = partial_dual(pres, key)
        return duals[key]

    if partial_dual(pres, set()) != pres:
        return "dual at the empty set changed the presentation"
    if surface_summary(geometric_dual(pres)).euler_genus != summary.euler_genus:
        return "full dual changed the Euler genus"
    contracted = {label: contract_edge(pres, label) for label in pres.labels()}
    for label, minor in contracted.items():
        via_dual = delete_edge(dual({label}), label)
        if not equivalent(minor, via_dual):
            return f"contraction differs from dual-then-delete at {label}"
    for a_set, b_set in subset_pairs:
        half = dual(a_set)
        if is_orientable(half) != summary.orientable:
            return f"orientability changed under dual at {sorted(a_set)}"
        twice = partial_dual(half, b_set)
        direct = dual(a_set ^ b_set)
        if not equivalent(twice, direct):
            return f"dual composition failed at {sorted(a_set)}, {sorted(b_set)}"
    for step, child in _genus_walk(pres, contracted):
        if surface_summary(child).euler_genus > summary.euler_genus:
            return f"Euler genus rose along {step}"
    return None


def _criterion_4() -> tuple[bool, str]:
    """Operation identities, exhaustively small plus 1000 seeded random graphs.

    Each subset's partial dual is computed once per graph; only the second
    dual of each composition is computed per pair.  The genus check walks
    every one-step minor unkeyed, reusing the contractions already built:
    genus is a class invariant, so the first step to raise it is the first
    step of its class, the step ``one_step_minors`` would report.
    """
    checked = 0
    for pres in enumerate_presentations(3):
        labels = pres.labels()
        pairs = [
            (set(a), set(b)) for a in _subsets(labels) for b in _subsets(labels)
        ]
        problem = _identity_failure(pres, pairs)
        checked += 1
        if problem:
            return False, f"G={serialize_arp(pres)!r}: {problem}"
    for i in range(1000):
        pres = random_ribbon_graph(i % 7, f"identities-{i}")
        rng = random.Random(f"identity-pairs-{i}")
        labels = pres.labels()
        pairs = [
            (
                {l for l in labels if rng.random() < 0.5},
                {l for l in labels if rng.random() < 0.5},
            )
            for _ in range(2)
        ]
        problem = _identity_failure(pres, pairs)
        checked += 1
        if problem:
            return False, f"random graph {i}: {problem}"
    return True, f"{checked} graphs satisfy all operation identities"


def _criterion_5() -> tuple[bool, str]:
    """Interlacement-cycle bouquets contract down to B3, by certificate and by search.

    The explicit chain is the certificate ``represents_link`` gives B_n: n - 3
    edge contractions whose replay is B3.
    """
    b3 = build_B(3)
    for n in (5, 7, 9):
        verdict = represents_link(build_B(n))
        if verdict.certificate_target != "b3":
            return False, f"certificate for n={n} targets {verdict.certificate_target}"
        steps = verdict.certificate.steps
        if len(steps) != n - 3 or any(op != "contract_edge" for op, _ in steps):
            return False, f"chain for n={n} is not {n - 3} contractions: {steps}"
        if not equivalent(replay(build_B(n), verdict.certificate), b3, max(n, 8)):
            return False, f"chain replay for n={n} does not reach B3"
        found, _ = has_minor(build_B(n), b3, max_edges=9)
        if not found:
            return False, f"generic search misses B3 inside B{n}"
    return True, "explicit chains and generic search agree for n in {5, 7, 9}"


def _criterion_6() -> tuple[bool, str]:
    """Bundled knot fixtures ingest, come out orientable, and are representable."""
    notes = []
    for name in ("trefoil.pd", "figure8.pd", "hopf.pd"):
        text = _fixture_text(name)
        state = all_A_ribbon_graph(parse_pd(text))
        verdict = represents_link(state)
        if not verdict.representable or verdict.witness is None:
            return False, f"{name}: state graph not representable"
        if surface_summary(partial_dual(state, set(verdict.witness))).euler_genus:
            return False, f"{name}: witness is not plane"
        if name == "trefoil.pd":
            oracle = int(re.search(r"state_circles:\s*(\d+)", text).group(1))
            if state.vertex_count != oracle:
                return False, (
                    f"trefoil state circles: traced {state.vertex_count},"
                    f" fixture oracle {oracle}"
                )
        notes.append(f"{name} v={state.vertex_count}")
    return True, "; ".join(notes)


def _criterion_7() -> tuple[bool, str]:
    """Orientability is exactly the absence of a twisted-loop minor (<= 3 edges)."""
    twisted_loop = build_Bbar1()
    checked = 0
    for pres in enumerate_presentations(3):
        found, _ = has_minor(pres, twisted_loop)
        checked += 1
        if is_orientable(pres) == found:
            return False, (
                f"G={serialize_arp(pres)!r}: orientable={not found}"
                f" but twisted-loop minor found={found}"
            )
    return True, f"{checked} graphs match"


def _criterion_8() -> tuple[bool, str]:
    """Genus bounds are equivalent to avoiding the one-boundary bouquet families."""
    families = {n: b_family_members(n, 3) for n in (0, 1, 2)}
    checked = 0
    bad: list[str] = []
    for pres in enumerate_presentations(3):
        genus = surface_summary(pres).euler_genus
        for n in (0, 1, 2):
            scripts = _minor_search(pres, families[n], None)
            obstructed = any(s is not None for s in scripts)
            checked += 1
            if (genus <= n) == obstructed:
                bad.append(f"G={serialize_arp(pres)!r} genus={genus} n={n}")
    if bad:
        return False, f"{len(bad)} mismatches, e.g. {bad[:3]}"
    sizes = ", ".join(f"n={n}: {len(families[n])}" for n in (0, 1, 2))
    return True, f"{checked} (graph, bound) pairs agree; family sizes {sizes}"


def _criterion_9() -> tuple[bool, str]:
    """Non-orientable one-boundary bouquets always shed an edge without splitting."""
    checked = 0
    for pres in enumerate_presentations(4, bouquets_only=True):
        if is_orientable(pres) or boundary_component_count(pres) != 1:
            continue
        if not pres.edge_count:
            continue
        checked += 1
        if not any(
            boundary_component_count(delete_edge(pres, label)) == 1
            for label in pres.labels()
        ):
            return False, f"no boundary-preserving deletion in {serialize_arp(pres)!r}"
    return True, f"{checked} bouquets all admit a boundary-preserving deletion"


def _criterion_10() -> tuple[bool, str]:
    """Independent enumerators agree; the worked example yields its four subsets."""
    augmented = enumerate_presentations(3)
    for n in (1, 2, 3):
        mine = {canonical_key(p) for p in augmented if p.edge_count == n}
        other = {canonical_key(p) for p in enumerate_by_slots(n)}
        if mine != other:
            return False, (
                f"generators disagree at {n} edges:"
                f" {len(mine)} vs {len(other)} classes"
            )
    fixture = parse_arp(_fixture_text("fig4.arp"))
    found = {
        frozenset(sub)
        for sub in _subsets(fixture.labels())
        if defines_plane_biseparation(fixture, sub)
    }
    expected = {
        frozenset({"1", "6", "7"}),
        frozenset({"2", "6", "7"}),
        frozenset({"2", "3", "4", "5", "8"}),
        frozenset({"1", "3", "4", "5", "8"}),
    }
    if found != expected:
        return False, (
            f"worked example defines {len(found)} biseparation subsets,"
            f" expected the known 4"
        )
    counts = {n: len({canonical_key(p) for p in augmented if p.edge_count == n})
              for n in (1, 2, 3)}
    return True, f"class counts {counts} agree across generators; 4 subsets reproduced"


_CRITERIA = (
    (1, "plane-biseparations match plane partial duals", _criterion_1),
    (2, "decision agrees with brute force and minor scan", _criterion_2),
    (3, "toroidal theta partial duals", _criterion_3),
    (4, "operation identities hold", _criterion_4),
    (5, "interlaced bouquets contract to B3", _criterion_5),
    (6, "knot fixtures ingest and represent", _criterion_6),
    (7, "orientability equals no-twisted-loop-minor", _criterion_7),
    (8, "Euler-genus bouquet obstruction families", _criterion_8),
    (9, "one-boundary bouquets shed edges cleanly", _criterion_9),
    (10, "independent enumerators and worked example", _criterion_10),
)


def criterion_numbers() -> tuple[int, ...]:
    return tuple(number for number, _, _ in _CRITERIA)


def run_criterion(number: int) -> CriterionResult:
    for num, name, fn in _CRITERIA:
        if num == number:
            start = time.perf_counter()
            try:
                passed, details = fn()
            except Exception as exc:  # a crash is a failed criterion, not a crash
                passed, details = False, f"raised {type(exc).__name__}: {exc}"
            return CriterionResult(num, name, passed, details, time.perf_counter() - start)
    raise ValueError(f"no criterion numbered {number}")


def run_all(numbers=None) -> list[CriterionResult]:
    wanted = tuple(numbers) if numbers is not None else criterion_numbers()
    return [run_criterion(n) for n in wanted]
