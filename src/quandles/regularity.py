"""Finite analogues of the regularity conditions on a quandle.

On a finite carrier the conditions collapse to checkable statements:

* I': every symmetry s_q fixes exactly its own basepoint ("isolated" has no
  metric meaning on a finite set, so the strictest reading is used);
* D': every right translation t_q: r -> r |> q is surjective (density of the
  image collapses to surjectivity);
* C : the quandle is connected (one inner orbit);
* Phi': every orbit is realized as a coset quandle of the transvection group
  with the stabilizer inside the fixed subgroup of the twisting automorphism.
  A finite fixed subgroup has a trivial identity component, so the weak and
  full forms of this condition coincide here; the report records that.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .quandle import FiniteQuandle
from .symmetry import REALIZE_CAP, coset_realization, is_connected, orbits

CONDITION_NAMES = ("I'", "D'", "C", "Phi'")

COMPONENT_NOTE = ("finite fixed subgroups have trivial identity component, "
                  "so the weak and full coset-realization conditions coincide")


def fixed_points(quandle: FiniteQuandle, q: int) -> tuple[int, ...]:
    """{r : q |> r = r}; always contains q by idempotence."""
    return tuple(np.flatnonzero(quandle.op[q] == np.arange(quandle.size)).tolist())


def surjective_translations(quandle: FiniteQuandle) -> tuple[bool, ...]:
    """Per q, is the column r -> r |> q a permutation?"""
    columns = np.sort(quandle.op, axis=0)
    return tuple((columns == np.arange(quandle.size)[:, None]).all(axis=0).tolist())


class OrbitRealizationSummary(NamedTuple):
    basepoint: int
    orbit_size: int
    group_order: int
    stabilizer_size: int
    ok: bool


class RegularityReport(NamedTuple):
    size: int
    i_prime: bool
    d_prime: bool
    connected: bool
    phi_prime: bool
    fixed_sets: tuple[tuple[int, ...], ...]
    surjective: tuple[bool, ...]
    realizations: tuple[OrbitRealizationSummary, ...]
    notes: tuple[str, ...]

    def flags(self) -> dict:
        return {"I'": self.i_prime, "D'": self.d_prime,
                "C": self.connected, "Phi'": self.phi_prime}

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "flags": {"I_prime": self.i_prime, "D_prime": self.d_prime,
                      "C": self.connected, "Phi_prime": self.phi_prime},
            "fixed_sets": [list(s) for s in self.fixed_sets],
            "surjective_translations": list(self.surjective),
            "realizations": [{"basepoint": r.basepoint,
                              "orbit_size": r.orbit_size,
                              "group_order": r.group_order,
                              "stabilizer_size": r.stabilizer_size,
                              "ok": r.ok} for r in self.realizations],
            "notes": list(self.notes),
        }


def regularity_report(quandle: FiniteQuandle, cap: int = REALIZE_CAP) -> RegularityReport:
    """Evaluate I', D', C and Phi' with full witnesses.

    Phi' runs the coset realization once per orbit basepoint; closure caps
    propagate to the caller.
    """
    n = quandle.size
    fixed = tuple(fixed_points(quandle, q) for q in range(n))
    i_prime = all(f == (q,) for q, f in enumerate(fixed))
    surj = surjective_translations(quandle)
    d_prime = all(surj)
    connected = is_connected(quandle).connected
    deco = orbits(quandle)
    summaries = []
    for b in deco.basepoints:
        real = coset_realization(quandle, b, cap=cap)
        summaries.append(OrbitRealizationSummary(
            basepoint=b, orbit_size=len(real.orbit),
            group_order=real.group.order,
            stabilizer_size=real.stabilizer_size, ok=real.ok))
    phi_prime = all(s.ok for s in summaries)
    return RegularityReport(n, i_prime, d_prime, connected, phi_prime,
                            fixed, surj, tuple(summaries), (COMPONENT_NOTE,))


class SurveyRow(NamedTuple):
    name: str
    flags: dict


class SurveyResult(NamedTuple):
    """Condition co-occurrence over a corpus of quandles.

    ``implications`` maps "A => B" to the list of names violating it; an
    empty list means the implication held on every instance surveyed.
    """

    rows: tuple[SurveyRow, ...]
    implications: dict

    def observed(self) -> list[str]:
        return [k for k, v in self.implications.items() if not v]

    def to_dict(self) -> dict:
        return {
            "rows": [{"name": r.name, "flags": r.flags} for r in self.rows],
            "implications": {k: list(v) for k, v in self.implications.items()},
        }

    def format_table(self) -> str:
        width = max((len(r.name) for r in self.rows), default=4)
        lines = [f"{'name':<{width}}  " + "  ".join(f"{c:>5}" for c in CONDITION_NAMES)]
        for r in self.rows:
            cells = "  ".join(f"{str(r.flags[c]):>5}" for c in CONDITION_NAMES)
            lines.append(f"{r.name:<{width}}  {cells}")
        return "\n".join(lines)


def implication_survey(corpus: Iterable[tuple[str, FiniteQuandle]],
                       cap: int = REALIZE_CAP) -> SurveyResult:
    """Flag vectors for each instance plus every pairwise implication's
    counterexamples across the corpus."""
    rows = []
    for name, q in corpus:
        rep = regularity_report(q, cap=cap)
        rows.append(SurveyRow(name, rep.flags()))
    implications = {}
    for a in CONDITION_NAMES:
        for b in CONDITION_NAMES:
            if a == b:
                continue
            counterexamples = tuple(r.name for r in rows
                                    if r.flags[a] and not r.flags[b])
            implications[f"{a} => {b}"] = counterexamples
    return SurveyResult(tuple(rows), implications)


class IsolationConsequenceReport(NamedTuple):
    """What isolated fixed points buy on a finite carrier.

    When every fixed set is a singleton, some right translation is expected
    to be surjective (the finite shadow of having a dense image at a general
    point); an I'-instance where none is gets flagged as an anomaly worth
    reporting, not an error.
    """

    i_prime: bool
    surjective_points: tuple[int, ...]
    any_surjective: bool
    all_surjective: bool
    largest_orbit: tuple[int, ...]
    largest_orbit_hit_by_translation: bool
    anomaly: bool


def isolated_connected_consequence(quandle: FiniteQuandle) -> IsolationConsequenceReport:
    n = quandle.size
    i_prime = all(fixed_points(quandle, q) == (q,) for q in range(n))
    surj = surjective_translations(quandle)
    points = tuple(q for q in range(n) if surj[q])
    deco = orbits(quandle)
    largest = max(deco.orbits, key=len)
    hit = any(set(quandle.right_translation(q)) == set(largest) for q in largest)
    return IsolationConsequenceReport(
        i_prime=i_prime,
        surjective_points=points,
        any_surjective=bool(points),
        all_surjective=all(surj),
        largest_orbit=largest,
        largest_orbit_hit_by_translation=hit,
        anomaly=i_prime and not points,
    )
