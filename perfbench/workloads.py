"""Workloads of the quandles benchmark: input specs, task lists and answer checks.

Each workload is a list of ``Task``s, every one a ``quandles`` CLI command
whose answer is known in advance.  Inputs are isomorphic copies of fixed
construction families: the run seed relabels the carriers (all but
``KEEP_LABELS``) and picks the basepoints, so the same seed gives the same
inputs, and no answer checked here depends on the labelling.

This module imports neither ``quandles`` nor numpy; ``inputs.py`` builds the
files in a fresh interpreter.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("realize", "carrier", "color")

# Instances left out of the task lists, with their cost measured on a
# 2-core, 8 GB Linux VM (Python 3.11, numpy 2.4).  They stay visible here and
# in every result record.  ``sbar`` on dihedral(171) is kept in ``realize``
# so that the n^3 validation inside ``vedernikov`` keeps showing.
EXCLUDED = (
    {"task": "sbar --json on unipotent_class(11)",
     "cost": "fails after 10 s under the 1536 MB ceiling, asking for a 660^3 "
             "int64 array (2.1 GiB); uncapped it peaks near 4.7 GB, and p=13 "
             "would need about 20 GB",
     "why": "vedernikov validates an n^3 table for n = |Inn| = 660"},
    {"task": "realize --json on unipotent_class(13)",
     "cost": "16-22 s wall, 5.0 MB stdout",
     "why": "one task would outlast a whole pass of the other tasks"},
    {"task": "color on braid words whose closure has 4 components",
     "cost": "killed after 20 s on conj(S5), e.g. s3' s3' s3 s1 s3' s2' s2 s1'",
     "why": "colors cannot be forced from one component into another, so "
            "backtracking branches once per component, up to |Q|^4 = 2.1e8 leaves"},
    {"task": "color --diagram on PD twins past the 4th knot word",
     "cost": "the 8th 9-crossing knot word of the same draw ran over 30 s "
             "on conj(S4)",
     "why": "PD backtracking branches along the edge labelling; the cost "
            "is not bounded by the crossing count"},
)

# Braid words, drawn once by ``draw_braid_words`` and kept literally so the
# task list does not move with the random module.  Per-word backtracking cost
# spans 0.01-2.4 s (conj(S4)) and 0.04-3.3 s (conj(S5)) over these draws, and
# other words ran past 20 s; a fresh draw per seed would swing a pass by more
# than any usable bound, so the seed relabels the
# quandles instead, which leaves every count and the size of the search tree
# unchanged.  Expected counts are the number of tuples of Q^k fixed by the
# braid's Hurwitz action, computed with numpy independently of the program.
#
# (word, total, sorted per-orbit counts) -- conj(S4), 4 strands, length 20,
# closures with 2 components; stream "conj-S4".
LINKS_S4 = (
    ("s3' s2' s1 s2' s3 s3' s2 s1 s1 s2' s3 s3 s2' s2 s3 s3' s1' s2' s1' s2",
     120, (1, 9, 12, 12, 16)),
    ("s1 s2 s2' s3' s3 s1 s3' s2' s1' s2' s3' s2 s3 s3 s2 s2' s3' s2 s3' s2'",
     576, (1, 9, 36, 36, 64)),
    ("s1 s2 s1 s3 s2 s1 s3 s1' s3' s1' s1' s2' s2' s2' s1 s2 s1' s1' s1' s1'",
     120, (1, 9, 12, 12, 16)),
    ("s1' s2 s2 s3' s3 s3' s1' s1' s1 s3' s2' s1' s2' s3' s1 s2 s2' s3 s2 s3'",
     1176, (1, 9, 256, 300, 300)),
    ("s1' s2' s3 s1' s2' s2 s2' s3' s1' s1' s3 s1' s2 s3 s1 s2 s2' s2 s1 s1'",
     384, (1, 9, 60, 60, 64)),
    ("s3 s1' s1' s1 s2' s2' s3' s3' s3 s2' s1 s2' s3' s3 s3 s1 s1' s1 s1 s2",
     144, (1, 9, 12, 12, 40)),
)
# (word, total) -- conj(S5), 4 strands, length 8, closures with 2
# components; stream "conj-S5".  |Q|^k * length = 120^4 * 8, about 1.7e9.
LINKS_S5 = (
    ("s2' s3' s2' s3' s1' s2 s3' s2'", 3840),
    ("s1 s3' s2 s1' s3 s1' s3' s3'", 840),
    ("s3 s3 s3' s2' s1' s1 s3' s2'", 14400),
    ("s1' s2 s1 s2' s1 s1' s3 s1", 14400),
)
# (word, total) -- conj(S4), 4 strands, length 9, closures that are knots;
# stream "knot-S4".  Each runs as a braid and as the PD code of its closure.
# An even-length word on 4 strands never closes to a knot (a 4-cycle is odd).
KNOTS_S4 = (
    ("s1 s2' s2 s1 s2 s2' s2' s1' s3'", 24),
    ("s1 s1' s1 s3 s1' s1 s2' s2' s2", 24),
    ("s2 s2 s2' s1 s2' s1 s3' s1 s2'", 96),
    ("s1 s1 s2' s3' s1' s1 s3' s1 s3'", 432),
)
TREFOIL = "X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]"
FIGURE_EIGHT = "X[4,2,5,1];X[8,6,1,5];X[6,3,7,4];X[2,7,3,8]"

# Input files: name -> (family, parameters).  ``inputs.py`` builds each with
# the constructor of that family and writes a seeded relabelling of it.
INPUTS = {
    "realize": {
        "u11.json": ("unipotent_class", {"p": 11}),
        "u7.json": ("unipotent_class", {"p": 7}),
        "s5.json": ("conj_symmetric", {"n": 5}),
        "s4.json": ("conj_symmetric", {"n": 4}),
        "d171.json": ("dihedral", {"n": 171}),
        "survey/d3.json": ("dihedral", {"n": 3}),
        "survey/d4.json": ("dihedral", {"n": 4}),
        "survey/d5.json": ("dihedral", {"n": 5}),
        "survey/t2.json": ("trivial", {"n": 2}),
        "survey/s3.json": ("conj_symmetric", {"n": 3}),
    },
    "carrier": {
        "a732.json": ("alexander", {"p": 7, "n": 3, "a": 2}),
        "d63.json": ("dihedral", {"n": 63}),
    },
    "color": {
        "s4.json": ("conj_symmetric", {"n": 4}),
        "s5.json": ("conj_symmetric", {"n": 5}),
        "d3.json": ("dihedral", {"n": 3}),
        "d5.json": ("dihedral", {"n": 5}),
    },
}

# Inputs written with their constructor's labels.  ``aut`` backtracks in
# label order, so a relabelled dihedral(63) moves its cost 2.5x between seeds
# (1.8 s to 4.6 s measured) while the answer stays the same.
KEEP_LABELS = {"d63.json"}

SIZES = {"u11.json": 60, "u7.json": 24, "s5.json": 120, "s4.json": 24,
         "d171.json": 171}


def pd_files() -> dict[str, str]:
    """PD-code inputs of the color workload: file name -> code."""
    files = {"trefoil.pd": TREFOIL, "figure8.pd": FIGURE_EIGHT}
    for i, (word, _) in enumerate(KNOTS_S4):
        files[f"knot{i}.pd"] = braid_to_pd(parse_word(word), 4)
    return files


# ---------------------------------------------------------------------------
# braid words

def parse_word(text: str) -> list[tuple[int, int]]:
    """"s1 s2' ..." -> [(1, +1), (2, -1), ...]."""
    return [(int(tok[1:].rstrip("'")), -1 if tok.endswith("'") else 1)
            for tok in text.split()]


def word_text(letters) -> str:
    return " ".join(f"s{i}{'' if s > 0 else chr(39)}" for i, s in letters)


def closure_components(letters, strands: int) -> int:
    """Number of components of the braid closure (cycles of its permutation)."""
    at = list(range(strands))
    for i, _ in letters:
        at[i - 1], at[i] = at[i], at[i - 1]
    seen, count = set(), 0
    for start in range(strands):
        if start in seen:
            continue
        count += 1
        x = start
        while x not in seen:
            seen.add(x)
            x = at[x]
    return count


def draw_braid_words(stream: str, strands: int, length: int, count: int,
                     components: int) -> list[str]:
    """The first ``count`` words of a seeded stream whose closure has the
    given number of components.  This is how the catalogues above were drawn."""
    rng = random.Random(stream)
    out = []
    while len(out) < count:
        letters = [(rng.randint(1, strands - 1), rng.choice((1, -1)))
                   for _ in range(length)]
        if closure_components(letters, strands) == components:
            out.append(word_text(letters))
    return out


def braid_to_pd(letters, strands: int) -> str:
    """PD code of a braid closure that is a knot, in ``parse_pd``'s convention.

    Edges are numbered 1..2c along the knot from the top of strand 1.  At
    each crossing the under-strand enters on ``a`` and leaves on ``c``; the
    over-strand runs from ``b`` to ``d`` for a positive letter and from
    ``d`` to ``b`` for a negative one, which is the sign ``parse_braid``
    gives the same letter.
    """
    if closure_components(letters, strands) != 1:
        raise ValueError("closure is not a knot")
    visits = []  # (crossing index, "over"/"under"), in knot order
    pos = 0
    for _ in range(strands):
        for c, (i, sign) in enumerate(letters):
            if pos == i - 1:      # strand enters at the left position
                visits.append((c, "over" if sign > 0 else "under"))
                pos = i
            elif pos == i:        # strand enters at the right position
                visits.append((c, "under" if sign > 0 else "over"))
                pos = i - 1
    edges = 2 * len(letters)
    ends: dict[int, dict[str, tuple[int, int]]] = {}
    for j, (c, role) in enumerate(visits, start=1):
        ends.setdefault(c, {})[role] = (j, j % edges + 1)
    out = []
    for c, (_, sign) in enumerate(letters):
        a, c_out = ends[c]["under"]
        o_in, o_out = ends[c]["over"]
        b, d = (o_in, o_out) if sign > 0 else (o_out, o_in)
        out.append(f"X[{a},{b},{c_out},{d}]")
    return ";".join(out)


# ---------------------------------------------------------------------------
# tasks and answer checks

@dataclass(frozen=True)
class Task:
    """One CLI command (arguments after ``quandles``) that must exit 0, and
    its answer check: ``check`` takes the command's stdout and returns None
    when the answer is right, else a one-line reason."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[str], str | None]


def _expect(**want) -> Callable[[dict], str | None]:
    def check(got: dict) -> str | None:
        for key, value in want.items():
            if got.get(key) != value:
                return f"{key}={got.get(key)!r}, expected {value!r}"
        return None
    return check


def _json_check(inner: Callable[[dict], str | None]) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        try:
            return inner(json.loads(stdout))
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            return f"answer has an unexpected shape: {exc!r}"
    return check


def _text_check(pattern: str) -> Callable[[str], str | None]:
    regex = re.compile(pattern)

    def check(stdout: str) -> str | None:
        return None if regex.search(stdout) else f"stdout {stdout[:80]!r} lacks {pattern!r}"
    return check


def _realization(group: int, size: int | None, stab: int | None):
    """Check a ``realize --json`` answer: group order, orbit and stabilizer
    sizes (None: only their product must equal the group order)."""
    def check(d: dict) -> str | None:
        order = d.get("group", {}).get("order")
        orbit, stabilizer = len(d.get("orbit", ())), len(d.get("stabilizer", ()))
        if order != group:
            return f"group order {order}, expected {group}"
        if d.get("ok") is not True or not all(d.get("checks", {}).values()):
            return f"checks failed: {d.get('checks')}"
        if orbit * stabilizer != group:
            return f"|orbit| {orbit} * |stabilizer| {stabilizer} != {group}"
        if size is not None and (orbit, stabilizer) != (size, stab):
            return f"orbit {orbit}, stabilizer {stabilizer}, expected {size}, {stab}"
        if len(d.get("coset_reps", ())) != orbit:
            return "coset count differs from the orbit size"
        return None
    return check


def _report(group: int, carrier: int, orbits: int):
    def check(d: dict) -> str | None:
        reals = d.get("realizations", [])
        if d.get("size") != carrier or len(reals) != orbits:
            return f"size {d.get('size')}, {len(reals)} orbit(s); expected {carrier}, {orbits}"
        if sum(r["orbit_size"] for r in reals) != carrier:
            return "orbit sizes do not add up to the carrier"
        for r in reals:
            if r["group_order"] != group or not r["ok"] \
                    or r["orbit_size"] * r["stabilizer_size"] != group:
                return f"bad realization summary {r}"
        if d.get("flags", {}).get("Phi_prime") is not True:
            return "Phi_prime is not true"
        return None
    return check


def _colors(total: int, by_orbit=None, components: int | None = None):
    def check(d: dict) -> str | None:
        if d.get("total") != total:
            return f"total {d.get('total')}, expected {total}"
        if by_orbit is not None and tuple(sorted(d.get("by_orbit") or ())) != by_orbit:
            return f"by_orbit {d.get('by_orbit')}, expected {by_orbit} in some order"
        if components is not None and d.get("components") != components:
            return f"{d.get('components')} component(s), expected {components}"
        return None
    return check


def _survey(d: dict) -> str | None:
    rows = {r["name"]: r["flags"] for r in d.get("rows", [])}
    want = {"d3": True, "d4": False, "d5": True, "s3": False, "t2": False}
    got = {name: flags.get("C") for name, flags in rows.items()}
    return None if got == want else f"connectedness {got}, expected {want}"


STARTUP = Task("startup make trivial", ("make", "trivial", "--n", "1"),
               _json_check(_expect(size=1, table=[[0]])))


def tasks(workload: str, seed: int) -> list[Task]:
    """The task list of one pass, in the order the client issues it."""
    rng = random.Random(f"{workload}-basepoints-{seed}")

    def base(name: str) -> tuple[str, ...]:
        return ("--basepoint", str(rng.randrange(SIZES[name])))

    if workload == "realize":
        out = [
            Task("realize u11", ("realize", "--json", *base("u11.json"), "u11.json"),
                 _json_check(_realization(660, 60, 11))),
            Task("report u11", ("report", "--json", "u11.json"),
                 _json_check(_report(660, 60, 1))),
            Task("sbar d171", ("sbar", "--json", *base("d171.json"), "d171.json"),
                 _json_check(_expect(group_order=342, is_homomorphism=True,
                                     injective=True))),
        ]
        for name, group, size, stab, orbits in (("u7.json", 168, 24, 7, 1),
                                                ("s5.json", 120, None, None, 7),
                                                ("s4.json", 24, None, None, 5)):
            carrier = SIZES[name]
            label = name.removesuffix(".json")
            out += [
                Task(f"realize {label}", ("realize", "--json", *base(name), name),
                     _json_check(_realization(group, size, stab))),
                Task(f"report {label}", ("report", "--json", name),
                     _json_check(_report(group, carrier, orbits))),
                Task(f"sbar {label}", ("sbar", "--json", *base(name), name),
                     _json_check(_expect(group_order=group, is_homomorphism=True,
                                         injective=True))),
            ]
        out.append(Task("survey", ("survey", "--json", "survey"), _json_check(_survey)))
        return out
    if workload == "carrier":
        return [
            Task("check a732", ("check", "a732.json"), _text_check(r"^valid \(size 343\)")),
            Task("orbits a732", ("orbits", "--json", "a732.json"),
                 _json_check(lambda d: None if d.get("count") == 1
                             and len(d["orbits"][0]) == 343 else f"count {d.get('count')}")),
            Task("connected a732", ("connected", "a732.json"), _text_check(r"^connected: true")),
            Task("tr a732", ("tr", "a732.json"), _text_check(r"^tr: order 343 on 343 points")),
            Task("inn a732", ("inn", "a732.json"), _text_check(r"^inn: order 1029 on 343 points")),
            Task("aut d63", ("aut", "d63.json"),
                 _text_check(r"^aut: order 2268, homogeneous: true")),
        ]
    if workload == "color":
        def color(quandle: str, *rest: str) -> tuple[str, ...]:
            return ("color", "--json", "--quandle", quandle, *rest)

        out = []
        for i, (word, total, per_orbit) in enumerate(LINKS_S4):
            braid = ("--strands", "4", "--braid", word)
            out += [Task(f"braid s4 link{i}", color("s4.json", *braid),
                         _json_check(_colors(total, components=2))),
                    Task(f"by-orbit s4 link{i}", color("s4.json", *braid, "--by-orbit"),
                         _json_check(_colors(total, per_orbit, 2)))]
        for i, (word, total) in enumerate(LINKS_S5):
            out.append(Task(f"braid s5 link{i}",
                            color("s5.json", "--strands", "4", "--braid", word),
                            _json_check(_colors(total, components=2))))
        for i, (word, total) in enumerate(KNOTS_S4):
            out += [Task(f"braid s4 knot{i}",
                         color("s4.json", "--strands", "4", "--braid", word),
                         _json_check(_colors(total, components=1))),
                    Task(f"pd s4 knot{i}", color("s4.json", "--diagram", f"knot{i}.pd"),
                         _json_check(_colors(total, components=1)))]
        out += [Task("pd trefoil d3", color("d3.json", "--diagram", "trefoil.pd"),
                     _json_check(_colors(9))),
                Task("pd trefoil d5", color("d5.json", "--diagram", "trefoil.pd"),
                     _json_check(_colors(5))),
                Task("pd figure8 d5", color("d5.json", "--diagram", "figure8.pd"),
                     _json_check(_colors(25)))]
        return out
    raise ValueError(f"unknown workload {workload!r}; choices: {', '.join(WORKLOADS)}")
