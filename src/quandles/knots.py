"""Knot diagrams and quandle coloring counts.

A diagram is a list of oriented crossings over numbered arcs (the edges of
the 4-valent diagram graph).  A coloring assigns a quandle element to every
arc so that the over-strand color is unchanged across a crossing and the
under-strand color transforms by the over color's symmetry:

    c(under_out) = c(over) |>  c(under_in)   at positive crossings,
    c(under_out) = c(over) |>^-1 c(under_in) at negative ones.

Since the two over-arc labels at a crossing must share a color, arcs are
merged into color classes before counting.  Counts are exact integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .quandle import FiniteQuandle


class ParseError(Exception):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)
        self.line = line
        self.column = column


class InconsistentArcs(Exception):
    def __init__(self, message: str, missing=(), duplicated=()):
        self.missing = tuple(missing)
        self.duplicated = tuple(duplicated)
        detail = []
        if self.missing:
            detail.append(f"missing {list(self.missing)}")
        if self.duplicated:
            detail.append(f"duplicated {list(self.duplicated)}")
        super().__init__(message + (": " + ", ".join(detail) if detail else ""))


@dataclass(frozen=True)
class Crossing:
    """One oriented crossing; all four fields are 0-based arc indices."""

    over_in: int
    over_out: int
    under_in: int
    under_out: int
    sign: int


def _merge(n: int, pairs) -> tuple[int, ...]:
    """Union the pairs over {0..n-1}; number the classes in order of first
    appearance."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    ids: dict[int, int] = {}
    return tuple(ids.setdefault(find(x), len(ids)) for x in range(n))


class KnotDiagram:
    """An oriented link diagram: crossings over arcs 0..arc_count-1.

    Arcs not mentioned by any crossing are closed loops (e.g. the unknot).
    Every mentioned arc must leave exactly one crossing and enter exactly
    one, which is exactly closedness of the diagram.
    """

    def __init__(self, crossings: Sequence[Crossing], arc_count: int):
        self.crossings = tuple(crossings)
        self.arc_count = arc_count
        ins: dict[int, int] = {}
        outs: dict[int, int] = {}
        for c in self.crossings:
            for a in (c.over_in, c.over_out, c.under_in, c.under_out):
                if not 0 <= a < arc_count:
                    raise InconsistentArcs(f"arc {a} out of range")
            for a, bag in ((c.over_in, ins), (c.under_in, ins),
                           (c.over_out, outs), (c.under_out, outs)):
                bag[a] = bag.get(a, 0) + 1
        dup = sorted(set(a for a, k in ins.items() if k > 1)
                     | set(a for a, k in outs.items() if k > 1))
        touched = set(ins) | set(outs)
        missing = sorted(a for a in touched
                         if ins.get(a, 0) != 1 or outs.get(a, 0) != 1)
        if dup or missing:
            raise InconsistentArcs("arcs must enter and leave exactly one crossing",
                                   missing=missing, duplicated=dup)

    @classmethod
    def unknot(cls) -> "KnotDiagram":
        return cls((), 1)

    @cached_property
    def arc_class(self) -> tuple[int, ...]:
        """Color classes: arcs merged along over-strands (the knot-theoretic arcs)."""
        return _merge(self.arc_count, ((c.over_in, c.over_out) for c in self.crossings))

    @property
    def class_count(self) -> int:
        return max(self.arc_class) + 1 if self.arc_count else 0

    @cached_property
    def component_of(self) -> tuple[int, ...]:
        """Partition of arcs by link component (merge along both strands)."""
        return _merge(self.arc_count, (pair for c in self.crossings for pair in
                                       ((c.over_in, c.over_out), (c.under_in, c.under_out))))

    @property
    def component_count(self) -> int:
        return max(self.component_of) + 1 if self.arc_count else 0

    def relations(self) -> tuple[tuple[int, int, int, int], ...]:
        """(over_class, under_in_class, under_out_class, sign) per crossing."""
        cl = self.arc_class
        return tuple((cl[c.over_in], cl[c.under_in], cl[c.under_out], c.sign)
                     for c in self.crossings)

    def __repr__(self):
        return (f"KnotDiagram(crossings={len(self.crossings)}, arcs={self.arc_count}, "
                f"components={self.component_count})")


# ---------------------------------------------------------------------------
# parsing

_CROSSING_RE = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def parse_pd(text: str) -> KnotDiagram:
    """Parse a planar-diagram code: semicolon-separated crossings X[a,b,c,d].

    Labels are 1-based and increase along the orientation of each strand.
    In X[a,b,c,d], a is the incoming under-arc and c the outgoing one; of b
    and d, the over-arc enters at whichever is followed by the other
    (b -> d means a positive crossing, d -> b a negative one, successor
    taken mod the arc count).  Codes where both readings are possible are
    rejected rather than guessed.
    """
    body = _strip_comments(text)
    raw: list[tuple[int, tuple[int, int, int, int]]] = []
    lines = body.split("\n")
    offsets = []
    pos = 0
    for line in lines:
        offsets.append(pos)
        pos += len(line) + 1

    def line_col(offset: int) -> tuple[int, int]:
        lineno = max(i for i, o in enumerate(offsets) if o <= offset)
        return lineno + 1, offset - offsets[lineno] + 1

    flat = "\n".join(lines)
    cursor = 0
    for chunk in flat.split(";"):
        stripped = chunk.strip()
        start = cursor + (len(chunk) - len(chunk.lstrip()))
        cursor += len(chunk) + 1
        if not stripped:
            continue
        m = _CROSSING_RE.fullmatch(stripped)
        if not m:
            line, col = line_col(start)
            raise ParseError(f"expected X[a,b,c,d], found {stripped!r}", line, col)
        a, b, c, d = (int(g) for g in m.groups())
        if min(a, b, c, d) < 1:
            line, col = line_col(start)
            raise ParseError("arc labels are 1-based", line, col)
        raw.append((start, (a, b, c, d)))
    if not raw:
        raise ParseError("no crossings found", 1, 1)

    m_arcs = max(max(tup) for _, tup in raw)
    if m_arcs > 2 * len(raw):   # c crossings have exactly 2c labels
        raise InconsistentArcs(f"every arc label must appear exactly twice: label {m_arcs} "
                               f"exceeds {2 * len(raw)}, twice the number of crossings")
    counts: dict[int, int] = {}
    for _, (a, b, c, d) in raw:
        for x in (a, b, c, d):
            counts[x] = counts.get(x, 0) + 1
    missing = [x for x in range(1, m_arcs + 1) if counts.get(x, 0) == 0]
    duplicated = [x for x, k in sorted(counts.items()) if k != 2]
    if missing or duplicated:
        raise InconsistentArcs("every arc label must appear exactly twice",
                               missing=missing, duplicated=duplicated)

    def succ(x: int) -> int:
        return x % m_arcs + 1

    crossings = []
    for start, (a, b, c, d) in raw:
        fwd, back = succ(b) == d, succ(d) == b
        line, col = line_col(start)
        if fwd and back:
            raise ParseError(
                f"ambiguous over-arc direction in X[{a},{b},{c},{d}]", line, col)
        if fwd:
            crossings.append(Crossing(b - 1, d - 1, a - 1, c - 1, +1))
        elif back:
            crossings.append(Crossing(d - 1, b - 1, a - 1, c - 1, -1))
        else:
            raise ParseError(
                f"over-arc labels {b},{d} are not consecutive in X[{a},{b},{c},{d}]",
                line, col)
    return KnotDiagram(crossings, m_arcs)


_BRAID_TOKEN = re.compile(r"s(\d+)('?)")

MAX_STRANDS = 10**5   # 10^5 free loops: 0.3 s, 54 MB and 47713 digits colored by R3


def parse_braid(word: str, strands: int) -> KnotDiagram:
    """Diagram of the trace closure of a braid word.

    Generators are "s1".."s(k-1)"; "si" crosses strand i over strand i+1 and
    "si'" is its inverse.  Strands untouched by any crossing close into free
    loops.  More than ``MAX_STRANDS`` strands are refused before anything is
    built.
    """
    if strands < 1:
        raise ParseError("need at least one strand")
    if strands > MAX_STRANDS:
        raise ParseError(f"{strands} strands exceed the limit of {MAX_STRANDS}")
    current = list(range(strands))
    next_arc = strands
    crossings: list[tuple[int, int, int, int, int]] = []
    col = 0
    for tok in word.split():
        col = word.index(tok, col)
        m = _BRAID_TOKEN.fullmatch(tok)
        if not m:
            raise ParseError(f"bad braid letter {tok!r}", 1, col + 1)
        i = int(m.group(1))
        if not 1 <= i <= strands - 1:
            raise ParseError(f"strand index {i} out of range for {strands} strands",
                             1, col + 1)
        i -= 1
        if m.group(2) == "":
            over_in, under_in = current[i], current[i + 1]
            over_out, under_out = next_arc, next_arc + 1
            crossings.append((over_in, over_out, under_in, under_out, +1))
            current[i], current[i + 1] = under_out, over_out
        else:
            under_in, over_in = current[i], current[i + 1]
            over_out, under_out = next_arc, next_arc + 1
            crossings.append((over_in, over_out, under_in, under_out, -1))
            current[i], current[i + 1] = over_out, under_out
        next_arc += 2
        col += len(tok)
    remap = _merge(next_arc, ((current[j], j) for j in range(strands)))
    out = [Crossing(remap[oi], remap[oo], remap[ui], remap[uo], s)
           for (oi, oo, ui, uo, s) in crossings]
    return KnotDiagram(out, max(remap) + 1)


# ---------------------------------------------------------------------------
# coloring counts

@dataclass(frozen=True)
class ColoringCount:
    """Exact number of colorings; ``by_orbit[i]`` counts those whose image
    lies inside the i-th inner orbit of the coloring quandle."""

    total: int
    by_orbit: tuple[int, ...] | None = None


# Rows x |Q| x classes entries one branch step may allocate; more rows than
# that are run half at a time, so memory stays flat however many colorings
# a diagram has.
BATCH_ENTRIES = 2**18


def _plan(relations) -> list[tuple[str, int, int, int, int]]:
    """Steps (kind, class, over, source, sign) that color every class a
    relation touches.  Where a relation has its over class and one under
    class colored, the other is forced, or, both colored, checked:
    ``class`` must equal ``source`` acted on by ``over`` through ``op``
    (sign +1) or ``inv_op`` (-1).  Otherwise the uncolored class meeting
    the most pending relations, least first, is branched on."""
    known: set[int] = set()
    pending = list(relations)
    steps = []
    while pending:
        for rel in pending:
            o, ui, uo, s = rel
            if o in known and ui in known:
                step = ("check" if uo in known else "force", uo, o, ui, s)
            elif o in known and uo in known:
                step = ("force", ui, o, uo, -s)
            else:
                continue
            pending.remove(rel)
            break
        else:
            meets = [c for rel in pending for c in set(rel[:3]) if c not in known]
            step = ("branch", max(sorted(set(meets)), key=meets.count), 0, 0, 0)
        steps.append(step)
        known.add(step[1])
    return steps


def _tally(steps, start: int, rows: np.ndarray, quandle: FiniteQuandle,
           orbit_id: np.ndarray | None) -> np.ndarray:
    """Run ``steps[start:]`` on the partial colorings ``rows`` and count the
    colorings that come out: the total, then, given ``orbit_id``, those
    whose colored classes all lie in each inner orbit."""
    n = quandle.size
    for i in range(start, len(steps)):
        kind, c, over, source, sign = steps[i]
        if kind == "branch":
            if len(rows) > 1 and len(rows) * n * rows.shape[1] > BATCH_ENTRIES:
                half = len(rows) // 2
                return (_tally(steps, i, rows[:half], quandle, orbit_id)
                        + _tally(steps, i, rows[half:], quandle, orbit_id))
            rows = np.repeat(rows, n, axis=0)
            rows[:, c] = np.tile(np.arange(n), len(rows) // n)
            continue
        image = (quandle.op if sign > 0 else quandle.inv_op)[rows[:, over], rows[:, source]]
        if kind == "force":
            rows[:, c] = image
        else:
            rows = rows[image == rows[:, c]]
    if orbit_id is None:
        return np.array([len(rows)])
    orb = orbit_id[rows[:, [c for kind, c, *_ in steps if kind != "check"]]]
    if not orb.shape[1]:   # no crossings: the empty coloring lies in every orbit
        return np.full(orbit_id.max() + 2, len(rows))
    inside = (orb == orb[:, :1]).all(axis=1)
    return np.concatenate([[len(rows)],
                           np.bincount(orb[inside, 0], minlength=orbit_id.max() + 1)])


def count_colorings(diagram: KnotDiagram, quandle: FiniteQuandle,
                    by_orbit: bool = False) -> ColoringCount:
    """Count arc colorings satisfying every crossing relation.

    Constant colorings always exist (idempotence), so the total is at least
    the quandle size for a nonempty diagram.  A coloring lies in an inner
    orbit exactly when each class does, so one run of the plan gives the
    total and every orbit's count; classes no crossing touches contribute
    a factor of |Q|, or of the orbit's size, each.
    """
    steps = _plan(diagram.relations())
    free = diagram.class_count - sum(kind != "check" for kind, *_ in steps)
    rows = np.zeros((1, diagram.class_count), dtype=quandle.op.dtype)
    if not by_orbit:
        return ColoringCount(int(_tally(steps, 0, rows, quandle, None)[0])
                             * quandle.size ** free)
    from .symmetry import orbits
    deco = orbits(quandle)
    total, *per_orbit = _tally(steps, 0, rows, quandle, np.array(deco.orbit_id)).tolist()
    return ColoringCount(total * quandle.size ** free,
                         tuple(c * len(orb) ** free for c, orb in zip(per_orbit, deco.orbits)))


def invariance_check(d1: KnotDiagram, d2: KnotDiagram,
                     quandle: FiniteQuandle) -> bool:
    """Equal coloring counts for two diagrams the caller asserts present the
    same link.  A cheap regression guard; not a proof of equivalence."""
    return (count_colorings(d1, quandle).total
            == count_colorings(d2, quandle).total)
