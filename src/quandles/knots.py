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

from .quandle import FiniteQuandle
from .symmetry import orbits


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


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int):
        self.parent[self.find(a)] = self.find(b)


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
        uf = _UnionFind(self.arc_count)
        for c in self.crossings:
            uf.union(c.over_in, c.over_out)
        ids: dict[int, int] = {}
        out = []
        for a in range(self.arc_count):
            r = uf.find(a)
            if r not in ids:
                ids[r] = len(ids)
            out.append(ids[r])
        return tuple(out)

    @property
    def class_count(self) -> int:
        return max(self.arc_class) + 1 if self.arc_count else 0

    @cached_property
    def component_of(self) -> tuple[int, ...]:
        """Partition of arcs by link component (merge along both strands)."""
        uf = _UnionFind(self.arc_count)
        for c in self.crossings:
            uf.union(c.over_in, c.over_out)
            uf.union(c.under_in, c.under_out)
        ids: dict[int, int] = {}
        out = []
        for a in range(self.arc_count):
            r = uf.find(a)
            if r not in ids:
                ids[r] = len(ids)
            out.append(ids[r])
        return tuple(out)

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


def parse_braid(word: str, strands: int) -> KnotDiagram:
    """Diagram of the trace closure of a braid word.

    Generators are "s1".."s(k-1)"; "si" crosses strand i over strand i+1 and
    "si'" is its inverse.  Strands untouched by any crossing close into free
    loops.
    """
    if strands < 1:
        raise ParseError("need at least one strand")
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
    uf = _UnionFind(next_arc)
    for j in range(strands):
        uf.union(current[j], j)
    ids: dict[int, int] = {}

    def arc_id(x: int) -> int:
        r = uf.find(x)
        if r not in ids:
            ids[r] = len(ids)
        return ids[r]

    remap = [arc_id(x) for x in range(next_arc)]
    out = [Crossing(remap[oi], remap[oo], remap[ui], remap[uo], s)
           for (oi, oo, ui, uo, s) in crossings]
    return KnotDiagram(out, len(ids))


# ---------------------------------------------------------------------------
# coloring counts

@dataclass(frozen=True)
class ColoringCount:
    """Exact number of colorings; ``by_orbit[i]`` counts those whose image
    lies inside the i-th inner orbit of the coloring quandle."""

    total: int
    by_orbit: tuple[int, ...] | None = None


def _count_restricted(relations, class_count: int, colors: Sequence[int],
                      quandle: FiniteQuandle) -> int:
    """Backtracking with unit propagation along crossing relations; free
    color classes contribute a factor of len(colors) each."""
    colors = tuple(colors)
    allowed = set(colors)
    touching: list[list[int]] = [[] for _ in range(class_count)]
    for k, (o, ui, uo, s) in enumerate(relations):
        for v in (o, ui, uo):
            if k not in touching[v]:
                touching[v].append(k)
    constrained = sorted(v for v in range(class_count) if touching[v])
    free = class_count - len(constrained)

    op, inv_op = quandle.op.tolist(), quandle.inv_op.tolist()

    def propagate(assign: dict, var: int, queue: list) -> bool:
        for k in touching[var]:
            o, ui, uo, s = relations[k]
            co, ci, cu = assign.get(o), assign.get(ui), assign.get(uo)
            if co is None:
                continue
            fwd = op[co] if s > 0 else inv_op[co]
            if ci is not None:
                forced = fwd[ci]
                if forced not in allowed or (cu is not None and cu != forced):
                    return False
                if cu is None:
                    assign[uo] = forced
                    queue.append(uo)
            elif cu is not None:
                back = inv_op[co] if s > 0 else op[co]
                forced = back[cu]
                if forced not in allowed:
                    return False
                assign[ui] = forced
                queue.append(ui)
        return True

    def settle(assign: dict, seeds: list) -> bool:
        queue = list(seeds)
        while queue:
            if not propagate(assign, queue.pop(), queue):
                return False
        return True

    def count_from(assign: dict) -> int:
        var = next((v for v in constrained if v not in assign), None)
        if var is None:
            return 1
        total = 0
        for color in colors:
            trial = dict(assign)
            trial[var] = color
            if settle(trial, [var]):
                total += count_from(trial)
        return total

    return count_from({}) * len(colors) ** free


def count_colorings(diagram: KnotDiagram, quandle: FiniteQuandle,
                    by_orbit: bool = False) -> ColoringCount:
    """Count arc colorings satisfying every crossing relation.

    Constant colorings always exist (idempotence), so the total is at least
    the quandle size for a nonempty diagram.
    """
    rels = diagram.relations()
    k = diagram.class_count
    total = _count_restricted(rels, k, range(quandle.size), quandle)
    per_orbit = None
    if by_orbit:
        deco = orbits(quandle)
        per_orbit = tuple(_count_restricted(rels, k, orb, quandle)
                          for orb in deco.orbits)
    return ColoringCount(total, per_orbit)


def invariance_check(d1: KnotDiagram, d2: KnotDiagram,
                     quandle: FiniteQuandle) -> bool:
    """Equal coloring counts for two diagrams the caller asserts present the
    same link.  A cheap regression guard; not a proof of equivalence."""
    return (count_colorings(d1, quandle).total
            == count_colorings(d2, quandle).total)
