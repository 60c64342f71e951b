"""Finite groups, permutation closures, automorphisms and coset spaces.

A permutation of {0..m-1} maps ``i`` to ``p[i]``: a tuple for the helpers,
a row of an int array inside a group.  Everything here is exact integer arithmetic; groups are
immutable once built and safe to share.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

DEFAULT_CAP = 10**6
MAX_GROUP_ORDER = 4096   # largest FiniteGroup; C64 x C64 from permutations peaks near 64 MB
AUT_ENUM_MAX_ORDER = 64   # largest group whose automorphisms all_automorphisms lists
SL2_MAX_PRIME = 13   # largest p of matrix_group_sl2, whose table has p(p^2-1) rows


class GroupError(Exception):
    pass


class CapExceeded(GroupError):
    """Raised when a closure would enumerate more elements than allowed."""


class NotASubgroup(GroupError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAnAutomorphism(GroupError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class CycleParseError(GroupError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# permutations

def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def is_permutation(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(len(p)))


def perm_cycles(p: Sequence[int], include_fixed: bool = False) -> list[tuple[int, ...]]:
    """Disjoint cycles of ``p``, each starting at its minimum, sorted."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cur = start
        cyc = []
        while not seen[cur]:
            seen[cur] = True
            cyc.append(cur)
            cur = p[cur]
        if len(cyc) > 1 or include_fixed:
            cycles.append(tuple(cyc))
    return cycles


def cycle_labels(perms: np.ndarray):
    """The cycle notation of each row of ``perms``, as ``format_cycles`` writes
    it ("()" for the identity), as an iterator of lists of labels, a block of
    about ``_BATCH_ENTRIES`` / 2 points at a time: no list of all of them is
    held.  A block is written at once, on int32 indices of its points: each
    point's cycle minimum is found by pointer jumping, and every cycle is
    walked from its minimum, all of them together.  Each point becomes "(" at
    a cycle's start, then its digits, then " " or ")"."""
    m = perms.shape[1]
    width = len(str(max(m - 1, 0)))
    digits = np.arange(m).astype(f"S{width}").view(np.uint8).reshape(m, width)
    for a in range(0, len(perms), step := max(1, _BATCH_ENTRIES // 2 // max(m, 1))):
        rows = perms[a:a + step]
        nxt = rows.astype(np.int32)
        nxt += np.arange(len(rows), dtype=np.int32)[:, None] * np.int32(m)
        nxt = nxt.ravel()
        low = point = np.arange(len(nxt), dtype=np.int32)
        jump = nxt
        while not np.array_equal(low, fall := np.minimum(low, low[jump])):
            low, jump = fall, jump[jump]
        first = np.flatnonzero((low == point) & (nxt != point))   # of each cycle, in order
        length = np.bincount(low, minlength=len(nxt))[first]
        at = np.cumsum(length) - length   # where each cycle's points start
        walked = np.empty(int(length.sum()), dtype=np.int32)
        cur, place, left = first, at, length
        while len(cur):
            walked[place] = cur
            live = left > 1
            cur, place, left = nxt[cur[live]], place[live] + 1, left[live] - 1
        text = np.zeros((len(walked), width + 2), dtype=np.uint8)
        text[:, 1:-1], text[:, -1] = digits[walked % m], ord(" ")
        text[at, 0], text[at + length - 1, -1] = ord("("), ord(")")
        ends = np.searchsorted(walked // m, np.arange(len(rows) + 1)) * (width + 2)
        text = text.tobytes()
        yield [text[b:e].replace(b"\0", b"").decode() or "()" for b, e in zip(ends, ends[1:])]


def cycle_type(p: Sequence[int]) -> tuple[int, ...]:
    """Multiset of cycle lengths (fixed points included), sorted."""
    return tuple(sorted(len(c) for c in perm_cycles(p, include_fixed=True)))


def format_cycles(p: Sequence[int]) -> str:
    cycles = perm_cycles(p)
    if not cycles:
        return ""
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)


def parse_cycles(text: str, domain_size: int | None = None,
                 line: int | None = None) -> tuple[int, ...]:
    """Parse one permutation in disjoint-cycle notation over 0-based points.

    Accepts whitespace between and inside cycles, e.g. ``"(0 1 2) (3 4)"``.
    An empty (or all-whitespace) string denotes the identity, which requires
    ``domain_size``.  Repeated points are rejected with the column of the
    second occurrence.
    """
    mapping: dict[int, int] = {}
    seen: set[int] = set()
    i = 0
    n = len(text)
    max_point = -1
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise CycleParseError(f"expected '(' but found {ch!r}", line, i)
        i += 1
        cyc: list[int] = []
        while True:
            while i < n and text[i].isspace():
                i += 1
            if i >= n:
                raise CycleParseError("unterminated cycle", line, i)
            if text[i] == ")":
                i += 1
                break
            if not text[i].isdigit():
                raise CycleParseError(f"expected point or ')' but found {text[i]!r}", line, i)
            start = i
            while i < n and text[i].isdigit():
                i += 1
            pt = int(text[start:i])
            if pt in seen:
                raise CycleParseError(f"repeated point {pt}", line, start)
            seen.add(pt)
            max_point = max(max_point, pt)
            cyc.append(pt)
        for k, pt in enumerate(cyc):
            mapping[pt] = cyc[(k + 1) % len(cyc)]
    size = max_point + 1
    if domain_size is not None:
        if size > domain_size:
            raise CycleParseError(
                f"point {max_point} outside domain of size {domain_size}", line)
        size = domain_size
    if size == 0:
        raise CycleParseError("empty permutation needs an explicit domain size", line)
    return tuple(mapping.get(x, x) for x in range(size))


def parse_generator_lines(text: str) -> list[tuple[int, ...]]:
    """Parse a generator file: one cycle-notation permutation per line.

    Blank lines denote the identity.  All permutations share one domain,
    the largest point mentioned plus one.
    """
    raw: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        raw.append((lineno, body))
    # first pass for the domain
    size = 0
    for lineno, body in raw:
        for tok in body.replace("(", " ").replace(")", " ").split():
            if not tok.isdigit():
                raise CycleParseError(f"unexpected token {tok!r}", lineno)
            size = max(size, int(tok) + 1)
    if size == 0:
        raise CycleParseError("no points found")
    out = []
    for lineno, body in raw:
        if body.strip() == "":
            out.append(identity_perm(size))
        else:
            out.append(parse_cycles(body, domain_size=size, line=lineno))
    return out


# ---------------------------------------------------------------------------
# orbit walks

def walk(maps, roots: Iterable[int], reached: np.ndarray | None = None, rows=None):
    """Breadth-first walk from ``roots`` along the rows (or the rows ``rows``,
    read a level's columns at a time) of a (k x m) int array of maps of
    {0..m-1}, or of a ``GeneratorRows``, each row read through its column map.
    Returns int64 arrays (points, parent, via): the points in the
    order a one-at-a-time BFS meets them (the roots in increasing order, then
    level by level, each point's images in map order), and a Schreier vector:
    the point each was first met from and the index of the map that took it
    there (-1 for a root).  The boolean mask ``reached`` is updated in place;
    points already in it are skipped, and the walk stops once it is full."""
    maps, rows, cols = ((maps.src, maps.rows, maps.cols) if isinstance(maps, GeneratorRows)
                        else (maps, rows, None))
    k, m = maps.shape if rows is None else (len(rows), maps.shape[1])
    rows = slice(None) if rows is None else np.asarray(rows, dtype=np.int64)[:, None]
    roots = np.fromiter(roots, dtype=np.int64)
    outside = roots[(roots < 0) | (roots >= m)]
    if len(outside):
        raise GroupError(f"point {outside[0]} out of range for {m} points")
    reached = np.zeros(m, dtype=bool) if reached is None else reached
    before = reached.copy()   # a mask, not np.unique, which would import numpy.ma
    reached[roots] = True
    level = (reached & ~before).nonzero()[0]
    out = np.empty((3, m), dtype=np.int64)   # points, parent, via; each point once
    c = len(level)
    out[0, :c], out[1:, :c] = level, -1
    while len(level) and not reached.all():
        images = maps[rows, level if cols is None else cols[level]].T.ravel()   # x in level order, then g
        fresh = (~reached[images]).nonzero()[0]
        if not len(fresh):
            break
        met = fresh if len(fresh) == 1 else fresh[np.sort(np.unique(images[fresh],
                                                                  return_index=True)[1])]
        out[:, c:c + len(met)] = images[met], level[met // k], met % k
        level = out[0, c:c + len(met)]
        c += len(met)
        reached[level] = True
    return out[0, :c], out[1, :c], out[2, :c]


def _join(t: np.ndarray, x: int, reached: np.ndarray, perms: list[int]):
    """Grow ``reached``, a mask closed under the rows ``perms`` of the table t,
    by x to its closure under them (x last in ``perms``: row x moves the old
    points too).  Returns the points added as a Schreier vector over the rows
    of t: each but x is t[via, parent], with parent met before it."""
    old = reached.nonzero()[0] if perms[-1:] == [x] else np.empty(0, dtype=np.int64)
    back, images = np.empty(len(t), dtype=np.int64), t[x][old]
    back[images] = old   # row x inverted on the points reached before, one scatter
    points, parent, via = walk(t, images.tolist() + [x], reached, perms)
    root = (parent < 0) & (points != x)   # an image of a point reached before
    parent[root], via[root] = back[points[root]], len(perms) - 1
    return points, parent, np.array(perms + [-1])[via]


def _chain(t: np.ndarray, order: Iterable[int], seed: Sequence[int] = ()):
    """Greedy generating chain of the table ``t``, row c the map y -> c.y:
    each x of ``order`` not yet reached joins the chain and yields (x, what
    ``_join`` adds to the closure of seed and chain in a quandle (seed rows
    the identity) or a group)."""
    chain, reached = [], np.zeros(len(t), dtype=bool)
    reached[list(seed)] = True
    for x in order:
        if not reached[x]:
            chain.append(x)
            yield x, _join(t, x, reached, chain)


def _identity_rows(t: np.ndarray) -> list[int]:   # one row at a time; none in an empty t
    return [q for q in np.flatnonzero(t[:, :1] == 0).tolist() if (t[q] == np.arange(len(t))).all()]


def _check_rows(failures, t: np.ndarray, seed: Sequence[int] = ()):
    """What ``failures(x)`` (tuples led by x, row-major) yields for x = 0..n-1,
    for a check that passes on ``seed`` and on t[p, c] whenever it passes on c
    and on a p whose map y -> t[p, y] is a permutation.  Rows in the closure C
    of the seed and the rows that passed, under the rows P that passed and are
    permutations other than the identity, pass and are skipped; a passing row
    joins C by ``_join`` (while P is empty, it is only marked)."""
    n = len(t)
    ident, reached, perms = np.arange(n), np.zeros(n, dtype=bool), []
    reached[list(seed)] = True
    for x in range(n):
        if reached[x]:
            continue
        if (first := next(fails := failures(x), None)) is not None:
            yield from itertools.chain([first], fails)
        elif (t[x] != ident).any() and np.bincount(t[x], minlength=n).all():
            perms.append(x)
            _join(t, x, reached, perms)
        elif perms:
            _join(t, x, reached, perms)
        else:
            reached[x] = True


def _row_failures(differs):
    """``failures`` of a check that fails row r at each i where ``differs(r)[i]``."""
    return lambda r: ((r, i) for i in np.flatnonzero(differs(r)).tolist())


# ---------------------------------------------------------------------------
# permutation groups by a stabilizer chain

def _point_dtype(m: int) -> np.dtype:
    """The dtype of every table, permutation and action of m points: the
    narrowest unsigned one, uint8 up to 256 points and uint16 to 65536."""
    return np.min_scalar_type(max(m - 1, 0))


def _read_only(a, dtype=None) -> np.ndarray:
    """``a`` as a read-only array, copied only if it must change dtype: the
    view is frozen, so a caller's own array stays writeable."""
    view = np.asarray(a, dtype=dtype).view()
    view.flags.writeable = False
    return view


_BATCH_ENTRIES = 1 << 13   # entries checked, composed or sifted at once, as axiom 3 compares them


def _batch(m: int) -> int:
    """Rows of m points checked, composed or sifted at once: about ``_BATCH_ENTRIES``
    entries, so an intp index over them stays near 64 KB, and at least 8 rows,
    as the fixed cost of each call dominates a block of one or two long rows."""
    return max(8, _BATCH_ENTRIES // max(m, 1))


def _perm_rows(rows, m: int, refuse) -> np.ndarray:
    """The permutations ``rows`` of {0..m-1}, given in ints (not bools), as one
    int array (an int array as given, other rows as int64); ``refuse(q, row)``
    is raised for the first row q that is not one.  The entry types are read
    in one pass, and the rows checked a block of about ``_BATCH_ENTRIES``
    entries at a time: in range (only below m for an unsigned array) and
    scattered into a hit mask.  The rows are walked only when an entry is not
    an int or a block fails."""
    array = isinstance(rows, np.ndarray) and rows.dtype != object and rows.ndim == 2
    rows = rows if array else [tuple(r) for r in rows]
    kinds = {rows.dtype.type} if array else set(map(type, itertools.chain.from_iterable(rows)))
    a = None
    if (all(k is not bool and issubclass(k, (int, np.integer)) for k in kinds)
            and all(len(r) == m for r in rows)):
        with contextlib.suppress(OverflowError):   # an int past int64 is no point
            a = np.asarray(rows, dtype=None if array else np.int64).reshape(len(rows), m)
    ok = a is not None
    for j in range(0, len(a) if ok else 0, step := _batch(m)):
        at = a[j:j + step].astype(np.intp)
        if not ((at < m).all() and (a.dtype.kind == "u" or (at >= 0).all())):
            ok = False
            break
        at += np.arange(len(at))[:, None] * m
        hit = np.zeros(at.size, dtype=bool)
        hit[at] = True
        if not (ok := bool(hit.all())):
            break
    if not ok:
        q = next(q for q, r in enumerate(rows)
                 if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                            for x in r) or sorted(r) != list(range(m)))
        raise refuse(q, tuple(x.item() if isinstance(x, np.generic) else x for x in rows[q]))
    return a


def _generator_rows(rows, m: int) -> np.ndarray:
    """``_perm_rows`` in the dtype of ``_point_dtype(m)``."""
    a = _perm_rows(rows, m, lambda _, bad: GroupError(
        f"generator {tuple(bad)} is not a permutation of {m} points"))
    return a.astype(_point_dtype(m), copy=False)


def _keys(rows: np.ndarray, dtype) -> np.ndarray:
    """Each row of ints as one bytes scalar of ``dtype`` entries, big-endian,
    so keys sort and compare as the rows do lexicographically."""
    be = np.ascontiguousarray(rows, dtype=np.dtype(dtype).newbyteorder(">"))
    width = be.itemsize * be.shape[1]
    return be.view(f"V{width}").ravel() if width else np.zeros(len(be), dtype="V1")


class GeneratorRows:
    """The rows ``rows`` of the permutation array ``src``, each read through the
    column map ``cols``: row i maps x to src[rows[i], cols[x]].  Generators held
    so (``symmetry.tr``'s s_q s_b^-1 are the rows of ``op`` read through
    s_b^-1) are formed where they are read: a batch of rows by indexing, all
    of them only by ``np.asarray`` or ``tolist``; ``walk`` reads the columns
    it needs."""

    def __init__(self, src: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        self.src, self.rows, self.cols = src, rows, cols

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, key) -> np.ndarray:
        return np.take(self.src[self.rows[key]], self.cols, axis=-1)   # C-contiguous

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self[:].astype(dtype or self.dtype, copy=False)

    @property
    def dtype(self) -> np.dtype:
        return self.src.dtype

    def tolist(self) -> list:
        return self[:].tolist()


_SIFT = 3   # index batches in a batch of rows sifted at once
_TRACE = 4   # rows formed per transversal element read, at most, before a level keeps its rows


class _Level:
    """One level of a stabilizer chain: its base point, the strong generators
    that fix the earlier base points (``maps``), the basic orbit in walk order,
    each point's place in it (``at``, -1 outside) and a Schreier vector over
    the places: for the point at each place, the place it was met from
    (``parent``, -1 at the base) and ``via``, the map that took it there.
    The transversal u with u[base] = d of an orbit point d is read off them
    by ``rows``: it is ``kept[row]`` where ``row`` is set (the identity at the
    base, a view of the map of a point one map from it, or a row that
    ``keep_rows`` formed); a generator of the group, ``given[-2 - via]``,
    where ``via`` is below -1 (``adopt``); else the map ``via`` after u of
    the parent.  ``pairs`` lists (map, place of d) in the order they arose,
    but for the edges of the walk, whose Schreier generators are the
    identity; the first ``done`` are sifted.  A level with no ``given``
    keeps the rows of its points at once."""

    def __init__(self, base: int, ident: np.ndarray, given=None):
        self.base, self.maps, self.given = base, np.empty((0, len(ident)), ident.dtype), given
        self.orbit, self.parent, self.via, self.row = (np.array([x]) for x in (base, -1, -1, 0))
        self.kept = [ident]
        self.at = np.full(len(ident), -1, dtype=np.int64)
        self.at[base] = 0
        self.pairs, self.done = np.empty((2, 0), dtype=np.int64), 0

    def add(self, y: np.ndarray) -> None:
        """Join y to ``maps`` and walk the orbit on from y's images of it; a
        new point one map from the base keeps a view of that map."""
        m, c = len(y), len(self.orbit)
        self.maps = np.vstack([self.maps, y])
        images, back = y[self.orbit], np.empty(m, dtype=np.int64)
        back[images] = self.orbit   # y inverted on the images
        points, parent, via = walk(self.maps, images, self.at >= 0)
        root = parent < 0
        parent[root], via[root] = back[points[root]], len(self.maps) - 1
        self.at[points] = np.arange(c, c + len(points))
        par, row = self.at[parent], np.full(len(points), -1)
        first = np.flatnonzero(par == 0)
        row[first] = np.arange(len(self.kept), len(self.kept) + len(first))
        self.kept.extend(self.maps[v] for v in via[first].tolist())
        self.orbit, self.parent, self.via, self.row = (
            np.concatenate(pair) for pair in ((self.orbit, points), (self.parent, par),
                                              (self.via, via), (self.row, row)))
        fresh = np.zeros((len(self.maps), len(self.orbit)), dtype=bool)
        fresh[:, c:] = fresh[-1] = True   # the old maps on the new points, y on all
        fresh[via, par] = False
        self.pairs = np.hstack([self.pairs, np.nonzero(fresh)])
        if self.given is None:
            self.keep_rows()

    def adopt(self, rows: np.ndarray, index: np.ndarray) -> None:
        """Read u of each point that one of ``rows`` takes the base to, and
        that has no row, as that row: the generator ``given[index]``.  It lies
        in the group (it sifted to the identity) and differs from the old u
        by an element of the levels below (the sift shows it), so every sift
        and Schreier generator checked before stays valid."""
        places = self.at[rows[:, self.base]]
        take = (self.row[places] < 0) & (self.via[places] >= 0)
        self.parent[places[take]], self.via[places[take]] = 0, -2 - index[take]

    def rows(self, places: np.ndarray) -> np.ndarray:
        """u of the points at ``places``, one row each.  The points read along
        the Schreier vector and their ancestors without a row are formed once
        each (``_form``); if there are more than ``_TRACE`` per place read,
        the level keeps its rows first (``keep_rows``): no row is formed along
        a deep tree at every read."""
        via = self.via[places]
        if via.max(initial=0) < -1:   # every u a generator: the common read of a Latin carrier
            return self.given[-2 - via]
        row, given = self.row[places], via < -1
        if walking := (walked := ~given & (row < 0)).any():
            need, new = np.zeros(len(self.orbit), dtype=bool), places[walked]
            while len(new) and np.count_nonzero(need) <= _TRACE * len(places):
                need[new] = True
                new = self.parent[new]
                new = new[(self.via[new] >= 0) & (self.row[new] < 0) & ~need[new]]
            if len(new):
                self.keep_rows()
                return self.rows(places)
            todo = np.flatnonzero(need)
            formed = self._form(todo)[np.searchsorted(todo, places[walked])]
        out = np.empty((len(places), len(self.at)), dtype=self.maps.dtype)
        if given.any():
            out[given] = self.given[-2 - via[given]]
        if (kept := row >= 0).any():
            out[kept] = [self.kept[r] for r in row[kept].tolist()]
        if walking:
            out[walked] = formed
        return out

    def _form(self, todo: np.ndarray) -> np.ndarray:
        """u of the points at the increasing places ``todo``, which hold every
        point without a row that one of them descends from, in that order: the
        map ``via`` after u of the parent, for all the points of one depth
        below the points with rows at once."""
        par = self.parent[todo]
        inner = np.minimum(np.searchsorted(todo, par), len(todo) - 1)
        local = todo[inner] == par   # parents formed here; the others have rows
        up = np.append(np.where(local, inner, len(todo)), len(todo))   # len(todo): none
        depth = np.append(np.where(local, 1, 0), 0)
        while (up[:-1] < len(todo)).any():   # pointer jumping: log(depth) rounds
            depth, up = depth + depth[up], up[up]
        out = np.empty((len(todo), len(self.at)), dtype=self.maps.dtype)
        for d in range(int(depth.max()) + 1):
            at = np.flatnonzero(depth[:-1] == d)
            parents = out[inner[at]] if d else self.rows(par[at])
            out[at] = _compose_rows(self.maps, parents, self.via[todo[at]])
        return out

    def keep_rows(self) -> None:
        """Keep u of every point read along the Schreier vector, formed by
        ``_form`` in one block of rows; the rows kept before are not copied."""
        todo = np.flatnonzero((self.via >= 0) & (self.row < 0))
        formed = self._form(todo)
        self.row[todo] = np.arange(len(self.kept), len(self.kept) + len(todo))
        self.kept.extend(formed)


def _inverse_rows(rows: np.ndarray, values: np.ndarray | None = None) -> np.ndarray:
    """The inverse u^-1 of each permutation row u of ``rows``, or, given
    ``values``, values[u^-1(p)] at p, of their dtype: a batch of rows in one
    scatter each."""
    m = rows.shape[1]
    values = np.arange(m, dtype=rows.dtype) if values is None else values
    out = np.empty(rows.shape, dtype=values.dtype)
    for j in range(0, len(rows), step := _batch(m)):
        at = rows[j:j + step].astype(np.intp)   # an index built in place, not by a cast sum
        at += np.arange(len(at))[:, None] * m
        out[j:j + step].reshape(-1)[at] = values
    return out


def _compose_rows(p: np.ndarray, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row rows[i] of p after row i of q, as one flat take a batch of rows at
    a time: about three times as fast as ``np.take_along_axis``."""
    m, out = p.shape[1], np.empty(q.shape, dtype=p.dtype)
    for j in range(0, len(q), step := _batch(m)):
        at = q[j:j + step].astype(np.intp)
        at += rows[j:j + step, None] * m
        np.take(p, at, out=out[j:j + step], mode="clip")   # "raise" would buffer the output
    return out


def _divide_rows(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """u_i^-1 g_i for each row i of the permutations ``u`` and ``g``, written
    over ``u``: u_i inverted by one scatter and read at g_i by one flat take,
    a batch of rows at a time."""
    m, step = u.shape[1], _batch(u.shape[1])
    ident, inv = np.arange(m, dtype=u.dtype), np.empty_like(u[:step])
    for j in range(0, len(u), step):
        at = u[j:j + step].astype(np.intp)
        at += (offsets := np.arange(len(at))[:, None] * m)
        inv.reshape(-1)[at] = ident
        at = g[j:j + step].astype(np.intp)
        at += offsets
        np.take(inv, at, out=u[j:j + step], mode="clip")
    return u


def _first_residue(levels: list, rows: np.ndarray, start: int):
    """The first of ``rows``, a batch of permutations that fix the base points
    before level ``start``, that does not sift through levels start.. to the
    identity: its index, its residue and the level it left the chain at
    (``len(levels)`` if it passed them all); None if every row sifts to the
    identity.  A level sifts on only the rows before the first that left the
    chain, composing each with the inverse of its transversal (the rows
    inverted by one scatter), and the last compares each with its
    transversal instead."""
    last, g, hit, want = len(levels) - 1, rows, None, None
    for i in range(start, len(levels)):
        at = levels[i].at[g[:, levels[i].base]]
        if (out := at < 0).any():
            k = int(out.argmax())
            hit, g, at = (k, g[k].copy(), i), g[:k], at[:k]   # a copy frees the batch
        if i < last:   # the rows read are formed afresh, so each can take its quotient
            g = _divide_rows(levels[i].rows(at), g)
        else:
            want = levels[i].rows(at)
    if start > last:
        want = np.arange(rows.shape[1], dtype=rows.dtype)
    if len(moved := np.flatnonzero((g != want).any(axis=1))):
        k = int(moved[0])
        if start <= last:   # the residue u^-1 g, u the last level's transversal
            return k, _inverse_rows(levels[last].rows(at[k:k + 1]))[0][g[k]], len(levels)
        return k, g[k].copy(), len(levels)
    return hit


class PermutationGroup:
    """A group of permutations of {0..m-1}, held as a stabilizer chain.

    ``gens`` holds the distinct generators in the order given, each row
    compared only with the earlier rows that share the hash of its bytes, so
    no n-wide rows are sorted.  It is a read-only array of the dtype
    ``_point_dtype(domain_size)`` (the array given, uncopied, when its rows
    are distinct), or, given a column map ``cols``, a ``GeneratorRows``: the
    rows of ``generators`` read through ``cols``, formed where they are read
    (two are equal exactly when their given rows are).  ``perms`` (the sorted
    elements) is a read-only array.  The chain is built lazily by
    deterministic Schreier–Sims; ``order`` (unless ``aut`` set it) and
    membership read it, and ``perms``, the products of its transversals, is
    listed only when read.  Building it sets ``used``, the indices of the
    generators that did not sift to the identity, which generate the group.
    Orbits only walk the generators.  ``elements`` and ``generators`` are
    tuple views, built when first read.
    """

    def __init__(self, domain_size: int, generators: Iterable[Sequence[int]],
                 cap: int = DEFAULT_CAP, cols=None):
        gens, seen, first = _generator_rows(generators, domain_size), {}, []
        for i, row in enumerate(gens):   # rows equal as given are equal through any column map
            twins = seen.setdefault(hash(row.tobytes()), [])
            if not any(np.array_equal(row, gens[j]) for j in twins):
                twins.append(i)
                first.append(i)
        self.domain_size = domain_size
        if cols is None:
            self.gens = _read_only(gens if len(first) == len(gens) else gens[first])
        else:
            cols = _perm_rows(np.asarray(cols)[None], domain_size, lambda *_: GroupError(
                f"column map is not a permutation of {domain_size} points"))[0]
            self.gens = GeneratorRows(_read_only(gens), np.array(first, dtype=np.int64),
                                      _read_only(cols, np.int64))
        self.cap = cap

    @functools.cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.perms.tolist()))

    @functools.cached_property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.gens.tolist()))

    @functools.cached_property
    def order(self) -> int:
        return math.prod(len(level.orbit) for level in self._levels)

    @functools.cached_property
    def _levels(self) -> list[_Level]:
        # Deterministic Schreier–Sims (Sims 1970; Seress 2003, ch. 4).  The
        # generators are sifted in order, a batch at a time, and one that
        # sifts to the identity is in the group and skipped; its image of the
        # first base point then reads its transversal off it (``adopt``), so
        # on a Latin carrier the first level keeps no rows.  The first that
        # does not sift, once the levels are closed, is ``used``: its residue
        # joins the levels down to where it left the chain.  Closing sifts,
        # from the last level up, every Schreier generator of a level through
        # the levels below it, and the first residue joins them in turn; a
        # level is done when all of its sift to the identity.  The levels are
        # closed only before a generator is judged not in the group, and at
        # the end.  The product of the orbit lengths never exceeds the order,
        # so the closure fails, as soon as it passes the cap, exactly when the
        # order exceeds it.
        gens, levels, used = self.gens, [], []
        ident = np.arange(self.domain_size, dtype=gens.dtype)
        step = _SIFT * _batch(self.domain_size)

        def join(y: np.ndarray, lo: int, hi: int) -> int:
            if hi == len(levels):
                levels.append(_Level(int(np.argmax(y != ident)), ident, None if levels else gens))
            for level in levels[lo:hi + 1]:
                level.add(y)
            if math.prod(len(level.orbit) for level in levels) > self.cap:
                raise CapExceeded(f"group closure exceeded cap of {self.cap} elements")
            return hi

        def schreier_residue(i: int):
            level = levels[i]
            for a in range(level.done, level.pairs.shape[1], step):
                k, d = level.pairs[:, a:a + step]   # s u_d, sifted through level i, leaves
                hit = _first_residue(levels, _compose_rows(level.maps, level.rows(d), k), i)
                level.done = a + step if hit is None else a + hit[0]   # u_{s(d)}^-1 s u_d
                if hit is not None:
                    return hit[1:]
            level.done = level.pairs.shape[1]
            return None

        def close_levels() -> None:
            i = len(levels) - 1
            while i >= 0:
                hit = schreier_residue(i)
                i = i - 1 if hit is None else join(hit[0], i + 1, hit[1])

        a, closed = 0, True
        while a < len(gens):
            batch = gens[a:a + step]
            hit = _first_residue(levels, batch, 0)
            k = len(batch) if hit is None else hit[0]
            if levels:
                levels[0].adopt(batch[:k], np.arange(a, a + k))
            a += k
            if hit is None:
                continue
            if closed:
                used.append(a)
                join(hit[1], 0, hit[2])
                a += 1
            else:
                close_levels()   # then sift row a again
            closed = not closed
        if not closed:
            close_levels()
        self.used = np.array(used, dtype=np.int64)
        return levels

    @functools.cached_property
    def perms(self) -> np.ndarray:
        """u_1 u_2 ... u_k over the transversals of the chain, sorted once."""
        perms = np.arange(self.domain_size, dtype=self.gens.dtype)[None]
        for level in self._levels:   # the identity times u_1 is u_1, uncopied
            u = level.rows(np.arange(len(level.orbit)))
            perms = u if len(perms) == 1 else np.take(perms, u, axis=1).reshape(
                -1, self.domain_size)
        return _read_only(perms[np.argsort(_keys(perms, perms.dtype))])

    @functools.cached_property
    def _sift(self) -> tuple[list, list, np.ndarray]:
        """What ``rank`` reads, for a chain of k levels: the places of levels
        1..k-1 in their basic orbits (0 off them); the inverses of the
        transversals of levels 1..k-2, flat; and levels k-1 and k folded into
        one table, of ``_point_dtype(order)``: row f = (i_1, ..., i_{k-1}), an
        index in the product order that ``perms`` lists before it sorts, maps
        a point p to the index in ``perms`` of (i_1, ..., i_{k-1}, the place
        of u_{i_{k-1}}^-1 (p) in the k-th basic orbit).  That table is built
        as those product indices, mapped through the sort once the elements'
        own product indices are read off it."""
        levels, dtype = self._levels, _point_dtype(self.order)
        if not levels:   # the trivial group: one element
            return [], [], np.zeros(1, dtype=dtype)
        at = [np.maximum(level.at, 0) for level in levels[:-1]]
        inv = [_inverse_rows(level.rows(np.arange(len(level.orbit)))) for level in levels[:-2]]
        last = np.maximum(levels[-1].at, 0).astype(dtype)[None]   # its place in the last orbit
        if at:   # read through u_{i_{k-1}}^-1, row f at f mod |orbit k-1|
            last = _inverse_rows(levels[-2].rows(np.arange(len(levels[-2].orbit))), last[0])
        if inv:
            last = np.tile(last, (math.prod(map(len, inv)), 1))
        last += (np.arange(len(last)) * len(levels[-1].orbit)).astype(dtype)[:, None]
        sift = at, [u.ravel() for u in inv], last.reshape(-1)
        place = np.empty(self.order, dtype=dtype)
        place[self._product_index(self.base_images(self.perms), sift)] = np.arange(self.order)
        for a in range(0, len(last), step := _batch(self.domain_size)):   # intp a batch at a time
            last[a:a + step] = place[last[a:a + step]]
        return sift

    def _product_index(self, images: np.ndarray, sift) -> np.ndarray:
        """The entry of the folded table of ``sift`` (``_sift``, or the table
        before it is mapped through the sort) at each element g whose base
        images are read down the first axis of ``images``, as ``base_images``
        lays them out: g's sift coordinates are i_1 = the place of g(b_1) in
        the first basic orbit, i_2 that of u_{i_1}^-1 g(b_2) in the second,
        and so on, read down to the last two levels, which the table reads at
        once.  (i_1, ..., i_k), i_1 first, is g's index in the product order."""
        at, inv, last = sift
        if not self._levels:
            return np.zeros(images.shape[1:], dtype=last.dtype)
        img, m = images.astype(np.intp) if inv else images, self.domain_size   # divided in place
        flat = 0
        for k, places in enumerate(at):
            i = np.take(places, img[k])
            flat = i if k == 0 else flat * len(self._levels[k].orbit) + i
            if k < len(inv):   # the later base images under u_{i_k}^-1
                rest = img[k + 1:]
                rest += i * m
                img[k + 1:] = np.take(inv[k], rest)
        return np.take(last, flat * m + img[-1] if at else img[-1])

    def rank(self, images) -> np.ndarray:
        """The index in ``perms`` of each element g of the group whose base
        images g(b_1), ..., g(b_k) are read down the first axis of ``images``
        (``base_images``), found from its sift coordinates (``_product_index``)
        with no search over whole rows, in the dtype of ``_point_dtype(order)``.
        A permutation outside the group gets some index; its row in ``perms``
        then differs from it."""
        return self._product_index(np.asarray(images), self._sift)

    def base_images(self, rows: np.ndarray) -> np.ndarray:
        """The images of the base points under the permutations ``rows``, those
        of b_k at [k - 1]: what ``rank`` reads."""
        return np.moveaxis(rows[..., [level.base for level in self._levels]], -1, 0)

    def table_rows(self):
        """The multiplication table of ``perms``, row x holding the index of
        x o y at y, as an iterator of blocks of rows, about ``_BATCH_ENTRIES``
        base images each, ranked by the base images x[B[y]] of x o y, B[y]
        those of y.  The order is refused past ``MAX_GROUP_ORDER`` by this
        call, before anything is listed."""
        _check_order(n := self.order)
        perms, step = self.perms, _batch(n * max(len(self._levels), 1))
        images = self.base_images(perms)
        return (self.rank(np.moveaxis(np.take(perms[a:a + step], images, axis=1), 1, 0))
                for a in range(0, n, step))

    def __contains__(self, p) -> bool:
        p = tuple(p)
        return (len(p) == self.domain_size and is_permutation(p)
                and _first_residue(self._levels, np.array([p], dtype=self.gens.dtype), 0) is None)

    def orbit(self, point: int) -> frozenset[int]:
        """Orbit of a point under the generated group (generator walk only)."""
        return frozenset(walk(self.gens, [point])[0].tolist())

    def orbits(self) -> list[frozenset[int]]:
        reached = np.zeros(self.domain_size, dtype=bool)
        return [frozenset(walk(self.gens, [x], reached)[0].tolist())
                for x in range(self.domain_size) if not reached[x]]

    def is_transitive(self) -> bool:
        return self.domain_size <= 1 or len(self.orbit(0)) == self.domain_size

    def __repr__(self):
        extra = f", order={self.order}" if "_levels" in vars(self) else ""
        return f"PermutationGroup(domain={self.domain_size}, gens={len(self.gens)}{extra})"


def close(generators, cap: int = DEFAULT_CAP, domain_size: int | None = None,
          cols=None) -> PermutationGroup:
    """Close a generator list or array (its rows read through the column map
    ``cols``, if given) into a PermutationGroup: build its stabilizer chain
    now, so cap errors surface here; its elements are not listed."""
    gens = generators if isinstance(generators, np.ndarray) else list(generators)
    m = domain_size if domain_size is not None else len(gens[0]) if len(gens) else 0
    if any(len(g) != m for g in gens):
        raise GroupError("generators live on different domains")
    grp = PermutationGroup(m, gens, cap=cap, cols=cols)
    grp.order   # builds the chain
    return grp


# ---------------------------------------------------------------------------
# explicit finite groups

def _check_order(n: int) -> None:
    """Refuse, before anything is allocated, a group too large to tabulate."""
    if n > MAX_GROUP_ORDER:
        raise CapExceeded(
            f"group order {n} exceeds the limit of {MAX_GROUP_ORDER} elements "
            f"for a multiplication table")


def _tree_blocks(after: np.ndarray, m: int):
    """Blocks c..e-1 of the places 1.. of a walk, at most ``_batch(m)`` each,
    whose parents (place k's at ``after[k - 1]``) lie before c."""
    c = 1
    while c <= len(after):
        e = min(1 + int(np.searchsorted(after, c)), c + _batch(m))
        yield c, e
        c = e


def _cayley_table(left: np.ndarray, ident: int):
    """Multiplication table and inverse map, of ``_point_dtype``, of the group
    whose left translations x -> s.x by a few generators s are the rows of
    ``left``.  The walk of the Cayley graph from the identity meets each b as
    s.p with p met before it, so row b of the table, y -> s.p.y, is row p
    mapped through left[s], a ``_tree_blocks`` block at a time, and b^-1 is
    read off row b."""
    n = left.shape[1]
    left = left.astype(_point_dtype(n), copy=False)
    points, parent, via = walk(left, [ident])
    after = np.argsort(points)[parent[1:]]   # where each row's parent lies in the walk
    table, inv = np.empty((n, n), dtype=left.dtype), np.empty(n, dtype=left.dtype)
    table[ident], inv[ident] = np.arange(n), ident
    for c, e in _tree_blocks(after, n):
        rows = table[points[c:e]] = _compose_rows(left, table[parent[c:e]], via[c:e])
        inv[points[c:e]] = (rows == ident).argmax(axis=1)
    return table, inv


class FiniteGroup:
    """A finite group on indices 0..order-1 with its full multiplication table.

    The group is held only as read-only arrays: ``table`` (order x order) and
    ``inv_map`` of ``_point_dtype(order)`` and, for a group of permutations or
    matrices, ``perms``, whose row i is element i.  The scalar accessors
    (``mul``, ``inv``, ``conj``) read them and return Python ints.  Orders above
    ``MAX_GROUP_ORDER`` are refused with ``CapExceeded`` before a table is
    built.  ``elements`` (tuples) and the labels of permutations (cycle
    notation) are built when first read.
    """

    def __init__(self, table, inv: Sequence[int], identity: int,
                 labels: Sequence[str] | None = None, perms=None):
        self.table, self.inv_map = (_read_only(a, _point_dtype(len(table))) for a in (table, inv))
        self.order = len(self.table)
        self.identity = int(identity)
        self._labels = tuple(labels) if labels is not None else None
        self.perms = None if perms is None else _read_only(perms)

    @property
    def labels(self) -> tuple[str, ...] | None:
        if self._labels is None and self.perms is not None:
            self._labels = tuple(itertools.chain.from_iterable(cycle_labels(self.perms)))
        return self._labels

    @functools.cached_property
    def elements(self) -> tuple | None:
        return None if self.perms is None else tuple(map(tuple, self.perms.tolist()))

    # -- construction -------------------------------------------------------

    @classmethod
    def from_table(cls, table: Sequence[Sequence[int]],
                   labels: Sequence[str] | None = None) -> "FiniteGroup":
        """Validate a table of Python ints, their types read in one pass (the rows
        are walked only to name a malformed one).  Associativity is Light's test,
        (x s) y = x (s y) for all x, y, by ``_check_rows``: passing s are closed under products."""
        if not isinstance(table, (list, tuple)):
            raise GroupError("multiplication table must be a list of rows")
        n, t = len(table), None
        _check_order(n)
        if (all(isinstance(row, (list, tuple)) and len(row) == n for row in table)
                and set(map(type, itertools.chain.from_iterable(table))) <= {int}):
            with contextlib.suppress(OverflowError):   # an int past the dtype is out of range
                t = np.array(table, dtype=_point_dtype(n)).reshape(n, n)
        if t is None or not (t < n).all():
            i = next(i for i, row in enumerate(table) if not isinstance(row, (list, tuple))
                     or len(row) != n or not all(type(x) is int and 0 <= x < n for x in row))
            raise GroupError(f"row {i} of multiplication table is malformed")
        ident = next((e for e in _identity_rows(t) if (t[:, e] == np.arange(n)).all()), None)
        if ident is None:
            raise GroupError("no identity element in multiplication table")
        two_sided = (t == ident) & (t.T == ident)
        has_inv = two_sided.any(axis=1)
        if not has_inv.all():
            raise GroupError(f"element {int(np.argmin(has_inv))} has no inverse")
        inv = two_sided.argmax(axis=1)
        light = _row_failures(lambda s: (t[t[:, s]] != np.take(t, t[s], axis=1)).ravel())
        bad = next(_check_rows(light, t, [ident]), None)   # (xs)y != x(sy)
        if bad:
            (x, y), s = divmod(bad[1], n), bad[0]
            raise GroupError(f"multiplication is not associative at {(x, s, y)}")
        return cls(t, inv, ident, labels=labels)

    @classmethod
    def from_permutations(cls, perms: Iterable[Sequence[int]]) -> "FiniteGroup":
        return cls.from_permutation_group(close(list(perms)))

    @classmethod
    def from_permutation_group(cls, grp: PermutationGroup) -> "FiniteGroup":
        """The table of the sorted ``grp.perms``: the blocks of
        ``grp.table_rows``, stacked, and each inverse read off its row.  The
        identity, the least permutation, is element 0.  The order, read off
        the chain, is checked before the elements are listed."""
        rows = grp.table_rows()
        table = np.empty((n := grp.order, n), dtype=_point_dtype(n))
        inv, a = np.empty(n, dtype=table.dtype), 0
        for block in rows:
            table[a:a + len(block)], inv[a:a + len(block)] = block, (block == 0).argmax(axis=1)
            a += len(block)
        return cls(table, inv, 0, perms=grp.perms)

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        _check_order(n)
        i = np.arange(n, dtype=_point_dtype(2 * n))   # i + j < 2n and n - i do not wrap
        return cls((i[:, None] + i) % n, (n - i) % n, 0,
                   labels=tuple(str(k) for k in range(n)))

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        """All permutations of n points, in lexicographic order: <n-cycle, (0 1)>."""
        _check_order(math.factorial(n))
        points = np.arange(n)
        return cls.from_permutations([np.roll(points, 1), np.r_[points[1::-1], points[2:]]])

    # -- operations ----------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.table.item(i, j)

    def inv(self, i: int) -> int:
        return self.inv_map.item(i)

    def conj(self, g: int, h: int) -> int:
        """g^-1 h g."""
        return self.mul(self.mul(self.inv(g), h), g)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    @functools.cached_property
    def element_orders(self) -> np.ndarray:
        """The order of every element, as a read-only array: the powers of all
        elements are walked together, each dropped when it reaches the identity."""
        orders = np.zeros(self.order, dtype=np.int64)
        live = x = np.arange(self.order)   # x[j] is live[j] to the power k
        k = 1
        while len(live):
            done = x == self.identity
            orders[live[done]] = k
            live, x = live[~done], x[~done]
            x, k = self.table[x, live], k + 1
        return _read_only(orders)

    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    def subgroup_witness(self, subset: Iterable[int]):
        """None if ``subset`` is a subgroup, else a witness describing why not.

        Elements are examined in increasing order, so the witness names the
        least offender: an index out of range, then for each a its inverse
        and its products a*b with b increasing.
        """
        s = sorted(set(subset))
        if not s:
            return ("empty",)
        outside = [x for x in s if not 0 <= x < self.order]
        if outside:
            return ("out-of-range", outside[0])
        if self.identity not in s:
            return ("missing-identity", self.identity)
        h = np.array(s)
        member = np.zeros(self.order, dtype=bool)
        member[h] = True
        for a in s:
            if not member[self.inv_map[a]]:
                return ("inverse", a)
            out = np.flatnonzero(~member[self.table[a, h]])
            if len(out):
                return ("product", a, s[out[0]])
        return None

    def _fields(self) -> dict:
        """The JSON object of the group, with ``table`` as its ``mul``."""
        d = {"order": self.order, "mul": self.table}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d

    def to_dict(self) -> dict:
        return {**self._fields(), "mul": self.table.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "FiniteGroup":
        if not isinstance(d, dict) or "mul" not in d:
            raise GroupError("group JSON needs a 'mul' table")
        labels = d.get("labels")
        if labels is not None and not isinstance(labels, list):
            raise GroupError("group 'labels' must be a list")
        g = cls.from_table(d["mul"], labels=tuple(labels) if labels else None)
        if "order" in d and d["order"] != g.order:
            raise GroupError("declared order does not match table size")
        if labels and len(labels) != g.order:
            raise GroupError("group 'labels' must have one entry per element")
        return g

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


# ---------------------------------------------------------------------------
# automorphisms and cosets

class GroupAutomorphism:
    """An automorphism of a FiniteGroup: ``mapping`` is a read-only int64
    array of element indices."""

    def __init__(self, group: FiniteGroup, mapping: Sequence[int], check: bool = True):
        if check:   # an array is read as one 2-D row, its dtype in one pass
            rows = mapping[None] if isinstance(mapping, np.ndarray) else [mapping]
            mapping = _perm_rows(rows, group.order, lambda *_: NotAnAutomorphism(
                "mapping is not a bijection on the group"))[0]
        self.group = group
        self.mapping = _read_only(mapping, np.int64)
        if check:
            self._check()

    def _check(self):
        """m(ab) = m(a)m(b), row a by ``_check_rows``: the rows that pass are
        closed under products, as m(aa'b) = m(a)m(a'b) = m(aa')m(b), and the
        identity passes once m fixes it.  The first bad (a, b) in row-major order."""
        g, m, t = self.group, self.mapping, self.group.table
        if m[g.identity] != g.identity:
            raise NotAnAutomorphism("mapping moves the identity",
                                    witness=g.identity)
        hom = _row_failures(lambda a: m[t[a]] != t[m[a], m])
        bad = next(_check_rows(hom, t, [g.identity]), None)
        if bad:
            raise NotAnAutomorphism(f"mapping is not multiplicative at {bad}", witness=bad)

    def __call__(self, i: int) -> int:
        return self.mapping.item(i)

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.mapping == np.arange(self.group.order)).tolist())

    def __repr__(self):
        return f"GroupAutomorphism(order={self.group.order})"


def _extensions(a, b, prof_a: Sequence, prof_b: Sequence):
    """The (s_k, images tried) of ``table_isomorphisms``, and ``mappings(pins)``:
    a new search, level k < len(pins) trying ``pins[k]``."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    n = len(a)
    ids: dict = {}
    pa = [ids.setdefault(p, len(ids)) for p in prof_a]
    pb = [ids.setdefault(p, len(ids)) for p in prof_b]
    cands = [[y for y in range(n) if pb[y] == i] for i in range(len(ids))]
    order = sorted(range(n), key=lambda x: (len(cands[pa[x]]), x))
    b_rows = b.tolist()
    closure = np.empty(0, dtype=np.int64)   # C_{k-1}
    levels = []   # (s_k, its tries, [(x, s, r)], new pairs x, y, a[x, y])
    for s, (points, parent, via) in _chain(a, order):
        new = parent >= 0   # s_k is the one point with no parent
        derived = list(zip(points[new].tolist(), via[new].tolist(), parent[new].tolist()))
        fresh = np.arange(len(closure) + len(points)) >= len(closure)
        closure = np.concatenate([closure, points])
        xi, yi = np.nonzero(fresh[:, None] | fresh)   # the new pairs of C_k x C_k
        xs, ys = closure[xi], closure[yi]
        levels.append((s, cands[pa[s]], derived, xs, ys, a[xs, ys]))

    def mappings(pins):
        f, fa, used = [-1] * n, np.full(n, -1), [False] * n   # fa: f, for array reads
        def extend(k: int):
            if k == len(levels):
                yield tuple(f)
                return
            s, tries, derived, xs, ys, a_xy = levels[k]
            for y in pins[k] if k < len(pins) else tries:
                if used[y]:
                    continue
                f[s] = fa[s] = y
                taken = [y]
                used[y] = True
                for x, l, r in derived:
                    fx = b_rows[f[l]][f[r]]
                    if used[fx] or pb[fx] != pa[x]:
                        break
                    f[x] = fa[x] = fx
                    taken.append(fx)
                    used[fx] = True
                else:
                    if (fa[a_xy] == b[fa[xs], fa[ys]]).all():
                        yield from extend(k + 1)
                for t in taken:
                    used[t] = False
        return extend(0)
    return [level[:2] for level in levels], mappings


def table_isomorphisms(a, b, prof_a: Sequence, prof_b: Sequence):
    """Lazily yield, as tuples, the bijections f with f[a[x, y]] ==
    b[f[x], f[y]] and prof_b[f[x]] == prof_a[x], for n x n tables a and b.

    f is extended along the chain of ``_chain`` (a and b are quandle or
    group tables): s_k is the first element in (number of candidate images,
    index) order outside the closure C_{k-1} of the earlier ones.  Each
    other new element of C_k is s.r on the Schreier vector of ``_join``, s
    in the chain and r met before it, so its image is forced.  The images of
    s_k are tried in increasing order, the forced images filled up to the
    first clash, and the new pairs of C_k x C_k compared as one array.
    Every element before s_k in the order lies in C_{k-1}, so the mappings
    come out in lexicographic order of their images of the whole order.
    """
    if len(a) == len(b):
        yield from _extensions(a, b, prof_a, prof_b)[1]([])


def table_automorphisms(t, prof: Sequence) -> tuple[np.ndarray, int]:
    """Strong generators (int64 rows) and order of the automorphism group of
    ``table_isomorphisms(t, t, prof, prof)`` by Sims' orbit-stabilizer product
    (1970): for k = K down to 1, each image y of s_k outside its orbit under the
    generators so far (which fix C_{k-1}) is tried alone, with f = id on C_{k-1};
    the first mapping found joins them, and none refutes y.  The order is the
    product of the orbit lengths, each s_k's under the stabilizer of C_{k-1}."""
    levels, mappings = _extensions(t, t, prof, prof)
    gens, order = np.empty((0, len(t)), dtype=np.int64), 1
    for k in reversed(range(len(levels))):
        (s, tries), fixed = levels[k], [[x] for x, _ in levels[:k]]
        orbit = walk(gens, [s])[0]
        for y in tries:
            if y not in orbit and (f := next(mappings(fixed + [[y]]), None)) is not None:
                gens = np.vstack([gens, f])
                orbit = walk(gens, [s])[0]
        order *= len(orbit)
    return gens, order


def all_automorphisms(group: FiniteGroup) -> list[GroupAutomorphism]:
    """Every automorphism of a group of order at most ``AUT_ENUM_MAX_ORDER``: the
    bijections that keep element orders and the table, in ``table_isomorphisms`` order."""
    if group.order > AUT_ENUM_MAX_ORDER:
        raise GroupError(f"automorphism enumeration limited to order {AUT_ENUM_MAX_ORDER}")
    orders = group.element_orders.tolist()
    return [GroupAutomorphism(group, f, check=False)
            for f in table_isomorphisms(group.table, group.table, orders, orders)]


class CosetSpace:
    """Left cosets gH of a verified subgroup, with canonical representatives.

    The representative of a coset is its minimum element index, so the
    decomposition is deterministic across runs.
    """

    def __init__(self, group: FiniteGroup, subgroup: Iterable[int]):
        sub = tuple(sorted(set(subgroup)))
        witness = group.subgroup_witness(sub)
        if witness is not None:
            raise NotASubgroup(f"not a subgroup: {witness}", witness=witness)
        self.group = group
        self.subgroup = sub
        members = group.table[:, sub]   # row g: the coset gH, a fresh copy
        members.sort(axis=1)
        reps, index_of = np.unique(members[:, 0], return_inverse=True)
        self.reps = tuple(reps.tolist())
        self.cosets = tuple(map(tuple, members[reps].tolist()))
        self.index_of = tuple(index_of.tolist())

    @property
    def count(self) -> int:
        return len(self.reps)

    def __repr__(self):
        return f"CosetSpace(group={self.group.order}, subgroup={len(self.subgroup)}, cosets={self.count})"


def conjugacy_class(group: FiniteGroup, g: int) -> tuple[int, ...]:
    """Orbit of ``g`` under conjugation by the whole group."""
    if not 0 <= g < group.order:
        raise GroupError(f"element {g} out of range")
    t = group.table
    met = np.bincount(t[t[group.inv_map, g], np.arange(group.order)], minlength=group.order)
    return tuple(np.flatnonzero(met).tolist())   # np.unique would import numpy.ma


# ---------------------------------------------------------------------------
# 2x2 matrix groups over prime fields

def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _check_prime(p: int) -> None:
    """Refuse a p that is not prime for a 2x2 matrix family over F_p."""
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")


def matrix_group_sl2(p: int) -> FiniteGroup:
    """All 2x2 matrices of determinant 1 over F_p; order p(p^2-1).

    Elements are row-major 4-tuples (a, b, c, d) in lexicographic order,
    labelled "[[a,b],[c,d]]".  Guarded to p <= SL2_MAX_PRIME, tables desk-sized.
    """
    _check_prime(p)
    if p > SL2_MAX_PRIME:
        raise GroupError(f"p={p} too large (limit {SL2_MAX_PRIME})")
    code = p ** np.arange(3, -1, -1)   # (a, b, c, d) -> a p^3 + b p^2 + c p + d
    quads = (np.arange(p**4)[:, None] // code) % p   # lexicographic order
    a, b, c, d = quads.T
    els = quads[(a * d - b * c) % p == 1]
    index = np.full(p**4, -1, dtype=np.int64)
    index[els @ code] = np.arange(len(els))
    top, bottom = els[:, :2], els[:, 2:]
    total = (top + bottom) % p   # [[1,1],[0,1]] adds the bottom row to the top row,
                                 # [[1,0],[1,1]] the top row to the bottom row
    left = index[np.stack([np.hstack([total, bottom]), np.hstack([top, total])]) @ code]
    ident = int(index[code @ (1, 0, 0, 1)])
    table, inv = _cayley_table(left, ident)   # the two generate SL2(F_p)
    labels = tuple(f"[[{a},{b}],[{c},{d}]]" for (a, b, c, d) in els.tolist())
    return FiniteGroup(table, inv, ident, labels=labels, perms=els)
