"""Finite groups, permutation closures, automorphisms and coset spaces.

Permutations on {0..m-1} are plain tuples: ``p[i]`` is the image of ``i``.
``compose(p, q)`` applies ``q`` first, then ``p``, matching function
composition.  Everything here is exact integer arithmetic; groups are
immutable once built and safe to share.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

DEFAULT_CAP = 10**6
MAX_GROUP_ORDER = 4096   # largest FiniteGroup; building it peaks near 290 MB (table and copy)


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


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """p after q: (p o q)(i) = p[q[i]]."""
    return tuple(p[x] for x in q)


def invert(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


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


def parse_generator_lines(text: str, domain_size: int | None = None) -> list[tuple[int, ...]]:
    """Parse a generator file: one cycle-notation permutation per line.

    Blank lines denote the identity.  All permutations share one domain,
    inferred as the largest point mentioned plus one unless given.
    """
    raw: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        raw.append((lineno, body))
    # first pass for the domain
    size = domain_size or 0
    for lineno, body in raw:
        for tok in body.replace("(", " ").replace(")", " ").split():
            if not tok.isdigit():
                raise CycleParseError(f"unexpected token {tok!r}", lineno)
            size = max(size, int(tok) + 1)
    if size == 0:
        raise CycleParseError("no points found and no domain size given")
    out = []
    for lineno, body in raw:
        if body.strip() == "":
            out.append(identity_perm(size))
        else:
            out.append(parse_cycles(body, domain_size=size, line=lineno))
    return out


# ---------------------------------------------------------------------------
# orbit walks

def walk(maps: np.ndarray, roots: Iterable[int], reached: np.ndarray | None = None):
    """Breadth-first walk from ``roots`` along the rows of a (k x m) int64
    array of maps of {0..m-1}.  Returns int64 arrays (points, parent, via):
    the points in the order a one-at-a-time BFS meets them (the roots in
    increasing order, then level by level, each point's images in map
    order), and a Schreier vector: the point each was first met from and the
    row of ``maps`` that took it there (-1 for a root).  The boolean mask
    ``reached`` is updated in place; points already in it are skipped, and
    the walk stops once it is full."""
    k, m = maps.shape
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
        images = maps[:, level].T.ravel()             # x in level order, then g
        fresh = (~reached[images]).nonzero()[0]
        if not len(fresh):
            break
        met = fresh[np.sort(np.unique(images[fresh], return_index=True)[1])]
        out[:, c:c + len(met)] = images[met], level[met // k], met % k
        level = out[0, c:c + len(met)]
        c += len(met)
        reached[level] = True
    return out[0, :c], out[1, :c], out[2, :c]


def _chain(t: np.ndarray, order: Iterable[int], seed: Sequence[int] = ()):
    """Greedy generating chain of the table ``t``, row c the map y -> c.y:
    each x of ``order`` not yet reached joins the chain, and yields (x,
    walk(t[chain], [*seed, *chain])), the closure of seed and chain in a
    quandle (seed rows the identity) or a group.  Each walk starts from a
    fresh mask: the points already reached must meet the new row too."""
    chain: list[int] = []
    reached = np.zeros(len(t), dtype=bool)
    reached[list(seed)] = True
    for x in order:
        if not reached[x]:
            chain.append(x)
            reached = np.zeros(len(t), dtype=bool)
            yield x, walk(t[chain], [*seed, *chain], reached)


# ---------------------------------------------------------------------------
# permutation groups by Dimino's closure

class PermutationGroup:
    """A group of permutations of {0..m-1}, enumerated by Dimino's algorithm.

    Closure is lazy; ``elements`` and ``order`` trigger it.  Orbits only walk
    the generators and never require the full element set.
    """

    def __init__(self, domain_size: int, generators: Iterable[Sequence[int]],
                 cap: int = DEFAULT_CAP, _elements: tuple | None = None):
        gens = []
        seen = set()
        for g in generators:
            t = tuple(g)
            if len(t) != domain_size or not is_permutation(t):
                raise GroupError(f"generator {t} is not a permutation of {domain_size} points")
            if t not in seen:
                seen.add(t)
                gens.append(t)
        self.domain_size = domain_size
        self.generators = tuple(gens)
        self.cap = cap
        self._elements = _elements
        self._element_set = set(_elements) if _elements is not None else None

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        if self._elements is None:
            self._close()
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements)

    def _close(self) -> None:
        # Dimino's algorithm (Butler 1991): ``els`` lists the group generated
        # so far as whole right cosets prev.r of the subgroup ``prev`` it grew
        # from, each starting with its representative r; representatives times
        # the generators used so far find the missing cosets.  A generator
        # already in the group adds nothing.  The cap is checked before each
        # coset, so at most ``cap`` elements are held and the closure fails
        # exactly when the order exceeds it.
        ident = identity_perm(self.domain_size)
        els, seen, used = [ident], {ident}, []
        for s in self.generators:
            if s in seen:
                continue
            used.append(s)
            prev = els[:]
            pos = 0
            while pos < len(els):
                for t in used:
                    r = compose(els[pos], t)
                    if r not in seen:
                        if len(els) + len(prev) > self.cap:
                            raise CapExceeded(
                                f"group closure exceeded cap of {self.cap} elements")
                        coset = [compose(h, r) for h in prev]
                        els.extend(coset)
                        seen.update(coset)
                pos += len(prev)
        self._element_set = seen
        self._elements = tuple(sorted(els))

    def __contains__(self, p) -> bool:
        if self._element_set is None:
            self._close()
        return tuple(p) in self._element_set

    def __iter__(self):
        return iter(self.elements)

    def _maps(self) -> np.ndarray:
        return np.array(self.generators, dtype=np.int64).reshape(
            len(self.generators), self.domain_size)

    def orbit(self, point: int) -> frozenset[int]:
        """Orbit of a point under the generated group (generator walk only)."""
        return frozenset(walk(self._maps(), [point])[0].tolist())

    def orbits(self) -> list[frozenset[int]]:
        maps, reached = self._maps(), np.zeros(self.domain_size, dtype=bool)
        return [frozenset(walk(maps, [x], reached)[0].tolist())
                for x in range(self.domain_size) if not reached[x]]

    def is_transitive(self) -> bool:
        return self.domain_size <= 1 or len(self.orbit(0)) == self.domain_size

    def __repr__(self):
        closed = self._elements is not None
        extra = f", order={len(self._elements)}" if closed else ""
        return f"PermutationGroup(domain={self.domain_size}, gens={len(self.generators)}{extra})"


def close(generators: Iterable[Sequence[int]], cap: int = DEFAULT_CAP,
          domain_size: int | None = None) -> PermutationGroup:
    """Close a generator list into a PermutationGroup (Dimino's algorithm)."""
    gens = [tuple(g) for g in generators]
    if domain_size is None:
        domain_size = len(gens[0]) if gens else 0
    for g in gens:
        if len(g) != domain_size:
            raise GroupError("generators live on different domains")
    grp = PermutationGroup(domain_size, gens, cap=cap)
    grp.elements  # force closure now so cap errors surface here
    return grp


# ---------------------------------------------------------------------------
# explicit finite groups

def _check_order(n: int) -> None:
    """Refuse, before anything is allocated, a group too large to tabulate."""
    if n > MAX_GROUP_ORDER:
        raise CapExceeded(
            f"group order {n} exceeds the limit of {MAX_GROUP_ORDER} elements "
            f"for a multiplication table")


def _find_rows(rows: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Index of each row of ``images`` among the strictly increasing rows of
    ``rows`` (nonnegative ints, compared whole as big-endian bytes).  A row
    that is missing is a product outside the listed permutations."""
    keys, q = (np.ascontiguousarray(r, dtype=">i8").view(f"V{8 * r.shape[1]}").ravel()
               for r in (rows, images))
    at = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    if (keys[at] != q).any():
        raise GroupError("permutations are not closed under composition")
    return at


def _cayley_table(left: np.ndarray, ident: int):
    """Multiplication table and inverse map of the group whose left
    translations x -> s.x by a few generators s are the rows of the int64
    array ``left``.  The walk of the Cayley graph from the identity meets
    each b as s.p with p met before it, so row b of the table, y -> s.p.y,
    is row p mapped through left[s].  Parents are met in order, so each
    block of rows whose parents are filled is filled at once, in C order."""
    n = left.shape[1]
    points, parent, via = walk(left, [ident])
    after = np.argsort(points)[parent[1:]]   # where each row's parent lies in the walk
    table = np.empty((n, n), dtype=np.int64)
    table[ident], c = np.arange(n), 1
    while c < n:
        e = 1 + np.searchsorted(after, c)    # rows c..e-1 have their parents filled
        table[points[c:e]] = left[via[c:e, None], table[parent[c:e]]]
        c = e
    return table, np.nonzero(table == ident)[1]


class FiniteGroup:
    """A finite group on indices 0..order-1 with its full multiplication table.

    The group is held only as two read-only int64 arrays: ``table`` (order x
    order) and ``inv_map``.  The scalar accessors (``mul``, ``inv``,
    ``conj``) read them and return Python ints.  Orders above
    ``MAX_GROUP_ORDER`` are refused with ``CapExceeded`` before a table is
    built.  Elements given without labels must be permutations; their
    labels are formatted in cycle notation when first read.
    """

    def __init__(self, table, inv: Sequence[int], identity: int,
                 labels: Sequence[str] | None = None,
                 elements: tuple | None = None):
        self.table = np.array(table, dtype=np.int64)
        self.inv_map = np.array(inv, dtype=np.int64)
        self.table.flags.writeable = self.inv_map.flags.writeable = False
        self.order = len(self.table)
        self.identity = int(identity)
        self._labels = tuple(labels) if labels is not None else None
        self.elements = elements  # underlying objects (perms, matrices), optional

    @property
    def labels(self) -> tuple[str, ...] | None:
        if self._labels is None and self.elements is not None:
            self._labels = tuple(format_cycles(p) or "()" for p in self.elements)
        return self._labels

    @functools.cached_property
    def element_index(self) -> dict:
        """Element -> its index, built on first read; needs ``elements``."""
        return {p: i for i, p in enumerate(self.elements)}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_table(cls, table: Sequence[Sequence[int]],
                   labels: Sequence[str] | None = None) -> "FiniteGroup":
        """Validate a table of Python ints.  Associativity is checked
        exhaustively by Light's test on the chain s_1, s_2, ... of ``_chain``
        seeded with the identity: the s with (x s) y = x (s y) for all x, y
        are closed under products, and while those before s pass, every
        bracketing of their products agrees, so the walk reaches them all."""
        if not isinstance(table, (list, tuple)):
            raise GroupError("multiplication table must be a list of rows")
        n = len(table)
        _check_order(n)
        for i, row in enumerate(table):
            if (not isinstance(row, (list, tuple)) or len(row) != n
                    or not all(type(x) is int and 0 <= x < n for x in row)):
                raise GroupError(f"row {i} of multiplication table is malformed")
        t, points = np.array(table, dtype=np.int64).reshape(n, n), np.arange(n)
        idents = np.flatnonzero((t == points).all(axis=1) & (t.T == points).all(axis=1))
        if not len(idents):
            raise GroupError("no identity element in multiplication table")
        ident = int(idents[0])
        two_sided = (t == ident) & (t.T == ident)
        has_inv = two_sided.any(axis=1)
        if not has_inv.all():
            raise GroupError(f"element {int(np.argmin(has_inv))} has no inverse")
        inv = two_sided.argmax(axis=1)
        for s, _ in _chain(t, range(n), [ident]):
            bad = np.flatnonzero(t[t[:, s]] != np.take(t, t[s], axis=1))   # (xs)y != x(sy)
            if len(bad):
                x, y = divmod(int(bad[0]), n)
                raise GroupError(f"multiplication is not associative at {(x, s, y)}")
        return cls(t, inv, ident, labels=labels)

    @classmethod
    def from_permutations(cls, perms: Iterable[Sequence[int]],
                          cap: int = DEFAULT_CAP) -> "FiniteGroup":
        return cls.from_permutation_group(close(list(perms), cap=cap))

    @classmethod
    def from_permutation_group(cls, grp: PermutationGroup) -> "FiniteGroup":
        """The table of the sorted ``grp.elements`` by ``_cayley_table``, along
        the generators (then any element) outside the group walked so far.
        Elements are found by their images of the points where neighbours
        first differ, which keep them strictly sorted."""
        els, m = grp.elements, grp.domain_size
        n = len(els)
        _check_order(n)
        if n == 1:   # no base; the one element must be the identity
            return cls([[0]], [0], els.index(identity_perm(m)), elements=els)
        perms = np.array(els, dtype=np.int64).reshape(n, m)
        differ = perms[1:] != perms[:-1]
        if not differ.any(axis=1).all():
            raise GroupError("permutation list has repeated elements")
        base = np.flatnonzero(np.bincount(differ.argmax(axis=1), minlength=m))
        cols = perms[:, base]
        ident = int(_find_rows(cols, base[None])[0])
        gens = np.array(grp.generators, dtype=np.int64).reshape(-1, m)
        left, reached = [], np.arange(n) == ident
        for x in itertools.chain(_find_rows(cols, gens[:, base]), range(n)):
            if not reached[x]:   # s o p on the base is s[p[base]]
                left.append(_find_rows(cols, perms[x][cols]))
                reached = np.zeros(n, dtype=bool)
                walk(np.array(left), [ident], reached)
        del perms
        return cls(*_cayley_table(np.array(left), ident), ident, elements=els)

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        _check_order(n)
        i = np.arange(n)
        return cls((i[:, None] + i) % n, (-i) % n, 0,
                   labels=tuple(str(k) for k in range(n)))

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        """All permutations of n points, in lexicographic order."""
        _check_order(math.factorial(n))
        perms = tuple(itertools.permutations(range(n)))
        return cls.from_permutation_group(PermutationGroup(n, perms, _elements=perms))

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

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != self.identity:
            x = self.mul(x, i)
            k += 1
        return k

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

    def is_subgroup(self, subset: Iterable[int]) -> bool:
        return self.subgroup_witness(subset) is None

    def subgroup_closure(self, subset: Iterable[int]) -> tuple[int, ...]:
        """The subgroup generated by ``subset``: the right products of its
        elements, walked from the identity."""
        s = sorted(set(subset))
        if s and not 0 <= s[0] <= s[-1] < self.order:
            raise GroupError(f"element {s[0] if s[0] < 0 else s[-1]} out of range "
                             f"for order {self.order}")
        return tuple(np.sort(walk(self.table.T[s], [self.identity])[0]).tolist())

    def to_dict(self) -> dict:
        d = {"order": self.order, "mul": self.table.tolist()}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d

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
# automorphisms, fixed subgroups, cosets

class GroupAutomorphism:
    """An automorphism of a FiniteGroup: ``mapping`` is a read-only int64
    array of element indices."""

    def __init__(self, group: FiniteGroup, mapping: Sequence[int], check: bool = True):
        if check and not isinstance(mapping, np.ndarray) and not all(
                type(x) is int and 0 <= x < group.order for x in mapping):
            raise NotAnAutomorphism("mapping is not a bijection on the group")
        self.group = group
        self.mapping = np.array(mapping, dtype=np.int64)
        self.mapping.flags.writeable = False
        if check:
            self._check()

    def _check(self):
        """Exhaustive: m(ab) = m(a)m(b) on all pairs, as one array comparison;
        the witness is the first bad pair in row-major order."""
        g, m, t = self.group, self.mapping, self.group.table
        if m.shape != (g.order,) or (np.sort(m) != np.arange(g.order)).any():
            raise NotAnAutomorphism("mapping is not a bijection on the group")
        if m[g.identity] != g.identity:
            raise NotAnAutomorphism("mapping moves the identity",
                                    witness=g.identity)
        bad = np.argwhere(m[t] != t[m][:, m])
        if len(bad):
            a, b = (int(x) for x in bad[0])
            raise NotAnAutomorphism(
                f"mapping is not multiplicative at {(a, b)}", witness=(a, b))

    def __call__(self, i: int) -> int:
        return self.mapping.item(i)

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.mapping == np.arange(self.group.order)).tolist())

    def __repr__(self):
        return f"GroupAutomorphism(order={self.group.order})"


def fixed_subgroup(group: FiniteGroup, phi: GroupAutomorphism) -> tuple[int, ...]:
    """Elements fixed by ``phi``; always verified to form a subgroup."""
    fixed = phi.fixed_points()
    witness = group.subgroup_witness(fixed)
    if witness is not None:
        raise GroupError(f"fixed set is not a subgroup: {witness}")
    return fixed


def table_isomorphisms(a, b, prof_a: Sequence, prof_b: Sequence, pinned=None):
    """Lazily yield, as tuples, the bijections f with f[a[x, y]] ==
    b[f[x], f[y]] and prof_b[f[x]] == prof_a[x], for n x n tables a and b.

    f is extended along the chain of ``_chain`` (a and b are quandle or
    group tables): s_1 is ``pinned[0]`` or the first element in (number of
    candidate images, index) order, and s_k the first in that order outside
    the closure C_{k-1} of the earlier ones.  Each other new element of C_k
    is s.r on the Schreier vector of the walk, s in the chain and r met
    before it, so its image is forced.  The images of s_k are tried in
    increasing order (only ``pinned[1]`` for a pinned s_1), the forced images
    filled up to the first clash, and the new pairs of C_k x C_k compared as
    one array.  Every element before s_k in the order lies in C_{k-1}, so
    the mappings come out in lexicographic order of their images of the
    whole order.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    n = len(a)
    if len(b) != n:
        return
    ids: dict = {}
    pa = [ids.setdefault(p, len(ids)) for p in prof_a]
    pb = [ids.setdefault(p, len(ids)) for p in prof_b]
    cands = [[y for y in range(n) if pb[y] == i] for i in range(len(ids))]
    order = [pinned[0]] if pinned is not None else []
    order += sorted(range(n), key=lambda x: (len(cands[pa[x]]), x))
    b_rows = b.tolist()
    chain: list[int] = []
    old = np.zeros(n, dtype=bool)   # C_{k-1}
    levels = []   # (s_k, its tries, [(x, s, r)], new pairs x, y, a[x, y])
    for s, (points, parent, via) in _chain(a, order):
        chain.append(s)
        fresh = ~old[points]
        old[points] = True
        new = fresh & (parent >= 0)   # s_k is the one new root
        derived = list(zip(points[new].tolist(), np.array(chain)[via[new]].tolist(),
                           parent[new].tolist()))
        tries = cands[pa[s]]
        if pinned is not None and not levels:
            tries = [y for y in tries if y == pinned[1]]
        xi, yi = np.nonzero(fresh[:, None] | fresh)   # the new pairs of C_k x C_k
        xs, ys = points[xi], points[yi]
        levels.append((s, tries, derived, xs, ys, a[xs, ys]))
    f, fa = [-1] * n, np.full(n, -1)   # the same map, for scalar and array reads
    used = [False] * n

    def extend(k: int):
        if k == len(levels):
            yield tuple(f)
            return
        s, tries, derived, xs, ys, a_xy = levels[k]
        for y in tries:
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

    yield from extend(0)


def all_automorphisms(group: FiniteGroup, max_order: int = 64) -> list[GroupAutomorphism]:
    """Every automorphism of a small group: the bijections that keep element
    orders and the table, in ``table_isomorphisms`` order."""
    if group.order > max_order:
        raise GroupError(f"automorphism enumeration limited to order {max_order}")
    orders = [group.element_order(i) for i in range(group.order)]
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


def cosets(group: FiniteGroup, subgroup: Iterable[int]) -> CosetSpace:
    return CosetSpace(group, subgroup)


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


def _check_sl2_prime(p: int) -> None:
    """Refuse a p that is not prime, or past 13, for a 2x2 matrix family over F_p."""
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    if p > 13:
        raise GroupError(f"p={p} too large (limit 13)")


def matrix_group_sl2(p: int) -> FiniteGroup:
    """All 2x2 matrices of determinant 1 over F_p; order p(p^2-1).

    Elements are row-major 4-tuples (a, b, c, d) in lexicographic order,
    labelled "[[a,b],[c,d]]".  Guarded to p <= 13 to keep tables desk-sized.
    """
    _check_sl2_prime(p)
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
    els = tuple(map(tuple, els.tolist()))
    labels = tuple(f"[[{a},{b}],[{c},{d}]]" for (a, b, c, d) in els)
    return FiniteGroup(table, inv, ident, labels=labels, elements=els)
