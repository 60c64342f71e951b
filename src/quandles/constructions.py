"""Constructors for the standard finite quandle families.

Every constructor returns a validated FiniteQuandle whose ``record``
attribute holds a ConstructionRecord: the family tag, the parameters needed
to rebuild the identical table, and the element labeling.  Product carriers
(pairs, vectors over F_p) are ordered lexicographically so tables are
reproducible.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

import numpy as np

from .groups import (FiniteGroup, GroupAutomorphism, CosetSpace, conjugacy_class,
                     is_prime, _chain, _check_prime, _point_dtype, _row_failures)
from .quandle import JSON_BLOCK_ENTRIES, FiniteQuandle, QuandleError, validate

MAX_CARRIER = 4096   # largest constructed carrier; `make trivial --n 4096` peaks near 62 MB cold


class ConstructionError(QuandleError):
    pass


class CocycleError(ConstructionError):
    def __init__(self, bad_points):
        self.bad_points = tuple(bad_points)
        super().__init__(f"cocycle is nonzero on the diagonal at x in {self.bad_points}")


class NotAbelian(ConstructionError):
    pass


class NotFixed(ConstructionError):
    def __init__(self, moved):
        self.moved = tuple(moved)
        super().__init__(f"subgroup elements moved by the automorphism: {self.moved}")


class ConstructionRecord(NamedTuple):
    """Provenance of a constructed quandle: ``parameters`` are the keyword
    arguments of the family's constructor, groups and automorphisms held as
    the objects given, so replaying it rebuilds the table."""

    family: str
    parameters: dict
    labeling: tuple[str, ...]

    def replay(self) -> FiniteQuandle:
        if self.family not in _REPLAY:
            raise ConstructionError(f"unknown family {self.family!r}")
        return _REPLAY[self.family](**self.parameters)


def _check_carrier(base: int, power: int = 1) -> None:
    """Refuse, before any array is built, a carrier of base^power elements
    past ``MAX_CARRIER``.  A power past 12 of a base >= 2 is refused
    unexpanded: 2^13 already exceeds the limit."""
    if power > 12 or base ** power > MAX_CARRIER:
        size = f"{base}^{power}" if power > 1 else f"{base}"
        raise ConstructionError(
            f"carrier size {size} exceeds the limit of {MAX_CARRIER} elements")


def _by_rows(n: int, rows) -> np.ndarray:
    """The n x n ``_point_dtype(n)`` table of rows ``rows(s)``, JSON_BLOCK_ENTRIES at a time."""
    table, step = np.empty((n, n), _point_dtype(n)), max(1, JSON_BLOCK_ENTRIES // n)
    for lo in range(0, n, step):
        table[lo:lo + step] = rows(slice(lo, lo + step))
    return table


def _finish(table, labels, family, parameters) -> FiniteQuandle:
    q = validate(table, labels=labels)
    q.record = ConstructionRecord(family, parameters, tuple(labels))
    return q


# ---------------------------------------------------------------------------
# basic families

def trivial(n: int) -> FiniteQuandle:
    """q |> r = r for all q, r."""
    if n < 1:
        raise ConstructionError("size must be positive")
    _check_carrier(n)
    table = np.broadcast_to(np.arange(n), (n, n))
    return _finish(table, tuple(map(str, range(n))), "trivial", {"n": n})


def dihedral(n: int) -> FiniteQuandle:
    """Z/n with i |> j = 2i - j."""
    if n < 1:
        raise ConstructionError("size must be positive")
    _check_carrier(n)
    i = np.arange(n)
    return _finish(_by_rows(n, lambda s: (2 * i[s, None] - i) % n), tuple(map(str, range(n))),
                   "dihedral", {"n": n})


def cocycle_extension(x_size: int, abelian: FiniteGroup, cocycle) -> FiniteQuandle:
    """Quandle on X x A with (x,a) |> (y,b) = (y, b + F(x,y)).

    ``cocycle`` is an x_size-square table of element indices into the abelian
    group.  The construction is a quandle exactly when F vanishes on the
    diagonal; offenders are all reported at once.
    """
    if x_size < 1:
        raise ConstructionError("x_size must be positive")
    _check_carrier(x_size * abelian.order)
    if not abelian.is_abelian():
        raise NotAbelian("coefficient group must be abelian")
    f = [list(row) for row in cocycle]
    if len(f) != x_size or any(len(r) != x_size for r in f):
        raise ConstructionError("cocycle table must be x_size square")
    k = abelian.order
    if not all(type(v) is int and 0 <= v < k for r in f for v in r):
        raise ConstructionError("cocycle entries must be element indices "
                                "of the coefficient group")
    bad = [x for x in range(x_size) if f[x][x] != abelian.identity]
    if bad:
        raise CocycleError(bad)
    carrier = list(product(range(x_size), range(k)))
    xs, bs = np.divmod(np.arange(x_size * k), k)   # carrier index -> (x, b)
    # row (x, a), column (y, b): the index y k + (b + F(x, y)) of (y, b + F(x, y))
    table = xs * k + abelian.table[bs, np.array(f)[xs[:, None], xs]]
    labels = tuple(f"({x},{abelian.label(a)})" for (x, a) in carrier)
    return _finish(table, labels, "cocycle",
                   {"x_size": x_size, "abelian": abelian, "cocycle": f})


# ---------------------------------------------------------------------------
# conjugation quandles

def conjugation(group: FiniteGroup) -> FiniteQuandle:
    """The whole group with g |> h = g^-1 h g."""
    n = group.order
    t, g = group.table, np.arange(n)[:, None]
    table = t[t[group.inv_map[g], g.T], g]   # [g, h] = g^-1 h g
    labels = tuple(group.label(i) for i in range(n))
    return _finish(table, labels, "conj", {"group": group})


def conj_class(group: FiniteGroup, g: int) -> FiniteQuandle:
    """One conjugacy class of the group, with the conjugation operation."""
    cls = conjugacy_class(group, g)
    t, c = group.table, np.array(cls)[:, None]
    table = np.searchsorted(cls, t[t[group.inv_map[c], c.T], c])   # a^-1 b a
    labels = tuple(group.label(i) for i in cls)
    return _finish(table, labels, "conj_class", {"group": group, "g": int(g)})


def unipotent_class_quandle(p: int) -> FiniteQuandle:
    """The conjugacy class of J1 = [[1,1],[0,1]] inside SL_2(F_p), with
    x |> y = x^-1 y x.

    g J1 g^-1 = [[1-ac, a^2], [-c^2, 1+ac]] depends only on the first
    column (a, c) != 0 of g, up to sign, so the class is read off the
    nonzero columns, (p^2-1)/2 points (3 for p = 2), and SL_2(F_p) is never
    tabulated.  Matrices are keyed a p^3 + b p^2 + c p + d and listed in
    key order, the order of ``conj_class(matrix_group_sl2(p), J1)``.
    """
    _check_prime(p)
    _check_carrier(max(3, (p * p - 1) // 2))
    code = p ** np.arange(3, -1, -1)   # (a, b, c, d) -> a p^3 + b p^2 + c p + d
    a, c = np.divmod(np.arange(1, p * p), p)   # every nonzero first column
    keys = np.unique(np.stack([1 - a * c, a * a, -c * c, 1 + a * c], axis=1) % p @ code,
                     return_index=True)[0]   # each matrix once, in key order; no numpy.ma
    x = (keys[:, None] // code % p).reshape(-1, 2, 2)
    adj = x[:, ::-1, ::-1].transpose(0, 2, 1) * [[1, -1], [-1, 1]]   # x^-1 = [[d,-b],[-c,a]]
    table = _by_rows(len(x), lambda s: np.searchsorted(   # [x, y] = x^-1 y x
        keys, (adj[s, None] @ x @ x[s, None]).reshape(-1, len(x), 4) % p @ code))
    labels = tuple(f"[[{a},{b}],[{c},{d}]]" for a, b, c, d in x.reshape(-1, 4).tolist())
    return _finish(table, labels, "unipotent_class", {"p": p})


# ---------------------------------------------------------------------------
# coset quandles from a group automorphism

def coset_action(group: FiniteGroup, psi: np.ndarray,
                 cosets: CosetSpace) -> tuple[np.ndarray, tuple[int, int] | None]:
    """The table (xH, yH) -> F(x, y)H on coset representatives, where
    F(x, y) = x psi(x^-1 y) for psi an int64 array of element indices, and
    the first pair of elements (x, y) in row-major order whose F(x, y)H
    differs from the table's entry for their cosets, or None.

    F(gx, gy) = g F(x, y) for every psi, so F(xh, yh') = x F(h, zh') with
    z = x^-1 y, and F is well-defined exactly when, for every z and each h
    of a generating set of H (the chain of ``groups._chain``), (a)
    F(h, z)H = F(e, z)H and (b) F(e, zh)H = F(e, z)H.  Both pass to products:
    F(hh', z)H = h F(h', h^-1 z)H = h F(e, h^-1 z)H = F(h, z)H, and
    zhh' = (zh)h'.  Only if (a) or (b) fails is each row scanned.
    """
    t, inv = group.table, group.inv_map
    index, reps = np.asarray(cosets.index_of), np.asarray(cosets.reps)
    table = index[t[reps[:, None], psi[t[inv[reps][:, None], reps]]]]
    h = np.array([s for s, _ in _chain(t, cosets.subgroup, [group.identity])], dtype=np.int64)
    base = index[psi]   # F(e, z)H for every z
    if ((index[t[h[:, None], psi[t[inv[h]]]]] == base).all()
            and (index[psi[t[:, h]]] == base[:, None]).all()):
        return table, None
    row = _row_failures(lambda r: index[t[r, psi[t[inv[r]]]]] != table[index[r], index])
    return table, next((w for r in range(group.order) for w in row(r)), None)


def phi_space(group: FiniteGroup, phi: GroupAutomorphism, subgroup) -> FiniteQuandle:
    """Cosets G/H with xH |> yH = x phi(x^-1 y) H.

    Requires H to be a subgroup (``NotASubgroup`` names the least offender,
    an index out of range included) inside the fixed subgroup of phi
    (offending elements are all reported).  Well-definedness over
    representative choices is rechecked on generators of H (``coset_action``);
    the algebra guarantees it, the check guards implementation bugs.
    """
    cosets = CosetSpace(group, subgroup)
    moved = [x for x in cosets.subgroup if phi(x) != x]
    if moved:
        raise NotFixed(moved)
    table, bad = coset_action(group, phi.mapping, cosets)
    if bad is not None:
        raise ConstructionError(
            f"coset operation not well-defined at representatives {bad}")
    labels = tuple(f"{group.label(r)}.H" for r in cosets.reps)
    return _finish(table, labels, "phi_space",
                   {"group": group, "phi": phi, "subgroup": cosets.subgroup})


def vedernikov(group: FiniteGroup, phi: GroupAutomorphism) -> FiniteQuandle:
    """The whole group with x |> y = x phi(y x^-1)."""
    x = np.arange(group.order)[:, None]
    table = group.table[x, phi.mapping[group.table[x.T, group.inv_map[x]]]]
    labels = tuple(group.label(i) for i in range(group.order))
    return _finish(table, labels, "vedernikov", {"group": group, "phi": phi})


# ---------------------------------------------------------------------------
# linear families over prime fields

def _vectors(p: int, n: int) -> np.ndarray:
    """F_p^n as a (p^n, n) digit array in lexicographic order; row i is the
    base-p digits of i."""
    return np.indices((p,) * n).reshape(n, -1).T


def _vec_labels(vectors, n):
    if n == 1:
        return tuple(str(v[0]) for v in vectors)
    return tuple("(" + ",".join(str(x) for x in v) + ")" for v in vectors)


def alexander(p: int, n: int, a) -> FiniteQuandle:
    """F_p^n with v |> w = v + a(w - v), for an invertible scalar or matrix a."""
    if not is_prime(p):
        raise ConstructionError(f"{p} is not prime")
    if n < 1:
        raise ConstructionError("dimension must be positive")
    _check_carrier(p, n)
    if isinstance(a, int):
        if a % p == 0:
            raise ConstructionError(f"scalar {a} is not invertible mod {p}")
        a_param = a % p
        mat = a_param * np.eye(n, dtype=np.int64)
    else:
        if not (isinstance(a, (list, tuple)) and all(
                isinstance(r, (list, tuple)) and all(type(x) is int for x in r)
                for r in a)):
            raise ConstructionError("a must be an integer or a matrix of integers")
        a_param = [[x % p for x in row] for row in a]
        if len(a_param) != n or any(len(r) != n for r in a_param):
            raise ConstructionError(f"matrix must be {n}x{n}")
        mat = np.array(a_param, dtype=np.int64)
    v = _vectors(p, n)
    av = v @ mat.T % p   # a v for every vector v
    # a repeated code means a is not injective; np.unique would import numpy.ma
    if np.bincount(av @ p ** np.arange(n - 1, -1, -1)).max() > 1:
        raise ConstructionError("matrix is not invertible mod p")
    def rows(s):   # coordinate i of v + a(w - v) is (v - a v)_i + (a w)_i; Horner over i
        table = 0
        for i in range(n):
            table = table * p + ((v[s, i] - av[s, i])[:, None] + av[:, i]) % p
        return table
    return _finish(_by_rows(len(v), rows), _vec_labels(v.tolist(), n), "alexander",
                   {"p": p, "n": n, "a": a_param})


def power_cocycle(p: int, n: int) -> FiniteQuandle:
    """F_p^n with x |> y = (y1, y2 + (y1-x1)^2, ..., yn + (y1-x1)^n).

    Every symmetry fixes the first coordinate, so the quandle is far from
    connected even though each translation moves the tail coordinates.
    """
    if not is_prime(p) or p < 3:
        raise ConstructionError("p must be an odd prime")
    if n < 2:
        raise ConstructionError("dimension must be at least 2")
    _check_carrier(p, n)
    v = _vectors(p, n)
    def rows(s):
        d = (v[:, 0] - v[s, 0, None]) % p   # [x, y] = y1 - x1
        table, power = v[:, 0], d
        for i in range(1, n):
            power = power * d % p
            table = table * p + (v[:, i] + power) % p
        return table
    return _finish(_by_rows(len(v), rows), _vec_labels(v.tolist(), n), "power_cocycle",
                   {"p": p, "n": n})


# ---------------------------------------------------------------------------
# the families: record replay and the CLI's choices

_REPLAY = {"trivial": trivial, "cocycle": cocycle_extension, "conj": conjugation,
           "conj_class": conj_class, "phi_space": phi_space, "vedernikov": vedernikov,
           "alexander": alexander, "dihedral": dihedral, "power_cocycle": power_cocycle,
           "unipotent_class": unipotent_class_quandle}
FAMILIES = tuple(_REPLAY)
