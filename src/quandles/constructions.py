"""Constructors for the standard finite quandle families.

Every constructor returns a validated FiniteQuandle whose ``record``
attribute holds a ConstructionRecord: the family tag, the parameters needed
to rebuild the identical table, and the element labeling.  Product carriers
(pairs, vectors over F_p) are ordered lexicographically so tables are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .groups import (FiniteGroup, GroupAutomorphism, CosetSpace,
                     conjugacy_class, matrix_group_sl2, is_prime)
from .quandle import FiniteQuandle, QuandleError, validate

FAMILIES = ("trivial", "cocycle", "conj", "conj_class", "phi_space",
            "vedernikov", "alexander", "dihedral", "power_cocycle", "unipotent_class")


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


@dataclass(frozen=True)
class ConstructionRecord:
    """Provenance of a constructed quandle: ``parameters`` are the keyword
    arguments of the family's constructor, groups and automorphisms held as
    the objects given, so replaying it rebuilds the table."""

    family: str
    parameters: dict = field(hash=False)
    labeling: tuple[str, ...]

    def replay(self) -> FiniteQuandle:
        if self.family not in FAMILIES:
            raise ConstructionError(f"unknown family {self.family!r}")
        return _REPLAY[self.family](**self.parameters)


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
    table = np.broadcast_to(np.arange(n), (n, n))
    return _finish(table, tuple(map(str, range(n))), "trivial", {"n": n})


def dihedral(n: int) -> FiniteQuandle:
    """Z/n with i |> j = 2i - j."""
    if n < 1:
        raise ConstructionError("size must be positive")
    i = np.arange(n)
    return _finish((2 * i[:, None] - i) % n, tuple(map(str, range(n))),
                   "dihedral", {"n": n})


def cocycle_extension(x_size: int, abelian: FiniteGroup, cocycle) -> FiniteQuandle:
    """Quandle on X x A with (x,a) |> (y,b) = (y, b + F(x,y)).

    ``cocycle`` is an x_size-square table of element indices into the abelian
    group.  The construction is a quandle exactly when F vanishes on the
    diagonal; offenders are all reported at once.
    """
    if x_size < 1:
        raise ConstructionError("x_size must be positive")
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
    """The conjugacy class of [[1,1],[0,1]] inside SL_2(F_p)."""
    g = matrix_group_sl2(p)
    j1 = g.elements.index((1, 1, 0, 1))
    q = conj_class(g, j1)
    q.record = ConstructionRecord("unipotent_class", {"p": p}, q.labels)
    return q


# ---------------------------------------------------------------------------
# coset quandles from a group automorphism

def coset_action(group: FiniteGroup, psi: np.ndarray, source: CosetSpace,
                 target: CosetSpace) -> tuple[np.ndarray, tuple[int, int] | None]:
    """The table (xH, yK) -> x psi(x^-1 y) K on coset representatives, for
    psi an int64 array of element indices, and the first pair of elements
    (x, y) in row-major order whose result differs from the table's entry
    for their cosets, or None.

    Well-definedness over representative choices is checked on all order^2
    pairs, one x at a time, so no order^2 array is ever allocated.  Each
    representative is the minimum of its coset, so its row is filled before
    any other member of the coset is compared with it.
    """
    t, inv = group.table, group.inv_map
    src, tgt = source.index_of, np.asarray(target.index_of)
    tgt_reps = np.asarray(target.reps)
    table = np.empty((source.count, target.count), dtype=np.int64)
    bad = None
    for x in range(group.order):
        images = tgt[t[x, psi[t[inv[x]]]]]   # coset of x psi(x^-1 y), every y
        i = src[x]
        if x == source.reps[i]:
            table[i] = images[tgt_reps]
        if bad is None:
            wrong = np.flatnonzero(images != table[i][tgt])
            if len(wrong):
                bad = (x, int(wrong[0]))
    return table, bad


def phi_space(group: FiniteGroup, phi: GroupAutomorphism, subgroup) -> FiniteQuandle:
    """Cosets G/H with xH |> yH = x phi(x^-1 y) H.

    Requires H to be a subgroup (``NotASubgroup`` names the least offender,
    an index out of range included) inside the fixed subgroup of phi
    (offending elements are all reported).  Well-definedness over
    representative choices is rechecked on all pairs of group elements; the
    algebra guarantees it, the check guards implementation bugs.
    """
    cosets = CosetSpace(group, subgroup)
    moved = [x for x in cosets.subgroup if phi(x) != x]
    if moved:
        raise NotFixed(moved)
    table, bad = coset_action(group, phi.mapping, cosets, cosets)
    if bad is not None:
        raise ConstructionError(
            f"coset operation not well-defined at representatives {bad}")
    labels = tuple(f"{group.label(r)}.H" for r in cosets.reps)
    return _finish(table, labels, "phi_space",
                   {"group": group, "phi": phi, "subgroup": cosets.subgroup})


def vedernikov_op(group: FiniteGroup, phi: GroupAutomorphism, a, b) -> np.ndarray:
    """x |> y = x phi(y x^-1) of ``vedernikov(group, phi)`` on index arrays
    a and b, broadcast against each other."""
    return group.table[a, phi.mapping[group.table[b, group.inv_map[a]]]]


def vedernikov(group: FiniteGroup, phi: GroupAutomorphism) -> FiniteQuandle:
    """The whole group with x |> y = x phi(y x^-1)."""
    x = np.arange(group.order)
    table = vedernikov_op(group, phi, x[:, None], x[None, :])
    labels = tuple(group.label(i) for i in range(group.order))
    return _finish(table, labels, "vedernikov", {"group": group, "phi": phi})


def twisted_orbit_action(group: FiniteGroup, phi: GroupAutomorphism):
    """The action x . a = x a phi(x^-1) of G on the carrier of vedernikov(G, phi).

    Returns one permutation of {0..|G|-1} per group element.  The orbit of
    the identity is a subquandle isomorphic to phi_space(G, phi, G^phi).
    """
    t, x = group.table, np.arange(group.order)[:, None]
    return tuple(map(tuple, t[t[x, x.T], phi.mapping[group.inv_map[x]]].tolist()))


# ---------------------------------------------------------------------------
# linear families over prime fields

def _det_mod(mat, p: int) -> int:
    """Determinant of a square matrix over F_p by Gaussian elimination."""
    m = [[x % p for x in row] for row in mat]
    n = len(m)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] % p != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det % p
        det = det * m[col][col] % p
        inv = pow(m[col][col], p - 2, p)
        for r in range(col + 1, n):
            factor = m[r][col] * inv % p
            for c in range(col, n):
                m[r][c] = (m[r][c] - factor * m[col][c]) % p
    return det % p


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
    if isinstance(a, int):
        if a % p == 0:
            raise ConstructionError(f"scalar {a} is not invertible mod {p}")
        mat = [[a % p if i == j else 0 for j in range(n)] for i in range(n)]
        a_param = a % p
    else:
        if not (isinstance(a, (list, tuple)) and all(
                isinstance(r, (list, tuple)) and all(type(x) is int for x in r)
                for r in a)):
            raise ConstructionError("a must be an integer or a matrix of integers")
        mat = [[x % p for x in row] for row in a]
        if len(mat) != n or any(len(r) != n for r in mat):
            raise ConstructionError(f"matrix must be {n}x{n}")
        if _det_mod(mat, p) == 0:
            raise ConstructionError("matrix is not invertible mod p")
        a_param = [list(r) for r in mat]
    vectors = list(product(range(p), repeat=n))
    pos = {v: i for i, v in enumerate(vectors)}

    def op(v, w):
        d = [(w[i] - v[i]) % p for i in range(n)]
        return tuple((v[i] + sum(mat[i][j] * d[j] for j in range(n))) % p
                     for i in range(n))

    table = [[pos[op(v, w)] for w in vectors] for v in vectors]
    return _finish(table, _vec_labels(vectors, n), "alexander",
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
    vectors = list(product(range(p), repeat=n))
    pos = {v: i for i, v in enumerate(vectors)}

    def op(x, y):
        d = (y[0] - x[0]) % p
        return (y[0],) + tuple((y[i] + pow(d, i + 1, p)) % p for i in range(1, n))

    table = [[pos[op(x, y)] for y in vectors] for x in vectors]
    return _finish(table, _vec_labels(vectors, n), "power_cocycle", {"p": p, "n": n})


# ---------------------------------------------------------------------------
# record replay

_REPLAY = {"trivial": trivial, "dihedral": dihedral, "alexander": alexander,
           "power_cocycle": power_cocycle, "unipotent_class": unipotent_class_quandle,
           "cocycle": cocycle_extension, "conj": conjugation, "conj_class": conj_class,
           "phi_space": phi_space, "vedernikov": vedernikov}
