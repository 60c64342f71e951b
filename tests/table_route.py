"""The table routes of the coset realization and of sbar, kept as the
tests' oracles.

Tr(Q) is built as an explicit ``FiniteGroup`` with its |G|^2 multiplication
table, walked along the Cayley graph (``cayley_table``, the route
``FiniteGroup.from_permutation_group`` took before it ranked the table's
rows through the stabilizer chain); phi is checked as a ``GroupAutomorphism`` on it, the cosets of the
stabilizer are a ``CosetSpace`` and the coset operation is tabulated by
``coset_action`` (between two coset spaces, by ``coset_table``).  This is
how ``symmetry.coset_realization`` and ``symmetry.inter_orbit_action``
worked before they moved onto Tr's stabilizer chain, and ``sbar`` is how
``symmetry.sbar_hom`` worked on Inn(Q) before it moved onto Inn's; every
field they report is compared against these.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from quandles import CosetSpace, FiniteGroup, GroupAutomorphism, inn, orbits, tr
from quandles.constructions import coset_action
from quandles.groups import _cayley_table
from quandles.symmetry import REALIZE_CAP, SbarReport


def find_rows(perms: np.ndarray, rows) -> np.ndarray:
    """Index of each of ``rows`` among the rows of ``perms``, or -1 where it
    is missing: a dict of the rows' bytes, with no group structure used."""
    index = {p.tobytes(): i for i, p in enumerate(perms)}
    rows = np.ascontiguousarray(rows, dtype=perms.dtype)
    return np.array([index.get(r.tobytes(), -1) for r in rows], dtype=np.int64)


def cayley_table(grp) -> tuple[np.ndarray, np.ndarray]:
    """The table and inverse map of the sorted ``grp.perms`` by the walk of
    the Cayley graph from the identity (``groups._cayley_table``), along the
    left translations p -> s o p by the generators ``grp.used``."""
    perms = grp.perms
    left = [find_rows(perms, s[perms]) for s in grp.gens[grp.used]]
    return _cayley_table(np.array(left).reshape(-1, len(perms)), 0)


def table_group(grp) -> FiniteGroup:
    """``grp`` as a ``FiniteGroup`` on its ``cayley_table``."""
    return FiniteGroup(*cayley_table(grp), 0, perms=grp.perms)


@functools.lru_cache(maxsize=32)
def tr_group(quandle) -> FiniteGroup:
    return table_group(tr(quandle, cap=REALIZE_CAP))


def twist(g: FiniteGroup, left, right):
    """Element indices of left o p o right for every element p of ``g``, in
    element order, or None if one of them leaves the group."""
    out = find_rows(g.perms, np.asarray(left)[g.perms[:, np.asarray(right)]])
    return None if (out < 0).any() else out


def cosets_at(g: FiniteGroup, q: int) -> tuple[CosetSpace, tuple[int, ...]]:
    """The cosets of the stabilizer of q, and pi: coset index -> rep(q)."""
    images = g.perms[:, q]
    cs = CosetSpace(g, np.flatnonzero(images == q).tolist())
    return cs, tuple(images[list(cs.reps)].tolist())


class TableRealization(NamedTuple):
    basepoint: int
    group: FiniteGroup
    phi: GroupAutomorphism
    stabilizer: tuple[int, ...]
    cosets: CosetSpace
    pi: tuple[int, ...]
    orbit: tuple[int, ...]
    checks: dict


def realization(quandle, q: int) -> TableRealization:
    """The orbit of q as a coset quandle of the tabulated Tr(Q): every check
    read off the table, pi's homomorphism on the whole coset table."""
    g = tr_group(quandle)
    phi_map = twist(g, quandle.op[q], quandle.inv_op[q])
    checks = {"phi_closed": phi_map is not None}
    phi = GroupAutomorphism(g, phi_map, check=True)
    checks["phi_automorphism"] = True
    cs, pi = cosets_at(g, q)
    stab = cs.subgroup
    checks["stabilizer_fixed_by_phi"] = bool((phi.mapping[list(stab)] == stab).all())
    sq = quandle.op[q]
    checks["stabilizer_commutes_with_sq"] = all(
        (g.perms[h][sq] == sq[g.perms[h]]).all() for h in stab)
    orbit = orbits(quandle).orbit_of(q)
    checks["pi_bijective"] = sorted(pi) == list(orbit)
    table, bad = coset_action(g, phi.mapping, cs)
    assert bad is None
    p = np.array(pi)
    checks["pi_homomorphism"] = bool((p[table] == quandle.op[p[:, None], p]).all())
    checks["pi_inverse_homomorphism"] = checks["pi_bijective"] and checks["pi_homomorphism"]
    return TableRealization(q, g, phi, stab, cs, pi, orbit, checks)


def coset_table(g: FiniteGroup, psi, source: CosetSpace, target: CosetSpace):
    """The table (xH, yK) -> x psi(x^-1 y)K on coset representatives, and
    the first pair of elements (x, y) in row-major order whose coset
    differs from the table's entry for theirs, or None: every pair of
    elements tabulated and compared."""
    src, tgt, t = np.asarray(source.index_of), np.asarray(target.index_of), g.table
    x = np.arange(g.order)[:, None]
    full = tgt[t[x, psi[t[g.inv_map[x], x.T]]]]
    table = full[np.asarray(source.reps)[:, None], np.asarray(target.reps)]
    bad = np.argwhere(full != table[src[:, None], tgt])
    return table, tuple(bad[0].tolist()) if len(bad) else None


def inter_orbit(quandle, q: int, r: int):
    """psi, the coset action table and the checks of the inter-orbit action
    through psi(g) = s_q g s_r^-1, on the tabulated Tr(Q)."""
    g = tr_group(quandle)
    psi = twist(g, quandle.op[q], quandle.inv_op[r])
    (cs_q, pi_q), (cs_r, pi_r) = cosets_at(g, q), cosets_at(g, r)
    table, bad = coset_table(g, psi, cs_q, cs_r)
    p_q, p_r = np.array(pi_q), np.array(pi_r)
    checks = {"psi_closed": psi is not None, "well_defined": bad is None,
              "compatible": bool((p_r[table] == quandle.op[p_q[:, None], p_r]).all())}
    if q == r:
        checks["reduces_to_phi"] = psi.tolist() == realization(quandle, q).phi.mapping.tolist()
    return tuple(psi.tolist()), tuple(map(tuple, table.tolist())), checks


def sbar(quandle, q: int) -> SbarReport:
    """x -> s_x s_q^-1 into the tabulated Inn(Q): phi checked as a
    ``GroupAutomorphism`` and x phi(y x^-1) compared through the table on
    all n^2 pairs."""
    g = table_group(inn(quandle))
    phi = GroupAutomorphism(g, twist(g, quandle.op[q], quandle.inv_op[q]), check=True)
    m = find_rows(g.perms, quandle.op[:, quandle.inv_op[q]])
    x, y = m[:, None], m[None, :]
    is_hom = bool((g.table[x, phi.mapping[g.table[y, g.inv_map[x]]]] == m[quandle.op]).all())
    fibers = tuple(tuple(np.flatnonzero(m == a).tolist()) for a in sorted(set(m.tolist())))
    return SbarReport(q, g, tuple(m.tolist()), fibers, is_hom, all(len(f) == 1 for f in fibers))
