"""The table route of the coset realization, kept as the tests' oracle.

Tr(Q) is built as an explicit ``FiniteGroup`` with its |G|^2 multiplication
table; phi is checked as a ``GroupAutomorphism`` on it, the cosets of the
stabilizer are a ``CosetSpace`` and the coset operation is tabulated by
``coset_action``.  This is how ``symmetry.coset_realization`` and
``symmetry.inter_orbit_action`` worked before they moved onto Tr's
stabilizer chain; every field they report is compared against it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from quandles import CosetSpace, FiniteGroup, GroupAutomorphism, orbits, tr
from quandles.constructions import coset_action
from quandles.groups import _find_rows
from quandles.symmetry import REALIZE_CAP


@functools.lru_cache(maxsize=32)
def tr_group(quandle) -> FiniteGroup:
    return FiniteGroup.from_permutation_group(tr(quandle, cap=REALIZE_CAP))


def twist(g: FiniteGroup, left, right):
    """Element indices of left o p o right for every element p of ``g``, in
    element order, or None if one of them leaves the group."""
    out = _find_rows(g.perms, np.asarray(left)[g.perms[:, np.asarray(right)]])
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
    table, bad = coset_action(g, phi.mapping, cs, cs)
    assert bad is None
    p = np.array(pi)
    checks["pi_homomorphism"] = bool((p[table] == quandle.op[p[:, None], p]).all())
    checks["pi_inverse_homomorphism"] = checks["pi_bijective"] and checks["pi_homomorphism"]
    return TableRealization(q, g, phi, stab, cs, pi, orbit, checks)


def inter_orbit(quandle, q: int, r: int):
    """psi, the coset action table and the checks of the inter-orbit action
    through psi(g) = s_q g s_r^-1, on the tabulated Tr(Q)."""
    g = tr_group(quandle)
    psi = twist(g, quandle.op[q], quandle.inv_op[r])
    (cs_q, pi_q), (cs_r, pi_r) = cosets_at(g, q), cosets_at(g, r)
    table, bad = coset_action(g, psi, cs_q, cs_r)
    p_q, p_r = np.array(pi_q), np.array(pi_r)
    checks = {"psi_closed": psi is not None, "well_defined": bad is None,
              "compatible": bool((p_r[table] == quandle.op[p_q[:, None], p_r]).all())}
    if q == r:
        checks["reduces_to_phi"] = psi.tolist() == realization(quandle, q).phi.mapping.tolist()
    return tuple(psi.tolist()), tuple(map(tuple, table.tolist())), checks
