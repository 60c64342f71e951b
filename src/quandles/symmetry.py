"""Symmetry groups of finite quandles: orbits, connectedness, realization.

The inner automorphism group Inn(Q) is generated by all symmetries s_q; the
transvection group Tr(Q) is its subgroup of words with equal counts of
positive and negative letters, generated by {s_q s_0^-1}.  On the quandle
itself the two have the same orbits, and every orbit is reached from any of
its points by forward saturation alone: the increasing chain Z, Q|>Z,
Q|>(Q|>Z), ... stabilizes to a set that is stable under both |> and |>^-1.

The coset realization expresses each orbit as a coset quandle of Tr(Q)
twisted by the conjugation automorphism g -> s_q g s_q^-1, and verifies the
defining properties exactly (no check samples) on Tr's stabilizer chain,
with no group table.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .groups import (DEFAULT_CAP, CapExceeded, PermutationGroup, _batch, _check_order,
                     _check_rows, _compose_rows, _first_residue, _inverse_rows,
                     _perm_rows, _point_dtype, _read_only, _row_failures, _tree_blocks, close,
                     cycle_type, table_automorphisms, table_isomorphisms, walk)
from .quandle import FiniteQuandle, QuandleError, _distributivity_failures

REALIZE_CAP = 10**5
AUT_MAX_SIZE = 64


class TooLarge(QuandleError):
    pass


class ActionError(QuandleError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# signed words

class SignedWord(NamedTuple):
    """A word in the symmetries: letters (q, sign) applied left to right."""

    letters: tuple[tuple[int, int], ...]

    def apply(self, quandle: FiniteQuandle, x: int) -> int:
        for q, sign in self.letters:
            x = (quandle.op if sign > 0 else quandle.inv_op).item(q, x)
        return x


# ---------------------------------------------------------------------------
# quandle actions on a finite set

class QuandleAction:
    """An action of a quandle on {0..m-1}: one permutation per element, with
    q |> (r |> x) = (q |> r) |> (q |> x), checked as ``hom_check`` is (an identity
    row may act non-trivially).  ``act``: a read-only n x m array of ``_point_dtype(m)``,
    row q for q, uncopied if given so: ``natural`` shares the quandle's ``op``."""

    def __init__(self, quandle: FiniteQuandle, set_size: int,
                 act: Sequence[Sequence[int]]):
        self.quandle = quandle
        self.set_size = set_size
        rows = act if isinstance(act, np.ndarray) else [tuple(a) for a in act]
        if len(rows) != quandle.size:
            raise ActionError(
                f"need one permutation per quandle element ({quandle.size}), got {len(rows)}")
        act = _perm_rows(rows, set_size, lambda q, _: ActionError(
            f"map for element {q} is not a permutation", witness=(q,)))
        self.act = _read_only(act, _point_dtype(set_size))
        bad = next(_check_rows(_distributivity_failures(quandle.op, self.act), quandle.op), None)
        if bad is not None:
            raise ActionError(f"action is not compatible with |> at {bad[:2]}",
                              witness=bad[:2])

    @classmethod
    def natural(cls, quandle: FiniteQuandle) -> "QuandleAction":
        return cls(quandle, quandle.size, quandle.op)

    def __repr__(self):
        return f"QuandleAction(quandle={self.quandle.size}, set={self.set_size})"


# ---------------------------------------------------------------------------
# inner and transvection groups

def _sinv(quandle: FiniteQuandle, q: int) -> np.ndarray:
    """s_q^-1, row q of ``inv_op``, inverted alone: the whole inverse table is not built."""
    return _inverse_rows(quandle.op[q:q + 1])[0]


def inn(quandle: FiniteQuandle, cap: int = DEFAULT_CAP) -> PermutationGroup:
    """Inn(Q): closure of all symmetries s_q."""
    return close(quandle.op, cap=cap, domain_size=quandle.size)


def tr(quandle: FiniteQuandle, cap: int = DEFAULT_CAP) -> PermutationGroup:
    """Tr(Q): closure of {s_q s_0^-1}.

    Any word with equal counts of positive and negative letters can be
    rewritten with all inverses gathered on one side, and every adjacent
    pair s_a s_b^-1 factors as (s_a s_0^-1)(s_b s_0^-1)^-1, so this
    n-element generating set suffices.
    """
    return close(quandle.op, cap=cap, domain_size=quandle.size,   # row q: s_q s_0^-1,
                 cols=_sinv(quandle, 0))                        # formed where read


def op_group(action: QuandleAction, cap: int = DEFAULT_CAP) -> PermutationGroup:
    """Op(Q, X): closure of the acting permutations."""
    return close(action.act, cap=cap, domain_size=action.set_size)


def tr_action_group(action: QuandleAction, cap: int = DEFAULT_CAP) -> PermutationGroup:
    """Tr(Q, X): closure of {act_q act_0^-1}, formed where read as ``tr``'s are."""
    return close(action.act, cap=cap, domain_size=action.set_size,
                 cols=_inverse_rows(action.act[:1])[0])


# ---------------------------------------------------------------------------
# saturation and orbits

class SaturationChain(NamedTuple):
    """The increasing chain Z, Q|>Z, ... up to its fixpoint."""

    sets: tuple[frozenset[int], ...]

    @property
    def stable(self) -> frozenset[int]:
        return self.sets[-1]


def saturate_forward(quandle: FiniteQuandle, seed: Iterable[int]) -> SaturationChain:
    """Iterate Z -> Q |> Z until it stabilizes.

    The chain is increasing because z = z |> z, and the fixpoint is stable
    under every s_q and s_q^-1 (a finite set with q |> W inside W forces
    q |> W = W), so it equals the union of the inner orbits of Z, gathered in a mask
    to which each step adds the columns of the points new to Z."""
    current = frozenset(seed)
    if not current:
        raise ValueError("seed set must be nonempty")
    chain, reached, new = [current], np.zeros(quandle.size, dtype=bool), current
    while True:
        for z in new:
            reached[quandle.op[:, z]] = True
        nxt = frozenset(np.flatnonzero(reached).tolist())
        if nxt == current:
            break
        new, current = nxt - current, nxt
        chain.append(current)
    return SaturationChain(tuple(chain))


class OrbitDecomposition(NamedTuple):
    """Partition of the carrier into inner orbits, with witness words mapping
    each orbit's basepoint to each of its elements."""

    orbit_id: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]
    basepoints: tuple[int, ...]
    witness_words: tuple[SignedWord, ...]

    @property
    def count(self) -> int:
        return len(self.orbits)

    def orbit_of(self, q: int) -> tuple[int, ...]:
        return self.orbits[self.orbit_id[q]]


@functools.lru_cache(maxsize=128)
def orbits(quandle: FiniteQuandle) -> OrbitDecomposition:
    """Inner-orbit decomposition by forward saturation from each new basepoint.

    Basepoints are swept in increasing order, so each orbit's basepoint is
    its minimum and the decomposition is deterministic.  Witness words are
    recorded during the sweep; forward saturation reaches the whole orbit,
    so all letters are positive and no word is longer than the carrier.
    """
    n = quandle.size
    reached = np.zeros(n, dtype=bool)
    orbit_id = np.empty(n, dtype=np.int64)
    all_orbits: list[tuple[int, ...]] = []
    basepoints: list[int] = []
    words: list[SignedWord] = [SignedWord(())] * n
    for b in range(n):
        if not reached[b]:
            points, parent, via = walk(quandle.op, [b], reached)   # op[q, x] = q |> x
            orbit_id[points] = len(all_orbits)
            for y, x, q in zip(*(a[1:].tolist() for a in (points, parent, via))):
                words[y] = SignedWord(words[x].letters + ((q, 1),))
            all_orbits.append(tuple(sorted(points.tolist())))
            basepoints.append(b)
    return OrbitDecomposition(tuple(orbit_id.tolist()), tuple(all_orbits),
                              tuple(basepoints), tuple(words))


class ConnectednessReport(NamedTuple):
    connected: bool
    witness_words: tuple[SignedWord, ...] | None  # spanning words when connected
    separating_pair: tuple[int, int] | None       # two points in distinct orbits
    forward_saturation_agrees: bool               # cross-check from one basepoint

    def __bool__(self):
        return self.connected


def is_connected(quandle: FiniteQuandle) -> ConnectednessReport:
    """Single inner orbit?  Certified either way.

    The certificate is a spanning set of witness words from the basepoint 0,
    or a pair of elements in distinct orbits.  As a cross-check, forward
    saturation from the single point 0 must reach the whole carrier exactly
    when the orbit count is one.
    """
    deco = orbits(quandle)
    connected = deco.count == 1
    sat = saturate_forward(quandle, {0}).stable
    agrees = (len(sat) == quandle.size) == connected
    if connected:
        return ConnectednessReport(True, deco.witness_words, None, agrees)
    pair = (deco.orbits[0][0], deco.orbits[1][0])
    return ConnectednessReport(False, None, pair, agrees)


# ---------------------------------------------------------------------------
# homomorphisms, isomorphisms, automorphisms

class HomReport(NamedTuple):
    ok: bool
    violations: tuple[tuple[int, int], ...]
    preserves_inverse: bool


def hom_check(mapping: Sequence[int], source: FiniteQuandle,
              target: FiniteQuandle) -> HomReport:
    """Check f(q |> r) = f(q) |> f(r), row q by ``_check_rows`` with no seed,
    as an identity row may fail.  Row q gives f(q |>^-1 r) = f(q) |>^-1 f(r),
    so the rows that hold are a subquandle and ``preserves_inverse`` is
    ``ok``; ``violations``: the first 100, row-major."""
    f = tuple(mapping)   # ints and numpy ints, not bools
    if len(f) != source.size or not all(
            (type(x) is int or isinstance(x, np.integer)) and 0 <= x < target.size for x in f):
        raise QuandleError("mapping is not a total map of ints into the target")
    m, op = np.array(f, dtype=np.int64), source.op
    hom = _row_failures(lambda q: m[op[q]] != target.op[m[q], m])
    bad = tuple(itertools.islice(_check_rows(hom, op), 100))
    return HomReport(not bad, bad, not bad)


@functools.lru_cache(maxsize=128)
def _invariant_profiles(quandle: FiniteQuandle) -> tuple:
    """Per element: its symmetry's cycle type (fixed points included) and orbit size."""
    deco = orbits(quandle)
    return tuple((cycle_type(row), len(deco.orbit_of(q)))
                 for q, row in enumerate(quandle.op.tolist()))


def iso_search(q1: FiniteQuandle, q2: FiniteQuandle) -> tuple[int, ...] | None:
    """First isomorphism found, in ``table_isomorphisms`` order, or None."""
    if q1.size > AUT_MAX_SIZE or q2.size > AUT_MAX_SIZE:
        raise TooLarge(f"isomorphism search limited to size {AUT_MAX_SIZE}")
    return next(table_isomorphisms(q1.op, q2.op, _invariant_profiles(q1),
                                   _invariant_profiles(q2)), None)


def aut(quandle: FiniteQuandle, cap: int = REALIZE_CAP) -> PermutationGroup:
    """The full automorphism group, on the few strong generators of an
    orbit-stabilizer search and knowing its order; its elements are listed
    only when read.  An order above ``cap`` raises ``CapExceeded``."""
    if quandle.size > AUT_MAX_SIZE:
        raise TooLarge(f"automorphism search limited to size {AUT_MAX_SIZE}")
    gens, order = table_automorphisms(quandle.op, _invariant_profiles(quandle))
    if order > cap:
        raise CapExceeded(f"automorphism group exceeded cap of {cap} elements")
    grp = PermutationGroup(quandle.size, gens, cap=cap)
    grp.order = order
    return grp


# ---------------------------------------------------------------------------
# coset realization of orbits

@functools.lru_cache(maxsize=32)
def _tr(quandle: FiniteQuandle, cap: int) -> PermutationGroup:
    return tr(quandle, cap=cap)   # one chain for every orbit of a report


def _check_basepoint(quandle: FiniteQuandle, q: int) -> int:
    if not 0 <= q < quandle.size:
        raise QuandleError(f"basepoint {q} out of range for size {quandle.size}")
    return q


def _psi(quandle: FiniteQuandle, grp: PermutationGroup, q: int, r: int) -> np.ndarray:
    """Index in ``grp.perms`` of s_q p s_r^-1 for each element p, by
    ``grp.rank`` of its base images s_q p s_r^-1 (b), or -1 where it is not in
    the group: where the row ranked differs from it (a sift residue other than
    the identity), compared a ``_batch`` of rows at a time."""
    perms, sq, sr_inv = grp.perms, quandle.op[q], _sinv(quandle, r)
    psi = grp.rank(sq[perms[:, grp.base_images(sr_inv)].T]).astype(np.int64)
    for a in range(0, len(perms), step := _batch(quandle.size)):
        rows = sq[perms[a:a + step][:, sr_inv]]
        psi[a:a + step][(rows != perms[psi[a:a + step]]).any(axis=1)] = -1
    return psi


def _cosets(perms: np.ndarray, q: int):
    """Indices in the sorted listing ``perms`` of the stabilizer of q and of
    the least element of each of its cosets, in order, and pi: their images of q."""
    images = perms[:, q]
    reps = np.sort(np.unique(images, return_index=True)[1])
    return np.flatnonzero(images == q), reps, images[reps]


def _conjugates(quandle: FiniteQuandle, grp: PermutationGroup, q: int, points):
    """The orbit O of q walked along the generators ``grp.used`` and, for each
    a of it in walk order, c_a = x_a s_q x_a^-1, x_a(q) = a the product of the
    generators along the Schreier tree: c_q = s_q, and c_{g(a)} = g c_a g^-1
    for a tree edge, a ``_tree_blocks`` block at a time.  Also, a ``_batch``
    of rows at a time, whether g c_a g^-1 = c_{g(a)} for every a and generator
    g, that is, whether each Schreier generator x_{g(a)}^-1 g x_a of the
    stabilizer of q, and so the stabilizer, commutes with s_q; and whether
    c_a = s_a at ``points``."""
    gens, m = grp.gens[grp.used], quandle.size
    inv = _inverse_rows(gens)
    orbit, parent, via = walk(gens, [q])
    place = np.empty(m, dtype=np.int64)
    place[orbit] = np.arange(len(orbit))
    after, c = place[parent[1:]], np.empty((len(orbit), m), dtype=gens.dtype)
    c[0] = quandle.op[q]
    for a, e in _tree_blocks(after, m):   # g after c of the parent after g^-1
        c[a:e] = _compose_rows(gens, _compose_rows(c[after[a - 1:e - 1]], inv[via[a:e]],
                                                   np.arange(e - a)), via[a:e])
    step, op = _batch(m), quandle.op
    commutes = all(bool((g[c[a:a + step][:, g_inv]] == c[place[g[orbit[a:a + step]]]]).all())
                   for g, g_inv in zip(gens, inv) for a in range(0, len(orbit), step))
    hom = all(bool((c[a:a + step][:, points] == op[orbit[a:a + step]][:, points]).all())
              for a in range(0, len(orbit), step))
    return orbit, c, commutes, hom


class CosetRealization(NamedTuple):
    """An orbit O realized as the coset quandle (G/H, |>_phi) of G = Tr(Q).

    group:           G as its stabilizer chain, its elements not listed;
    stabilizer_size: |H| = |G|/|O|, H = {g : g(q) = q};
    pi:              coset index -> quandle element, O in walk order (coset
                     k is xH with x(q) = pi[k]), a bijection onto the orbit.

    phi is conjugation by s_q.  ``realize --json`` reads phi, H and each
    coset's least element off the sorted elements of G.
    """

    basepoint: int
    group: PermutationGroup
    stabilizer_size: int
    pi: tuple[int, ...]
    orbit: tuple[int, ...]
    checks: dict

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def coset_realization(quandle: FiniteQuandle, basepoint: int,
                      cap: int = REALIZE_CAP) -> CosetRealization:
    """Realize the orbit of ``basepoint`` as a coset quandle of G = Tr(Q) on
    its stabilizer chain, phi(g) = s_q g s_q^-1, H = {g : g(q) = q} and pi:
    x_a H -> a (``_conjugates``), verified exactly with no group table.
    ``phi_closed``: s_q g s_q^-1 sifts for each generator g, so phi maps G
    into itself and, injective, onto it (``phi_automorphism``).
    ``stabilizer_fixed_by_phi``: H's Schreier generators commute with s_q, so
    H does (``stabilizer_commutes_with_sq``) and xH |> yH = x phi(x^-1 y) H
    is well-defined.  ``pi_bijective``: the walk reaches q's inner orbit.
    ``pi_homomorphism``: pi(x_a H |> x_b H) = x_a s_q x_a^-1 (b) = s_a(b).
    The orbit is a subquandle of the validated Q, so these make the coset
    quandle isomorphic to it, and pi^-1 a homomorphism too.
    """
    q = _check_basepoint(quandle, basepoint)
    g, inner = _tr(quandle, cap), orbits(quandle).orbit_of(q)
    gens, sq = g.gens[g.used], quandle.op[q]
    closed = _first_residue(g._levels, sq[gens[:, _sinv(quandle, q)]], 0) is None
    orbit, _, fixed, hom = _conjugates(quandle, g, q, np.array(inner))
    bijective = sorted(orbit.tolist()) == list(inner)   # inner is sorted, no repeats
    checks = {"phi_closed": closed, "phi_automorphism": closed,
              "stabilizer_fixed_by_phi": fixed, "stabilizer_commutes_with_sq": fixed,
              "pi_bijective": bijective, "pi_homomorphism": hom,
              "pi_inverse_homomorphism": bijective and hom}
    return CosetRealization(q, g, g.order // len(orbit), tuple(orbit.tolist()), inner, checks)


class InterOrbitReport(NamedTuple):
    """The action of one coset space on another through psi(g) = s_q g s_r^-1,
    verified to be well-defined and compatible with |> through the pi maps."""

    q: int
    r: int
    group_order: int
    psi: tuple[int, ...]
    action: tuple[tuple[int, ...], ...]
    checks: dict

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def inter_orbit_action(quandle: FiniteQuandle, q: int, r: int) -> InterOrbitReport:
    """Build (gG_q, hG_r) -> g psi(g^-1 h) G_r, psi and the cosets read off
    the sorted listing of G = Tr(Q), and verify it exactly (``_conjugates``).
    That coset is read off g psi(g^-1 h)(r) = g s_q g^-1 (h(r)), so it is
    well-defined when G_q commutes with s_q, and ``compatible``, pi_r(gG_q .
    hG_r) = pi_q(gG_q) |> pi_r(hG_r), when g s_q g^-1 is s_{g(q)} on r's orbit."""
    _check_basepoint(quandle, q)
    _check_basepoint(quandle, r)
    g = _tr(quandle, REALIZE_CAP)
    psi = _psi(quandle, g, q, r)
    checks: dict = {"psi_closed": bool((psi >= 0).all())}
    if not checks["psi_closed"]:
        raise QuandleError("s_q g s_r^-1 left the transvection group")
    pi_q, pi_r = _cosets(g.perms, q)[2], _cosets(g.perms, r)[2]
    orbit, c, checks["well_defined"], checks["compatible"] = _conjugates(quandle, g, q, pi_r)
    k = np.empty((2, quandle.size), dtype=np.int64)   # a point -> its coset of G_q, of G_r
    k[0, pi_q], k[1, pi_r] = np.arange(len(pi_q)), np.arange(len(pi_r))
    table = np.empty((len(pi_q), len(pi_r)), dtype=np.int64)
    table[k[0, orbit][:, None], k[1, pi_r]] = k[1, c[:, pi_r]]   # g s_q g^-1 (h(r)), g = x_a
    if q == r:   # psi is then phi, read off the listing as ``realize --json`` reads it
        checks["reduces_to_phi"] = checks["psi_closed"]
    return InterOrbitReport(q, r, g.order, tuple(psi.tolist()),
                            tuple(map(tuple, table.tolist())), checks)


# ---------------------------------------------------------------------------
# the symmetry-comparison homomorphism into a twisted group quandle

class SbarReport(NamedTuple):
    """The map m: x -> s_x s_q^-1 into G = Inn(Q), held as its chain, carrying
    the twisted operation a |> b = a phi(b a^-1), phi = conjugation by s_q;
    ``mapping`` gives the index of each m(x) in the sorted listing of G."""

    basepoint: int
    group: PermutationGroup
    mapping: tuple[int, ...]
    fibers: tuple[tuple[int, ...], ...]
    is_homomorphism: bool
    injective: bool

    @property
    def ok(self) -> bool:
        return self.is_homomorphism


def _twist_differs(rows: np.ndarray, sq: np.ndarray, op: np.ndarray, x: int,
                   ys: np.ndarray) -> np.ndarray:
    """Whether a s_q b a^-1 s_q^-1 = a phi(b a^-1) differs from m(x |> y), for
    each y of ``ys``: a = m(x) and b = m(y) rows of ``rows``, a ``_batch`` of b
    at a time."""
    left, right = rows[x][sq], _inverse_rows(sq[rows[x]][None])[0]   # a s_q, a^-1 s_q^-1
    step = _batch(rows.shape[1])
    return np.concatenate([(left[rows[y][:, right]] != rows[op[x, y]]).any(axis=1)
                           for y in (ys[j:j + step] for j in range(0, len(ys), step))])


def sbar_hom(quandle: FiniteQuandle, basepoint: int,
             cap: int = DEFAULT_CAP) -> SbarReport:
    """Map each element x to m(x) = s_x s_q^-1 in G = Inn(Q), held as its
    ``PermutationGroup``: its order, read off the chain, is refused past
    ``MAX_GROUP_ORDER`` before the |G| x n listing that ``rank`` reads m off,
    by base images.  phi is inner (s_q lies in G), so it needs no automorphism
    check.  m(x) s_q m(y) m(x)^-1 s_q^-1 = m(x |> y) is compared on
    permutation rows, row x by ``_check_rows`` as in ``hom_check`` (the rows
    that pass are closed under |>), and only at the least x and the least y of
    each fiber, as both sides depend on x and y only through s_x and s_y
    (s_{x |> y} = s_x s_y s_x^-1).  The fibers are the classes of elements with
    equal symmetries.
    """
    q = _check_basepoint(quandle, basepoint)
    g, op = inn(quandle, cap=cap), quandle.op
    _check_order(g.order)
    rows = op[:, _sinv(quandle, q)]   # row x: m(x)
    m = g.rank(g.base_images(rows))
    fibers = tuple(tuple(np.flatnonzero(m == a).tolist())   # np.unique would
                   for a in np.flatnonzero(np.bincount(m)))   # import numpy.ma
    lead = np.array([f[0] for f in fibers])
    leads = set(lead.tolist())
    twist = _row_failures(lambda x: _twist_differs(rows, op[q], op, x, lead)
                          if x in leads else ())
    return SbarReport(q, g, tuple(m.tolist()), fibers, next(_check_rows(twist, op), None) is None,
                      all(len(f) == 1 for f in fibers))
