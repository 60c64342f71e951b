import io
import json
import math
import random
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandles.constructions as constructions
import quandles.groups as groups_module
import quandles.quandle as quandle_module
import quandles.symmetry as symmetry
from quandles import (ActionError, FiniteGroup, GroupError, OrbitDecomposition,
                      QuandleAction, QuandleError, SaturationChain,
                      SignedWord, TooLarge, alexander, aut,
                      conj_class, conjugation, coset_realization, dihedral,
                      hom_check, inn, inter_orbit_action,
                      is_connected, iso_search, op_group,
                      orbits, phi_space, regularity_report,
                      saturate_forward, sbar_hom,
                      power_cocycle, tr, tr_action_group, trivial,
                      unipotent_class_quandle, validate)
from quandles.cli import run
from quandles.groups import GeneratorRows, close

import table_route
from corpus_util import cli_peak_mb, small_corpus


# -- inner and transvection groups ---------------------------------------------

def test_inn_orders():
    assert inn(trivial(4)).order == 1
    assert inn(dihedral(3)).order == 6
    assert inn(alexander(5, 1, 2)).is_transitive()


def test_tr_orders():
    assert tr(trivial(5)).order == 1
    grp = tr(dihedral(3))
    assert grp.order == 3
    els = set(grp.elements)
    # cyclic: generated by a single element
    g = next(e for e in els if e != (0, 1, 2))
    assert {(0, 1, 2), g, tuple(np.array(g)[list(g)].tolist())} == els


def test_tr_is_normal_in_inn():
    for _, q in small_corpus():
        trg = tr(q)
        for row in q.op:   # row gen row^-1
            for gen in trg.gens:
                assert row[gen[np.argsort(row)]] in trg


def test_tr_base_choice_is_irrelevant():
    # tr closes only the s_a s_0^-1; every s_a s_b^-1 generates the same group
    for _, q in small_corpus():
        every_pair = q.op[:, np.argsort(q.op, axis=1)].reshape(-1, q.size)   # [a, b]: s_a s_b^-1
        assert set(tr(q).elements) == set(close(every_pair, domain_size=q.size).elements)


def test_conjugation_identity_for_automorphisms():
    # f s_q f^-1 = s_{f(q)} for every automorphism
    for q in (dihedral(4), trivial(4), conj_class(FiniteGroup.symmetric(3), 1)):
        for f in aut(q).perms:   # row a: f s_a f^-1
            assert (f[q.op[:, np.argsort(f)]] == q.op[f]).all()


def test_gathering_identity():
    # s_a^-1 s_b = s_{a |>^-1 b} s_a^-1
    for _, q in small_corpus():
        for a in range(q.size):   # row b of each side
            sa_inv = np.argsort(q.op[a])
            assert (sa_inv[q.op] == q.op[q.inv_op[a][:, None], sa_inv]).all()


# -- signed words ---------------------------------------------------------------

def test_signed_word_apply_matches_permutation():
    q = dihedral(6)
    w = SignedWord(((2, 1), (5, -1), (1, 1), (0, -1)))   # left to right
    perm = q.inv_op[0, q.op[1, q.inv_op[5, q.op[2]]]]
    assert [w.apply(q, x) for x in range(q.size)] == perm.tolist()
    assert perm in tr(q)   # as many positive letters as negative
    assert [SignedWord(((1, 1),)).apply(q, x) for x in range(q.size)] == q.op[1].tolist()


def test_records_replace_and_make_with_a_two_element_field():
    # len() of either record counts its one field, as _replace and _make check
    letters = ((0, 1), (2, -1))
    word = SignedWord(((1, 1),))._replace(letters=letters)
    assert word.letters == letters and SignedWord._make([letters]) == word
    sets = (frozenset({0}), frozenset({0, 1, 2}))
    chain = saturate_forward(dihedral(3), {0})._replace(sets=sets)
    assert chain.stable == sets[-1] and SaturationChain._make([sets]) == chain
    assert len(word) == len(chain) == 1


# -- orbits and saturation -------------------------------------------------------

def test_orbits_trivial():
    deco = orbits(trivial(5))
    assert deco.count == 5
    assert all(len(o) == 1 for o in deco.orbits)


def test_orbits_conjugation_s3():
    deco = orbits(conjugation(FiniteGroup.symmetric(3)))
    assert sorted(len(o) for o in deco.orbits) == [1, 2, 3]


def test_orbits_alexander_connected():
    assert orbits(alexander(3, 1, 2)).count == 1


def test_orbit_witness_words_replay():
    for _, q in small_corpus():
        deco = orbits(q)
        for x in range(q.size):
            base = deco.basepoints[deco.orbit_id[x]]
            assert deco.witness_words[x].apply(q, base) == x
            assert len(deco.witness_words[x]) <= 2 * q.size


def _deque_orbits(quandle):
    """The reference: a one-at-a-time BFS from each new basepoint, meeting
    each point's images q |> x in increasing q."""
    n = quandle.size
    orbit_id = [-1] * n
    all_orbits, basepoints = [], []
    words = [SignedWord(())] * n
    columns = quandle.op.T.tolist()
    for b in range(n):
        if orbit_id[b] >= 0:
            continue
        oid = len(all_orbits)
        orbit_id[b] = oid
        members = [b]
        queue = deque([b])
        while queue:
            x = queue.popleft()
            for q, y in enumerate(columns[x]):
                if orbit_id[y] < 0:
                    orbit_id[y] = oid
                    words[y] = SignedWord(words[x].letters + ((q, 1),))
                    members.append(y)
                    queue.append(y)
        all_orbits.append(tuple(sorted(members)))
        basepoints.append(b)
    return OrbitDecomposition(tuple(orbit_id), tuple(all_orbits),
                              tuple(basepoints), tuple(words))


def _relabel(q, seed):
    """The quandle with element x renamed sigma[x], sigma drawn from ``seed``."""
    sigma = np.array(random.Random(seed).sample(range(q.size), q.size))
    inv = np.argsort(sigma)
    return validate(sigma[q.op[np.ix_(inv, inv)]])


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([q for _, q in small_corpus()]),
       st.one_of(st.none(), st.integers(0, 2**32)))
def test_orbits_match_the_one_at_a_time_bfs(q, seed):
    if seed is not None:
        q = _relabel(q, seed)
    assert orbits(q) == _deque_orbits(q)   # witness words included


def test_tr_orbit_of_a_point_out_of_range():
    for bad in (-1, 5):
        with pytest.raises(GroupError):
            tr(dihedral(5)).orbit(bad)


def test_inn_and_tr_orbits_agree():
    # s_q(x) = (s_q s_x^-1)(x), so Tr reaches what Inn does
    for _, q in small_corpus():
        deco, trg = orbits(q), tr(q)
        for x in range(q.size):
            assert trg.orbit(x) == frozenset(deco.orbit_of(x))


def test_saturate_forward_fixpoint_is_orbit():
    for _, q in small_corpus():
        deco = orbits(q)
        for x in range(q.size):
            assert saturate_forward(q, {x}).stable == frozenset(deco.orbit_of(x))


def test_saturate_forward_chain_shapes():
    q = trivial(4)
    chain = saturate_forward(q, {2})
    assert chain.sets == (frozenset({2}),)
    r3 = dihedral(3)
    full = saturate_forward(r3, {0, 1, 2})
    assert len(full) == 1  # already one orbit
    s52 = power_cocycle(5, 2)
    assert saturate_forward(s52, {0}).stable == frozenset(range(5))


def test_saturate_forward_multi_seed_union():
    q = conjugation(FiniteGroup.symmetric(3))
    deco = orbits(q)
    seed = {deco.basepoints[0], deco.basepoints[2]}
    expect = frozenset(deco.orbits[0]) | frozenset(deco.orbits[2])
    assert saturate_forward(q, seed).stable == expect


def test_saturate_mixed_matches_forward_on_natural_action():
    for _, q in small_corpus():
        action = QuandleAction.natural(q)
        for x in range(q.size):
            assert op_group(action).orbit(x) == saturate_forward(q, {x}).stable


def test_saturate_mixed_translation_action():
    t1 = trivial(1)
    shift = [tuple((x + 1) % 12 for x in range(12))]
    action = QuandleAction(t1, 12, shift)
    assert op_group(action).orbit(0) == frozenset(range(12))


def test_identity_action_leaves_sets_alone():
    t3 = trivial(3)
    action = QuandleAction(t3, 5, [tuple(range(5))] * 3)
    assert op_group(action).orbit(1) | op_group(action).orbit(2) == frozenset({1, 2})


# -- quandle actions -------------------------------------------------------------

def test_action_validation():
    t1 = trivial(1)
    with pytest.raises(ActionError):
        QuandleAction(t1, 3, [(0, 0, 1)])  # not a permutation
    with pytest.raises(ActionError):
        QuandleAction(t1, 3, [])  # wrong arity
    r3 = dihedral(3)
    with pytest.raises(ActionError) as exc:
        # maps that are bijections but break q |> (r |> x) = (q |> r) |> (q |> x)
        QuandleAction(r3, 3, [(1, 2, 0), (0, 1, 2), (0, 1, 2)])
    assert exc.value.witness is not None


def test_an_action_on_the_empty_set(tmp_path):
    action = QuandleAction(dihedral(3), 0, [[], [], []])
    assert op_group(action).order == tr_action_group(action).order == 1
    assert op_group(action).orbits() == []
    q, act = tmp_path / "d3.json", tmp_path / "empty.json"
    q.write_text(dihedral(3).to_json())
    act.write_text('{"set_size": 0, "act": [[], [], []]}')
    out, err = io.StringIO(), io.StringIO()
    assert run(["action", "--quandle", str(q), "--action", str(act)], stdout=out, stderr=err) == 0
    assert out.getvalue() == "op group order 1, orbits []\ntr group order 1, orbits []\n"


def _compose_witness(quandle, acts):
    """The reference: the first (q, r) in row-major order where
    act_q act_r != act_{q |> r} act_q, or None."""
    a = np.array(acts)
    for q, row in enumerate(quandle.op):   # row r of each side
        bad = (a[q][a] != a[row][:, a[q]]).any(axis=1)
        if bad.any():
            return (q, int(bad.argmax()))
    return None


def _action_witness(quandle, acts):
    try:
        QuandleAction(quandle, len(acts[0]), acts)
    except ActionError as exc:
        return exc.witness
    return None


def test_action_witness_matches_the_compose_loop_on_single_swaps():
    rng = random.Random(0)
    cases = 0
    for _, q in small_corpus():
        natural = q.op.tolist()
        for _ in range(40):
            acts = [list(a) for a in natural]
            row = acts[rng.randrange(q.size)]
            i, j = rng.sample(range(q.size), 2)
            row[i], row[j] = row[j], row[i]
            assert _action_witness(q, acts) == _compose_witness(q, acts)
            cases += 1
    assert cases == 360


def _first_non_permutation(acts, m):
    """The reference: the first row with an entry that is not an int, or that
    is not a permutation of {0..m-1}."""
    return next(q for q, a in enumerate(acts)
                if any(type(x) is not int for x in a) or sorted(a) != list(range(m)))


@pytest.mark.parametrize("bad", [
    (0, True, 2), (0, 1.0, 2), (0.0, 1, 2), (0, 1), (0, 1, 2, 3), (0, 0, 2), (2, 1, 2),
    (0, 1, 3), (-1, 1, 2), (0, 1, 2**70), (0, None, 2), ("0", 1, 2),
], ids=["bool", "float", "first-float", "short", "long", "repeated", "repeated-last",
        "past-the-set", "negative", "past-int64", "none", "text"])
@pytest.mark.parametrize("row", [0, 2])
def test_action_names_the_first_map_that_is_not_a_permutation(bad, row):
    t3 = trivial(3)
    acts = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    acts[row] = bad
    if row:
        acts[1] = (0, 0, 0)   # an earlier bad row is the one named
    with pytest.raises(ActionError, match=r"^map for element (\d) is not a permutation$") as exc:
        QuandleAction(t3, 3, acts)
    assert exc.value.witness == (_first_non_permutation(acts, 3),) == (min(row, 1),)


@pytest.mark.parametrize("array", [
    np.array([[0, 1], [1, 0.5]]), np.array([[True, False], [False, True]]),
    np.array([[0, 1], [1, 1]]), np.array([[0, 1], [1, 2]]), np.array([[0, 1], [-1, 0]]),
], ids=["float", "bool", "repeated", "past-the-set", "negative"])
def test_action_rejects_an_array_that_is_not_of_permutations(array):
    with pytest.raises(ActionError, match="^map for element (0|1) is not a permutation$") as exc:
        QuandleAction(trivial(2), 2, array)
    assert exc.value.witness == (0 if array.dtype.kind in "fb" else 1,)


def test_natural_action_keeps_the_quandle_table():
    for _, q in small_corpus():
        action = QuandleAction.natural(q)
        assert np.shares_memory(action.act, q.op) and not action.act.flags.writeable
        assert action.act.tolist() == QuandleAction(q, q.size, q.op.tolist()).act.tolist()
    # ints of any width or container are points
    for maps in (np.arange(6, dtype=np.uint16).reshape(1, 6), np.array([range(6)], dtype=object),
                 [(np.uint64(0), np.int64(1), 2, 3, np.uint8(4), 5)]):
        assert QuandleAction(trivial(1), 6, maps).act.tolist() == [list(range(6))]


def test_action_of_a_trivial_quandle_needs_commuting_maps():
    # every symmetry of trivial(2) is the identity, yet its elements may act
    # by any two commuting permutations and by no others
    t2 = trivial(2)
    with pytest.raises(ActionError) as exc:
        QuandleAction(t2, 3, [(1, 0, 2), (0, 2, 1)])
    assert exc.value.witness == (0, 1) == _compose_witness(t2, [(1, 0, 2), (0, 2, 1)])
    assert QuandleAction(t2, 3, [(1, 2, 0), (2, 0, 1)]).act.tolist() == [[1, 2, 0], [2, 0, 1]]


def test_action_table_is_read_only():
    action = QuandleAction.natural(dihedral(3))
    assert action.act.dtype == np.uint8 and action.act.shape == (3, 3)
    with pytest.raises(ValueError):
        action.act[0, 0] = 1


def test_natural_action_of_a_large_quandle_is_checked_quickly(tmp_path):
    # alexander(7,3,2), n = 343: 1.1 s and 91 MB measured end to end on a
    # 2-core x86-64 Linux VM (the earlier pair loop took 5.5-5.9 s)
    q = alexander(7, 3, 2)
    qpath, apath = tmp_path / "a732.json", tmp_path / "act.json"
    qpath.write_text(q.to_json())
    apath.write_text(json.dumps({"set_size": q.size, "act": q.op.tolist()}))
    start = time.perf_counter()
    code, peak_mb, err = cli_peak_mb("action", "--quandle", str(qpath),
                                     "--action", str(apath))
    assert code == 0, err
    assert time.perf_counter() - start < 5
    assert peak_mb < 280


def test_op_and_tr_action_groups():
    r3 = dihedral(3)
    natural = QuandleAction.natural(r3)
    assert set(op_group(natural).elements) == set(inn(r3).elements)
    assert set(tr_action_group(natural).elements) == set(tr(r3).elements)

    t1 = trivial(1)
    shift = QuandleAction(t1, 12, [tuple((x + 1) % 12 for x in range(12))])
    assert op_group(shift).order == 12
    assert tr_action_group(shift).order == 1

    ident = QuandleAction(trivial(2), 4, [tuple(range(4))] * 2)
    assert op_group(ident).order == 1
    assert tr_action_group(ident).order == 1


def test_tr_action_group_reads_act_through_a_column_map():
    # row q, act_q act_0^-1, is row q of act read through act_0^-1, with
    # no n x m copy; the gathered rows it replaced are the reference
    shift = QuandleAction(trivial(1), 12, [tuple((x + 1) % 12 for x in range(12))])
    for action in [shift] + [QuandleAction.natural(q) for _, q in small_corpus()]:
        trg = tr_action_group(action)
        assert isinstance(trg.gens, GeneratorRows)
        assert np.shares_memory(trg.gens.src, action.act)
        gathered = action.act[:, np.argsort(action.act[0])]
        ref = close(gathered, domain_size=action.set_size)
        assert (trg.order, trg.orbits()) == (ref.order, ref.orbits())
    assert tr_action_group(shift).orbit(0) == frozenset({0})


# -- connectedness ----------------------------------------------------------------

def test_connectedness_reports():
    rep = is_connected(trivial(3))
    assert not rep.connected
    a, b = rep.separating_pair
    deco = orbits(trivial(3))
    assert deco.orbit_id[a] != deco.orbit_id[b]
    assert rep.forward_saturation_agrees

    rep = is_connected(unipotent_class_quandle(3))
    assert rep.connected and rep.forward_saturation_agrees
    assert rep.witness_words is not None
    for x, w in enumerate(rep.witness_words):
        assert w.apply(unipotent_class_quandle(3), 0) == x


def test_alexander_connected_iff_a_not_one():
    for a in range(1, 7):
        assert is_connected(alexander(7, 1, a)).connected == (a != 1)


# -- automorphisms -----------------------------------------------------------------

def test_aut_trivial_is_symmetric():
    assert aut(trivial(4)).order == math.factorial(4)
    assert aut(trivial(6)).is_transitive()


def test_aut_dihedral_4():
    grp = aut(dihedral(4))
    assert grp.order == 8
    assert orbits(dihedral(4)).count == 2  # inner orbits are evens and odds
    assert grp.is_transitive()             # the translation x+1 is outer


def test_connected_implies_homogeneous():
    for q in (dihedral(5), unipotent_class_quandle(3), alexander(7, 1, 3)):
        assert is_connected(q).connected and aut(q).is_transitive()


def test_not_homogeneous():
    assert not aut(conjugation(FiniteGroup.symmetric(3))).is_transitive()
    assert not aut(conjugation(FiniteGroup.symmetric(4))).is_transitive()


def test_power_cocycle_is_homogeneous_but_not_connected():
    # coordinate translations are automorphisms, so the carrier is
    # homogeneous even though the inner orbits are the first-coordinate fibers
    q = power_cocycle(3, 2)
    assert orbits(q).count == 3
    assert aut(q).is_transitive()


def test_aut_too_large():
    with pytest.raises(TooLarge):
        aut(trivial(65))
    with pytest.raises(TooLarge):
        iso_search(trivial(65), trivial(65))
    with pytest.raises(TooLarge):
        aut(trivial(65)).is_transitive()


def test_aut_at_the_size_limit():
    # the affine maps x -> ux + v with u a unit mod 64: n * phi(n) = 64 * 32
    assert aut(dihedral(64)).order == 2048


def test_aut_fails_fast_at_the_default_cap(tmp_path):
    # Aut(trivial(12)) is S_12 of order 12! ~ 4.8e8; the orbit-stabilizer
    # search finds that order on 11 generators and refuses it at the cap of
    # 10^5 before listing anything
    path = tmp_path / "t12.json"
    path.write_text(trivial(12).to_json())
    code, peak_mb, err = cli_peak_mb("aut", str(path))
    assert code == 1
    assert "cap of 100000" in err
    assert peak_mb < 150


def test_invariant_profiles_are_computed_once_per_quandle(monkeypatch):
    # aut and iso_search each read them once, for both sides of one search
    calls = []
    monkeypatch.setattr(symmetry, "cycle_type",
                        lambda row: calls.append(1) or groups_module.cycle_type(row))
    q = power_cocycle(3, 2)   # three inner orbits
    for search in (aut, lambda q: iso_search(q, q)):
        symmetry._invariant_profiles.cache_clear()
        calls.clear()
        search(q)
        assert len(calls) == q.size, search
    assert isinstance(symmetry._invariant_profiles(q), tuple)


def test_aut_elements_are_automorphisms():
    q = conj_class(FiniteGroup.symmetric(4), 1)
    for f in aut(q).elements:
        assert hom_check(f, q, q).ok


# -- homomorphisms and isomorphisms --------------------------------------------------

def test_hom_check_identity_and_violations():
    r3 = dihedral(3)
    rep = hom_check((0, 1, 2), r3, r3)
    assert rep.ok and rep.preserves_inverse
    rep = hom_check((0, 0, 1), r3, r3)
    assert not rep.ok and rep.violations
    r5 = dihedral(5)   # numpy ints are ints too
    for f in (np.arange(5), list(np.arange(5)), np.arange(5, dtype=np.uint8)):
        rep = hom_check(f, r5, r5)
        assert rep.ok and rep.preserves_inverse
    assert hom_check(np.array([0, 0, 1]), r3, r3) == hom_check((0, 0, 1), r3, r3)


def test_hom_check_matches_the_pair_loop():
    # reference: every bad pair, in row-major order, found by a scalar loop;
    # dihedral(15) has 225 pairs, so random maps there pass the cap of 100
    rng = random.Random(0)
    over_cap = 0
    for q in [q for _, q in small_corpus()] + [dihedral(15)]:
        for target in (q, dihedral(5)):
            maps = [tuple(rng.randrange(target.size) for _ in range(q.size))
                    for _ in range(3)]
            if target is q:
                maps.append(tuple(range(q.size)))
            for f in maps:
                bad = tuple((a, b) for a in range(q.size) for b in range(q.size)
                            if f[q.op[a][b]] != target.op[f[a]][f[b]])
                inv_ok = not bad and all(
                    f[q.inv_op[a][b]] == target.inv_op[f[a]][f[b]]
                    for a in range(q.size) for b in range(q.size))
                rep = hom_check(f, q, target)
                assert rep.violations == bad[:100] and rep.ok == (not bad)
                assert rep.preserves_inverse == inv_ok
                over_cap += len(bad) > 100
    assert over_cap


def test_hom_check_rejects_malformed_mappings():
    r3 = dihedral(3)
    for f in ((0, 1, 2.0), (0, True, 2), (0, 1, "2"), (0, 1), (0, 1, 3), (0, 1, -1),
              np.array([0, 1, 2.0]), np.array([False, True, True]), (0, np.bool_(True), 2),
              (0, 1, np.float64(2)), np.array([0, 1, 3]), np.array([0, 1, -1]),
              np.array([0, 1, 255], dtype=np.uint8)):
        with pytest.raises(QuandleError, match="mapping is not a total map of ints into the target"):
            hom_check(f, r3, r3)


def test_hom_preserves_inverse_automatically():
    # any homomorphism found also respects |>^-1
    r6 = dihedral(6)
    r3 = dihedral(3)
    f = tuple(x % 3 for x in range(6))
    rep = hom_check(f, r6, r3)
    assert rep.ok and rep.preserves_inverse


# -- hom_check and actions on a generating set, against the all-pairs checks -----

def _hom_oracle(f, q, target):
    """The all-pairs ``hom_check`` the generating-set check replaced: one
    array comparison of every pair, and the separate |>^-1 comparison."""
    m = np.array(f, dtype=np.int64)
    bad = np.argwhere(m[q.op] != target.op[m[:, None], m])
    inv_ok = not len(bad) and bool((m[q.inv_op] == target.inv_op[m[:, None], m]).all())
    return tuple(map(tuple, bad[:100].tolist())), inv_ok


def _action_oracle(q, act):
    """The first (x, r) in row-major order with act_x act_r != act_{x |> r}
    act_x, every row compared, as the check did before it used I and S."""
    a = np.asarray(act)
    for x in range(q.size):
        bad = np.argwhere(a[x][a] != a[q.op[x]][:, a[x]])
        if len(bad):
            return (x, int(bad[0][0]))
    return None


def _outside_i_and_s(q):
    """The elements that are neither identity rows nor in S, the chain of
    ``groups._chain`` seeded with them."""
    ident = groups_module._identity_rows(q.op)
    checked = set(ident) | {s for s, _ in groups_module._chain(q.op, range(q.size), ident)}
    return [x for x in range(q.size) if x not in checked]


# a quandle with identity rows (the centre of S4) and one without
_MUTATION_QUANDLES = [("a732", lambda: alexander(7, 3, 2)), ("d63", lambda: dihedral(63)),
                      ("conj_S4", lambda: conjugation(FiniteGroup.symmetric(4))),
                      ("pc32", lambda: power_cocycle(3, 2))]


@pytest.mark.parametrize("build", [b for _, b in _MUTATION_QUANDLES],
                         ids=[name for name, _ in _MUTATION_QUANDLES])
def test_hom_wrong_outside_i_and_s_matches_the_all_pairs_check(build):
    q = build()
    outside = _outside_i_and_s(q)
    assert outside
    for x in (outside[0], outside[len(outside) // 2], outside[-1]):
        for y in (0, q.size - 1, (x + 1) % q.size):
            f = list(range(q.size))
            f[x] = y if y != x else (x + 2) % q.size
            bad, inv_ok = _hom_oracle(f, q, q)
            assert bad, (x, y)
            rep = hom_check(tuple(f), q, q)
            assert rep.violations == bad and not rep.ok
            assert rep.preserves_inverse == inv_ok


@pytest.mark.parametrize("build", [b for _, b in _MUTATION_QUANDLES],
                         ids=[name for name, _ in _MUTATION_QUANDLES])
def test_action_changed_outside_i_and_s_fails_at_the_all_rows_witness(build):
    q = build()
    outside = _outside_i_and_s(q)
    for x in (outside[0], outside[-1]):
        for i, j in ((0, 1), (1, q.size - 1)):
            act = q.op.tolist()
            act[x][i], act[x][j] = act[x][j], act[x][i]   # still a permutation
            expected = _action_oracle(q, act)
            assert expected is not None, (x, i, j)
            with pytest.raises(ActionError) as exc:
                QuandleAction(q, q.size, act)
            assert exc.value.witness == expected
            assert str(exc.value) == f"action is not compatible with |> at {expected}"


def _orbit_colouring(q, k):
    """A homomorphism onto trivial(k): each element goes to its orbit's
    index mod k, since q |> r lies in the orbit of r."""
    return [i % k for i in orbits(q).orbit_id]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hom_check_matches_the_all_pairs_check_on_drawn_mappings(data):
    q = data.draw(st.sampled_from([q for _, q in small_corpus()]))
    kind = data.draw(st.sampled_from(["identity", "constant", "colouring", "random"]))
    if kind == "identity":
        target, f = q, list(range(q.size))
    elif kind == "constant":   # any idempotent target element is a homomorphic image
        target = data.draw(st.sampled_from([q, dihedral(5)]))
        f = [data.draw(st.integers(0, target.size - 1))] * q.size
    elif kind == "colouring":
        target = trivial(data.draw(st.integers(1, 3)))
        f = _orbit_colouring(q, target.size)
    else:
        target = data.draw(st.sampled_from([q, dihedral(3), trivial(2)]))
        f = data.draw(st.lists(st.integers(0, target.size - 1),
                               min_size=q.size, max_size=q.size))
    for _ in range(data.draw(st.integers(0, 2))):   # perturb a few entries
        f[data.draw(st.integers(0, q.size - 1))] = data.draw(st.integers(0, target.size - 1))
    bad, inv_ok = _hom_oracle(f, q, target)
    rep = hom_check(tuple(f), q, target)
    assert rep.violations == bad and rep.ok == (not bad)
    assert rep.preserves_inverse == inv_ok == rep.ok


def _counting_checks(monkeypatch):
    """Record every row that ``hom_check`` and ``QuandleAction`` ask their
    check to compare."""
    seen = []
    real = symmetry._check_rows

    def counting(failures, *args):
        return real(lambda x: seen.append(x) or failures(x), *args)
    monkeypatch.setattr(symmetry, "_check_rows", counting)
    return seen


@pytest.mark.parametrize("check", [lambda q: hom_check(tuple(range(q.size)), q, q),
                                   QuandleAction.natural], ids=["hom_check", "action"])
def test_checks_compare_only_the_identity_rows_and_s(monkeypatch, check):
    t343, a732 = trivial(343), alexander(7, 3, 2)
    seen, walks = _counting_checks(monkeypatch), []
    real_walk = groups_module.walk
    monkeypatch.setattr(groups_module, "walk", lambda *a: walks.append(1) or real_walk(*a))
    check(t343)   # every row is an identity row: each is compared once, none walked
    assert seen == list(range(343)) and not walks
    seen.clear()
    check(a732)   # no identity row; S = [0, 1, 7, 49], one walk each
    assert seen == [0, 1, 7, 49] and len(walks) == 4


def test_a_failing_identity_row_compares_each_row_once(monkeypatch):
    seen = _counting_checks(monkeypatch)
    q = trivial(343)
    target = validate([[0, 2, 1, 3]] + [[0, 1, 2, 3]] * 3)
    f = (0, 1) + (3,) * 341   # s_0 of the target swaps 1 and 2: row 0 fails at r = 1 only
    rep = hom_check(f, q, target)
    assert not rep.ok and rep.violations == _hom_oracle(f, q, target)[0] == ((0, 1),)
    assert seen == list(range(343))
    seen.clear()
    f = (1,) + (0,) * 342   # into dihedral(3), where 1 |> 0 = 2: identity row 0 fails
    rep = hom_check(f, q, dihedral(3))
    assert not rep.ok and rep.violations == _hom_oracle(f, q, dihedral(3))[0]
    assert seen == [0]   # at each r > 0, so row 0 alone gives the 100 violations kept


def test_iso_search_finds_and_rejects():
    s3 = FiniteGroup.symmetric(3)
    q = conj_class(s3, s3.elements.index((1, 0, 2)))
    f = iso_search(q, dihedral(3))
    assert f is not None and hom_check(f, q, dihedral(3)).ok
    assert iso_search(dihedral(3), trivial(3)) is None
    assert iso_search(dihedral(3), dihedral(4)) is None


# -- coset realization -------------------------------------------------------------------

def test_realize_singleton():
    real = coset_realization(trivial(1), 0)
    assert real.ok
    assert real.group.order == 1 and real.stabilizer_size == 1
    assert real.pi == (0,)


def test_realize_dihedral_3():
    real = coset_realization(dihedral(3), 0)
    assert real.ok
    assert real.group.order == 3
    assert real.stabilizer_size == 1
    assert sorted(real.pi) == [0, 1, 2]


def test_realize_every_orbit_of_non_connected():
    q = conjugation(FiniteGroup.symmetric(3))
    for b in orbits(q).basepoints:
        real = coset_realization(q, b)
        assert real.ok
        assert sorted(real.pi) == list(real.orbit)


def test_realize_stabilizer_commutes():
    q = unipotent_class_quandle(3)
    real = coset_realization(q, 0)
    assert real.ok
    sq, stabilizer = q.op[0], symmetry._cosets(real.group.perms, 0)[0]
    assert len(stabilizer) == real.stabilizer_size
    for i in stabilizer:
        p = real.group.perms[i]
        assert (p[sq] == sq[p]).all()


def test_implied_realization_checks_match_their_loops():
    # stabilizer_commutes_with_sq is read from stabilizer_fixed_by_phi, and
    # reduces_to_phi from psi_closed; the loops that computed them are oracles
    for name, q in small_corpus():
        for b in orbits(q).basepoints:
            real = coset_realization(q, b)
            g, sq, sq_inv = real.group, q.op[b], q.inv_op[b]
            stabilizer = symmetry._cosets(g.perms, b)[0]
            assert real.checks["stabilizer_commutes_with_sq"] == all(
                (g.perms[i][sq] == sq[g.perms[i]]).all() for i in stabilizer), (name, b)
            index = {p: i for i, p in enumerate(g.elements)}   # sq p sq^-1 for every p
            phi = tuple(index[p] for p in map(tuple, sq[g.perms[:, sq_inv]].tolist()))
            rep = inter_orbit_action(q, b, b)
            assert rep.checks["reduces_to_phi"] == (rep.psi == phi), (name, b)
            assert rep.psi == tuple(symmetry._psi(q, g, b, b).tolist()), (name, b)


def test_cycle_labels_are_formatted_on_first_read(monkeypatch):
    d171, u7 = dihedral(171), unipotent_class_quandle(7)
    symmetry._tr.cache_clear()
    calls = []
    cycle_labels = groups_module.cycle_labels
    monkeypatch.setattr(groups_module, "cycle_labels",
                        lambda perms: calls.append(len(perms)) or cycle_labels(perms))
    g = FiniteGroup.from_permutation_group(inn(d171))
    regularity_report(u7)
    assert calls == []
    assert g.labels == tuple(groups_module.format_cycles(p) or "()" for p in g.elements)
    assert g.label(1) == g.labels[1] and calls == [g.order] == [342]


def _pi_inverse_homomorphism_oracle(quandle, real):
    """pi^-1(x |> y) = pi^-1(x) |> pi^-1(y) on every pair of the orbit,
    one scalar at a time against the validated coset quandle of the table
    route."""
    cq = phi_space(real.group, real.phi, real.stabilizer)
    pi_inv = {x: k for k, x in enumerate(real.pi)}
    return (sorted(real.pi) == list(real.orbit)
            and all(pi_inv[quandle.op[x][y]] == cq.op[pi_inv[x]][pi_inv[y]]
                    for x in real.orbit for y in real.orbit))


def test_pi_inverse_homomorphism_matches_the_scalar_oracle():
    for name, q in small_corpus():
        for b in orbits(q).basepoints:
            real = coset_realization(q, b)
            assert real.checks["pi_inverse_homomorphism"] == \
                _pi_inverse_homomorphism_oracle(q, table_route.realization(q, b)), (name, b)


def test_realization_neither_validates_nor_serializes(monkeypatch):
    built = [unipotent_class_quandle(7), conjugation(FiniteGroup.symmetric(4))]

    def refuse(*args, **kwargs):
        raise AssertionError("validate or to_dict called")

    for module in (quandle_module, constructions):
        monkeypatch.setattr(module, "validate", refuse)
    monkeypatch.setattr(FiniteGroup, "to_dict", refuse)
    for q in built:
        assert coset_realization(q, 0).ok
        assert regularity_report(q).phi_prime


def test_a_wrong_coset_table_fails_pi(tmp_path, monkeypatch):
    q = dihedral(5)
    path = tmp_path / "d5.json"
    path.write_text(q.to_json())
    walk = symmetry.walk

    def corrupt(*args):   # the last point of a walk met from the one before's parent:
        points, parent, via = walk(*args)   # its x_a, and its row of the coset table, is wrong
        parent[-1], via[-1] = parent[-2], via[-2]
        return points, parent, via

    monkeypatch.setattr(symmetry, "walk", corrupt)
    real = coset_realization(q, 0)
    assert real.checks["pi_bijective"]
    assert not real.checks["pi_homomorphism"]
    assert not real.checks["pi_inverse_homomorphism"]
    assert not real.ok
    code = run(["realize", str(path), "--json"], stdout=io.StringIO(),
               stderr=io.StringIO())
    assert code == 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chain_realization_matches_the_table_route(data):
    # every basepoint b of a drawn small-corpus quandle, and the action of b's
    # cosets on those of a drawn r
    name, q = data.draw(st.sampled_from(small_corpus()))
    r = data.draw(st.integers(0, q.size - 1))
    for b in range(q.size):
        real, oracle = coset_realization(q, b), table_route.realization(q, b)
        perms = real.group.perms
        assert real.group.order == oracle.group.order and np.array_equal(perms, oracle.group.perms)
        stabilizer, reps, pi = symmetry._cosets(perms, b)
        assert tuple(stabilizer.tolist()) == oracle.stabilizer, (name, b)
        assert real.stabilizer_size == len(oracle.stabilizer), (name, b)
        assert tuple(reps.tolist()) == oracle.cosets.reps, (name, b)
        assert tuple(pi.tolist()) == oracle.pi and sorted(real.pi) == sorted(oracle.pi), (name, b)
        assert symmetry._psi(q, real.group, b, b).tolist() == oracle.phi.mapping.tolist(), (name, b)
        assert real.checks == oracle.checks and real.orbit == oracle.orbit, (name, b)
        # the coset quandle on the oracle's table is the orbit, through pi
        cq = phi_space(oracle.group, oracle.phi, oracle.stabilizer)
        assert hom_check(oracle.pi, cq, q).ok and sorted(oracle.pi) == list(real.orbit), (name, b)
        rep = inter_orbit_action(q, b, r)
        assert (rep.psi, rep.action, rep.checks) == table_route.inter_orbit(q, b, r), (name, b, r)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_psi_ranks_members_and_gives_minus_one_outside_the_group(data):
    # psi on Tr(Q) and on subgroups of it drawn from Tr's generators (the
    # trivial group among them), where s_q p s_r^-1 may leave the group: the
    # index of each image among the listed rows, or -1
    name, q = data.draw(st.sampled_from(small_corpus()))
    a, b = (data.draw(st.integers(0, q.size - 1)) for _ in range(2))
    g = tr(q)
    gens = g.gens[g.used]
    keep = data.draw(st.sets(st.sampled_from(range(len(gens))))) if len(gens) else set()
    for grp in (g, close(gens[sorted(keep)], domain_size=q.size)):
        perms = grp.perms
        want = table_route.find_rows(perms, q.op[a][perms[:, q.inv_op[b]]])
        assert symmetry._psi(q, grp, a, b).tolist() == want.tolist(), (name, a, b, keep)
    if (q.op[a] != q.op[b]).any():   # s_a s_b^-1, psi of the identity, is not in {1}
        assert symmetry._psi(q, close([], domain_size=q.size), a, b).tolist() == [-1]


def test_realization_builds_no_group_table(tmp_path, monkeypatch):
    quandles = {"s4": conjugation(FiniteGroup.symmetric(4)), "u7": unipotent_class_quandle(7),
                "d5": dihedral(5)}
    for name, q in quandles.items():
        (tmp_path / f"{name}.json").write_text(q.to_json())

    def refuse(*args, **kwargs):
        raise AssertionError("a FiniteGroup was built")

    monkeypatch.setattr(FiniteGroup, "__init__", refuse)
    symmetry._tr.cache_clear()
    s4 = quandles["s4"]
    assert all(coset_realization(s4, b).ok for b in orbits(s4).basepoints)
    assert inter_orbit_action(s4, 0, 9).ok and regularity_report(s4).phi_prime
    for argv in (["report", "s4.json"], ["report", "u7.json", "--json"],
                 ["realize", "s4.json", "--basepoint", "9"], ["realize", "u7.json"],
                 ["survey", "."], ["survey", ".", "--json"]):
        argv = [str(tmp_path / a) if a.endswith(".json") or a == "." else a for a in argv]
        err = io.StringIO()
        assert run(argv, stdout=io.StringIO(), stderr=err) == 0, (argv, err.getvalue())


def test_realization_past_the_table_limit():
    # |Tr(u29)| = 12180 = |PSL2(F_29)| > MAX_GROUP_ORDER, on 420 points
    q = unipotent_class_quandle(29)
    real = coset_realization(q, 0)
    assert real.group.order == 12180 > groups_module.MAX_GROUP_ORDER
    assert len(real.orbit) == 420 and real.stabilizer_size == 29
    assert real.ok and all(real.checks.values())
    assert "perms" not in vars(real.group)
    rep = regularity_report(q)
    assert rep.phi_prime and rep.realizations[0].group_order == 12180


def test_basepoints_out_of_range():
    q = dihedral(3)
    for bad in (3, -1):
        for call in (lambda: coset_realization(q, bad),
                     lambda: sbar_hom(q, bad),
                     lambda: inter_orbit_action(q, bad, 0),
                     lambda: inter_orbit_action(q, 0, bad)):
            with pytest.raises(QuandleError, match=f"basepoint {bad} out of range"):
                call()


def test_inter_orbit_compatibility():
    q = conjugation(FiniteGroup.symmetric(3))
    deco = orbits(q)
    for b1 in deco.basepoints:
        for b2 in deco.basepoints:
            rep = inter_orbit_action(q, b1, b2)
            assert rep.ok, (b1, b2, rep.checks)
            if b1 == b2:
                assert rep.checks["reduces_to_phi"]


def test_inter_orbit_well_definedness_is_exhaustive_at_small_order():
    q = dihedral(5)
    rep = inter_orbit_action(q, 0, 3)
    assert rep.ok and rep.group_order == 5


def test_inter_orbit_well_definedness_is_exhaustive_above_old_limit():
    # order 660 was past the old 512 cutoff, above which 1000 pairs were sampled
    rep = inter_orbit_action(unipotent_class_quandle(11), 0, 17)
    assert rep.group_order == 660
    assert rep.checks["well_defined"] and rep.ok


# -- the symmetry-comparison homomorphism ---------------------------------------------------

def test_sbar_trivial():
    rep = sbar_hom(trivial(4), 0)
    assert rep.is_homomorphism
    assert rep.group.order == 1
    assert rep.mapping == (0, 0, 0, 0)
    assert rep.fibers == ((0, 1, 2, 3),)
    assert not rep.injective


def test_sbar_dihedral_injective():
    rep = sbar_hom(dihedral(3), 0)
    assert rep.ok and rep.injective
    assert len(rep.fibers) == 3


def test_tuple_views_are_built_on_first_read_only(monkeypatch):
    # every library path reads the element and generator arrays; the tuple
    # views are for callers, built once when first read
    q, u7, d171 = power_cocycle(3, 2), unipotent_class_quandle(7), dihedral(171)
    symmetry._tr.cache_clear()
    views = [(groups_module.PermutationGroup, "elements"),
             (groups_module.PermutationGroup, "generators"), (FiniteGroup, "elements")]
    reads = []
    with monkeypatch.context() as m:
        for cls, name in views:
            m.setattr(cls, name, property(lambda self, name=name: reads.append(name)))
        groups = [inn(q), tr(q), aut(dihedral(6))]
        groups += [coset_realization(q, b).group for b in orbits(q).basepoints]
        assert regularity_report(u7).phi_prime
        groups += [symmetry._tr(u7, symmetry.REALIZE_CAP), sbar_hom(d171, 0).group,
                   FiniteGroup.from_permutation_group(inn(d171))]
        assert groups[2].is_transitive()
    assert reads == []
    for g in groups:
        assert g.elements == tuple(map(tuple, g.perms.tolist())) and g.elements is g.elements
    for g in groups[:3]:
        assert g.generators == tuple(map(tuple, g.gens.tolist()))
    assert groups[3] is groups[4]   # one Tr(Q) for the three orbits


def test_sbar_fibers_are_equal_symmetry_classes():
    q = power_cocycle(3, 2)  # s_x depends only on the first coordinate
    rep = sbar_hom(q, 0)
    assert rep.is_homomorphism
    assert not rep.injective
    for fiber in rep.fibers:
        rows = {tuple(q.op[x].tolist()) for x in fiber}
        assert len(rows) == 1
    assert sorted(len(f) for f in rep.fibers) == [3, 3, 3]


def test_sbar_is_hom_on_corpus_sample():
    for _, q in small_corpus():
        assert sbar_hom(q, 0).is_homomorphism


def test_sbar_matches_the_table_route():
    for name, q in small_corpus():
        for b in range(q.size):
            rep, oracle = sbar_hom(q, b), table_route.sbar(q, b)
            assert rep.group.order == oracle.group.order, (name, b)
            assert np.array_equal(rep.group.perms, oracle.group.perms), (name, b)
            assert rep._replace(group=None) == oracle._replace(group=None), (name, b)


def test_sbar_builds_no_group_table(tmp_path, monkeypatch):
    quandles = {"s4": conjugation(FiniteGroup.symmetric(4)), "u7": unipotent_class_quandle(7),
                "pc": power_cocycle(3, 2)}
    for name, q in quandles.items():
        (tmp_path / f"{name}.json").write_text(q.to_json())

    def refuse(*args, **kwargs):
        raise AssertionError("a FiniteGroup was built")

    monkeypatch.setattr(FiniteGroup, "__init__", refuse)
    for q in quandles.values():
        assert all(sbar_hom(q, b).ok for b in orbits(q).basepoints)
    for argv in (["sbar", "s4.json", "--basepoint", "9"], ["sbar", "u7.json", "--json"],
                 ["sbar", "pc.json", "--basepoint", "4", "--json"]):
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        err = io.StringIO()
        assert run(argv, stdout=io.StringIO(), stderr=err) == 0, (argv, err.getvalue())


def test_sbar_checks_one_row_of_a_trivial_quandle(monkeypatch):
    # every element is in the one fiber, whose least element alone is compared
    calls, twist = [], symmetry._twist_differs
    monkeypatch.setattr(symmetry, "_twist_differs",
                        lambda rows, sq, op, x, ys: calls.append(x) or twist(rows, sq, op, x, ys))
    rep = sbar_hom(trivial(64), 5)
    assert rep.ok and rep.fibers == (tuple(range(64)),)
    assert calls == [0]
    calls.clear()
    rep = sbar_hom(power_cocycle(3, 2), 4)   # three fibers, led by 0, 3 and 6
    assert rep.ok and sorted(f[0] for f in rep.fibers) == [0, 3, 6]
    assert set(calls) <= {0, 3, 6} and len(calls) == len(set(calls))


@pytest.mark.parametrize("build", [lambda: unipotent_class_quandle(11),
                                   lambda: conjugation(FiniteGroup.symmetric(4))],
                         ids=["u11", "conj(S4)"])
def test_a_wrong_twist_fails_sbar(monkeypatch, build):
    # phi by s_1 in place of s_0, with the map x -> s_x s_0^-1 kept
    q = build()
    assert sbar_hom(q, 0).ok
    twist = symmetry._twist_differs
    monkeypatch.setattr(symmetry, "_twist_differs",
                        lambda rows, sq, op, x, ys: twist(rows, q.op[1], op, x, ys))
    assert not sbar_hom(q, 0).ok


def test_sbar_refuses_inn_past_the_table_limit_before_listing_it(monkeypatch):
    # |Inn(R_2049)| = 4098: the order is read off the chain
    def refuse(self):
        raise AssertionError("the elements were listed")

    monkeypatch.setattr(groups_module.PermutationGroup, "perms", property(refuse))
    with pytest.raises(groups_module.CapExceeded, match="^group order 4098 exceeds the limit "
                       "of 4096 elements for a multiplication table$"):
        sbar_hom(dihedral(2049), 0)


def _saturation_by_images(q, seed):
    """The chain Z, Q |> Z, ... with each step the set of all images op[:, Z]."""
    chain = [frozenset(seed)]
    while (nxt := frozenset(q.op[:, sorted(chain[-1])].ravel().tolist())) != chain[-1]:
        chain.append(nxt)
    return tuple(chain)


def test_saturation_chains_match_the_images_of_each_step():
    from corpus_util import corpus
    for name, q in corpus():
        for seed in [{0}, {q.size - 1}, set(range(0, q.size, 3)),
                     set(random.Random(q.size).sample(range(q.size), min(2, q.size)))]:
            assert saturate_forward(q, seed).sets == _saturation_by_images(q, seed), (name, seed)
