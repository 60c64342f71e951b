import json
import re

import numpy as np
import pytest

import quandles.constructions as constructions
import quandles.groups as groups_module
from quandles import (CocycleError, ConstructionError, ConstructionRecord, FiniteGroup,
                      GroupAutomorphism, GroupError, NotAbelian, NotFixed, alexander,
                      all_automorphisms, cocycle_extension, conj_class, conjugacy_class,
                      conjugation,
                      coset_realization, dihedral,
                      identity_perm, inter_orbit_action, iso_search,
                      matrix_group_sl2, phi_space, saturate_forward,
                      power_cocycle, trivial,
                      unipotent_class_quandle, validate, vedernikov)
from quandles.constructions import MAX_CARRIER, coset_action
from quandles.groups import CosetSpace

import table_route
from corpus_util import cli_peak_mb, corpus, corpus_groups


def test_trivial():
    q = trivial(1)
    assert q.size == 1
    q = trivial(3)
    assert all(q.op[a][b] == b for a in range(3) for b in range(3))


def test_dihedral_table():
    r5 = dihedral(5)
    assert all(r5.op[i][j] == (2 * i - j) % 5 for i in range(5) for j in range(5))


def test_every_construction_validates():
    # constructors validate internally; re-validate explicitly for good measure
    for name, q in corpus():
        again = validate(q.op)
        assert np.array_equal(again.op, q.op), name


def test_phi_space_is_dihedral():
    for n in range(3, 13):
        zn = FiniteGroup.cyclic(n)
        neg = GroupAutomorphism(zn, tuple((-i) % n for i in range(n)))
        q = phi_space(zn, neg, (0,))
        assert np.array_equal(q.op, dihedral(n).op), n


def test_phi_space_trivial_cases():
    z4 = FiniteGroup.cyclic(4)
    ident = GroupAutomorphism(z4, identity_perm(4))
    q = phi_space(z4, ident, range(4))
    assert q.size == 1


def test_phi_space_rejects_unfixed_subgroup():
    z5 = FiniteGroup.cyclic(5)
    phi = GroupAutomorphism(z5, tuple((2 * x) % 5 for x in range(5)))
    with pytest.raises(NotFixed) as exc:
        phi_space(z5, phi, (0, 1, 2, 3, 4))
    assert set(exc.value.moved) == {1, 2, 3, 4}


def _first_bad_pair(g, psi, cs, target=None):
    """Oracle for coset_action: the rep table by scalar products, and the
    first (x, y) in row-major order that disagrees with it."""
    target = target or cs

    def coset(x, y):
        return target.index_of[g.mul(x, psi[g.mul(g.inv(x), y)])]
    table = [[coset(x, y) for y in target.reps] for x in cs.reps]
    for x in range(g.order):
        for y in range(g.order):
            if coset(x, y) != table[cs.index_of[x]][target.index_of[y]]:
                return table, (x, y)
    return table, None


def test_coset_action_finds_first_bad_pair_above_old_sampling_limit():
    real = table_route.realization(unipotent_class_quandle(11), 0)
    g, cs, phi = real.group, real.cosets, real.phi.mapping
    assert g.order == 660  # past the order (512) above which pairs were sampled
    table, bad = coset_action(g, phi, cs)
    assert bad is None
    assert table.tolist() == _first_bad_pair(g, phi, cs)[0]

    psi = phi.copy()
    a, b = cs.reps[5], cs.reps[9]  # two entries in different cosets
    psi[a], psi[b] = psi[b], psi[a]
    table, bad = coset_action(g, psi, cs)
    expected_table, expected_bad = _first_bad_pair(g, psi, cs)
    assert expected_bad is not None
    assert bad == expected_bad
    assert table.tolist() == expected_table
    with pytest.raises(ConstructionError, match=re.escape(f"representatives {expected_bad}")):
        phi_space(g, GroupAutomorphism(g, psi, check=False), cs.subgroup)


def _failing_generators(g, psi, cs):
    """For each generator h of the subgroup H, whether some z has
    h psi(h^-1 z)H != psi(z)H, and whether some z has psi(zh)H != psi(z)H:
    the two conditions coset_action checks, by scalar products."""
    gens = [s for s, _ in groups_module._chain(g.table, cs.subgroup, [g.identity])]

    def coset(x):
        return cs.index_of[x]
    zs = range(g.order)
    h_side = [any(coset(g.mul(h, psi[g.mul(g.inv(h), z)])) != coset(psi[z]) for z in zs)
              for h in gens]
    k_side = [any(coset(psi[g.mul(z, h)]) != coset(psi[z]) for z in zs) for h in gens]
    return h_side, k_side


def _powers(g, x):
    """The cyclic subgroup generated by x."""
    out, y = {g.identity}, x
    while y != g.identity:
        out.add(y)
        y = g.mul(y, x)
    return sorted(out)


def test_coset_action_matches_the_oracle_on_the_corpus_groups():
    # phi an automorphism and H inside Fix(phi): every coset action is
    # well-defined, H = Fix(phi) included, which needs 2 or 3 generators
    for name, g in corpus_groups():
        for phi in all_automorphisms(g):
            fixed = phi.fixed_points()
            subgroups = {(g.identity,), fixed}
            subgroups |= {tuple(_powers(g, x)) for x in fixed}
            for sub in subgroups:
                cs = CosetSpace(g, sub)
                table, bad = coset_action(g, phi.mapping, cs)
                assert bad is None, (name, sub)
                assert table.tolist() == _first_bad_pair(g, phi.mapping, cs)[0], (name, sub)


def _mutated_maps(g, phi, sub):
    """Maps psi near the automorphism phi, which fixes the subgroup K = sub.
    psi(z) = c phi(z) keeps psi(zk)K = psi(z)K but breaks h psi(h^-1 z)K =
    psi(z)K where c^-1 h c h^-1 leaves the core of K; psi(z) = phi(z) c keeps
    the H side and breaks the K side where c does not normalize K.  The
    last maps right-multiply phi by d on <k> only, k the first generator of
    K and d outside K with d^-1 k d in K: the K side then holds at k and
    fails at the next generator."""
    t, m = g.table, phi.mapping
    yield from (psi for c in range(g.order) for psi in (t[c, m], t[m, c]))
    k = next((s for s, _ in groups_module._chain(t, sub, [g.identity])), g.identity)
    block = _powers(g, k)
    for d in range(g.order):
        if d not in sub and t[t[g.inv(d), k], d] in sub:
            psi = m.copy()
            psi[block] = t[m[block], d]
            yield psi


def test_coset_action_matches_the_oracle_on_mutated_maps():
    # H = Fix(phi), on both sides of the coset action
    seen = set()
    for name, g in corpus_groups():
        fixes = {phi.fixed_points(): phi for phi in all_automorphisms(g)}
        for sub, phi in fixes.items():
            cs = CosetSpace(g, sub)
            for psi in _mutated_maps(g, phi, sub):
                table, bad = coset_action(g, psi, cs)
                assert (table.tolist(), bad) == _first_bad_pair(g, psi, cs), (name, sub, psi)
                h_side, k_side = _failing_generators(g, psi, cs)
                assert (bad is None) == (not any(h_side + k_side)), (name, sub, psi)
                seen.add(("H only", any(h_side) and not any(k_side)))
                seen.add(("K only", any(k_side) and not any(h_side)))
                seen.add(("H past first", h_side[:1] == [False] and any(h_side)))
                seen.add(("K past first", k_side[:1] == [False] and any(k_side)))
    assert all((case, True) in seen for case in ("H only", "K only", "H past first",
                                                  "K past first")), seen


@pytest.mark.parametrize("build,pairs", [
    (lambda: conjugation(FiniteGroup.symmetric(4)), [(q, r) for q in (0, 1, 3, 4, 9)
                                                     for r in (0, 1, 3, 4, 9)]),
    (lambda: unipotent_class_quandle(7), [(0, 0), (0, 1), (0, 17), (5, 23)])],
    ids=["conj(S4)", "u7"])
def test_coset_action_matches_the_oracle_on_inter_orbit_pairs(build, pairs):
    # one coset space (q = r) by coset_action, two by the oracle's full scan
    quandle = build()
    g = table_route.tr_group(quandle)

    def tabulate(psi, cs_q, cs_r):
        return (coset_action(g, psi, cs_q) if cs_q is cs_r
                else table_route.coset_table(g, psi, cs_q, cs_r))
    for q, r in pairs:
        psi = table_route.twist(g, quandle.op[q], quandle.inv_op[r])
        cs_q = table_route.cosets_at(g, q)[0]
        cs_r = cs_q if q == r else table_route.cosets_at(g, r)[0]
        table, bad = tabulate(psi, cs_q, cs_r)
        assert bad is None and inter_orbit_action(quandle, q, r).checks["well_defined"]
        assert table.tolist() == _first_bad_pair(g, psi, cs_q, cs_r)[0], (q, r)
        if cs_r.count == 1:   # every map is well-defined into one coset
            continue
        wrong = psi.copy()   # two images in different cosets of the target swapped
        a = next(i for i in range(g.order) if cs_r.index_of[psi[i]] != cs_r.index_of[psi[0]])
        wrong[0], wrong[a] = psi[a], psi[0]
        expected = _first_bad_pair(g, wrong, cs_q, cs_r)
        assert expected[1] is not None
        table, bad = tabulate(wrong, cs_q, cs_r)
        assert (table.tolist(), bad) == expected, (q, r)


def test_well_defined_coset_action_scans_no_rows(monkeypatch):
    real = table_route.realization(unipotent_class_quandle(11), 0)
    g, cs, phi = real.group, real.cosets, real.phi.mapping

    def refuse(differs):
        raise AssertionError("rows scanned")
    monkeypatch.setattr(constructions, "_row_failures", refuse)
    table, bad = coset_action(g, phi, cs)
    assert bad is None and table.shape == (cs.count, cs.count)
    assert coset_realization(unipotent_class_quandle(11), 0).ok
    psi = phi.copy()   # the control: a map that is not well-defined scans them
    psi[cs.reps[5]], psi[cs.reps[9]] = psi[cs.reps[9]], psi[cs.reps[5]]
    with pytest.raises(AssertionError, match="rows scanned"):
        coset_action(g, psi, cs)


def test_alexander_special_cases():
    assert np.array_equal(alexander(5, 1, 1).op, trivial(5).op)
    assert np.array_equal(alexander(3, 1, 2).op, dihedral(3).op)
    with pytest.raises(ConstructionError):
        alexander(5, 1, 0)
    with pytest.raises(ConstructionError):
        alexander(5, 1, 5)
    with pytest.raises(ConstructionError):
        alexander(4, 1, 3)  # not prime


def test_alexander_matrix():
    q = alexander(3, 2, [[1, 1], [0, 1]])
    assert q.size == 9
    with pytest.raises(ConstructionError):
        alexander(3, 2, [[1, 1], [1, 1]])  # determinant 0
    # scalar and scalar-matrix agree
    assert np.array_equal(alexander(5, 2, 2).op, alexander(5, 2, [[2, 0], [0, 2]]).op)


def test_alexander_connectivity_frozen():
    from quandles import is_connected
    assert is_connected(alexander(5, 1, 2)).connected
    assert not is_connected(alexander(5, 1, 1)).connected


def test_cocycle_zero():
    z2 = FiniteGroup.cyclic(2)
    q = cocycle_extension(1, z2, [[0]])
    assert np.array_equal(q.op, trivial(2).op)
    z3 = FiniteGroup.cyclic(3)
    q = cocycle_extension(2, z3, [[0, 1], [2, 0]])
    # (x,a) |> (y,b) = (y, b + F(x,y)): the symmetry depends only on x,
    # and the carrier is ordered (x,a) lexicographically
    assert q.size == 6
    for x in range(2):
        for a in range(1, 3):
            assert np.array_equal(q.op[3 * x + a], q.op[3 * x])


def test_cocycle_errors():
    z3 = FiniteGroup.cyclic(3)
    with pytest.raises(CocycleError) as exc:
        cocycle_extension(2, z3, [[1, 0], [0, 2]])
    assert exc.value.bad_points == (0, 1)
    with pytest.raises(NotAbelian):
        cocycle_extension(1, FiniteGroup.symmetric(3), [[0]])


@pytest.mark.parametrize("entry", [1.5, True, 3, -1])
def test_cocycle_entries_must_be_element_indices(entry):
    with pytest.raises(ConstructionError, match="element indices"):
        cocycle_extension(2, FiniteGroup.cyclic(3), [[0, entry], [0, 0]])


def test_cocycle_orbit_of_origin():
    # X = A = Z/3, F(x, y) = y - x: the orbit of (0,0) is {0} x A
    z3 = FiniteGroup.cyclic(3)
    f = [[(y - x) % 3 for y in range(3)] for x in range(3)]
    q = cocycle_extension(3, z3, f)
    stable = saturate_forward(q, {0}).stable
    assert stable == frozenset({0, 1, 2})
    assert all(q.labels[i].startswith("(0,") for i in stable)


def test_tables_match_scalar_products():
    # the constructors index the group arrays in bulk; compare them with
    # one scalar product at a time
    s4 = FiniteGroup.symmetric(4)
    n = s4.order
    assert conjugation(s4).op.tolist() == [[s4.conj(g, h) for h in range(n)]
                                           for g in range(n)]
    cls = conjugacy_class(s4, 3)   # the 3-cycles, where a^-1 b a != a b a^-1
    assert cls == tuple(sorted({s4.conj(h, 3) for h in range(n)}))
    assert conj_class(s4, 3).op.tolist() == [[cls.index(s4.conj(a, b)) for b in cls]
                                             for a in cls]
    z4 = FiniteGroup.cyclic(4)
    f = [[0, 3, 1], [2, 0, 1], [3, 3, 0]]
    q = cocycle_extension(3, z4, f)
    assert all(q.op[4 * x + a][4 * y + b] == 4 * y + z4.mul(b, f[x][y])
               for x in range(3) for a in range(4) for y in range(3) for b in range(4))


def test_conjugation_abelian_is_trivial():
    z8 = FiniteGroup.cyclic(8)
    assert np.array_equal(conjugation(z8).op, trivial(8).op)


def test_conj_class_of_transpositions_is_dihedral():
    s3 = FiniteGroup.symmetric(3)
    t = s3.elements.index((1, 0, 2))
    q = conj_class(s3, t)
    assert q.size == 3
    assert iso_search(q, dihedral(3)) is not None


def test_conj_class_sl2f3_validates():
    g = matrix_group_sl2(3)
    j1 = g.elements.index((1, 1, 0, 1))
    q = conj_class(g, j1)
    assert q.size == 4
    assert np.array_equal(validate(q.op).op, q.op)


def test_vedernikov_identity_autom():
    s3 = FiniteGroup.symmetric(3)
    ident = GroupAutomorphism(s3, identity_perm(6))
    q = vedernikov(s3, ident)
    # x |> y = x y x^-1 (conjugation by the left)
    for x in range(6):
        for y in range(6):
            assert q.op[x][y] == s3.mul(s3.mul(x, y), s3.inv(x))


def test_vedernikov_trivial_group():
    e = FiniteGroup.cyclic(1)
    q = vedernikov(e, GroupAutomorphism(e, (0,)))
    assert q.size == 1


def test_vedernikov_orbit_of_identity_matches_phi_space():
    from quandles import all_automorphisms
    s3 = FiniteGroup.symmetric(3)
    for phi in all_automorphisms(s3):
        v = vedernikov(s3, phi)
        # the orbit of the identity under x . a = x a phi(x^-1) is
        # {x |> e = x phi(x^-1)}, the column of e
        orbit = set(v.right_translation(s3.identity))
        sub, _ = v.subquandle_closure(orbit)
        # the twisted orbit is already closed under the quandle operation
        assert sub.size == len(orbit)
        target = phi_space(s3, phi, phi.fixed_points())
        assert sub.size == target.size
        assert iso_search(sub, target) is not None


def test_power_cocycle_basics():
    q = power_cocycle(5, 2)
    assert q.size == 25
    # every symmetry fixes the first coordinate
    for a in range(25):
        for b in range(25):
            assert q.op[a][b] // 5 == b // 5
    with pytest.raises(ConstructionError):
        power_cocycle(2, 2)
    with pytest.raises(ConstructionError):
        power_cocycle(5, 1)


def test_power_cocycle_orbit_of_origin():
    q = power_cocycle(5, 2)
    stable = saturate_forward(q, {0}).stable
    assert stable == frozenset(range(5))  # {0} x F_5 in lexicographic order


def test_unipotent_class():
    q3 = unipotent_class_quandle(3)
    assert q3.size == 4
    q5 = unipotent_class_quandle(5)
    assert q5.size == 12
    j1 = q3.labels.index("[[1,1],[0,1]]")
    assert q3.op[j1][j1] == j1


def test_unipotent_class_conjugation_formula():
    # M |> J1 = [[1+zw, w^2], [-z^2, 1-zw]] for M = [[x,y],[z,w]]
    for p in (3, 5):
        q = unipotent_class_quandle(p)
        mats = [tuple(int(t) for t in lab.replace("[", " ").replace("]", " ")
                      .replace(",", " ").split()) for lab in q.labels]
        j1 = mats.index((1, 1, 0, 1))
        for i, (x, y, z, w) in enumerate(mats):
            expected = ((1 + z * w) % p, (w * w) % p, (-z * z) % p, (1 - z * w) % p)
            assert mats[q.op[i][j1]] == expected


def test_unipotent_class_is_the_sl2_class_of_j1():
    for p in (2, 3, 5, 7, 11, 13):
        sl2 = matrix_group_sl2(p)
        via_group = conj_class(sl2, sl2.elements.index((1, 1, 0, 1)))
        q = unipotent_class_quandle(p)
        assert q.size == (3 if p == 2 else (p * p - 1) // 2)
        assert np.array_equal(q.op, via_group.op), p
        assert q.labels == via_group.labels, p
        assert q.to_json() == via_group.to_json(), p
        again = q.record.replay()
        assert again.record == q.record == ConstructionRecord(
            "unipotent_class", {"p": p}, q.labels)
        assert again.to_json() == q.to_json(), p


def test_unipotent_class_over_f2_has_no_sign_pairs():
    # -1 = 1 mod 2: the three nonzero columns give three distinct matrices
    q = unipotent_class_quandle(2)
    assert q.labels == ("[[0,1],[1,0]]", "[[1,0],[1,1]]", "[[1,1],[0,1]]")
    assert q.op.tolist() == [[0, 2, 1], [2, 1, 0], [1, 0, 2]]


def test_unipotent_class_builds_no_group(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a group was built")
    monkeypatch.setattr(FiniteGroup, "__init__", refuse)
    monkeypatch.setattr(groups_module, "matrix_group_sl2", refuse)
    q = unipotent_class_quandle(11)
    assert q.size == 60 and q.record.replay() == q


@pytest.mark.parametrize("p, message", [(4, "4 is not prime"), (1, "1 is not prime"),
                                        (17, "p=17 too large (limit 13)")])
def test_unipotent_class_refuses_like_sl2(p, message):
    # past SL2_MAX_PRIME only SL2 itself is refused: the class is limited by its carrier
    sl2_only = p > groups_module.SL2_MAX_PRIME
    for build in (matrix_group_sl2,) if sl2_only else (unipotent_class_quandle, matrix_group_sl2):
        with pytest.raises(GroupError, match=re.escape(message)):
            build(p)
    if sl2_only:
        assert unipotent_class_quandle(p).size == (p * p - 1) // 2


def test_unipotent_class_is_limited_by_its_carrier():
    assert unipotent_class_quandle(61).size == 1860   # 89, 3960 points, is the largest
    with pytest.raises(ConstructionError, match="carrier size 4704 exceeds the limit of 4096"):
        unipotent_class_quandle(97)


def test_unipotent_class_is_conjugation_past_the_old_prime_limit():
    # x |> y = x^-1 y x on the labelled matrices, where SL2 itself is refused
    for p in (17, 19):
        q = unipotent_class_quandle(p)
        mats = [np.array(json.loads(label)) for label in q.labels]
        index = {m.tobytes(): i for i, m in enumerate(mats)}
        for i, x in enumerate(mats):
            x_inv = np.array([[x[1, 1], -x[0, 1]], [-x[1, 0], x[0, 0]]])
            assert q.op[i].tolist() == [index[(x_inv @ y @ x % p).tobytes()] for y in mats]


def test_unipotent_class_13_peak_memory_without_sl2():
    # 140 MB while the class was read off SL2(13)'s table; 32 MB measured
    # on a 2-core x86-64 VM, most of it the interpreter and numpy
    code, peak_mb, err = cli_peak_mb("make", "unipotent_class", "--p", "13")
    assert code == 0, err
    assert peak_mb < 60


def test_records_replay_byte_identical():
    for name, q in corpus():
        again = q.record.replay()
        assert np.array_equal(again.op, q.op), name
        assert again.labels == q.labels, name
        assert again.to_json() == q.to_json(), name


def test_records_hold_the_objects_they_were_given():
    s3 = FiniteGroup.symmetric(3)
    phi = GroupAutomorphism(s3, [s3.conj(1, x) for x in range(6)])
    assert conjugation(s3).record.parameters == {"group": s3}
    assert conj_class(s3, 1).record.parameters == {"group": s3, "g": 1}
    assert vedernikov(s3, phi).record.parameters == {"group": s3, "phi": phi}
    assert (phi_space(s3, phi, (s3.identity,)).record.parameters
            == {"group": s3, "phi": phi, "subgroup": (s3.identity,)})


def test_unipotent_class_13_peak_memory():
    # 243 MB while the conj_class record held a Python-int copy of SL2(13)'s
    # table, 141 MB holding the group, 32 MB from the closed form with no
    # group (2-core x86-64 VM)
    code, peak_mb, err = cli_peak_mb("make", "unipotent_class", "--p", "13")
    assert code == 0, err
    assert peak_mb < 200


@pytest.mark.parametrize("argv, size", [
    (["trivial", "--n", "4097"], "4097"),
    (["dihedral", "--n", "4097"], "4097"),
    (["alexander", "--p", "2", "--n", "13", "--a", "1"], "2^13"),
    (["alexander", "--p", "7", "--n", "10000000000", "--a", "3"], "7^10000000000"),
    (["power_cocycle", "--p", "3", "--n", "8"], "3^8"),
    (["cocycle", "--x-size", "4097", "--abelian", "@z1", "--cocycle", "@zero"], "4097"),
])
def test_carriers_past_the_limit_fail_fast(tmp_path, argv, size):
    # `make trivial --n 4096`, at the limit, peaks near 130 MB; past it nothing is built
    (tmp_path / "z1").write_text(json.dumps(FiniteGroup.cyclic(1).to_dict()))
    (tmp_path / "zero").write_text("[[0]]")
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    code, peak_mb, err = cli_peak_mb("make", *argv)
    assert code == 1
    assert err == (f"input error: carrier size {size} exceeds the limit of "
                   f"{MAX_CARRIER} elements\n")
    assert peak_mb < 60


def test_carrier_limit_is_inclusive():
    constructions._check_carrier(MAX_CARRIER)
    constructions._check_carrier(2, 12)
    for args in ((MAX_CARRIER + 1,), (2, 13), (3, 8), (65, 2)):
        with pytest.raises(ConstructionError, match="limit of 4096 elements"):
            constructions._check_carrier(*args)


def test_record_families_cover_everything():
    seen = {q.record.family for _, q in corpus()}
    assert seen == {"trivial", "dihedral", "alexander", "conj", "conj_class",
                    "phi_space", "vedernikov", "power_cocycle", "unipotent_class"}
