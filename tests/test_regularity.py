import numpy as np

from quandles import (FiniteGroup, alexander, aut, conjugation, dihedral,
                      fixed_points, implication_survey,
                      isolated_connected_consequence, regularity_report,
                      sbar_hom, trivial, unipotent_class_quandle)
from quandles.regularity import surjective_translations

from corpus_util import small_corpus


def test_fixed_points_trivial():
    t = trivial(4)
    for q in range(4):
        assert fixed_points(t, q) == (0, 1, 2, 3)


def test_fixed_points_alexander():
    for a in (2, 3, 4):
        q = alexander(5, 1, a)
        for x in range(5):
            assert fixed_points(q, x) == (x,)


def test_fixed_points_always_contain_base():
    for _, q in small_corpus():
        for x in range(q.size):
            assert x in fixed_points(q, x)


def test_fixed_points_unipotent_by_enumeration():
    # p=3: the only upper-triangular class member is J1 itself
    q3 = unipotent_class_quandle(3)
    j1 = q3.labels.index("[[1,1],[0,1]]")
    oracle = tuple(r for r in range(q3.size) if q3.op[j1][r] == r)
    assert fixed_points(q3, j1) == oracle == (j1,)
    assert type(fixed_points(q3, j1)[0]) is int
    # p=5: J4 = J1^-1 is in the class and commutes with J1
    q5 = unipotent_class_quandle(5)
    j1 = q5.labels.index("[[1,1],[0,1]]")
    j4 = q5.labels.index("[[1,4],[0,1]]")
    oracle = tuple(r for r in range(q5.size) if q5.op[j1][r] == r)
    assert fixed_points(q5, j1) == oracle == tuple(sorted((j1, j4)))


def test_fixed_points_and_surjectivity_match_loops():
    for name, q in small_corpus():
        op = q.op.tolist()
        for x in range(q.size):
            assert fixed_points(q, x) == tuple(r for r in range(q.size) if op[x][r] == r)
        assert surjective_translations(q) == tuple(
            len({op[r][x] for r in range(q.size)}) == q.size for x in range(q.size)), name


def test_report_alexander_all_flags():
    rep = regularity_report(alexander(5, 1, 2))
    assert rep.i_prime and rep.d_prime and rep.connected and rep.phi_prime
    assert rep.flags() == {"I'": True, "D'": True, "C": True, "Phi'": True}


def test_report_trivial():
    rep = regularity_report(trivial(3))
    assert not rep.i_prime and not rep.d_prime and not rep.connected
    # every singleton orbit is realized trivially, so the coset condition holds
    assert rep.phi_prime
    assert all(s.group_order == 1 for s in rep.realizations)


def test_report_unipotent_3():
    # connected, and at p=3 every symmetry fixes only its basepoint: the
    # class is too small to catch any other commuting member
    rep = regularity_report(unipotent_class_quandle(3))
    assert rep.connected and rep.i_prime and rep.d_prime and rep.phi_prime


def test_report_unipotent_5():
    # at p=5 the class contains J4, which s_J1 fixes: isolation fails, and
    # the translation images are proper subsets
    rep = regularity_report(unipotent_class_quandle(5))
    assert rep.connected and rep.phi_prime
    assert not rep.i_prime
    assert not rep.d_prime


def test_report_json_shape():
    rep = regularity_report(dihedral(4))
    d = rep.to_dict()
    assert set(d["flags"]) == {"I_prime", "D_prime", "C", "Phi_prime"}
    assert len(d["fixed_sets"]) == 4
    assert d["notes"]


def test_survey_empty():
    result = implication_survey([])
    assert result.rows == ()
    assert all(not v for v in result.implications.values())


def test_survey_single_full_instance():
    result = implication_survey([("a52", alexander(5, 1, 2))])
    assert result.rows[0].flags == {"I'": True, "D'": True, "C": True, "Phi'": True}
    assert not any(result.implications.values())


def test_survey_counterexamples_match_rows():
    instances = [("trivial_3", trivial(3)),
                 ("r5", dihedral(5)),
                 ("unipotent_5", unipotent_class_quandle(5)),
                 ("conj_s3", conjugation(FiniteGroup.symmetric(3)))]
    result = implication_survey(instances)
    flags = {r.name: r.flags for r in result.rows}
    for key, names in result.implications.items():
        a, b = key.split(" => ")
        expected = tuple(n for n in flags if flags[n][a] and not flags[n][b])
        assert names == expected
    # connectedness does not grant isolated fixed points: p=5 witnesses it
    assert "unipotent_5" in result.implications["C => I'"]
    assert "unipotent_5" in result.implications["Phi' => I'"]
    table = result.format_table()
    assert "unipotent_5" in table and "I'" in table


def test_isolated_consequence_alexander():
    rep = isolated_connected_consequence(alexander(7, 1, 3))
    assert rep.i_prime and rep.all_surjective and not rep.anomaly
    assert rep.surjective_points == tuple(range(7))


def test_isolated_consequence_singleton():
    rep = isolated_connected_consequence(trivial(1))
    assert rep.i_prime and rep.any_surjective and not rep.anomaly


def test_isolated_consequence_dihedral_3():
    rep = isolated_connected_consequence(dihedral(3))
    assert rep.i_prime and rep.all_surjective
    assert rep.largest_orbit == (0, 1, 2)
    assert rep.largest_orbit_hit_by_translation


def test_commuting_automorphisms_fix_base_on_isolated_instances():
    # if f s_q f^-1 = s_q and Fix(s_q) = {q}, then f fixes q
    for q in (dihedral(3), alexander(5, 1, 3)):
        for f in aut(q).perms:   # row a: f s_a f^-1
            commutes = (f[q.op[:, np.argsort(f)]] == q.op).all(axis=1)
            assert (f[commutes] == np.flatnonzero(commutes)).all()


def test_sbar_fibers_singleton_iff_symmetries_distinct():
    # on an instance with isolated fixed points, injectivity of x -> s_x
    # matches singleton fibers of the comparison homomorphism
    for q in (dihedral(5), alexander(7, 1, 2)):
        rep = sbar_hom(q, 0)
        distinct_rows = len({tuple(row) for row in q.op.tolist()}) == q.size
        assert rep.injective == distinct_rows
        assert rep.injective  # these instances have pairwise distinct symmetries
