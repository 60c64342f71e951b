"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 5b pins the fixed set of the basepoint symmetry in the unipotent
class quandle of SL2(F_p) in closed form.  The centralizer of
J_1 = [[1,1],[0,1]] is {+-J_t}; -J_t has trace -2, so it lies outside the
class, and J_t is conjugate to J_1 exactly when t is a nonzero square mod p.
So Fix(s_J1) = {J_t : t a nonzero square}, with (p-1)/2 points.  It strictly
contains the basepoint for p >= 5 and equals it at p=3, where 1 is the only
nonzero square: there the basepoint is an isolated fixed point.
"""

import io
import json
import time
from itertools import product

import numpy as np

from quandles import (FiniteGroup, alexander, conj_class, conjugation,
                      count_colorings, dihedral, fixed_points, is_connected,
                      orbits, parse_braid, parse_pd, saturate_forward,
                      power_cocycle, tr, trivial,
                      unipotent_class_quandle, validate)
from quandles.groups import CapExceeded
from quandles.symmetry import QuandleAction, coset_realization, \
    inter_orbit_action, op_group, tr_action_group
from quandles.cli import run as cli_run

from corpus_util import build_corpus, corpus

TREFOIL_PD = "X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]"
FIGURE8_PD = "X[4,1,5,2];X[2,8,3,7];X[8,5,1,6];X[6,4,7,3]"


def test_criterion_01_axiom_suite():
    """criterion 1: every construction family validates with zero violations in < 10 s"""
    start = time.monotonic()
    fresh = build_corpus()
    for name, q in fresh:
        again = validate(q.op)  # raises on any violation
        assert np.array_equal(again.op, q.op), name
    elapsed = time.monotonic() - start
    assert len(fresh) > 90
    assert elapsed < 10.0, f"axiom suite took {elapsed:.1f}s"


def test_criterion_02_orbit_equality():
    """criterion 2: inner and transvection orbits agree elementwise on the corpus in < 30 s"""
    start = time.monotonic()
    for name, q in corpus():
        deco, trg = orbits(q), tr(q)
        for x in range(q.size):
            assert trg.orbit(x) == frozenset(deco.orbit_of(x)), (name, x)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"orbit suite took {elapsed:.1f}s"


def test_criterion_03_saturation_fixpoint():
    """criterion 3: forward saturation from each point equals its inner orbit, exactly"""
    for name, q in corpus():
        deco = orbits(q)
        for x in range(q.size):
            assert saturate_forward(q, {x}).stable == frozenset(deco.orbit_of(x)), \
                (name, x)


def test_criterion_04_alexander_connectedness():
    """criterion 4: alexander(p,1,a) is connected exactly when a != 1"""
    for p in (3, 5, 7):
        for a in range(1, p):
            connected = is_connected(alexander(p, 1, a)).connected
            assert connected == (a != 1), (p, a)


def test_criterion_05_unipotent_connected_and_oracle():
    """criterion 5a: unipotent class quandles at p=3,5 are connected; fixed sets match brute force"""
    for p in (3, 5):
        q = unipotent_class_quandle(p)
        assert is_connected(q).connected, p
        j1 = q.labels.index("[[1,1],[0,1]]")
        oracle = tuple(r for r in range(q.size) if q.op[j1][r] == r)
        assert fixed_points(q, j1) == oracle, p


def test_criterion_05_fixed_set_strictly_contains_basepoint():
    """criterion 5b: Fix(s_J1) is the J_t with t a nonzero square mod p, so it strictly contains the basepoint for p >= 5"""
    for p in (3, 5, 7):
        q = unipotent_class_quandle(p)
        j1 = q.labels.index("[[1,1],[0,1]]")
        squares = {t * t % p for t in range(1, p)}
        expected = {q.labels.index(f"[[1,{t}],[0,1]]") for t in squares}
        fix = set(fixed_points(q, j1))
        assert fix == expected, (p, sorted(fix), sorted(expected))
        if p == 3:
            # 1 is the only nonzero square mod 3, so J_1 is isolated in Fix.
            assert fix == {j1}
        else:
            assert fix > {j1}, (p, sorted(fix))


def test_criterion_06_power_cocycle_orbits():
    """criterion 6: the tail-coordinate orbits of the polynomial family have size p^(n-1)"""
    start = time.monotonic()
    q = power_cocycle(5, 2)
    stable = saturate_forward(q, {0}).stable
    assert stable == frozenset(range(5))  # {0} x F_5 under lexicographic indexing
    q3 = power_cocycle(5, 3)
    assert len(saturate_forward(q3, {0}).stable) == 25
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"power_cocycle suite took {elapsed:.1f}s"


def test_criterion_07_coset_realization():
    """criterion 7: every connected corpus instance realizes as a coset quandle at every basepoint"""
    checked = 0
    for name, q in corpus():
        if not is_connected(q).connected:
            continue
        try:
            group = tr(q, cap=10**4)
        except CapExceeded:
            continue
        assert group.order <= 10**4
        for basepoint in range(q.size):
            real = coset_realization(q, basepoint)
            assert real.checks["stabilizer_fixed_by_phi"], (name, basepoint)
            assert real.checks["pi_bijective"], (name, basepoint)
            assert real.checks["pi_homomorphism"], (name, basepoint)
            assert real.checks["pi_inverse_homomorphism"], (name, basepoint)
            assert real.ok, (name, basepoint, real.checks)
            checked += 1
    assert checked > 100


def test_criterion_08_inter_orbit_compatibility():
    """criterion 8: coset actions between orbits are well-defined and compatible on conj(S3), conj(S4)"""
    for n in (3, 4):
        q = conjugation(FiniteGroup.symmetric(n))
        for a in range(q.size):
            for b in range(q.size):
                rep = inter_orbit_action(q, a, b)
                assert rep.ok, (n, a, b, rep.checks)


def test_criterion_09_op_vs_tr_discrepancy():
    """criterion 9: the shift action of the one-point trivial quandle separates op- and tr-orbits"""
    t1 = trivial(1)
    action = QuandleAction(t1, 12, [tuple((x + 1) % 12 for x in range(12))])
    assert op_group(action).orbit(0) == frozenset(range(12))
    assert tr_action_group(action).orbit(0) == frozenset({0})


def test_criterion_10_coloring_oracle():
    """criterion 10: coloring counts match exhaustive brute force on the reference knots"""
    start = time.monotonic()

    def brute(diagram, quandle):
        rels = diagram.relations()
        total = 0
        for assign in product(range(quandle.size), repeat=diagram.class_count):
            if all(assign[uo] == (quandle.op[assign[o]][assign[ui]] if s > 0
                                  else quandle.inv_op[assign[o]][assign[ui]])
                   for o, ui, uo, s in rels):
                total += 1
        return total

    trefoil = parse_pd(TREFOIL_PD)
    r3 = dihedral(3)
    assert count_colorings(trefoil, r3).total == 9 == brute(trefoil, r3)

    fig8 = parse_pd(FIGURE8_PD)
    r5 = dihedral(5)
    assert count_colorings(fig8, r5).total == 25 == brute(fig8, r5)
    assert count_colorings(parse_braid("s1 s2' s1 s2'", 3), r5).total == 25

    unknot = parse_braid("", 1)
    s3 = FiniteGroup.symmetric(3)
    for q in (r3, r5, trivial(7), conjugation(s3), conj_class(s3, 1)):
        assert count_colorings(unknot, q).total == q.size

    for diagram in (trefoil, fig8):
        for n in (2, 4, 9):
            assert count_colorings(diagram, trivial(n)).total == n
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"coloring suite took {elapsed:.1f}s"


def test_criterion_11_thread_determinism(tmp_path):
    """criterion 11: --threads 4 output is byte-identical to --threads 1 for every command"""
    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        code = cli_run(argv, stdout=out, stderr=err)
        return code, out.getvalue()

    _, r5_text = invoke(["make", "dihedral", "--n", "5"])
    r5 = tmp_path / "r5.json"
    r5.write_text(r5_text)
    _, r3_text = invoke(["make", "dihedral", "--n", "3"])
    r3 = tmp_path / "r3.json"
    r3.write_text(r3_text)
    pd = tmp_path / "tre.pd"
    pd.write_text(TREFOIL_PD)
    act = tmp_path / "act.json"
    act.write_text(json.dumps({"set_size": 6,
                               "act": [[(x + 1) % 6 for x in range(6)]]}))
    t1 = tmp_path / "t1.json"
    _, t1_text = invoke(["make", "trivial", "--n", "1"])
    t1.write_text(t1_text)
    d = tmp_path / "dir"
    d.mkdir()
    (d / "r5.json").write_text(r5_text)

    argvs = [
        ["make", "alexander", "--p", "5", "--a", "3"],
        ["check", str(r5), "--json"],
        ["orbits", str(r5), "--json"],
        ["inn", str(r5), "--json"],
        ["tr", str(r5), "--json"],
        ["connected", str(r5), "--json"],
        ["aut", str(r5), "--json"],
        ["iso", str(r5), str(r3), "--json"],
        ["realize", str(r5), "--json"],
        ["sbar", str(r5), "--json"],
        ["report", str(r5), "--json"],
        ["survey", str(d), "--json"],
        ["color", "--diagram", str(pd), "--quandle", str(r3), "--by-orbit", "--json"],
        ["action", "--quandle", str(t1), "--action", str(act), "--json"],
    ]
    for argv in argvs:
        code1, out1 = invoke(argv + ["--threads", "1"])
        code4, out4 = invoke(argv + ["--threads", "4"])
        assert code1 == code4 == 0, argv
        assert out1 == out4, argv
