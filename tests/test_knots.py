import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles import (FiniteGroup, InconsistentArcs, KnotDiagram, alexander, conj_class,
                      conjugation, count_colorings, dihedral, invariance_check,
                      orbits, parse_braid, parse_pd, trivial, validate)
import quandles.knots as knots
from quandles.knots import ParseError

from corpus_util import python_peak_mb

TREFOIL_PD = "X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]"
FIGURE8_PD = "X[4,1,5,2];X[2,8,3,7];X[8,5,1,6];X[6,4,7,3]"


def brute_force_count(diagram, quandle, colors=None):
    """Independent oracle: enumerate all class colorings and filter."""
    colors = list(colors if colors is not None else range(quandle.size))
    rels = diagram.relations()
    k = diagram.class_count
    total = 0
    for assign in product(colors, repeat=k):
        ok = True
        for o, ui, uo, s in rels:
            row = quandle.op[assign[o]] if s > 0 else quandle.inv_op[assign[o]]
            if assign[uo] != row[assign[ui]]:
                ok = False
                break
        if ok:
            total += 1
    return total


# -- parsing -------------------------------------------------------------------

def test_parse_trefoil():
    d = parse_pd(TREFOIL_PD)
    assert len(d.crossings) == 3
    assert d.arc_count == 6
    assert d.component_count == 1
    assert d.class_count == 3


def test_parse_pd_whitespace_and_comments():
    text = """
    # the trefoil
    X[1,4,2,5] ;
    X[3,6,4,1];  # middle crossing
    X[5,2,6,3]
    """
    d = parse_pd(text)
    assert len(d.crossings) == 3 and d.arc_count == 6


def test_parse_pd_empty_is_error():
    with pytest.raises(ParseError):
        parse_pd("")
    with pytest.raises(ParseError):
        parse_pd("# nothing here")


def test_parse_pd_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse_pd("X[1,4,2,5];\nY[3,6,4,1]")
    assert exc.value.line == 2


def test_parse_pd_inconsistent_arcs():
    with pytest.raises(InconsistentArcs) as exc:
        parse_pd("X[1,4,2,5];X[3,6,4,1];X[5,2,6,4]")
    assert 3 in exc.value.duplicated or exc.value.missing


def test_parse_pd_ambiguous_over_direction():
    # with two arcs, both b -> d and d -> b read as successors: rejected
    with pytest.raises(ParseError) as exc:
        parse_pd("X[1,1,2,2]")
    assert "ambiguous" in str(exc.value)
    # equal over labels cannot orient the over-strand either
    with pytest.raises(ParseError) as exc:
        parse_pd("X[1,2,1,2]")
    assert "not consecutive" in str(exc.value)


def test_parse_pd_signs():
    d = parse_pd(TREFOIL_PD)
    assert all(c.sign == 1 for c in d.crossings)
    d8 = parse_pd(FIGURE8_PD)
    assert sorted(c.sign for c in d8.crossings) == [-1, -1, 1, 1]


def test_parse_braid_trefoil_matches_pd():
    braid = parse_braid("s1 s1 s1", 2)
    assert len(braid.crossings) == 3 and braid.arc_count == 6
    assert braid.component_count == 1
    assert invariance_check(braid, parse_pd(TREFOIL_PD), dihedral(3))


def test_parse_braid_unknot():
    d = parse_braid("", 1)
    assert d.arc_count == 1 and not d.crossings and d.component_count == 1


def test_parse_braid_identity_closure_is_unlink():
    d = parse_braid("s1 s1'", 2)
    assert d.component_count == 2
    assert count_colorings(d, trivial(4)).total == 16  # n per component


def test_parse_braid_errors():
    with pytest.raises(ParseError):
        parse_braid("s1 x2", 3)
    with pytest.raises(ParseError):
        parse_braid("s5", 3)
    with pytest.raises(ParseError):
        parse_braid("s1", 0)


def test_diagram_validation():
    from quandles.knots import Crossing
    with pytest.raises(InconsistentArcs):
        KnotDiagram((Crossing(0, 1, 2, 3, 1), Crossing(0, 1, 2, 3, 1)), 4)
    with pytest.raises(InconsistentArcs):
        KnotDiagram((Crossing(0, 1, 2, 9, 1),), 4)


# -- coloring counts -----------------------------------------------------------

def test_trefoil_three_colorings():
    d = parse_pd(TREFOIL_PD)
    assert count_colorings(d, dihedral(3)).total == 9
    assert count_colorings(d, dihedral(3)).total == brute_force_count(d, dihedral(3))


def test_figure_eight_counts():
    d = parse_pd(FIGURE8_PD)
    assert count_colorings(d, dihedral(5)).total == 25
    assert count_colorings(d, dihedral(3)).total == 3  # constants only
    braid = parse_braid("s1 s2' s1 s2'", 3)
    assert count_colorings(braid, dihedral(5)).total == 25


def test_unknot_counts():
    u = KnotDiagram.unknot()
    for q in (trivial(3), dihedral(5), conjugation(FiniteGroup.symmetric(3))):
        assert count_colorings(u, q).total == q.size


def test_trivial_quandle_counts_components():
    for word, strands in [("s1 s1 s1", 2), ("s1 s1'", 2), ("s1 s2' s1 s2'", 3), ("", 3)]:
        d = parse_braid(word, strands)
        for n in (2, 5):
            assert count_colorings(d, trivial(n)).total == n ** d.component_count


def test_backtracking_matches_brute_force():
    diagrams = [parse_pd(TREFOIL_PD), parse_pd(FIGURE8_PD),
                parse_braid("s1 s1'", 2), parse_braid("s1 s1 s1 s1", 2),
                parse_braid("s1 s2 s1 s2", 3)]
    s3 = FiniteGroup.symmetric(3)
    quandles = [dihedral(3), dihedral(4), dihedral(5), trivial(2),
                conj_class(s3, s3.elements.index((1, 0, 2)))]
    for d in diagrams:
        assert d.arc_count <= 8
        for q in quandles:
            assert count_colorings(d, q).total == brute_force_count(d, q), (d, q)


def test_counts_invariant_under_quandle_relabeling():
    r4 = dihedral(4)
    sigma = (1, 0, 2, 3)  # not an automorphism of R_4, so the table changes
    relabeled = validate(
        [[sigma[r4.op[sigma.index(i)][sigma.index(j)]] for j in range(4)]
         for i in range(4)])
    assert relabeled.op.tolist() != r4.op.tolist()
    d = parse_pd(FIGURE8_PD)
    assert count_colorings(d, r4).total == count_colorings(d, relabeled).total


def test_by_orbit_refinement():
    q = conjugation(FiniteGroup.symmetric(3))
    d = parse_pd(TREFOIL_PD)
    count = count_colorings(d, q, by_orbit=True)
    deco = orbits(q)
    assert len(count.by_orbit) == deco.count
    for orb, c in zip(deco.orbits, count.by_orbit):
        assert c == brute_force_count(d, q, colors=orb)
    assert sum(count.by_orbit) <= count.total


def test_invariance_check():
    d = parse_pd(TREFOIL_PD)
    assert invariance_check(d, d, dihedral(7))
    assert invariance_check(parse_braid("", 1), parse_braid("s1 s1' ", 2),
                            dihedral(3)) is False  # unknot vs 2-unlink differ


# alexander(5, 1, 2) and conj(S3) are not involutory, so they tell op from inv_op
_SMALL_QUANDLES = (dihedral(3), dihedral(4), dihedral(5), trivial(2), trivial(3),
                   alexander(5, 1, 2), conjugation(FiniteGroup.symmetric(3)))


@st.composite
def _braid_words(draw):
    strands = draw(st.integers(1, 4))
    letters = draw(st.lists(st.tuples(st.integers(1, max(strands - 1, 1)), st.booleans()),
                            max_size=8 if strands > 1 else 0))
    return " ".join(f"s{i}'" if inverse else f"s{i}" for i, inverse in letters), strands


@settings(max_examples=200, deadline=None)
@given(_braid_words(), st.data())
def test_counts_match_brute_force_on_random_braids(braid, data):
    # kinks such as s1 s1' included; small enough to enumerate every coloring
    d = parse_braid(*braid)
    q = data.draw(st.sampled_from(
        [q for q in _SMALL_QUANDLES if q.size ** d.class_count <= 10**5]))
    count = count_colorings(d, q, by_orbit=True)
    assert count.total == brute_force_count(d, q)
    assert count.by_orbit == tuple(brute_force_count(d, q, colors=orb)
                                   for orb in orbits(q).orbits)


def test_batches_of_one_row_count_the_same(monkeypatch):
    monkeypatch.setattr(knots, "BATCH_ENTRIES", 0)   # every branch splits to single rows
    q = conjugation(FiniteGroup.symmetric(3))
    for d in (parse_pd(FIGURE8_PD), parse_braid("s1 s2 s1 s2", 3)):
        count = count_colorings(d, q, by_orbit=True)
        assert count.total == brute_force_count(d, q)
        assert count.by_orbit == tuple(brute_force_count(d, q, colors=orb)
                                       for orb in orbits(q).orbits)


_FOUR_COMPONENTS = """
from quandles import FiniteGroup, conjugation, count_colorings, parse_braid
d = parse_braid("s3' s3' s3 s1 s3' s2' s2 s1'", 4)
assert d.component_count == 4
assert count_colorings(d, conjugation(FiniteGroup.symmetric(5))).total == 12096000
"""


def test_four_component_closure_counts_within_bounds():
    # no color is forced from one component into another, so every
    # component branches over all 120 colors of conj(S5)
    start = time.perf_counter()
    code, peak_mb, err = python_peak_mb("-c", _FOUR_COMPONENTS)
    assert code == 0, err
    assert time.perf_counter() - start < 10
    assert peak_mb < 150
