import io
import itertools
import json
import random
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandles.groups as groups_module
from quandles import alexander, inn, tr, validate
from quandles.groups import (DEFAULT_CAP, CapExceeded, CosetSpace,
                             CycleParseError, FiniteGroup, GroupAutomorphism,
                             GroupError, NotASubgroup, NotAnAutomorphism,
                             PermutationGroup,
                             all_automorphisms, close, compose,
                             conjugacy_class, cosets,
                             cycle_type, fixed_subgroup, format_cycles,
                             identity_perm, invert, is_permutation,
                             matrix_group_sl2, parse_cycles,
                             parse_generator_lines, perm_cycles, walk)

from corpus_util import cli_peak_mb, python_peak_mb, small_corpus


def test_compose_and_invert():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == (1, 0, 2)  # p after q
    assert compose(invert(p), p) == identity_perm(3)
    assert cycle_type(p) == (3,) and cycle_type(q) == (1, 2)
    assert perm_cycles(p) == [(0, 1, 2)]


# -- closure ------------------------------------------------------------------

def test_close_empty():
    grp = close([], domain_size=5)
    assert grp.order == 1 and grp.elements == (identity_perm(5),)


def test_close_cyclic():
    grp = close([(1, 2, 0)])
    assert grp.order == 3


def test_close_dihedral_rows():
    rows = [(0, 2, 1), (2, 1, 0), (1, 0, 2)]
    grp = close(rows)
    assert grp.order == 6
    assert grp.is_transitive()


def test_close_order_independent():
    rows = [(0, 2, 1), (2, 1, 0), (1, 0, 2)]
    for perm in itertools.permutations(rows):
        assert set(close(list(perm)).elements) == set(close(rows).elements)


def test_close_cap():
    with pytest.raises(CapExceeded):
        close([(1, 2, 0), (0, 2, 1)], cap=3)


def test_close_mixed_domains():
    with pytest.raises(GroupError):
        close([(1, 0), (1, 2, 0)])


def _bfs_closure(gens, m, cap=DEFAULT_CAP):
    """Reference closure: every generator times every element, breadth-first."""
    ident = identity_perm(m)
    els, frontier = {ident}, [ident]
    for b in frontier:
        for g in gens:
            c = compose(g, b)
            if c not in els:
                if len(els) >= cap:
                    raise CapExceeded(f"group closure exceeded cap of {cap} elements")
                els.add(c)
                frontier.append(c)
    return sorted(els)


def _outcome(closure):
    """Sorted elements, or the CapExceeded message."""
    try:
        return list(closure())
    except CapExceeded as exc:
        return str(exc)


@st.composite
def _generator_lists(draw):
    """Generators on at most 6 points, padded with the identity, repeats and
    products of earlier generators, in any order."""
    m = draw(st.integers(1, 6))
    gens = [tuple(p) for p in draw(st.lists(st.permutations(range(m)), max_size=4))]
    extra = [identity_perm(m)] + gens + [compose(p, q) for p in gens for q in gens]
    gens += draw(st.lists(st.sampled_from(extra), max_size=4))
    return m, draw(st.permutations(gens))


@settings(max_examples=300, deadline=None)
@given(_generator_lists())
def test_close_matches_the_bfs_oracle(case):
    m, gens = case
    want = _bfs_closure(gens, m)
    assert list(close(gens, domain_size=m).elements) == want
    order = len(want)
    for cap in {order, order - 1} - {0}:
        got = _outcome(lambda: close(gens, cap=cap, domain_size=m).elements)
        assert got == _outcome(lambda: _bfs_closure(gens, m, cap))
        assert got == (f"group closure exceeded cap of {cap} elements"
                       if order > cap else want)


@pytest.mark.parametrize("name,q", small_corpus())
def test_inn_and_tr_match_the_bfs_oracle(name, q):
    for grp in (inn(q), tr(q)):
        assert list(grp.elements) == _bfs_closure(grp.generators, q.size)


def test_inn_closure_composes_about_once_per_element(monkeypatch):
    # a breadth-first closure over all 343 generators of Inn composed each
    # with every element, about 353k compositions
    q = alexander(7, 3, 2)
    calls = 0

    def counting_compose(p, r):
        nonlocal calls
        calls += 1
        return compose(p, r)

    monkeypatch.setattr(groups_module, "compose", counting_compose)
    grp = inn(q)
    assert grp.order == 1029 and len(grp.generators) == 343
    assert calls < 5 * 1029


def _transposition_table(n):
    """Conjugation on the transpositions of S_n, as pairs in lexicographic order."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}

    def swap(a, x):
        return a[1] if x == a[0] else a[0] if x == a[1] else x
    return [[index[tuple(sorted(swap(a, x) for x in b))] for b in pairs] for a in pairs]


def test_inn_fails_fast_at_the_default_cap(tmp_path):
    # the 45 transpositions of S_10, whose Inn is S_10 of order 10! > 10^6:
    # the closure must stop at the cap, not list the group first.  A
    # breadth-first closure took 58 s and 613 MB; Dimino's stops after two
    # cosets of S_9 (3.9 s, 380 MB measured on a 2-core x86-64 Linux VM)
    assert inn(validate(_transposition_table(4))).order == 24
    path = tmp_path / "t10.json"
    path.write_text(json.dumps({"size": 45, "table": _transposition_table(10)}))
    code, peak_mb, err = cli_peak_mb("inn", str(path))
    assert code == 1
    assert "cap of 1000000" in err
    assert peak_mb < 500


def test_orbits_without_closure():
    grp = close([(1, 0, 2, 3), (0, 1, 3, 2)])
    assert grp.orbits() == [frozenset({0, 1}), frozenset({2, 3})]


# -- the orbit walk -------------------------------------------------------------

def _deque_walk(maps, roots, reached):
    """The reference: a one-at-a-time BFS from the roots in increasing
    order, each point's images in map order."""
    out = []
    queue = deque()
    for r in sorted(roots):
        if not reached[r]:
            reached[r] = True
            out.append((r, -1, -1))
            queue.append(r)
    while queue and not all(reached):
        x = queue.popleft()
        for g, row in enumerate(maps):
            y = row[x]
            if not reached[y]:
                reached[y] = True
                out.append((y, x, g))
                queue.append(y)
    return out


@st.composite
def _walks(draw):
    """Any maps of {0..m-1} to itself (not only permutations), roots with
    repeats, and points already reached."""
    m = draw(st.integers(1, 8))
    point = st.integers(0, m - 1)
    maps = draw(st.lists(st.lists(point, min_size=m, max_size=m), max_size=4))
    return (m, maps, draw(st.lists(point, min_size=1, max_size=4)),
            draw(st.lists(st.booleans(), min_size=m, max_size=m)))


@settings(max_examples=300, deadline=None)
@given(_walks())
def test_walk_matches_the_one_at_a_time_bfs(case):
    m, maps, roots, mask = case
    reached = np.array(mask)
    want_reached = list(mask)
    want = _deque_walk(maps, roots, want_reached)
    got = walk(np.array(maps, dtype=np.int64).reshape(len(maps), m), roots, reached)
    assert list(zip(*(a.tolist() for a in got))) == want
    assert reached.tolist() == want_reached


class _LevelCounter(np.ndarray):
    """Maps that count the levels a walk expands (its ``maps[:, level]``)."""
    levels = 0

    def __getitem__(self, key):
        if isinstance(key, tuple) and key[0] == slice(None):
            _LevelCounter.levels += 1
        return np.asarray(super().__getitem__(key))


def test_walk_stops_once_every_point_is_reached():
    # the cycle 0 -> 1 -> 2 -> 0 from 0: levels {0} and {1} are expanded,
    # and {2}, which completes the mask, is not
    maps = np.array([[1, 2, 0]]).view(_LevelCounter)
    _LevelCounter.levels = 0
    points, parent, via = walk(maps, [0])
    assert points.tolist() == [0, 1, 2]
    assert parent.tolist() == [-1, 0, 1] and via.tolist() == [-1, 0, 0]
    assert _LevelCounter.levels == 2
    assert walk(maps, [0], np.ones(3, dtype=bool))[0].tolist() == []
    assert _LevelCounter.levels == 2


def test_walk_rejects_roots_out_of_range():
    maps = np.array([[1, 0, 2]])
    for bad in (-1, 3):
        with pytest.raises(GroupError, match=f"point {bad} out of range for 3 points"):
            walk(maps, [0, bad])


def test_orbit_of_a_point_out_of_range():
    grp = PermutationGroup(5, [(1, 2, 3, 4, 0)])
    for bad in (-1, 5):
        with pytest.raises(GroupError):
            grp.orbit(bad)


def _pair_closure(g, subset):
    """The reference: a BFS over products on both sides and inverses."""
    s = set(subset) | {g.identity}
    frontier = deque(s)
    while frontier:
        a = frontier.popleft()
        for b in list(s):
            for c in (g.mul(a, b), g.mul(b, a)):
                if c not in s:
                    s.add(c)
                    frontier.append(c)
        i = g.inv(a)
        if i not in s:
            s.add(i)
            frontier.append(i)
    return tuple(sorted(s))


def test_subgroup_closure_matches_the_pair_bfs_on_s4():
    s4 = FiniteGroup.symmetric(4)
    rng = random.Random(0)
    subsets = [()] + [(a,) for a in range(24)] + list(itertools.combinations(range(24), 2))
    subsets += [tuple(rng.sample(range(24), k)) for k in (3, 4, 5) for _ in range(40)]
    for sub in subsets:
        got = s4.subgroup_closure(sub)
        assert got == _pair_closure(s4, sub), sub
        assert s4.is_subgroup(got)


def test_subgroup_closure_rejects_elements_out_of_range():
    s3 = FiniteGroup.symmetric(3)
    for bad in (-1, 6):
        with pytest.raises(GroupError, match=f"element {bad} out of range for order 6"):
            s3.subgroup_closure({1, bad})


# -- explicit groups ----------------------------------------------------------

def test_from_table_validation():
    z3 = FiniteGroup.cyclic(3)
    assert z3.identity == 0 and z3.inv(1) == 2
    with pytest.raises(GroupError):
        FiniteGroup.from_table([[1, 0], [1, 0]])  # no identity
    with pytest.raises(GroupError):
        FiniteGroup.from_table([[0, 1], [1, 2]])  # out of range
    # non-associative latin square with identity: order 5 loop
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(GroupError):
        FiniteGroup.from_table(loop)


def test_associativity_witness_really_fails():
    # a commutative table on 65 elements with identity 0 that is not associative
    n = 65
    table = [[(a + b + a * b * (a + b)) % n for b in range(n)] for a in range(n)]
    with pytest.raises(GroupError, match="not associative") as err:
        FiniteGroup.from_table(table)
    a, b, c = (int(x) for x in str(err.value).split("at (")[1].rstrip(")").split(","))
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_associativity_is_checked_exhaustively_above_order_64():
    # C_1000 with two products of row 5 swapped; 20000 random triples miss it
    n = 1000
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    table[5][7], table[5][11] = table[5][11], table[5][7]
    with pytest.raises(GroupError, match="not associative"):
        FiniteGroup.from_table(table)


def _first_nonassociative(table):
    """Reference for Light's test: grow S by the least element not reached
    from the identity (0 here) by right products with S, then scan (x, s, y)
    for s in S in that order, (x, y) row-major."""
    n, gens, reached = len(table), [], {0}
    while len(reached) < n:
        gens.append(min(set(range(n)) - reached))
        stack = list(reached)
        while stack:
            x = stack.pop()
            for s in gens:
                if table[x][s] not in reached:
                    reached.add(table[x][s])
                    stack.append(table[x][s])
    return next(((x, s, y) for s in gens for x in range(n) for y in range(n)
                 if table[table[x][s]][y] != table[x][table[s][y]]), None)


def test_associativity_check_names_the_first_failing_triple():
    tables = [[[(a + b + a * b * (a + b)) % n for b in range(n)] for a in range(n)]
              for n in (5, 65)]
    # the order-5 loop times C_3: 1 generates the associative factor, so the
    # first failure is at the second element of S
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    tables.append([[loop[a // 3][b // 3] * 3 + (a + b) % 3 for b in range(15)]
                   for a in range(15)])
    for table in tables:
        expected = _first_nonassociative(table)
        assert expected is not None
        with pytest.raises(GroupError, match=re.escape(f"not associative at {expected}")):
            FiniteGroup.from_table(table)


def _right_generators(t, ident):
    """The reference: elements s_1, s_2, ... of the table ``t``, each the
    least element not yet reached from ``ident`` by right products with the
    earlier ones, until every element is reached."""
    gens = []
    while True:
        reached = np.zeros(len(t), dtype=bool)
        walk(t.T[gens], [ident], reached)
        if reached.all():
            return
        gens.append(int(np.argmin(reached)))
        yield gens[-1]


def _small_group_tables():
    d5 = [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)]
    c2_cubed = [[a ^ b for b in range(8)] for a in range(8)]
    return [FiniteGroup.symmetric(3).table.tolist(), FiniteGroup.symmetric(4).table.tolist(),
            FiniteGroup.cyclic(8).table.tolist(), FiniteGroup.cyclic(12).table.tolist(),
            c2_cubed, FiniteGroup.from_permutations(d5).table.tolist()]


_SMALL_GROUP_TABLES = _small_group_tables()   # S3, S4, C8, C12, C2^3, D5


def _from_table_outcome(table):
    try:
        return FiniteGroup.from_table(table).table.tolist()
    except GroupError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_from_table_matches_right_products_on_swapped_tables(data):
    table = [row[:] for row in data.draw(st.sampled_from(_SMALL_GROUP_TABLES))]
    n = len(table)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for _ in range(data.draw(st.integers(1, 3))):
        (a, b), (c, d) = data.draw(cell), data.draw(cell)
        table[a][b], table[c][d] = table[c][d], table[a][b]
    got = _from_table_outcome(table)
    real = groups_module._chain
    groups_module._chain = lambda t, order, seed: ((s, None) for s in _right_generators(t, seed[0]))
    try:
        want = _from_table_outcome(table)
    finally:
        groups_module._chain = real
    assert got == want
    zero_is_identity = table[0] == [row[0] for row in table] == list(range(n))
    if zero_is_identity and "not associative" in str(got):
        assert got == f"multiplication is not associative at {_first_nonassociative(table)}"


def test_from_table_takes_every_group_table():
    for table in _SMALL_GROUP_TABLES:
        assert _from_table_outcome(table) == table


def test_symmetric_group():
    s4 = FiniteGroup.symmetric(4)
    assert s4.order == 24
    assert s4.elements[s4.identity] == (0, 1, 2, 3)
    assert not s4.is_abelian()
    assert FiniteGroup.cyclic(8).is_abelian()


def test_element_order():
    s3 = FiniteGroup.symmetric(3)
    orders = sorted(s3.element_order(i) for i in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


def test_subgroup_closure_and_check():
    s3 = FiniteGroup.symmetric(3)
    t = s3.elements.index((1, 0, 2))
    sub = s3.subgroup_closure({t})
    assert len(sub) == 2 and s3.is_subgroup(sub)
    assert s3.subgroup_witness((t,)) is not None


def test_subgroup_witness_names_the_least_offender():
    z6 = FiniteGroup.cyclic(6)
    assert z6.subgroup_witness((0, 9, 3, -1)) == ("out-of-range", -1)
    assert z6.subgroup_witness((0, 3, 9)) == ("out-of-range", 9)
    assert z6.subgroup_witness((0, 4, 2, 1)) == ("inverse", 1)
    assert z6.subgroup_witness((0, 5, 3, 1)) == ("product", 1, 1)   # 1+1, 1+3 leave
    assert z6.subgroup_witness((0, 4, 2)) is None


def test_group_json_round_trip():
    s3 = FiniteGroup.symmetric(3)
    again = FiniteGroup.from_dict(s3.to_dict())
    assert again.order == 6
    assert all(again.mul(i, j) == s3.mul(i, j) for i in range(6) for j in range(6))


# -- automorphisms ------------------------------------------------------------

def test_fixed_subgroup_identity():
    z5 = FiniteGroup.cyclic(5)
    phi = GroupAutomorphism(z5, identity_perm(5))
    assert fixed_subgroup(z5, phi) == (0, 1, 2, 3, 4)


def test_fixed_subgroup_doubling():
    z5 = FiniteGroup.cyclic(5)
    phi = GroupAutomorphism(z5, tuple((2 * x) % 5 for x in range(5)))
    assert fixed_subgroup(z5, phi) == (0,)


def test_fixed_subgroup_conjugation():
    s3 = FiniteGroup.symmetric(3)
    t = s3.elements.index((1, 0, 2))
    phi = GroupAutomorphism(s3, tuple(s3.conj(t, x) for x in range(6)))
    assert fixed_subgroup(s3, phi) == (s3.identity, t)


def test_not_an_automorphism():
    z4 = FiniteGroup.cyclic(4)
    with pytest.raises(NotAnAutomorphism):
        GroupAutomorphism(z4, (0, 2, 1, 3))  # not multiplicative
    with pytest.raises(NotAnAutomorphism):
        GroupAutomorphism(z4, (1, 0, 3, 2))  # moves identity
    with pytest.raises(NotAnAutomorphism):
        GroupAutomorphism(z4, (0, 0, 2, 2))  # not a bijection


def test_automorphism_map_is_one_read_only_array():
    s3 = FiniteGroup.symmetric(3)
    t = s3.elements.index((1, 0, 2))
    phi = GroupAutomorphism(s3, [s3.conj(t, x) for x in range(6)])
    assert phi.mapping.dtype == np.int64 and not phi.mapping.flags.writeable
    assert type(phi(4)) is int
    assert phi.fixed_points() == tuple(i for i in range(6) if phi(i) == i)
    z4 = FiniteGroup.cyclic(4)
    for bad in ([0, 3, 2, True], [0, 3.0, 2, 1], [0, 3, 2, 2**70], [0, 3, 2, -1],
                [0, 3, 2], [0, 3, 2, 1, 4], np.array([0, 3, 2, 9])):
        with pytest.raises(NotAnAutomorphism, match="not a bijection"):
            GroupAutomorphism(z4, bad)
    assert GroupAutomorphism(z4, np.array([0, 3, 2, 1])).fixed_points() == (0, 2)


def test_all_automorphisms_s3():
    s3 = FiniteGroup.symmetric(3)
    autos = all_automorphisms(s3)
    assert len(autos) == 6
    z8 = FiniteGroup.cyclic(8)
    assert len(all_automorphisms(z8)) == 4  # units mod 8


# -- cosets -------------------------------------------------------------------

def test_cosets_whole_and_trivial():
    s3 = FiniteGroup.symmetric(3)
    assert cosets(s3, range(6)).count == 1
    cs = cosets(s3, (s3.identity,))
    assert cs.count == 6 and cs.reps == tuple(range(6))


def test_cosets_s3_by_transposition():
    s3 = FiniteGroup.symmetric(3)
    t = s3.elements.index((1, 0, 2))
    cs = CosetSpace(s3, (s3.identity, t))
    assert cs.count == 3
    # reps are minima and pairwise in distinct cosets
    for k, rep in enumerate(cs.reps):
        assert cs.index_of[rep] == k
        assert rep == min(cs.cosets[k])
    # element -> (coset, position) is a bijection
    seen = {(cs.index_of[g], cs.cosets[cs.index_of[g]].index(g)) for g in range(6)}
    assert len(seen) == 6
    assert cs.count * len(cs.subgroup) == s3.order


def test_cosets_rejects_non_subgroup():
    s3 = FiniteGroup.symmetric(3)
    with pytest.raises(NotASubgroup):
        CosetSpace(s3, (s3.identity, s3.elements.index((1, 2, 0))))


# -- conjugacy classes and SL2 -------------------------------------------------

def test_conjugacy_class_abelian():
    z8 = FiniteGroup.cyclic(8)
    assert conjugacy_class(z8, 5) == (5,)


def test_conjugacy_class_s3():
    s3 = FiniteGroup.symmetric(3)
    t = s3.elements.index((1, 0, 2))
    cls = conjugacy_class(s3, t)
    assert len(cls) == 3
    assert all(s3.element_order(x) == 2 for x in cls)


def test_sl2_orders():
    assert matrix_group_sl2(2).order == 6
    assert matrix_group_sl2(3).order == 24
    assert matrix_group_sl2(5).order == 120
    g = matrix_group_sl2(3)
    assert g.elements[g.identity] == (1, 0, 0, 1)
    with pytest.raises(GroupError):
        matrix_group_sl2(4)
    with pytest.raises(GroupError):
        matrix_group_sl2(17)


def test_sl2_unipotent_class_size():
    g = matrix_group_sl2(3)
    j1 = g.elements.index((1, 1, 0, 1))
    assert len(conjugacy_class(g, j1)) == 4
    g5 = matrix_group_sl2(5)
    j1 = g5.elements.index((1, 1, 0, 1))
    assert len(conjugacy_class(g5, j1)) == 12


# -- cycle notation ------------------------------------------------------------

def test_parse_cycles_basic():
    assert parse_cycles("(0 1 2)(3 4)") == (1, 2, 0, 4, 3)
    assert parse_cycles("( 0 1 )  ( 2 3 )") == (1, 0, 3, 2)
    assert parse_cycles("", domain_size=4) == (0, 1, 2, 3)
    assert parse_cycles("(1 3)", domain_size=6) == (0, 3, 2, 1, 4, 5)


def test_parse_cycles_errors():
    with pytest.raises(CycleParseError):
        parse_cycles("(0 1")
    with pytest.raises(CycleParseError):
        parse_cycles("0 1 2")
    with pytest.raises(CycleParseError) as exc:
        parse_cycles("(0 1)(1 2)")
    assert "repeated point 1" in str(exc.value)
    assert exc.value.column is not None
    with pytest.raises(CycleParseError):
        parse_cycles("(0 9)", domain_size=3)
    with pytest.raises(CycleParseError):
        parse_cycles("")  # identity with unknown domain


def test_parse_generator_lines():
    text = "(0 1 2)(3 4)\n\n(0 4)\n"
    perms = parse_generator_lines(text)
    assert perms[0] == (1, 2, 0, 4, 3)
    assert perms[1] == (0, 1, 2, 3, 4)  # blank line is the identity
    assert perms[2] == (4, 1, 2, 3, 0)
    with pytest.raises(CycleParseError) as exc:
        parse_generator_lines("(0 1)\n(2 2)")
    assert exc.value.line == 2


def test_format_cycles_round_trip():
    for p in [(1, 2, 0, 4, 3), (0, 1, 2), (1, 0)]:
        text = format_cycles(p)
        assert parse_cycles(text, domain_size=len(p)) == p
    assert format_cycles((0, 1, 2)) == ""


def test_sl2_table_matches_matrix_products():
    g = matrix_group_sl2(11)
    assert g.order == 1320
    a, b = 17, 905
    ma, mb = g.elements[a], g.elements[b]
    prod = ((ma[0] * mb[0] + ma[1] * mb[2]) % 11, (ma[0] * mb[1] + ma[1] * mb[3]) % 11,
            (ma[2] * mb[0] + ma[3] * mb[2]) % 11, (ma[2] * mb[1] + ma[3] * mb[3]) % 11)
    assert g.elements[g.mul(a, b)] == prod
    assert g.mul(g.identity, a) == a
    assert g.mul(a, g.inv(a)) == g.identity
    # the whole table, against 2x2 products mod 11 looked up by matrix
    index = {m: i for i, m in enumerate(g.elements)}
    table = g.table.tolist()
    for i, (p, q, r, s) in enumerate(g.elements):
        row = table[i]
        for j, (t, u, v, w) in enumerate(g.elements):
            prod = ((p * t + q * v) % 11, (p * u + q * w) % 11,
                     (r * t + s * v) % 11, (r * u + s * w) % 11)
            assert row[j] == index[prod]


def test_permutation_backed_group_multiplies_consistently():
    s4 = FiniteGroup.symmetric(4)
    for i in (0, 3, 17):
        for j in (1, 5, 23):
            expected = s4.elements.index(compose(s4.elements[i], s4.elements[j]))
            assert s4.mul(i, j) == expected
    assert is_permutation(invert(s4.elements[7]))


# -- the array-backed table -----------------------------------------------------

def _oracle_table(elements):
    """Products by composing the permutations and looking them up by value."""
    index = {p: i for i, p in enumerate(elements)}
    return [[index[compose(a, b)] for b in elements] for a in elements]


def _transposition(a, b, m):
    p = list(range(m))
    p[a], p[b] = b, a
    return tuple(p)


def _cycle(start, length, m):
    """The cycle (start start+1 ... start+length-1) on m points."""
    p = list(range(m))
    for i in range(length):
        p[start + i] = start + (i + 1) % length
    return tuple(p)


def test_symmetric_group_matches_lexicographic_permutations():
    s5 = FiniteGroup.symmetric(5)
    perms = tuple(itertools.permutations(range(5)))
    assert s5.elements == perms
    assert s5.labels == tuple(format_cycles(p) or "()" for p in perms)
    assert s5.table.tolist() == _oracle_table(perms)
    assert all(s5.mul(i, s5.inv(i)) == s5.identity for i in range(s5.order))


def test_transvection_group_table_matches_oracle():
    from quandles import tr, unipotent_class_quandle
    g = FiniteGroup.from_permutation_group(tr(unipotent_class_quandle(7)))
    assert g.table.tolist() == _oracle_table(g.elements)


@pytest.mark.parametrize("m", [1000, 1024])
def test_long_base_on_a_large_domain_matches_oracle(m):
    # (Z/2)^7 needs a base of 7 points, and m**7 overflows int64.  On 1024
    # points a radix key wraps to the low 4 bits of its first image, so the
    # transposition (100 116) would look like the identity; re-ranked keys
    # stay below order * m
    gens = [_transposition(100 + 40 * i, 116 + 40 * i, m) for i in range(7)]
    g = FiniteGroup.from_permutations(gens)
    assert g.order == 2**7
    table = g.table.tolist()
    assert table == _oracle_table(g.elements)
    assert all(type(x) is int for x in g.to_dict()["mul"][5])  # JSON-safe Python ints
    assert type(g.mul(3, 4)) is int and type(g.inv(3)) is int


def test_automorphism_check_is_exhaustive_with_first_witness():
    # SL2(F_13) has order 2184: n^2 = 4.8 million pairs are all compared
    g = matrix_group_sl2(13)
    x, y = [i for i in range(g.order) if i != g.identity][:2]
    m = list(range(g.order))
    m[x], m[y] = y, x
    with pytest.raises(NotAnAutomorphism) as exc:
        GroupAutomorphism(g, m)
    a, b = exc.value.witness
    assert m[g.mul(a, b)] != g.mul(m[a], m[b])
    for i in range(a + 1):
        for j in range(g.order if i < a else b):
            assert m[g.mul(i, j)] == g.mul(m[i], m[j]), (i, j)


def test_group_order_limit_fails_fast(tmp_path):
    from quandles.cli import run
    from quandles.groups import MAX_GROUP_ORDER
    assert MAX_GROUP_ORDER == 4096
    gens = [_cycle(0, 64, 129), _cycle(64, 65, 129)]  # C64 x C65, order 4160
    with pytest.raises(CapExceeded, match="limit of 4096"):
        FiniteGroup.from_permutations(gens)
    path = tmp_path / "gens.txt"
    path.write_text("\n".join(format_cycles(p) for p in gens) + "\n")
    out, err = io.StringIO(), io.StringIO()
    assert run(["make", "conj", "--gens", str(path)], stdout=out, stderr=err) == 1
    assert "group order 4160 exceeds the limit of 4096" in err.getvalue()
    assert out.getvalue() == ""


_C64_X_C64 = """
from quandles.groups import MAX_GROUP_ORDER, FiniteGroup
def cycle(start):
    return tuple(start + (i - start + 1) % 64 if start <= i < start + 64 else i
                 for i in range(128))
g = FiniteGroup.from_permutations([cycle(0), cycle(64)])
assert g.order == MAX_GROUP_ORDER == 4096
assert g.is_abelian() and g.mul(g.inv(4095), 4095) == g.identity
"""


def test_group_table_at_the_order_limit():
    # C64 x C64 has order MAX_GROUP_ORDER itself, so its table is built:
    # 2.1 s and 566 MB measured on a 2-core x86-64 Linux VM.  A Python-int
    # copy of the table next to the array raised the peak to 903 MB
    code, peak_mb, err = python_peak_mb("-c", _C64_X_C64)
    assert code == 0, err
    assert peak_mb < 750


def test_table_refuses_elements_not_closed_under_composition():
    from quandles.groups import PermutationGroup
    els = ((0, 1, 2), (1, 2, 0))  # the 3-cycle without its square
    with pytest.raises(GroupError, match="not closed"):
        FiniteGroup.from_permutation_group(PermutationGroup(3, els, _elements=els))
