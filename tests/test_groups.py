import functools
import io
import itertools
import json
import random
import re
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quandles.groups as groups_module
import quandles.symmetry as symmetry
from quandles import alexander, dihedral, inn, tr, unipotent_class_quandle, validate
from quandles.groups import (DEFAULT_CAP, CapExceeded, CosetSpace,
                             CycleParseError, FiniteGroup, GroupAutomorphism,
                             GroupError, NotASubgroup, NotAnAutomorphism,
                             PermutationGroup, all_automorphisms, close,
                             conjugacy_class, cycle_type, format_cycles,
                             identity_perm, is_permutation,
                             matrix_group_sl2, parse_cycles,
                             parse_generator_lines, perm_cycles, walk)

import table_route
from corpus_util import cli_peak_mb, corpus_groups, python_peak_mb, small_corpus


def test_compose_and_invert():
    p = np.array((1, 2, 0))
    q = np.array((0, 2, 1))
    assert p[q].tolist() == [1, 0, 2]  # p after q
    assert np.argsort(p)[p].tolist() == list(identity_perm(3))
    assert cycle_type(p.tolist()) == (3,) and cycle_type(q.tolist()) == (1, 2)
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
    """Reference closure: every generator times every element, breadth-first,
    a level at a time (g[b] is g after b)."""
    gens = np.array(gens, dtype=np.int64).reshape(-1, m)
    els = level = {identity_perm(m)}
    while level:
        level = set(map(tuple, gens[:, sorted(level)].reshape(-1, m).tolist())) - els
        if len(els) + len(level) > cap:
            raise CapExceeded(f"group closure exceeded cap of {cap} elements")
        els = els | level
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
    extra = [identity_perm(m)] + gens + [tuple(np.array(p)[list(q)].tolist())
                                         for p in gens for q in gens]
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


def _dimino(gens, m, cap=DEFAULT_CAP):
    """Reference closure by Dimino's algorithm (Butler 1991), as the groups
    module ran it before the stabilizer chain: the sorted elements and the
    indices of the generators that enlarged the group, a generator already
    in it skipped.  The group is listed as whole right cosets prev.r of the
    subgroup it grew from, and the cap is checked before each coset."""
    gens = np.array(gens, dtype=np.int64).reshape(len(gens), m)
    prev, used = np.arange(m)[None], []
    seen = {tuple(range(m))}
    for i, s in enumerate(gens):
        if tuple(s.tolist()) in seen:
            continue
        used.append(i)
        blocks = [prev]
        for block in blocks:   # grows as it is walked
            for t in gens[used]:
                r = block[0][t]
                if tuple(r.tolist()) not in seen:
                    if (len(blocks) + 1) * len(prev) > cap:
                        raise CapExceeded(f"group closure exceeded cap of {cap} elements")
                    blocks.append(prev[:, r])
                    seen.update(map(tuple, blocks[-1].tolist()))
        prev = np.concatenate(blocks)
    return sorted(map(tuple, prev.tolist())), used


def _assert_chain_matches_dimino(gens, m, others=()):
    """Order, sorted elements, generators used, membership of the elements,
    of ``others`` and of what is no permutation of m points, and the cap
    outcome at the order and one below it, against ``_dimino``."""
    grp = close(gens, domain_size=m)
    want, used = _dimino(grp.generators, m)
    assert grp.order == len(want)
    assert grp.used.tolist() == used
    assert all(p in grp for p in want)
    members = set(want)
    assert all((tuple(p) in grp) == (tuple(p) in members) for p in others)
    wrong = [tuple(range(m + 1)), tuple(range(m))[:-1], (m,) + tuple(range(1, m))]
    assert not any(p in grp for p in wrong + ([(0,) * m] if m > 1 else []))
    assert "perms" not in vars(grp)
    assert list(grp.elements) == want
    for cap in {len(want), len(want) - 1} - {0}:
        got = _outcome(lambda: [close(gens, cap=cap, domain_size=m).order])
        assert got == _outcome(lambda: [len(_dimino(grp.generators, m, cap)[0])])
        assert got == ([len(want)] if cap >= len(want)
                       else f"group closure exceeded cap of {cap} elements")


@settings(max_examples=200, deadline=None)
@given(_generator_lists(), st.data())
def test_chain_matches_dimino_on_drawn_generators(case, data):
    m, gens = case
    others = data.draw(st.lists(st.permutations(range(m)), max_size=8))
    _assert_chain_matches_dimino(gens, m, others)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.permutations(range(6)), min_size=1, max_size=4),
       st.lists(st.permutations(range(6)), max_size=20))
def test_chain_matches_dimino_on_subgroups_of_s6(gens, others):
    _assert_chain_matches_dimino([tuple(p) for p in gens], 6, others)


@pytest.mark.parametrize("name,q", small_corpus())
def test_chain_matches_dimino_on_inn_and_tr(name, q):
    every = list(itertools.permutations(range(q.size))) if q.size <= 6 else []
    for grp in (inn(q), tr(q)):
        _assert_chain_matches_dimino(grp.gens, q.size, every)


def _rotation_and_reflection(m):
    """The m-cycle x -> x + 1 and the reflection x -> -x of Z_m, as tuples."""
    return tuple((x + 1) % m for x in range(m)), tuple(-x % m for x in range(m))


@pytest.mark.parametrize("reflect", [False, True])
def test_a_long_first_orbit_on_few_generators(reflect):
    # C_4096 and D_4096: the first orbit is 4096 points along one or two strong
    # generators, a Schreier tree 4095 or 2048 deep, and no generator reaches a
    # point in one step but the base's neighbours.  Reading a transversal along
    # that tree at each sift would cost O(depth) rows; the level keeps its rows,
    # each formed from its parent's by one composition: 0.22 and 0.41 s in
    # process, against 0.13 and 0.30 s when every transversal was stored as the
    # orbit was walked (2-core x86-64 Linux VM)
    rotation, reflection = _rotation_and_reflection(4096)
    gens = [rotation, reflection] if reflect else [rotation]
    start = time.perf_counter()
    grp = close(np.array(gens))
    assert time.perf_counter() - start < 2
    assert grp.order == (8192 if reflect else 4096)
    assert (reflection in grp) == reflect and rotation in grp


@pytest.mark.parametrize("reflect", [False, True])
def test_a_long_first_orbit_matches_dimino(reflect):
    rotation, reflection = _rotation_and_reflection(64)
    gens = [rotation, reflection] if reflect else [rotation]
    rng = random.Random(64)
    others = [reflection, tuple(rng.sample(range(64), 64))]
    others += [tuple((s * x + k) % 64 for x in range(64)) for s in (1, -1, 3) for k in (0, 5)]
    _assert_chain_matches_dimino(gens, 64, others)


def test_queries_leave_the_group_unlisted():
    # order and membership read the chain, orbits walk the generators
    q = alexander(7, 3, 2)
    for grp in (inn(q), tr(q)):
        assert grp.is_transitive() and tuple(grp.gens[5].tolist()) in grp
        assert (tuple(q.op[0].tolist()) in grp) == (grp.order == 1029)   # s_0: in Inn, not Tr
        assert "perms" not in vars(grp) and "elements" not in vars(grp)


def test_the_inn_and_tr_commands_leave_the_group_unlisted(tmp_path, monkeypatch):
    from quandles.cli import run
    path = tmp_path / "a732.json"
    path.write_text(alexander(7, 3, 2).to_json())
    made = []
    for name in ("inn", "tr"):
        monkeypatch.setattr(symmetry, name, lambda *args, build=getattr(symmetry, name), **kw:
                            made.append(build(*args, **kw)) or made[-1])
    for argv in (["inn", path], ["inn", "--json", path], ["tr", path], ["tr", "--json", path]):
        assert run([str(a) for a in argv], stdout=io.StringIO(), stderr=io.StringIO()) == 0
    assert len(made) == 4 and not any("perms" in vars(grp) for grp in made)


def test_inn_composes_under_three_rows_per_element(monkeypatch):
    # a breadth-first closure over all 343 generators of Inn composed each
    # with every element, about 353k compositions.  The chain composes its
    # transversals, forms each Schreier generator s.u_d and sifts it, and
    # sifts each input generator: 2744 rows of 343 points for order 1029,
    # every one through ``_compose_rows``
    q = alexander(7, 3, 2)
    rows = 0
    compose = groups_module._compose_rows

    def counting_compose(p, q, *args):
        nonlocal rows
        rows += len(q)
        return compose(p, q, *args)

    monkeypatch.setattr(groups_module, "_compose_rows", counting_compose)
    grp = inn(q)
    monkeypatch.undo()
    assert grp.order == 1029 and len(grp.generators) == 343
    assert grp.order <= rows < 3 * grp.order


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
    # cosets of S_9: 4.1-4.6 s and 378 MB on tuples, 0.7-0.8 s and 178 MB
    # on arrays (the CLI, measured on a 2-core x86-64 Linux VM)
    assert inn(validate(_transposition_table(4))).order == 24
    path = tmp_path / "t10.json"
    path.write_text(json.dumps({"size": 45, "table": _transposition_table(10)}))
    code, peak_mb, err = cli_peak_mb("inn", str(path))
    assert code == 1
    assert "cap of 1000000" in err
    assert peak_mb < 500


def test_inn_at_scale_peaks_below_the_tuple_closure(tmp_path):
    # Inn(alexander(7, 4, 3)) has order 14406 on 2401 points.  Listing it as
    # tuples peaked at 630-631 MB (6.3 s); as arrays the closure stays under
    # the 447 MB that parsing the 26 MB file costs, as for `check` (2.2-2.9 s,
    # measured on a 2-core x86-64 Linux VM)
    path = tmp_path / "a743.json"
    path.write_text(alexander(7, 4, 3).to_json())
    code, peak_mb, err = python_peak_mb(
        "-c", "import sys; sys.stdout = sys.stderr; from quandles.cli import main; main()",
        "inn", str(path))
    assert code == 0, err
    assert "inn: order 14406 on 2401 points" in err
    assert peak_mb < 560


def test_inn_of_a_2401_point_carrier_lists_no_group(a743_json):
    # Dimino's closure listed Inn, order 14406 on 2401 points, at 263 MB;
    # the chain holds two levels, of 2401 and 6 points
    code, peak_mb, err = cli_peak_mb("inn", str(a743_json))
    assert code == 0, err
    assert peak_mb < 150


def test_inn_of_the_transpositions_of_s10_past_the_default_cap(tmp_path):
    # S_10 of order 10!: Dimino's closure took 3.0-5.5 s and 751 MB to list
    # it under this cap; the chain has eight levels of at most 45 points
    path = tmp_path / "t10.json"
    path.write_text(json.dumps({"size": 45, "table": _transposition_table(10)}))
    start = time.perf_counter()
    code, peak_mb, err = python_peak_mb(
        "-c", "import sys; sys.stdout = sys.stderr; from quandles.cli import main; main()",
        "inn", "--cap", "4000000", str(path))
    assert time.perf_counter() - start < 2
    assert code == 0, err
    assert "inn: order 3628800 on 45 points" in err


_NOT_MEMBERS = [(0, 1), (0, 1, 2, 3), (0, 0, 1), (256, 1, 2), (-1, 1, 2), (1, 0, 2)]


@pytest.mark.parametrize("p", _NOT_MEMBERS)
def test_membership_and_validation_are_exact_at_narrow_dtypes(p):
    # the points fit uint8, where 256 would wrap to 0 and -1 to 255
    grp = close([(1, 2, 0)])
    assert grp.perms.dtype == np.uint8
    assert p not in grp and (0, 1, 2) in grp and (2, 0, 1) in grp
    if len(p) == 3 and p != (1, 0, 2):
        with pytest.raises(GroupError, match=r"^generator .* is not a permutation of 3 points$"):
            PermutationGroup(3, np.array([p, (0, 1, 2)]))


@pytest.mark.parametrize("gen", [(0, True, 2), (0, 1.0, 2), (0, None, 2)])
def test_a_generator_entry_that_is_not_an_int_is_refused(gen):
    # numpy would read True as the point 1
    with pytest.raises(GroupError, match=r"^generator \(0, .*, 2\) is not a permutation of 3 points$"):
        PermutationGroup(3, [(1, 2, 0), gen])


@pytest.mark.parametrize("rows", [np.array([[0, 0, 1]]), np.array([[0, 0, 1]], dtype=np.uint8),
                                  [np.array([0, 0, 1])]], ids=["int64", "uint8", "row-list"])
def test_a_refused_generator_is_shown_in_python_ints(rows):
    # the message reads as for a list of ints, with no np.int64(...) reprs
    with pytest.raises(GroupError, match=r"^generator \(0, 0, 1\) is not a permutation of 3 points$"):
        close(rows)


def test_narrow_dtypes_follow_the_domain_size():
    for m, dtype in ((1, np.uint8), (256, np.uint8), (257, np.uint16)):
        shift = tuple(range(1, m)) + (0,)
        grp = close([shift])
        assert grp.perms.dtype == grp.gens.dtype == dtype
        assert grp.elements == tuple(sorted(tuple((x + k) % m for x in range(m))
                                            for k in range(m)))
        assert shift in grp


def test_constructors_leave_a_callers_array_writeable():
    from quandles import FiniteQuandle, dihedral
    d3 = dihedral(3)
    op = d3.op.copy()
    q = FiniteQuandle(op)
    c3 = FiniteGroup.cyclic(3)
    table, inv, mapping = c3.table.copy(), c3.inv_map.copy(), np.array([0, 2, 1])
    g = FiniteGroup(table, inv, 0)
    phi = GroupAutomorphism(g, mapping)
    gens = np.array([[1, 2, 0]])
    grp = PermutationGroup(3, gens)
    assert not q.inv_op.flags.writeable
    for mine, held in ((op, q.op), (table, g.table),
                       (inv, g.inv_map), (mapping, phi.mapping), (gens, grp.gens)):
        assert mine.flags.writeable and not held.flags.writeable
        assert held.tolist() == mine.tolist()
        with pytest.raises(ValueError):
            held[0] = 0


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


def _fresh_mask_chain(t, order, seed=()):
    """The oracle of ``groups._chain``: each new chain row re-walks seed and
    chain under the chain's rows from a fresh mask, and yields (x, that walk),
    the whole closure."""
    chain = []
    reached = np.zeros(len(t), dtype=bool)
    reached[list(seed)] = True
    for x in order:
        if not reached[x]:
            chain.append(x)
            reached = np.zeros(len(t), dtype=bool)
            yield x, walk(t[chain], [*seed, *chain], reached)


@functools.cache
def _chain_tables():
    return [q.op for _, q in small_corpus()] + [g.table for _, g in corpus_groups()]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_chain_yields_what_each_row_adds_to_the_fresh_mask_closure(data):
    t = data.draw(st.sampled_from(_chain_tables()))
    n = len(t)
    order = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    seed = data.draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    got = list(groups_module._chain(t, order, seed))
    want = list(_fresh_mask_chain(t, order, seed))
    assert [x for x, _ in got] == [x for x, _ in want]
    reached, rows = set(seed), []
    for (x, (points, parent, via)), (_, oracle) in zip(got, want):
        rows.append(x)
        new = set(points.tolist())
        assert len(new) == len(points) and not new & reached   # pairwise disjoint
        for p, r, c in zip(points.tolist(), parent.tolist(), via.tolist()):
            if p == x:
                assert r == c == -1
            else:
                assert c in rows and r in reached and t[c, r] == p, (p, r, c)
            reached.add(p)
        assert reached == set(oracle[0].tolist())


def test_chain_yields_each_point_of_a_union_of_dihedral_quandles_once():
    # 300 copies of dihedral(3), acting trivially on each other: the chain
    # takes two points of each copy, and the fresh-mask walks would yield
    # the growing closure again at each of those 600 rows
    k, d3 = 300, np.array(dihedral(3).op, dtype=np.uint16)
    n = 3 * k
    t = np.tile(np.arange(n, dtype=np.uint16), (n, 1))
    for i in range(0, n, 3):
        t[i:i + 3, i:i + 3] = i + d3
    got = list(groups_module._chain(t, range(n)))
    assert len(got) == 2 * k
    assert sum(len(points) for _, (points, _, _) in got) == n


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
    for sub in subsets:   # right products of sub, walked from the identity
        got = tuple(np.sort(walk(s4.table.T[list(sub)], [s4.identity])[0]).tolist())
        assert got == _pair_closure(s4, sub), sub
        assert s4.subgroup_witness(got) is None


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


def test_an_empty_multiplication_table_has_no_identity(tmp_path):
    from quandles.cli import run
    with pytest.raises(GroupError, match="^no identity element in multiplication table$"):
        FiniteGroup.from_table([])
    path = tmp_path / "empty.json"
    path.write_text('{"mul": []}')
    out, err = io.StringIO(), io.StringIO()
    assert run(["make", "conj", "--group", str(path)], stdout=out, stderr=err) == 1
    assert err.getvalue() == "input error: no identity element in multiplication table\n"
    assert out.getvalue() == ""


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


def test_associativity_check_stops_at_the_first_failing_chain_row(monkeypatch):
    # 0 is the identity and every other product is 0: inverses exist, and
    # each chain row reaches one more element, so the whole chain is n - 1
    # rows long; its first row, 1, already fails, at (1, 1, 2) for every n,
    # and is the only row compared, with no walk
    walks, compared = [], []
    real_walk, real_failures = groups_module.walk, groups_module._row_failures
    monkeypatch.setattr(groups_module, "walk", lambda *a: walks.append(1) or real_walk(*a))
    monkeypatch.setattr(groups_module, "_row_failures", lambda differs: real_failures(
        lambda s: compared.append(s) or differs(s)))
    expected = None
    for n in (64, 2048):
        table = [list(range(n))] + [[x] + [0] * (n - 1) for x in range(1, n)]
        expected = expected or _first_nonassociative(table)
        walks.clear(), compared.clear()
        with pytest.raises(GroupError) as exc:
            FiniteGroup.from_table(table)
        assert str(exc.value) == f"multiplication is not associative at {expected}"
        assert not walks and compared == [1], n


def _scan_every_row(failures, t, seed=()):
    """The full-scan oracle of ``groups._check_rows``: every row compared."""
    return (w for x in range(len(t)) for w in failures(x))


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
    real = groups_module._check_rows
    groups_module._check_rows = _scan_every_row
    try:
        want = _from_table_outcome(table)
    finally:
        groups_module._check_rows = real
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
    orders = sorted(s3.element_orders[i] for i in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


def _scalar_element_order(g, i):
    """The reference: multiply by i until the identity comes back."""
    k, x = 1, i
    while x != g.identity:
        x = g.mul(x, i)
        k += 1
    return k


def test_element_orders_match_the_scalar_loop():
    groups = [g for _, g in corpus_groups()]
    groups += [FiniteGroup.symmetric(5), FiniteGroup.cyclic(1), FiniteGroup.cyclic(12)]
    groups += [FiniteGroup.from_permutation_group(tr(q)) for _, q in small_corpus()]
    for g in groups:
        expected = [_scalar_element_order(g, i) for i in range(g.order)]
        assert g.element_orders.tolist() == expected and not g.element_orders.flags.writeable, g


def test_subgroup_closure_and_check():
    s3 = FiniteGroup.symmetric(3)
    t = s3.elements.index((1, 0, 2))
    sub = walk(s3.table.T[[t]], [s3.identity])[0].tolist()
    assert len(sub) == 2 and s3.subgroup_witness(sub) is None
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
    assert phi.fixed_points() == (0, 1, 2, 3, 4)


def test_fixed_subgroup_doubling():
    z5 = FiniteGroup.cyclic(5)
    phi = GroupAutomorphism(z5, tuple((2 * x) % 5 for x in range(5)))
    assert phi.fixed_points() == (0,)


def test_fixed_subgroup_conjugation():
    s3 = FiniteGroup.symmetric(3)
    t = s3.elements.index((1, 0, 2))
    phi = GroupAutomorphism(s3, tuple(s3.conj(t, x) for x in range(6)))
    assert phi.fixed_points() == (s3.identity, t)


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
                [0, 3, 2], [0, 3, 2, 1, 4], np.array([0, 3, 2, 9]),
                np.array([0.0, 3.9, 2.2, 1.5]), np.array([0, 3, 2, 1], dtype=float),
                np.array([0, 1, 1, 1], dtype=bool), [0.0, 3, 2, 1], [False, 3, 2, 1],
                np.array([0, 3, 2, 1])[:, None]):
        with pytest.raises(NotAnAutomorphism, match="not a bijection"):
            GroupAutomorphism(z4, bad)
    assert GroupAutomorphism(z4, np.array([0, 3, 2, 1])).fixed_points() == (0, 2)


def test_automorphism_map_takes_numpy_ints():
    z5 = FiniteGroup.cyclic(5)
    for good in ([0, np.int64(2), 4, 1, 3], [np.int32(x) for x in (0, 2, 4, 1, 3)],
                 np.array([0, 2, 4, 1, 3], dtype=np.uint8),
                 np.array([0, 2, 4, 1, 3], dtype=object)):
        phi = GroupAutomorphism(z5, good)
        assert phi.mapping.tolist() == [0, 2, 4, 1, 3]
        assert phi.mapping.dtype == np.int64 and not phi.mapping.flags.writeable
    mapping = np.array([0, 2, 4, 1, 3])   # an int64 array is read without a copy
    assert np.shares_memory(GroupAutomorphism(z5, mapping).mapping, mapping)
    assert mapping.flags.writeable


def test_all_automorphisms_s3():
    s3 = FiniteGroup.symmetric(3)
    autos = all_automorphisms(s3)
    assert len(autos) == 6
    z8 = FiniteGroup.cyclic(8)
    assert len(all_automorphisms(z8)) == 4  # units mod 8


# -- cosets -------------------------------------------------------------------

def test_cosets_whole_and_trivial():
    s3 = FiniteGroup.symmetric(3)
    assert CosetSpace(s3, range(6)).count == 1
    cs = CosetSpace(s3, (s3.identity,))
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
    assert all(s3.element_orders[x] == 2 for x in cls)


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
    with pytest.raises(CycleParseError, match="^no points found$"):   # no domain size to give
        parse_generator_lines("\n# only a comment\n")


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
            expected = s4.elements.index(tuple(s4.perms[i][s4.perms[j]].tolist()))
            assert s4.mul(i, j) == expected
    assert is_permutation(np.argsort(s4.perms[7]).tolist())


# -- the array-backed table -----------------------------------------------------

def _oracle_table(elements):
    """Products by composing the permutations and looking them up by value:
    a[perms] holds a[b], a after b, for every b."""
    index = {p: i for i, p in enumerate(elements)}
    perms = np.array(elements, dtype=np.int64)
    return [[index[ab] for ab in map(tuple, a[perms].tolist())] for a in perms]


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
    # transposition (100 116) would look like the identity; elements are
    # found by their images of the base compared whole, with no radix key
    gens = [_transposition(100 + 40 * i, 116 + 40 * i, m) for i in range(7)]
    g = FiniteGroup.from_permutations(gens)
    assert g.order == 2**7
    table = g.table.tolist()
    assert table == _oracle_table(g.elements)
    assert all(type(x) is int for x in g.to_dict()["mul"][5])  # JSON-safe Python ints
    assert type(g.mul(3, 4)) is int and type(g.inv(3)) is int


def test_automorphism_check_gives_the_row_major_first_witness():
    # SL2(F_13) has order 2184: the check compares the rows of a generating set
    # and reports the row-major-least witness
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


def _automorphism_oracle(g, m):
    """The all-pairs automorphism check the generating-set check replaced:
    the first (a, b) in row-major order with m(ab) != m(a)m(b), or None."""
    m, t = np.asarray(m), g.table
    bad = np.argwhere(m[t] != t[m][:, m])
    return tuple(int(x) for x in bad[0]) if len(bad) else None


def _s4_conjugation():
    s4 = FiniteGroup.symmetric(4)
    t = s4.elements.index((1, 0, 2, 3))
    return s4, [s4.conj(t, x) for x in range(s4.order)]


def _tr_u11_conjugation():
    q = unipotent_class_quandle(11)   # phi = conjugation by s_0 on Tr(u11), order 660
    g = table_route.tr_group(q)
    return g, table_route.twist(g, q.op[0], q.inv_op[0]).tolist()


@pytest.mark.parametrize("build", [_s4_conjugation, _tr_u11_conjugation], ids=["S4", "Tr(u11)"])
def test_automorphism_wrong_outside_the_chain_fails_at_the_all_pairs_witness(build):
    g, phi = build()
    # a bijection cannot differ from phi at one point only: the images of
    # two elements outside the chain (and not the identity) are swapped
    assert _automorphism_oracle(g, phi) is None
    GroupAutomorphism(g, phi)
    chain = {s for s, _ in groups_module._chain(g.table, range(g.order), [g.identity])}
    outside = [x for x in range(g.order) if x not in chain and x != g.identity]
    rng = random.Random(0)
    pairs = [(outside[0], outside[1]), (outside[-2], outside[-1])]
    pairs += [tuple(rng.sample(outside, 2)) for _ in range(6)]
    for x, y in pairs:
        m = list(phi)
        m[x], m[y] = m[y], m[x]
        expected = _automorphism_oracle(g, m)
        assert expected is not None, (x, y)
        with pytest.raises(NotAnAutomorphism) as exc:
            GroupAutomorphism(g, m)
        assert exc.value.witness == expected, (x, y)
        assert str(exc.value) == f"mapping is not multiplicative at {expected}"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_automorphism_check_matches_the_all_pairs_check_on_the_corpus_groups(data):
    _, g = data.draw(st.sampled_from(corpus_groups()))
    m = list(data.draw(st.sampled_from(all_automorphisms(g))).mapping.tolist())
    for _ in range(data.draw(st.integers(0, 2))):   # swap two images other than e's
        x, y = data.draw(st.lists(st.sampled_from([i for i in range(g.order) if i != g.identity]),
                                  min_size=2, max_size=2, unique=True))
        m[x], m[y] = m[y], m[x]
    expected = _automorphism_oracle(g, m)
    if expected is None:
        assert GroupAutomorphism(g, m).mapping.tolist() == m
    else:
        with pytest.raises(NotAnAutomorphism, match=re.escape(f"multiplicative at {expected}")):
            GroupAutomorphism(g, m)


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


def test_group_order_limit_is_checked_before_the_elements_are_listed(tmp_path):
    # C251 x C257, order 64507 on 508 points: its order is read off the
    # stabilizer chain, and the 64507 x 508 element array is never listed
    # (158 MB peak when it was, on a 2-core x86-64 Linux VM)
    gens = [_cycle(0, 251, 508), _cycle(251, 257, 508)]
    grp = close(gens)
    with pytest.raises(CapExceeded, match="^group order 64507 exceeds the limit of 4096 "):
        FiniteGroup.from_permutation_group(grp)
    assert "perms" not in vars(grp)
    path = tmp_path / "gens.txt"
    path.write_text("\n".join(format_cycles(p) for p in gens) + "\n")
    code, peak_mb, err = cli_peak_mb("make", "conj", "--gens", str(path))
    assert code == 1
    assert err == ("input error: group order 64507 exceeds the limit of 4096 elements "
                   "for a multiplication table\n")
    assert peak_mb < 60


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
    # 178 MB measured on a 2-core x86-64 Linux VM, the one table (294 MB
    # when FiniteGroup copied it).  Keying all n^2 products at once peaked
    # at 566 MB, and a Python-int copy of the table next to the array at 903 MB
    code, peak_mb, err = python_peak_mb("-c", _C64_X_C64)
    assert code == 0, err
    assert peak_mb < 400


@settings(max_examples=100, deadline=None)
@given(_generator_lists())
@example((3, [(0, 1, 2)]))                            # order 1, the identity as generator
@example((4, [(1, 0, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (0, 1, 2, 3)]))   # repeats
@example((6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]))   # S6: a chain of five levels
def test_cayley_table_matches_the_oracle(case):
    m, gens = case
    grp = close(gens, domain_size=m)
    assert grp.rank(grp.base_images(grp.perms)).tolist() == list(range(grp.order))
    g = FiniteGroup.from_permutation_group(grp)
    assert g.table.tolist() == _oracle_table(g.elements)
    ident = g.elements[g.identity]
    assert ident == identity_perm(len(ident))
    assert (g.perms[np.arange(g.order)[:, None], g.perms[g.inv_map]] == ident).all()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rank_and_table_rows_match_the_listing_and_the_cayley_walk(data):
    # Tr(Q) or Inn(Q) of a corpus quandle: the rank of each element, read off
    # its base images, is its index in perms, and so is that of each product
    # of two elements drawn; the stacked table rows, and the table that
    # from_permutation_group builds of them, are the Cayley walk's
    from corpus_util import corpus
    name, q = data.draw(st.sampled_from(corpus()))
    grp = data.draw(st.sampled_from([tr, inn]))(q)
    perms = grp.perms
    assert grp.rank(grp.base_images(perms)).tolist() == list(range(grp.order)), name
    x, y = np.array(data.draw(st.lists(st.tuples(*[st.integers(0, grp.order - 1)] * 2),
                                       min_size=1, max_size=8))).T
    products = np.take_along_axis(perms[x], perms[y], axis=1)   # x o y
    want = table_route.find_rows(perms, products)
    assert grp.rank(grp.base_images(products)).tolist() == want.tolist(), name
    table, inv = table_route.cayley_table(grp)
    rows = list(grp.table_rows())
    assert all(r.dtype == table.dtype for r in rows)
    assert np.array_equal(np.concatenate(rows), table), name
    g = FiniteGroup.from_permutation_group(grp)
    assert np.array_equal(g.table, table) and np.array_equal(g.inv_map, inv), name


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 300).flatmap(lambda m: st.lists(st.permutations(range(m)), max_size=6)
                                   .map(lambda ps: (m, ps))))
@example((4, [(0, 1, 2, 3), (1, 0, 3, 2), (1, 2, 3, 0)]))   # the identity, two 2-cycles, a 4-cycle
def test_cycle_labels_match_format_cycles(case):
    m, ps = case
    perms = np.array(ps, dtype=groups_module._point_dtype(m)).reshape(len(ps), m)
    labels = list(itertools.chain.from_iterable(groups_module.cycle_labels(perms)))
    assert labels == [format_cycles(p) or "()" for p in ps]


def test_table_rows_refuse_past_the_limit_before_listing():
    # C64 x C65 has order 4160: the refusal comes with the call, not the first block
    grp = close([_cycle(0, 64, 129), _cycle(64, 65, 129)])
    with pytest.raises(CapExceeded, match="^group order 4160 exceeds the limit of 4096 "):
        grp.table_rows()
    assert "perms" not in vars(grp)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_sl2_table_and_inverses_match_matrix_arithmetic(p):
    g = matrix_group_sl2(p)
    assert g.order == p * (p * p - 1)
    els = np.array(g.elements)
    code = p ** np.arange(3, -1, -1)
    index = np.full(p**4, -1)
    index[els @ code] = np.arange(g.order)
    e, f, h, k = els.T   # every right factor [[e, f], [h, k]] at once
    for i, (a, b, c, d) in enumerate(g.elements):
        prod = np.stack([a * e + b * h, a * f + b * k, c * e + d * h, c * f + d * k], axis=1)
        assert (g.table[i] == index[prod % p @ code]).all(), i
    adjugate = np.stack([els[:, 3], -els[:, 1], -els[:, 2], els[:, 0]], axis=1) % p
    assert (g.inv_map == index[adjugate @ code]).all()
