import functools
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandles.quandle as quandle_module
from quandles import (AxiomViolation, FiniteQuandle, InvalidQuandleError,
                      RangeError, alexander, axiom_violations, conj_class,
                      conjugation, dihedral, trivial, validate)
import quandles.groups as groups_module
from quandles.groups import FiniteGroup, _chain, _identity_rows, identity_perm

from corpus_util import cli_peak_mb, small_corpus


def dihedral_table(n):
    return [[(2 * i - j) % n for j in range(n)] for i in range(n)]


def test_validate_dihedral():
    q = validate(dihedral_table(3))
    assert q.size == 3
    assert q.op.tolist() == [[0, 2, 1], [2, 1, 0], [1, 0, 2]]


def test_validate_trivial():
    for n in (1, 3, 6):
        q = validate([[r for r in range(n)] for _ in range(n)])
        assert all(q.op[a][b] == b for a in range(n) for b in range(n))


def test_validate_idempotence_violation():
    with pytest.raises(InvalidQuandleError) as exc:
        validate([[1, 1], [0, 0]])
    violations = exc.value.violations
    assert AxiomViolation(1, (0,)) in violations
    assert AxiomViolation(1, (1,)) in violations


def test_validate_row_not_permutation():
    with pytest.raises(InvalidQuandleError) as exc:
        validate([[0, 0, 0], [2, 1, 0], [1, 0, 2]])
    assert any(v.axiom == 2 and v.witness[0] == 0 for v in exc.value.violations)


def test_validate_distributivity_violation():
    # rows are permutations and the diagonal is fixed, but |> fails axiom 3
    table = [[0, 2, 1, 3], [3, 1, 0, 2], [1, 3, 2, 0], [2, 0, 1, 3]]
    violations, _ = axiom_violations(table)
    assert violations, "expected a distributivity failure"
    assert all(v.axiom in (1, 2, 3) for v in violations)
    q, r, s = next(v.witness for v in violations if v.axiom == 3)
    assert table[q][table[r][s]] != table[table[q][r]][table[q][s]]


def test_validate_out_of_range():
    with pytest.raises(RangeError):
        validate([[0, 5], [1, 1]])
    with pytest.raises(RangeError):
        validate([[0, 1], [1]])
    with pytest.raises(RangeError):
        validate([])
    with pytest.raises(RangeError, match="3 dimensions, expected 2"):
        validate(np.zeros((2, 2, 2), dtype=int))


def _bad_entries_oracle(table):
    """Every (q, r) whose entry is not an int in 0..n-1, one entry at a time."""
    n = len(table)
    return [(q, r) for q, row in enumerate(table) for r, x in enumerate(row)
            if not isinstance(x, (int, np.integer)) or isinstance(x, bool)
            or not 0 <= x < n]


@pytest.mark.parametrize("table", [
    [[0, 5], [1, 1]],
    [[0, True], [1, 1]],
    [[0, 1.0], [1, 1]],
    [[0, "1"], [None, 1]],
    [[0, 2**70, 1], [-1, 1, 2], [7, 2, 2]],
    [[np.int64(0), np.int64(2)], [np.int8(0), np.int8(1)]],
    np.array([[0, 1], [3, 1]]),
    np.array([[0.0, 1.0], [0.0, 1.0]]),
    np.array([[True, False], [False, True]]),
    np.array([[0, 1], [1, 7]], dtype=object),
    [[9] * 7 for _ in range(7)],
])
def test_malformed_entries_keep_positions_and_text(table):
    bad = _bad_entries_oracle(table)
    with pytest.raises(RangeError) as exc:
        validate(table)
    assert exc.value.positions == tuple(bad)
    assert str(exc.value) == ("entries out of range at "
                              + ", ".join(str(p) for p in bad[:5]))


def test_validate_reads_arrays_and_lists_alike():
    for name, q in small_corpus():
        a = np.array(q.op)
        for table in (a, a.astype(np.int32), [list(r) for r in q.op],
                      [np.array(r) for r in q.op]):
            again = validate(table)
            assert np.array_equal(again.op, q.op), name
            assert np.array_equal(again.inv_op, q.inv_op), name
            for t in (again.op, again.inv_op):   # every corpus quandle has < 256 elements
                assert t.dtype == np.uint8 and not t.flags.writeable, name
            # the public maps hand out Python ints, not numpy scalars
            assert all(type(x) is int for x in (*again.to_dict()["table"][-1],
                       *again.symmetry(0).perm, *again.right_translation(0),
                       *again.subquandle_closure({0})[1]))


def test_validate_witness_cap():
    n = 8
    table = [[(q + r + 1) % n for r in range(n)] for q in range(n)]  # wildly wrong
    violations, truncated = axiom_violations(table)
    assert len(violations) == 100 and truncated


def test_inverse_tables_are_inverse():
    for _, q in small_corpus():
        n = q.size
        for a in range(n):
            for b in range(n):
                assert q.inv_op[a][q.op[a][b]] == b
                assert q.op[a][q.inv_op[a][b]] == b


def test_rows_are_permutations():
    for _, q in small_corpus():
        for a in range(q.size):
            assert sorted(q.op[a]) == list(range(q.size))


def test_symmetries_are_automorphisms():
    for _, q in small_corpus():
        for a in range(q.size):
            s = q.symmetry(a)
            assert s.base == a and s.perm == tuple(q.op[a].tolist())
            for x in range(q.size):
                for y in range(q.size):
                    assert s(q.op[x][y]) == q.op[s(x)][s(y)]


def test_symmetry_examples():
    t = trivial(4)
    assert all(t.symmetry(q).perm == identity_perm(4) for q in range(4))
    r3 = dihedral(3)
    assert r3.symmetry(0).perm == (0, 2, 1)
    with pytest.raises(IndexError):
        r3.symmetry(3)


def test_right_translation():
    t = trivial(5)
    assert t.right_translation(2) == (2, 2, 2, 2, 2)
    from quandles import alexander
    a = alexander(5, 1, 2)
    # r |> 0 = r + 2(0 - r) = -r mod 5
    assert a.right_translation(0) == tuple((-r) % 5 for r in range(5))
    r3 = dihedral(3)
    assert sorted(r3.right_translation(1)) == [0, 1, 2]
    with pytest.raises(IndexError):
        r3.right_translation(-1)


def test_subquandle_closure_whole():
    r3 = dihedral(3)
    sub, emb = r3.subquandle_closure(range(3))
    assert emb == (0, 1, 2) and np.array_equal(sub.op, r3.op)


def test_subquandle_closure_singleton():
    t = trivial(4)
    sub, emb = t.subquandle_closure({2})
    assert sub.size == 1 and emb == (2,)


def test_subquandle_closure_conjugation():
    # one element alone closes to itself (idempotence); two transpositions
    # generate the whole 3-element class
    s3 = FiniteGroup.symmetric(3)
    q = conjugation(s3)
    t1 = s3.elements.index((1, 0, 2))
    t2 = s3.elements.index((0, 2, 1))
    single, _ = q.subquandle_closure({t1})
    assert single.size == 1
    sub, emb = q.subquandle_closure({t1, t2})
    assert sub.size == 3
    assert all(q.labels[e].count("(") == 1 for e in emb)  # all transpositions


def _closure_oracle(q, seed):
    """The closure of ``seed`` under |> and |>^-1, one pair at a time."""
    op, inv = q.op.tolist(), q.inv_op.tolist()
    s = set(seed)
    while True:
        new = {w for u in s for v in s for w in (op[u][v], inv[u][v])} - s
        if not new:
            return tuple(sorted(s))
        s |= new


def test_subquandle_closure_and_closed_subsets_match_loops():
    for name, q in small_corpus():
        op = q.op.tolist()
        for seed in ({0}, {0, q.size - 1}, {1, q.size // 2}):
            sub, emb = q.subquandle_closure(seed)
            assert emb == _closure_oracle(q, seed), (name, seed)
            assert sub.op.tolist() == [[emb.index(op[a][b]) for b in emb] for a in emb]
            for subset in (seed, emb, emb[1:] or emb):
                closed = _closure_oracle(q, subset) == tuple(sorted(subset))
                assert q.is_closed_subset(subset) == closed, (name, subset)
    with pytest.raises(IndexError):
        dihedral(3).is_closed_subset({0, 3})


def test_subquandle_closure_empty_seed():
    with pytest.raises(ValueError):
        trivial(3).subquandle_closure(set())


def test_json_round_trip():
    for _, q in small_corpus():
        again = FiniteQuandle.from_json(q.to_json())
        assert np.array_equal(again.op, q.op) and again.labels == q.labels


def test_json_errors():
    with pytest.raises(RangeError):
        FiniteQuandle.from_json("not json")
    with pytest.raises(RangeError):
        FiniteQuandle.from_json('{"size": 2}')
    with pytest.raises(RangeError):
        FiniteQuandle.from_json('{"size": 3, "table": [[0]]}')
    with pytest.raises(RangeError):
        FiniteQuandle.from_json('{"table": [[0]], "labels": ["a", "b"]}')


# -- the canonical JSON writer ----------------------------------------------------

_TRICKY = st.text(alphabet=st.sampled_from(['"', "\\", "\x00", "/", "\n", "a", "\u00e9",
                                            "\u2603", "\U0001f600"]), max_size=6)


@st.composite
def _int_arrays(draw):
    """A 2-D int array of 1x1 up to 300x300 entries, from a drawn seed."""
    shape = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.uint16]))
    low, high = max(np.iinfo(dtype).min, -10**6), min(np.iinfo(dtype).max, 10**6)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(low, high, size=shape, dtype=dtype, endpoint=True)


_DOCUMENTS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
              _TRICKY, st.lists(_TRICKY, max_size=4), _int_arrays()),
    lambda inner: st.dictionaries(_TRICKY, inner, max_size=4), max_leaves=6)


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return {k: _plain(v) for k, v in obj.items()} if isinstance(obj, dict) else obj


def _canonical_dump(obj):
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))


@settings(max_examples=100, deadline=None)
@given(_DOCUMENTS, st.sampled_from([1, 7, 300, quandle_module.JSON_BLOCK_ENTRIES]))
def test_json_chunks_join_to_the_canonical_dump(doc, block):
    saved, quandle_module.JSON_BLOCK_ENTRIES = quandle_module.JSON_BLOCK_ENTRIES, block
    try:
        assert "".join(quandle_module._json_chunks(doc)) == _canonical_dump(doc)
    finally:
        quandle_module.JSON_BLOCK_ENTRIES = saved


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (5,)])
def test_json_chunks_of_empty_and_flat_arrays(shape):
    a = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
    doc = {"a": a, "b": {"c": a}}
    assert "".join(quandle_module._json_chunks(doc)) == _canonical_dump(doc)


def test_tables_are_written_a_row_block_at_a_time():
    q = trivial(2048)
    chunks = list(quandle_module._json_chunks(q._fields()))
    block = quandle_module.JSON_BLOCK_ENTRIES
    # 2048 x 2048 entries of at most 4 digits and a comma, a block of rows at a time
    assert len(chunks) > 2048 * 2048 // block
    assert max(map(len, chunks)) <= 5 * block + 2
    assert "".join(chunks) == q.to_json() == _canonical_dump(q.to_dict())


_DIGIT_EDGES = (0, 1, 9, 10, 99, 100, 255, 256, 999, 1000, 9999, 10000, 65535)
_TABLE_SHAPES = st.one_of(
    st.sampled_from([(0, 5), (4, 0), (0, 0), (1, 1),
                     (2, quandle_module.JSON_BLOCK_ENTRIES + 3)]),   # a row past a block
    st.tuples(st.integers(1, 40), st.integers(1, 40)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([np.uint8, np.uint16]), _TABLE_SHAPES,
       st.lists(st.one_of(st.sampled_from(_DIGIT_EDGES), st.integers(0, 65535)),
                min_size=1, max_size=6),
       st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 300, quandle_module.JSON_BLOCK_ENTRIES]))
def test_table_tokens_write_what_json_dumps_writes(dtype, shape, values, seed, block):
    values = [v for v in values if v <= np.iinfo(dtype).max] or [np.iinfo(dtype).max]
    a = np.random.default_rng(seed).choice(np.array(values, dtype), size=shape)
    saved, quandle_module.JSON_BLOCK_ENTRIES = quandle_module.JSON_BLOCK_ENTRIES, block
    try:
        text = "".join(quandle_module._json_chunks(a))
    finally:
        quandle_module.JSON_BLOCK_ENTRIES = saved
    assert text == json.dumps(a.tolist(), separators=(",", ":"))


def test_writing_a_4096_point_table_traces_under_half_a_megabyte():
    # one block's array and text and the two arrays of 4096 tokens: 0.31 MB on
    # a 2-core x86-64 Linux VM, against 0.91 MB when each block went through
    # Python ints
    fields = trivial(4096)._fields()
    tracemalloc.start()
    try:
        for _ in quandle_module._json_chunks(fields):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20


def test_to_dict_and_to_json_share_one_schema():
    for _, q in small_corpus():
        assert q.to_json() == _canonical_dump(q._fields()) == _canonical_dump(q.to_dict())
        assert q.to_dict().keys() == q._fields().keys()


# -- axiom 3, row by row -------------------------------------------------------

def _axiom3_full(tab):
    """Axiom-3 witnesses from the full n^3 arrays, in row-major order."""
    a = np.asarray(tab)
    lhs = a[np.arange(len(a))[:, None, None], a[None, :, :]]
    rhs = a[a[:, :, None], a[:, None, :]]
    return [tuple(int(x) for x in w) for w in np.argwhere(lhs != rhs)]


def _corrupted(n, rows):
    """Dihedral table with the first ``rows`` of rows 2, n - 1 and 4
    re-permuted off the diagonal, so only axiom 3 fails."""
    tab = dihedral_table(n)
    for q, r, s in ((2, 3, 5), (n - 1, 0, 1), (4, 0, 6))[:rows]:
        tab[q][r], tab[q][s] = tab[q][s], tab[q][r]
    return tab


def _witness_oracle(tab):
    """Every axiom witness in the reported order: idempotence, each row that
    is not a permutation with the least value it misses, then axiom 3 over
    all n^3 triples."""
    n = len(tab)
    ones = [(1, (q,)) for q in range(n) if tab[q][q] != q]
    twos = [(2, (q, min(set(range(n)) - set(row))))
            for q, row in enumerate(tab) if sorted(row) != list(range(n))]
    return ones + twos + [(3, w) for w in _axiom3_full(tab)]


_tables = st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(_tables, st.sampled_from([1, 3, 7, 100, 10**6]))
def test_axiom_witnesses_match_the_oracle(tab, cap):
    want = _witness_oracle(tab)
    violations, truncated = axiom_violations(tab, cap=cap)
    assert [(v.axiom, v.witness) for v in violations] == want[:cap]
    assert truncated == (len(want) > cap)


@pytest.mark.parametrize("rows", [1, 3])
def test_axiom3_blocks_match_full_arrays(rows):
    # one block of re-permuted rows, or three: the rows that pass and the
    # closure skipped from them differ, the witnesses must not
    for n in (7, 10):
        tab = _corrupted(n, rows)
        full = _axiom3_full(tab)
        for cap in (10**6, 7):
            got, truncated = axiom_violations(tab, cap=cap)
            assert all(v.axiom == 3 for v in got)
            assert [v.witness for v in got] == full[:cap]
            assert truncated == (len(full) > cap)


def test_check_memory_stays_bounded(tmp_path):
    # n = 343: full n^3 int64 arrays peaked near 690 MB, and int64 blocks of
    # 2^22 triples over every row 135 MB; checking the 4 rows of a
    # generating set measured 38 MB as one block and 36 MB one row at a
    # time, on a 2-core x86-64 Linux VM
    path = tmp_path / "a732.json"
    path.write_text(alexander(7, 3, 2).to_json())
    code, peak_mb, _ = cli_peak_mb("check", str(path))
    assert code == 0
    assert peak_mb < 280


def _alexander_scalar_table(p, n, a):
    """v |> w = v + a(w - v) on F_p^n, vectors in lexicographic order,
    computed on base-p digits without the constructor."""
    place = p ** np.arange(n - 1, -1, -1)
    digits = np.arange(p ** n)[:, None] // place % p
    v, w = digits[:, None], digits[None, :]
    return (v + a * (w - v)) % p @ place


def test_check_memory_stays_bounded_at_625(tmp_path):
    # n = 625, alexander(5, 4, 2), where v |> w = 2w - v on each base-5 digit:
    # valid, 0.45 s and 67 MB measured on a 2-core x86-64 Linux VM (3.4 s and
    # 142 MB when every row was checked).  The table is written directly, so
    # that the test does not rest on the constructor
    assert (_alexander_scalar_table(5, 2, 2).tolist()
            == alexander(5, 2, 2).op.tolist())
    path = tmp_path / "a542.json"
    path.write_text(json.dumps({"size": 625,
                                "table": _alexander_scalar_table(5, 4, 2).tolist()}))
    code, peak_mb, _ = cli_peak_mb("check", str(path))
    assert code == 0
    assert peak_mb < 280


def test_check_memory_stays_bounded_on_the_pass_over_every_row(tmp_path):
    # n = 343 with row 300's entries 0 and 1 swapped: axioms 1 and 2 hold,
    # and rows fail from row 0 on, so 26 rows are compared, one at a time,
    # before 100 witnesses are found; 35 MB measured on a 2-core x86-64
    # Linux VM (about 70 MB when blocks of rows were compared)
    tab = alexander(7, 3, 2).op.copy()
    tab[300, [0, 1]] = tab[300, [1, 0]]
    path = tmp_path / "a732_bad.json"
    path.write_text(json.dumps({"size": 343, "table": tab.tolist()}))
    code, peak_mb, _ = cli_peak_mb("check", str(path))
    assert code == 1
    assert peak_mb < 280


# -- axiom 3 on a generating set ------------------------------------------------

def _relabelled(q, seed):
    """``q`` with its elements renamed by a seeded random permutation."""
    sigma = np.random.default_rng(seed).permutation(q.size)
    tab = np.empty_like(q.op)
    tab[np.ix_(sigma, sigma)] = sigma[q.op]
    return validate(tab)


def _chain_rows(op):
    """S: the chain of ``groups._chain`` over every element, seeded with the
    identity rows."""
    return [s for s, _ in _chain(op, range(len(op)), _identity_rows(op))]


def test_greedy_generators_generate():
    a732 = alexander(7, 3, 2)
    for name, q in small_corpus() + [("a732", a732), ("a732 relabelled", _relabelled(a732, 1))]:
        ident = [x for x in range(q.size) if q.op[x].tolist() == list(range(q.size))]
        gens = _chain_rows(q.op)
        assert not set(gens) & set(ident), name
        assert _closure_oracle(q, ident + gens) == tuple(range(q.size)), name
        for i, g in enumerate(gens):   # each is the least element not yet reached
            reached = set(_closure_oracle(q, ident + gens[:i]))
            assert g == min(set(range(q.size)) - reached), (name, i)


def _counting_rows(monkeypatch):
    """Record every row that the axiom-3 check is asked to compare."""
    seen = []
    real = quandle_module._distributivity_failures

    def counting(*args):
        failures = real(*args)
        return lambda q: seen.append(q) or failures(q)
    monkeypatch.setattr(quandle_module, "_distributivity_failures", counting)
    return seen


def test_trivial_quandle_checks_no_rows(monkeypatch):
    table = np.tile(np.arange(343), (343, 1))
    seen = _counting_rows(monkeypatch)
    assert validate(table).size == 343
    assert seen == []
    bad = table.copy()   # the control: rows 0 and 1 fail, and the rest are the seed
    bad[0, [1, 3]], bad[1, [0, 2]] = (3, 1), (2, 0)
    with pytest.raises(InvalidQuandleError):
        validate(bad)
    assert seen == [0, 1]


def test_a_changed_entry_compares_only_its_row(monkeypatch):
    # row 5 of trivial(343) maps 7 to 8, so it misses 7 and is no permutation:
    # the other rows are identity rows, the seed, and row 5 alone is compared
    tab = trivial(343).op.copy()
    tab[5, 7] = 8
    seen = _counting_rows(monkeypatch)
    violations, truncated = axiom_violations(tab, cap=10**6)
    want = [(2, (5, 7))] + [(3, w) for w in _axiom3_by_rows(tab)]
    assert [(v.axiom, v.witness) for v in violations] == want and not truncated
    assert seen == [5]


def test_validate_compares_the_rows_of_the_chain(monkeypatch):
    table = alexander(7, 3, 2).op
    seen, walks = _counting_rows(monkeypatch), []
    real_walk = groups_module.walk
    monkeypatch.setattr(groups_module, "walk", lambda *a: walks.append(1) or real_walk(*a))
    validate(table)   # no identity row; S = [0, 1, 7, 49], one walk each
    assert seen == [0, 1, 7, 49] and len(walks) == 4


def test_a_changed_entry_fails_fast():
    # every row was compared once axiom 2 failed: 14 s at n = 1024 on a
    # 2-core x86-64 VM; now only row 5 is
    tab = trivial(1024).op.copy()
    tab[5, 7] = 8
    start = time.perf_counter()
    with pytest.raises(InvalidQuandleError) as exc:
        validate(tab)
    assert time.perf_counter() - start < 1
    assert str(exc.value.violations[0]) == "axiom 2 (left-invertibility) fails at (5, 7)"


@pytest.mark.parametrize("n", [4, 7, 12])
def test_corrupted_trivial_table_matches_every_row(n):
    # s_0 swaps 1 and 3 and s_1 swaps 0 and 2: axioms 1 and 2 hold, axiom 3
    # fails at q = 0, r = 1, and the identity rows generate neither 0 nor 1
    tab = trivial(n).op.copy()
    tab[0, [1, 3]], tab[1, [0, 2]] = (3, 1), (2, 0)
    expected = _axiom3_full(tab)
    assert expected
    with pytest.raises(InvalidQuandleError) as exc:
        validate(tab)
    for cap in (7, 10**6):
        violations, truncated = axiom_violations(tab, cap=cap)
        assert [v.witness for v in violations] == expected[:cap]
        assert truncated == (len(expected) > cap)
    assert str(exc.value) == str(_oracle_error(expected))


def _axiom3_by_rows(tab):
    """``_axiom3_full`` one row q at a time, for tables whose n^3 arrays
    would be too large."""
    a = np.asarray(tab)
    return [(q, int(r), int(s)) for q in range(len(a))
            for r, s in np.argwhere(a[q][a] != a[a[q][:, None], a[q][None, :]])]


def _oracle_error(axiom3):
    """The ``validate`` error of a table whose only failures are the axiom-3
    witnesses ``axiom3`` of a full scan."""
    cap = quandle_module.MAX_VIOLATIONS
    return InvalidQuandleError([AxiomViolation(3, w) for w in axiom3[:cap]], len(axiom3) > cap)


def _swapped(q, row, r, s):
    """The table of ``q`` with entries (row, r) and (row, s) swapped; for r
    and s other than row, axioms 1 and 2 still hold."""
    tab = q.op.copy()
    tab[row, [r, s]] = tab[row, [s, r]]
    return tab


def _outside_generators(q):
    gens = set(_chain_rows(q.op))
    return [x for x in range(q.size) if x not in gens]


def _s5_transpositions():
    s5 = FiniteGroup.symmetric(5)
    return conj_class(s5, s5.elements.index((1, 0, 2, 3, 4)))


@pytest.mark.parametrize("build", [lambda: alexander(7, 3, 2), lambda: dihedral(63),
                                   lambda: alexander(5, 2, 2), _s5_transpositions],
                         ids=["a732", "d63", "a522", "conj_class_S5"])
def test_corrupted_rows_outside_generators_match_every_row(build):
    q = build()
    oracle = _axiom3_by_rows if q.size > 100 else _axiom3_full
    rows = _outside_generators(q)
    for row in (rows[0], rows[-1]):
        r, s = [x for x in (0, 1, 2, q.size - 1) if x != row][:2]
        tab = _swapped(q, row, r, s)
        expected = oracle(tab)
        assert expected, row
        with pytest.raises(InvalidQuandleError) as exc:
            validate(tab)
        for cap in (7, 10**6):
            violations, truncated = axiom_violations(tab, cap=cap)
            assert [v.witness for v in violations] == expected[:cap], (row, cap)
            assert truncated == (len(expected) > cap)
        every = _oracle_error(expected)
        assert str(exc.value) == str(every)
        assert exc.value.violations == every.violations


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_corruptions_outside_generators_match_full_arrays(data):
    q = data.draw(st.sampled_from([q for _, q in small_corpus() if _outside_generators(q)]
                                  + [dihedral(63), alexander(5, 2, 2)]))
    row = data.draw(st.sampled_from(_outside_generators(q)))
    others = [x for x in range(q.size) if x != row]
    r, s = data.draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
    cap = data.draw(st.integers(1, 200))
    tab = _swapped(q, row, r, s)
    expected = _axiom3_full(tab)
    violations, truncated = axiom_violations(tab, cap=cap)
    assert [v.witness for v in violations] == expected[:cap]
    assert truncated == (len(expected) > cap)


# -- closures as walks, against the semi-naive closure they replaced ------------

def _seminaive_close(op, inv_op, member, fresh):
    """The reference: close the mask ``member`` in place under |> and |>^-1,
    given that the products of its elements outside ``fresh`` already lie in
    it; each round gathers only the pairs that meet an element new in the
    round before."""
    while fresh.size:
        every = np.flatnonzero(member)
        reached = np.zeros_like(member)
        for t in (op, inv_op):
            reached[t[np.ix_(fresh, every)]] = True
            reached[t[np.ix_(every, fresh)]] = True
        fresh = np.flatnonzero(reached & ~member)
        member[fresh] = True


def _seminaive_generators(op, inv_op):
    """The greedy generating set picked with ``_seminaive_close``."""
    member = (op == np.arange(len(op))).all(axis=1)
    _seminaive_close(op, inv_op, member, np.flatnonzero(member))
    gens = []
    for x in range(len(op)):
        if not member[x]:
            gens.append(x)
            member[x] = True
            _seminaive_close(op, inv_op, member, np.array([x]))
    return gens


def test_generators_of_a2401_are_pinned():
    q = alexander(7, 4, 3)
    assert _chain_rows(q.op) == [0, 1, 7, 49, 343]
    assert _seminaive_generators(q.op, q.inv_op) == [0, 1, 7, 49, 343]


def test_generators_match_the_seminaive_closure():
    for name, q in small_corpus() + [("a732", alexander(7, 3, 2))]:
        for seed in (None, 1, 2):
            r = q if seed is None else _relabelled(q, seed)
            assert _chain_rows(r.op) == _seminaive_generators(r.op, r.inv_op), (name, seed)


@st.composite
def _mutated_tables(draw):
    """A small-corpus table, maybe relabelled, with 1-3 mutations: an entry
    changed (its row is then no permutation), two entries of a row swapped,
    or a diagonal entry changed (axiom 1 fails too)."""
    q = draw(st.sampled_from([q for _, q in small_corpus()]))
    seed = draw(st.integers(0, 3))
    tab = (q if seed == 0 else _relabelled(q, seed)).op.copy()
    cell = st.integers(0, q.size - 1)
    for _ in range(draw(st.integers(1, 3))):
        kind, row = draw(st.sampled_from(["entry", "swap", "diagonal"])), draw(cell)
        if kind == "swap":
            r, s = draw(cell), draw(cell)
            tab[row, [r, s]] = tab[row, [s, r]]
        else:
            r = row if kind == "diagonal" else draw(cell)
            tab[row, r] = (tab[row, r] + draw(st.integers(1, max(1, q.size - 1)))) % q.size
    return tab


@settings(max_examples=200, deadline=None)
@given(_mutated_tables(), st.sampled_from([1, 7, 100, 10**6]))
def test_mutated_corpus_tables_match_the_witness_oracle(tab, cap):
    want = _witness_oracle(tab.tolist())
    violations, truncated = axiom_violations(tab, cap=cap)
    assert [(v.axiom, v.witness) for v in violations] == want[:cap]
    assert truncated == (len(want) > cap)


@functools.cache
def _corpus_and_relabellings():
    return [q for _, q in small_corpus()] + [_relabelled(q, 5) for _, q in small_corpus()]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_subquandle_closure_matches_the_pair_loop(data):
    q = data.draw(st.sampled_from(_corpus_and_relabellings()))
    seed = data.draw(st.sets(st.integers(0, q.size - 1), min_size=1, max_size=4))
    sub, emb = q.subquandle_closure(seed)
    assert emb == _closure_oracle(q, seed)
    assert sub.op.tolist() == [[emb.index(q.op[a, b]) for b in emb] for a in emb]


def test_a_duplicate_of_a_failing_row_reports_its_own_witnesses():
    # rows 1 and 3 of dihedral(5) replaced by one permutation that breaks axiom 3:
    # row 3 repeats row 1, which failed, so it is compared again
    tab = dihedral(5).op.astype(np.int64)
    tab[1] = tab[3] = [0, 1, 3, 2, 4]
    want = _witness_oracle(tab.tolist())
    assert {w[0] for a, w in want if a == 3} >= {1, 3}
    for cap in (10**6, 100, 7):
        violations, truncated = axiom_violations(tab, cap=cap)
        assert [(v.axiom, v.witness) for v in violations] == want[:cap]
        assert truncated == (len(want) > cap)


@settings(max_examples=100, deadline=None)
@given(_mutated_tables(), st.integers(1, 12))
def test_axiom3_row_blocks_match_the_oracle_at_every_block_size(tab, entries):
    # a block of JSON_BLOCK_ENTRIES // n rows r, at least one, is compared at a time
    original = quandle_module.JSON_BLOCK_ENTRIES
    quandle_module.JSON_BLOCK_ENTRIES = entries
    try:
        violations, _ = axiom_violations(tab, cap=10**6)
    finally:
        quandle_module.JSON_BLOCK_ENTRIES = original
    assert [(v.axiom, v.witness) for v in violations] == _witness_oracle(tab.tolist())


def test_repeated_rows_are_checked_once():
    # power_cocycle(3, 7): 2187 points and 3 distinct rows; 26 s while every row
    # outside the closure of the passing rows was compared, 0.2 s with a row equal
    # to one that passed skipped (2-core x86-64 VM)
    from quandles import power_cocycle
    op = power_cocycle(3, 7).op
    start = time.perf_counter()
    assert np.shares_memory(validate(op).op, op)
    assert time.perf_counter() - start < 2
