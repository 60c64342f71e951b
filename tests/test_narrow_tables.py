"""Quandle, group and action tables at the edges of their unsigned dtypes.

Every n x n table of n points is held as uint8 up to 256 points and uint16
beyond, so 255, 256 and 257 points sit on either side of the first edge.
Arithmetic in those dtypes wraps (-1 is 255 and 256 is 0 in uint8), so each
test compares against Python ints or int64 arrays, where nothing wraps.
"""

import math
import random

import numpy as np
import pytest

from quandles import (AxiomViolation, InvalidQuandleError, RangeError, axiom_violations,
                      dihedral, trivial, validate)
from quandles.groups import FiniteGroup, GroupError, close
from quandles.symmetry import ActionError, QuandleAction

SIZES = (1, 2, 255, 256, 257, 4096)


def narrow(n):
    return np.uint8 if n <= 256 else np.uint16


def assert_held(*arrays, dtype):
    for a in arrays:
        assert a.dtype == dtype and not a.flags.writeable


def pairs(n, count=2000):
    """Every pair of points up to 257 points; past that the corners and
    ``count`` pairs drawn with a fixed seed."""
    if n <= 257:
        return [(x, y) for x in range(n) for y in range(n)]
    rng = random.Random(n)
    corners = [(x, y) for x in (0, 1, n - 1) for y in (0, 1, n - 1)]
    return corners + [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def dihedral_int64(n):
    i = np.arange(n, dtype=np.int64)
    return (2 * i[:, None] - i) % n


@pytest.mark.parametrize("n", SIZES)
def test_quandle_tables_are_narrow(n):
    i = np.arange(n, dtype=np.int64)
    for q, op, ref in ((trivial(n), np.broadcast_to(i, (n, n)), lambda x, y: y),
                       (dihedral(n), dihedral_int64(n), lambda x, y: (2 * x - y) % n)):
        assert_held(q.op, q.inv_op, dtype=narrow(n))
        assert np.array_equal(q.op, op)   # int64 on the right: a wrapped entry differs
        assert np.array_equal(q.inv_op, op)   # each symmetry is an involution
        for x, y in pairs(n):
            assert q.op.item(x, y) == q.inv_op.item(x, y) == ref(x, y)
        assert validate(op) == q


@pytest.mark.parametrize("n", (1, 2, 255, 256, 257))
def test_every_int_input_gives_one_quandle(n):
    q, ref = dihedral(n), dihedral_int64(n)
    tables = [ref.astype(dtype) for dtype in (np.int32, np.int64, np.uint16, np.uint64)]
    tables += [ref.tolist(), [list(map(np.int64, row)) for row in ref.tolist()], list(ref)]
    for table in tables:
        again = validate(table)
        assert again == q and hash(again) == hash(q)
        assert_held(again.op, again.inv_op, dtype=narrow(n))
        assert again.to_dict()["table"] == q.to_dict()["table"] == ref.tolist()
        assert all(type(x) is int for x in again.to_dict()["table"][-1])
    held = ref.astype(narrow(n))
    assert np.shares_memory(validate(held).op, held)   # already narrow: kept, not copied


@pytest.mark.parametrize("bad", [-1, 256, 65536, 2**64 - 1])
def test_an_entry_that_would_wrap_is_out_of_range(bad):
    ref = dihedral_int64(256)
    tables = [[list(row) for row in ref.tolist()]]
    tables += [ref.astype(dtype) for dtype in (np.int64, np.uint16, np.uint64)
               if np.can_cast(np.min_scalar_type(bad), dtype)]
    for table in tables:
        table[3][7] = bad
        with pytest.raises(RangeError, match=r"^entries out of range at \(3, 7\)$") as exc:
            validate(table)
        assert exc.value.positions == ((3, 7),)


@pytest.mark.parametrize("row, missing, twice", [(5, 0, 1), (255, 0, 1), (5, 255, 254),
                                                  (254, 255, 254)])
def test_axiom2_names_the_least_missed_value_at_256_points(row, missing, twice):
    # the least value a row misses is its witness; no entry of uint8 can mark a
    # hole, as -1 would be 255 and 256 would be 0
    table = np.tile(np.arange(256), (256, 1))
    table[row, missing] = twice   # the row hits ``twice`` twice and misses ``missing``
    for t in (table, table.tolist(), table.astype(np.uint8)):
        with pytest.raises(InvalidQuandleError) as exc:
            validate(t)
        second = [v for v in exc.value.violations if v.axiom == 2]
        assert second == [AxiomViolation(2, (row, missing))]
        assert [v for v in exc.value.violations if v.axiom == 1] == []
        assert axiom_violations(t)[0] == exc.value.violations


def cyclic_rows(n):
    ints = list(range(n))   # every row shares these int objects
    return [ints[k:] + ints[:k] for k in range(n)]


@pytest.mark.parametrize("n", SIZES)
def test_group_tables_are_narrow(n):
    shift = np.roll(np.arange(n), -1)   # x -> x + 1; its k-th power is element k
    groups = {"cyclic": FiniteGroup.cyclic(n), "from_table": FiniteGroup.from_table(cyclic_rows(n)),
              "from_permutation_group": FiniteGroup.from_permutation_group(close([shift]))}
    for name, g in groups.items():
        assert_held(g.table, g.inv_map, dtype=narrow(n))
        assert g.order == n and g.identity == 0, name
        for x, y in pairs(n):
            assert g.mul(x, y) == (x + y) % n, (name, x, y)
        assert [g.inv(x) for x in range(n)] == [(n - x) % n for x in range(n)], name
        assert g.element_orders.tolist() == [n // math.gcd(x, n) for x in range(n)], name
        assert all(type(v) is int for v in (g.mul(n - 1, n - 1), g.inv(n - 1))), name
    assert np.array_equal(groups["cyclic"].table, groups["from_table"].table)
    assert np.array_equal(groups["cyclic"].table, groups["from_permutation_group"].table)


@pytest.mark.parametrize("bad", [-1, 256, 65536])
def test_a_group_entry_that_would_wrap_is_malformed(bad):
    rows = [list(row) for row in cyclic_rows(256)]
    rows[3][7] = bad
    with pytest.raises(GroupError, match="^row 3 of multiplication table is malformed$"):
        FiniteGroup.from_table(rows)


@pytest.mark.parametrize("m", SIZES)
def test_action_tables_are_narrow(m):
    shift = np.roll(np.arange(m), -1)
    for maps in (shift[None], shift[None].astype(np.uint16), [shift.tolist()]):
        action = QuandleAction(trivial(1), m, maps)
        assert_held(action.act, dtype=narrow(m))
        assert action.act[0].tolist() == [(y + 1) % m for y in range(m)]
    natural = QuandleAction.natural(dihedral(m))
    assert_held(natural.act, dtype=narrow(m))
    assert np.shares_memory(natural.act, natural.quandle.op)


@pytest.mark.parametrize("bad", [-1, 256, 65536])
def test_an_action_entry_that_would_wrap_is_refused(bad):
    maps = np.roll(np.arange(256), -1)[None].astype(np.int64)
    maps[0, 7] = bad
    for given in (maps, maps.tolist()):
        with pytest.raises(ActionError, match="^map for element 0 is not a permutation$"):
            QuandleAction(trivial(1), 256, given)
