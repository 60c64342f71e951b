"""Finite quandles as explicit operation tables on {0..n-1}.

A quandle is a set with a binary operation ``|>`` that is idempotent
(q |> q = q), left-invertible (each left translation s_q: r -> q |> r is a
bijection) and left-distributive (q |> (r |> s) = (q |> r) |> (q |> s)).
The left translations s_q are called the symmetries of the quandle; each is
an automorphism.

Carriers are always the integers 0..n-1; constructions attach a labeling for
human-readable provenance.  A quandle is held only as two read-only n x n
int64 arrays, its operation table and the table of its inverse operation.
A validated FiniteQuandle is immutable and its operations are pure, so
instances are safe to share across threads.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MAX_VIOLATIONS = 100
AXIOM3_BLOCK_ENTRIES = 1 << 22  # (q, r, s) triples compared per block


class QuandleError(Exception):
    pass


class RangeError(QuandleError):
    """Malformed table: ragged rows or entries outside {0..n-1}."""

    def __init__(self, message: str, positions=()):
        super().__init__(message)
        self.positions = tuple(positions)


@dataclass(frozen=True)
class AxiomViolation:
    """One failed quandle axiom with a witness tuple.

    axiom 1: idempotence, witness (q,);
    axiom 2: left-invertibility, witness (q, r);
    axiom 3: left-distributivity, witness (q, r, s).
    """

    axiom: int
    witness: tuple[int, ...]

    def __str__(self):
        names = {1: "idempotence", 2: "left-invertibility", 3: "left-distributivity"}
        return f"axiom {self.axiom} ({names[self.axiom]}) fails at {self.witness}"


class InvalidQuandleError(QuandleError):
    def __init__(self, violations: Sequence[AxiomViolation], truncated: bool = False):
        self.violations = list(violations)
        self.truncated = truncated
        head = "; ".join(str(v) for v in self.violations[:3])
        more = f" (+{len(self.violations) - 3} more)" if len(self.violations) > 3 else ""
        suffix = " [witness list truncated]" if truncated else ""
        super().__init__(f"{len(self.violations)} axiom violation(s): {head}{more}{suffix}")


@dataclass(frozen=True)
class ElementSymmetry:
    """The left translation s_q; always a quandle automorphism."""

    base: int
    perm: tuple[int, ...]

    def __call__(self, r: int) -> int:
        return self.perm[r]


class FiniteQuandle:
    """An n-element quandle held as two read-only n x n int64 arrays.

    ``op[q, r]`` is q |> r and ``inv_op[q, r]`` is q |>^-1 r; row q of
    ``op`` is the symmetry s_q and row q of ``inv_op`` its inverse.  The
    inverse table is always materialized: the inverse operation shows up in
    every orbit computation, and n^2 integers are trivial at desk scale.
    The public maps (``symmetry``, ``right_translation``, ``to_dict``)
    return Python ints.

    Do not call the constructor with unchecked tables; use ``validate``.
    """

    def __init__(self, op, inv_op, labels: Sequence[str] | None = None, record=None):
        self.op = np.array(op, dtype=np.int64)
        self.inv_op = np.array(inv_op, dtype=np.int64)
        self.op.flags.writeable = self.inv_op.flags.writeable = False
        self.size = len(self.op)
        self.labels = tuple(labels) if labels is not None else None
        self.record = record
        self._hash = hash(self.op.tobytes())

    # -- elementary maps -----------------------------------------------------

    def symmetry(self, q: int) -> ElementSymmetry:
        if not 0 <= q < self.size:
            raise IndexError(f"element {q} out of range for size {self.size}")
        return ElementSymmetry(q, tuple(self.op[q].tolist()))

    def right_translation(self, q: int) -> tuple[int, ...]:
        """The column map r -> r |> q.  Not a bijection in general."""
        if not 0 <= q < self.size:
            raise IndexError(f"element {q} out of range for size {self.size}")
        return tuple(self.op[:, q].tolist())

    # -- subquandles ---------------------------------------------------------

    def _members(self, subset: Iterable[int]) -> np.ndarray:
        """Membership mask of ``subset``; raises IndexError out of range."""
        member = np.zeros(self.size, dtype=bool)
        for x in subset:
            if not 0 <= x < self.size:
                raise IndexError(f"element {x} out of range for size {self.size}")
            member[x] = True
        return member

    def subquandle_closure(self, seed: Iterable[int]) -> tuple["FiniteQuandle", tuple[int, ...]]:
        """Smallest subset containing ``seed`` closed under |> and |>^-1,
        reindexed as a standalone quandle, plus the embedding into self."""
        member = self._members(seed)
        if not member.any():
            raise ValueError("seed set must be nonempty")
        _close(self.op, self.inv_op, member, np.flatnonzero(member))
        emb = np.flatnonzero(member)
        pos = np.cumsum(member) - 1
        labels = tuple(self.labels[e] for e in emb) if self.labels else None
        return validate(pos[self.op[np.ix_(emb, emb)]], labels=labels), tuple(emb.tolist())

    def is_closed_subset(self, subset: Iterable[int]) -> bool:
        member = self._members(subset)
        s = np.ix_(*[np.flatnonzero(member)] * 2)
        return bool(member[self.op[s]].all() and member[self.inv_op[s]].all())

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        d = {"size": self.size, "table": self.op.tolist()}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: dict) -> "FiniteQuandle":
        if "table" not in d:
            raise RangeError("quandle JSON needs a 'table' field")
        table = d["table"]
        if not isinstance(table, list):
            raise RangeError("quandle 'table' must be a list of rows")
        if "size" in d and d["size"] != len(table):
            raise RangeError("declared size does not match table")
        labels = d.get("labels")
        if labels is not None and (not isinstance(labels, list)
                                   or len(labels) != len(table)):
            raise RangeError("labels must be a list with one entry per element")
        return validate(table, labels=tuple(labels) if labels else None)

    @classmethod
    def from_json(cls, text: str) -> "FiniteQuandle":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RangeError(f"invalid JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise RangeError("quandle JSON must be an object")
        return cls.from_dict(d)

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FiniteQuandle) and np.array_equal(self.op, other.op)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        fam = f", {self.record.family}" if self.record is not None else ""
        return f"FiniteQuandle(size={self.size}{fam})"


def _close(op: np.ndarray, inv_op: np.ndarray, member: np.ndarray,
           fresh: np.ndarray) -> None:
    """Close the mask ``member`` in place under |> and |>^-1, given that the
    products of its elements outside ``fresh`` already lie in it.

    Semi-naive: each round gathers only the pairs that meet an element new
    in the round before, so each pair is gathered in one round only, and a
    closure, or a run of closures that grow one mask, costs O(n^2) in all."""
    while fresh.size:
        every = np.flatnonzero(member)
        reached = np.zeros_like(member)
        for t in (op, inv_op):
            reached[t[np.ix_(fresh, every)]] = True
            reached[t[np.ix_(every, fresh)]] = True
        fresh = np.flatnonzero(reached & ~member)
        member[fresh] = True


def _generators(op: np.ndarray, inv_op: np.ndarray) -> list[int]:
    """A set that generates Q together with the elements whose row is the
    identity, picked greedily in increasing order: each is the least element
    outside the closure of those elements and the ones picked before it."""
    member = (op == np.arange(len(op))).all(axis=1)
    _close(op, inv_op, member, np.flatnonzero(member))
    gens = []
    for x in range(len(op)):
        if not member[x]:
            gens.append(x)
            member[x] = True
            _close(op, inv_op, member, np.array([x]))
    return gens


def _distributivity_failures(a: np.ndarray, rows: Sequence[int], acts=None):
    """Yield each (q, r, s) with q in ``rows`` and q . (r . s) != (q |> r) .
    (q . s), q in the order given, then (r, s) row-major, where q . s is
    ``acts[q, s]`` for an n x m int64 array of permutations, or q |> s if
    ``acts`` is None (axiom 3).  Blocks of rows keep memory at
    O(AXIOM3_BLOCK_ENTRIES); int32 entries halve the bytes each gather moves."""
    a = a.astype(np.int32)
    u = a if acts is None else acts.astype(np.int32)
    rows = np.asarray(rows, dtype=np.int64)
    step = max(1, AXIOM3_BLOCK_ENTRIES // max(1, u.size))
    for i in range(0, len(rows), step):
        blk = rows[i:i + step]
        uq = u[blk]
        lhs = uq[:, u]                                   # u[q, u[r, s]]
        rhs = u[a[blk][:, :, None], uq[:, None, :]]      # u[a[q, r], u[q, s]]
        bad = lhs != rhs
        for q, r, s in np.argwhere(bad) if bad.any() else ():
            yield int(blk[q]), int(r), int(s)


def _violations(a: np.ndarray, cap: int):
    """``axiom_violations`` of the int64 array ``a``, plus the inverse
    table when axioms 1 and 2 hold (else None)."""
    n = len(a)
    out: list[AxiomViolation] = []
    truncated = False
    inv = None

    def push(v: AxiomViolation) -> bool:
        nonlocal truncated
        if len(out) >= cap:
            truncated = True
            return False
        out.append(v)
        return True

    # axiom 1: idempotence on the diagonal
    for q in np.flatnonzero(a.diagonal() != np.arange(n)):
        if not push(AxiomViolation(1, (int(q),))):
            return out, truncated, inv

    # axiom 2: each row is a permutation
    row_is_perm = (np.sort(a, axis=1) == np.arange(n)).all(axis=1)
    for q in np.flatnonzero(~row_is_perm):
        missing = min(set(range(n)) - set(int(x) for x in a[q]))
        if not push(AxiomViolation(2, (int(q), missing))):
            return out, truncated, inv

    # axiom 3: left distributivity, on the rows of a generating set once
    # axioms 1 and 2 hold, else on every row (see ``axiom_violations``)
    if not out:
        inv = np.empty_like(a)
        inv[np.arange(n)[:, None], a] = np.arange(n)
        gens = _generators(a, inv)
        if len(gens) < n and next(_distributivity_failures(a, gens), None) is None:
            return out, truncated, inv
    for w in _distributivity_failures(a, range(n)):
        if not push(AxiomViolation(3, w)):
            break
    return out, truncated, inv


def axiom_violations(table: Sequence[Sequence[int]],
                     cap: int = MAX_VIOLATIONS) -> tuple[list[AxiomViolation], bool]:
    """All axiom violations of a well-formed table, up to ``cap`` witnesses.

    Returns (violations, truncated).  Assumes entries are already known to be
    in range; use ``validate`` for the full pipeline.

    Axiom 3 is checked on the rows of a set S when axioms 1 and 2 hold: if
    s_q and s_r are automorphisms, so are s_{q|>r} = s_q s_r s_q^-1 and
    s_{q|>^-1 r} = s_q^-1 s_r s_q, so the rows whose symmetry is an
    automorphism form a subquandle.  Identity rows need no check, so S need
    only generate Q with them (S is empty for a trivial quandle).  S is
    picked greedily (the least element outside the closure so far), at
    O(n^2) cost, and its rows cost |S| n^2.  If a row of S fails, or S is all
    of Q, every row is checked, so the witnesses are always those of the full
    n^3 comparison, in row-major (q, r, s) order.
    """
    out, truncated, _ = _violations(np.asarray(table, dtype=np.int64), cap)
    return out, truncated


def _entries(table, n: int) -> np.ndarray:
    """The rows of ``table`` as one n x n int64 array.  The entry types are
    read in one pass; only when they are not all ints, or some int is out
    of range, are the entries walked to name every bad position."""
    kinds = ({table.dtype.type} if isinstance(table, np.ndarray) and table.dtype != object
             else set(map(type, itertools.chain.from_iterable(table))))
    if all(k is not bool and issubclass(k, (int, np.integer)) for k in kinds):
        try:
            a = np.array(table, dtype=np.int64)
        except OverflowError:   # an int past int64 is out of range too
            a = None
        if a is not None and not ((a < 0) | (a >= n)).any():
            return a
    bad = [(q, r) for q, row in enumerate(table) for r, x in enumerate(row)
           if not isinstance(x, (int, np.integer)) or isinstance(x, bool)
           or not 0 <= x < n]
    head = ", ".join(str(p) for p in bad[:5])
    raise RangeError(f"entries out of range at {head}", positions=bad)


def validate(table: Sequence[Sequence[int]],
             labels: Sequence[str] | None = None) -> FiniteQuandle:
    """Check the three quandle axioms and return the validated quandle.

    ``table`` is a sequence of rows or a 2-D integer array.  Raises
    RangeError for malformed tables and InvalidQuandleError carrying the
    full witness list (capped at 100) for axiom failures.  The quandle
    keeps the checked int64 array as ``op``, and as ``inv_op`` the inverse
    table that the axiom check built from its rows.
    """
    n = len(table)
    if n == 0:
        raise RangeError("a quandle must be nonempty")
    for q, row in enumerate(table):
        if not isinstance(row, (list, tuple, np.ndarray)):
            raise RangeError(f"row {q} is not a list")
        if len(row) != n:
            raise RangeError(f"row {q} has length {len(row)}, expected {n}")
    a = _entries(table, n)
    if a.ndim != 2:
        raise RangeError(f"table has {a.ndim} dimensions, expected 2")
    violations, truncated, inv = _violations(a, MAX_VIOLATIONS)
    if violations:
        raise InvalidQuandleError(violations, truncated)
    return FiniteQuandle(a, inv, labels=labels)
