"""Finite quandles as explicit operation tables on {0..n-1}.

A quandle is a set with a binary operation ``|>`` that is idempotent
(q |> q = q), left-invertible (each left translation s_q: r -> q |> r is a
bijection) and left-distributive (q |> (r |> s) = (q |> r) |> (q |> s)).
The left translations s_q are called the symmetries of the quandle; each is
an automorphism.

Carriers are always the integers 0..n-1; constructions attach a labeling for
human-readable provenance.  A quandle is held only as two read-only n x n
arrays of the narrowest unsigned dtype that holds {0..n-1} (uint8 up to 256
points), its operation table and the table of its inverse operation.
A validated FiniteQuandle is immutable and its operations are pure, so
instances are safe to share across threads.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .groups import _check_rows, _identity_rows, _point_dtype, _read_only, walk

MAX_VIOLATIONS = 100
JSON_BLOCK_ENTRIES = 1 << 13    # table entries written per block


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
    """An n-element quandle held as two read-only n x n arrays of ``_point_dtype(n)``.

    ``op[q, r]`` is q |> r and ``inv_op[q, r]`` is q |>^-1 r; row q of
    ``op`` is the symmetry s_q and row q of ``inv_op`` its inverse.  The
    inverse table is always materialized: the inverse operation shows up in
    every orbit computation.  Sums of entries would wrap in their unsigned
    dtype, so the tables are only indexed with and compared.  The public
    maps (``symmetry``, ``right_translation``, ``to_dict``) return Python ints.

    Do not call the constructor with unchecked tables; use ``validate``.
    """

    def __init__(self, op, inv_op, labels: Sequence[str] | None = None, record=None):
        self.op, self.inv_op = (_read_only(a, _point_dtype(len(op))) for a in (op, inv_op))
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
        reindexed as a standalone quandle, plus the embedding into self.
        That is the orbit of ``seed`` under its symmetries, since
        s_{g(x)} = g s_x g^-1 for every g they generate."""
        x = np.flatnonzero(self._members(seed))
        if not len(x):
            raise ValueError("seed set must be nonempty")
        emb = np.sort(walk(self.op[x], x)[0])
        labels = tuple(self.labels[e] for e in emb) if self.labels else None
        sub = np.searchsorted(emb, self.op[np.ix_(emb, emb)])   # renumbered 0..len(emb)-1
        return validate(sub, labels=labels), tuple(emb.tolist())

    def is_closed_subset(self, subset: Iterable[int]) -> bool:
        member = self._members(subset)
        s = np.ix_(*[np.flatnonzero(member)] * 2)
        return bool(member[self.op[s]].all() and member[self.inv_op[s]].all())

    # -- serialization -------------------------------------------------------

    def _fields(self) -> dict:
        """The JSON object of the quandle, with ``op`` as its table."""
        d = {"size": self.size, "table": self.op}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d

    def to_dict(self) -> dict:
        return {**self._fields(), "table": self.op.tolist()}

    def to_json(self) -> str:
        return "".join(_json_chunks(self._fields()))

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


def _json_chunks(obj):
    """The canonical JSON text of ``obj`` (sorted keys, compact separators), in
    chunks.  A dict holding a dict or an array is written key by key (its keys
    are strings), an int array ``JSON_BLOCK_ENTRIES`` entries of whole rows at a
    time, so only one block is ever Python ints or text; any other value is one
    ``json.dumps``, which keeps its escaping and number format."""
    if isinstance(obj, np.ndarray):
        step = max(1, JSON_BLOCK_ENTRIES * len(obj) // max(1, obj.size))
        yield "["
        for i in range(0, len(obj), step):
            text = json.dumps(obj[i:i + step].tolist(), separators=(",", ":"))
            yield ("," if i else "") + text[1:-1]
        yield "]"
    elif isinstance(obj, dict) and any(isinstance(v, (dict, np.ndarray)) for v in obj.values()):
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "{") + json.dumps(key) + ":"
            yield from _json_chunks(obj[key])
        yield "}"
    else:
        yield json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _distributivity_failures(a: np.ndarray, acts=None):
    """The ``failures`` of axiom 3 on ``a``: row q yields each (q, r, s), (r, s) row-major,
    with q . (r . s) != (q |> r) . (q . s), where q . s is q |> s, or ``acts[q, s]`` for
    an action's n x m permutations.  ``u[q][u]`` casts its narrow n x m index in
    buffers, where ``np.take`` would first copy all of it to intp."""
    u = a if acts is None else acts

    def failures(q):
        bad = u[a[q]].take(u[q], axis=1) != u[q][u]   # u[a[q, r], u[q, s]], u[q, u[r, s]]
        return ((q, r, s) for r, s in (np.argwhere(bad).tolist() if bad.any() else ()))
    return failures


def _violations(a: np.ndarray, cap: int):
    """``axiom_violations`` of the n x n array ``a`` of ``_point_dtype(n)``."""
    n = len(a)
    # axiom 1 on the diagonal.  Axiom 2: row q is a permutation exactly when
    # the row of a hit mask scattered from it has no hole, and its first hole
    # is the least value that row q misses.  No entry of ``a``'s dtype can
    # mark a hole: -1 wraps to its largest value, and 256 to 0 in uint8
    hit = np.zeros((n, n), dtype=bool)
    hit[np.arange(n)[:, None], a] = True
    out = [AxiomViolation(1, (int(q),)) for q in np.flatnonzero(a.diagonal() != np.arange(n))]
    out += [AxiomViolation(2, (int(q), int(hit[q].argmin())))
            for q in np.flatnonzero(~hit.all(axis=1))]
    more = _check_rows(_distributivity_failures(a), a, _identity_rows(a))
    out += (AxiomViolation(3, w) for w in itertools.islice(more, max(0, cap + 1 - len(out))))
    return out[:cap], len(out) > cap


def axiom_violations(table: Sequence[Sequence[int]],
                     cap: int = MAX_VIOLATIONS) -> tuple[list[AxiomViolation], bool]:
    """All axiom violations of a well-formed table, up to ``cap`` witnesses.

    Returns (violations, truncated).  Assumes entries are already known to be
    in range; use ``validate`` for the full pipeline.

    Axiom 3 is checked by ``groups._check_rows`` seeded with the identity
    rows: if row q passes and s_q is a permutation, s_{q |> r} = s_q s_r s_q^-1,
    so row q |> r passes if row r does, whatever axioms 1 and 2 say.  The
    witnesses are those of the full n^3 comparison, in row-major order.
    """
    return _violations(np.asarray(table, dtype=_point_dtype(len(table))), cap)


def _entries(table, n: int) -> np.ndarray:
    """The rows of ``table`` as one n x n C-order array of ``_point_dtype(n)``.
    The entry types are read in one pass; only when they are not all ints,
    or some int is out of range, are the entries walked to name every bad
    position.  A cast to an unsigned dtype wraps, so an int array's range is
    checked first; Python ints parse into it (one past it raises), others
    through int64."""
    array = isinstance(table, np.ndarray) and table.dtype != object
    kinds = {table.dtype.type} if array else set(map(type, itertools.chain.from_iterable(table)))
    if all(k is not bool and issubclass(k, (int, np.integer)) for k in kinds):
        with contextlib.suppress(OverflowError):   # an int past its dtype is out of range
            a = table if array else np.array(table, _point_dtype(n) if kinds == {int} else np.int64)
            if a.min() >= 0 and a.max() < n:
                return np.asarray(a, dtype=_point_dtype(n), order="C")   # read row by row
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
    keeps the checked table as ``op``, of ``_point_dtype(n)`` (not copied if
    it is already), and as ``inv_op`` the inverse scattered from its rows.
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
    violations, truncated = _violations(a, MAX_VIOLATIONS)
    if violations:
        raise InvalidQuandleError(violations, truncated)
    inv = np.empty_like(a)   # row q of inv_op is the inverse of row q
    inv[np.arange(n)[:, None], a] = np.arange(n, dtype=a.dtype)
    return FiniteQuandle(a, inv, labels=labels)
