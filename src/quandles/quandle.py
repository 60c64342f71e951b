"""Finite quandles as explicit operation tables on {0..n-1}.

A quandle is a set with a binary operation ``|>`` that is idempotent
(q |> q = q), left-invertible (each left translation s_q: r -> q |> r is a
bijection) and left-distributive (q |> (r |> s) = (q |> r) |> (q |> s)).
The left translations s_q are called the symmetries of the quandle; each is
an automorphism.

Carriers are always the integers 0..n-1; constructions attach a labeling for
human-readable provenance.  A quandle is held as one read-only n x n array of
the narrowest unsigned dtype that holds {0..n-1} (uint8 up to 256 points), its
operation table; the table of its inverse operation is built when first read.
A validated FiniteQuandle is immutable and its operations are pure, so
instances are safe to share across threads.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
import re
import zlib
from collections.abc import Iterator
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .groups import (GeneratorRows, _check_rows, _identity_rows, _inverse_rows, _point_dtype,
                     _read_only, walk)

MAX_VIOLATIONS = 100
JSON_BLOCK_ENTRIES = 1 << 13    # table entries written, and file bytes read, per block
_TABLE_DTYPES = (np.uint8, np.uint16)   # at most 65536 tokens
_WS = " \t\n\r"   # JSON's whitespace (RFC 8259)


class QuandleError(Exception):
    pass


class RangeError(QuandleError):
    """Malformed table: ragged rows or entries outside {0..n-1}."""

    def __init__(self, message: str, positions=()):
        super().__init__(message)
        self.positions = tuple(positions)


class AxiomViolation(NamedTuple):
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


class FiniteQuandle:
    """An n-element quandle held as one read-only n x n array of ``_point_dtype(n)``.

    ``op[q, r]`` is q |> r, and row q of ``op`` is the symmetry s_q.
    ``inv_op[q, r]`` is q |>^-1 r, row q the inverse of s_q: a second n x n
    table, built by one scatter when first read and then kept.  Only
    ``SignedWord`` and coloring counts read it whole;
    the orbit, closure and realization code inverts the one row it needs.
    Sums of entries would wrap in their unsigned dtype, so the tables are
    only indexed with and compared.  The public maps (``right_translation``,
    ``to_dict``) return Python ints.

    Do not call the constructor with an unchecked table; use ``validate``.
    """

    def __init__(self, op, labels: Sequence[str] | None = None):
        self.op = _read_only(op, _point_dtype(len(op)))
        self.size = len(self.op)
        self.labels = tuple(labels) if labels is not None else None
        self.record = None   # a construction's ConstructionRecord, set after validate
        self._hash = zlib.crc32(np.ascontiguousarray(self.op))   # read in place

    @functools.cached_property
    def inv_op(self) -> np.ndarray:
        return _read_only(_inverse_rows(self.op))

    # -- elementary maps -----------------------------------------------------

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
        """Closed under |> and |>^-1.  Each s_q is injective, so on a finite subset
        closed under |> it permutes the subset, and closure under |>^-1 follows."""
        member = self._members(subset)
        return bool(member[self.op[np.ix_(*[np.flatnonzero(member)] * 2)]].all())

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
        if not isinstance(table, (list, np.ndarray)):
            raise RangeError("quandle 'table' must be a list of rows")
        if "size" in d and d["size"] != len(table):
            raise RangeError("declared size does not match table")
        labels = d.get("labels")
        if labels is not None and (not isinstance(labels, list)
                                   or len(labels) != len(table)):
            raise RangeError("labels must be a list with one entry per element")
        return validate(table, labels=tuple(labels) if labels else None)

    @classmethod
    def from_json(cls, source) -> "FiniteQuandle":
        """The quandle of the JSON text ``source``, or of the UTF-8 file at the path
        ``source`` (an ``os.PathLike``).  Either is read as a stream of bytes by
        ``_read_object``; only a text it refuses is parsed whole by ``json.loads`` (a
        file decoded as ``Path.read_text`` decodes it), so every message is unchanged."""
        is_path = isinstance(source, os.PathLike)
        with open(source, "rb") if is_path else io.BytesIO(
                source.encode("utf-8", "surrogatepass")) as stream:
            d = _read_object(stream)
        try:
            if d is None and is_path:
                with open(source, encoding="utf-8") as f:
                    d = json.loads(f.read())
            elif d is None:
                d = json.loads(source)
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
    chunks.  A dict holding a dict, an array or an iterator is written key by
    key (its keys are strings), a nonempty 2-D uint8 or uint16 array (every
    table the program writes) by ``_table_chunks``, and an iterator as one
    array, a block at a time: blocks of a table's rows (2-D arrays, as
    ``groups.PermutationGroup.table_rows`` yields them) by ``_table_chunks``,
    or lists of items.  Rows formed where read (a ``groups.GeneratorRows``)
    are formed first.  Any other value is one ``json.dumps``, which keeps its
    escaping and number format."""
    obj = np.asarray(obj) if isinstance(obj, GeneratorRows) else obj
    if (isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.size
            and obj.dtype in _TABLE_DTYPES):
        yield from _table_chunks([obj])
    elif isinstance(obj, Iterator):
        first = next(obj, None)
        if isinstance(first, np.ndarray):
            yield from _table_chunks(itertools.chain([first], obj))
            return
        items = False   # a list block is written as the items of its json.dumps
        yield "["
        for block in () if first is None else itertools.chain([first], obj):
            if block:
                yield ("," if items else "") + _dumps(block)[1:-1]
                items = True
        yield "]"
    elif isinstance(obj, dict) and any(isinstance(v, (dict, np.ndarray, GeneratorRows, Iterator))
                                       for v in obj.values()):
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "{") + json.dumps(key) + ":"
            yield from _json_chunks(obj[key])
        yield "}"
    else:
        yield _dumps(obj.tolist() if isinstance(obj, np.ndarray) else obj)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _table_chunks(blocks):
    """The JSON text of the table whose rows are those of the 2-D arrays
    ``blocks``, ``JSON_BLOCK_ENTRIES`` entries of whole rows at a time.  For
    v = 0..max, ``tok[v]`` is the digits of v, NUL padding and a comma, and
    ``end[v]`` the same with "]" for the last entry of a row; they are built
    again only when a block holds a larger entry.  A block is b",[" and the
    tokens of each row: its bytes, less the NULs, read ",[0,1],[1,0]"."""
    tok, first = np.empty(0, "S1"), True
    yield "["
    for a in blocks:
        for i in range(0, len(a), step := max(1, JSON_BLOCK_ENTRIES // a.shape[1])):
            rows = a[i:i + step]
            if (m := int(rows.max()) + 1) > len(tok):
                width = len(str(m - 1))
                digits = np.full((2, m, width + 1), ord(","), np.uint8)
                digits[:, :, :width] = np.arange(m).astype(f"S{width}")[:, None].view(np.uint8)
                digits[1, :, width] = ord("]")
                tok, end = digits.view(f"S{width + 1}")[..., 0]
            block = np.empty((len(rows), rows.shape[1] + 1), tok.dtype)
            block[:, 0] = b",["
            np.take(tok, rows[:, :-1], out=block[:, 1:-1])
            block[:, -1] = end[rows[:, -1]]
            text = block.tobytes().replace(b"\0", b"").decode()
            yield text[1:] if first else text
            first = False
    yield "]"


_KEY = re.compile(f'"table"[{_WS}]*:[{_WS}]*\\['.encode())   # up to the table's "["


def _read_object(stream) -> dict | None:
    """The JSON object in the seekable binary ``stream``, read from its start, with its table as
    an n x n array, else None.  The head before the first "table": [ is held, the table's rows
    are read ``JSON_BLOCK_ENTRIES`` bytes of whole rows at a time by ``_read_table``, and
    ``json.loads`` reads head, a NaN it marks and the rest, which must leave the NaN as the
    object's table.  When they do not, the next "table": [ is tried, read again from the stream."""
    size, head, pos = stream.seek(0, 2), bytearray(), 0
    stream.seek(0)
    while True:
        if (key := _KEY.search(head, pos)) is None:
            if not (block := stream.read(JSON_BLOCK_ENTRIES)):
                return None
            k = head.rfind(b'"table"', pos)   # a key cut by the block's end starts at the last
            pos = k if k >= 0 else max(pos, len(head) - 6)
            head += block
            continue
        start, marks = key.end(), []   # marks: the NaNs json.loads reads
        table = _read_table(stream, bytes(head[start:]), size - start)
        try:
            d = None if table is None else json.loads(
                (head[:start - 1] + b"NaN" + table[1]).decode(),
                parse_constant=lambda c: marks.append(c) or marks)
        except (ValueError, RecursionError):   # UnicodeDecodeError is a ValueError
            d = None
        if len(marks) == 1 and isinstance(d, dict) and d.get("table") is marks:
            return {**d, "table": table[0]}
        stream.seek(len(head))
        pos = key.start() + 1


def _read_table(stream, buf: bytes, size: int) -> tuple[np.ndarray, bytes] | None:
    """The n x n table whose rows follow its "[" in ``buf`` and then ``stream``, ``size`` bytes
    from that "[" to the end, and the bytes after its "]"; None when they are not n rows of n
    entries (n from row 0) for ``_read_rows``, or ``size`` is too small for n^2 entries, which
    is checked before n x n are allocated."""
    while (k := buf.find(b"]")) < 0:   # row 0, its commas counted as it is read
        if (buf.count(b",") + 1) ** 2 > size // 2 or not (block := stream.read(JSON_BLOCK_ENTRIES)):
            return None
        buf += block
    n = buf.count(b",", 0, k) + 1
    if n * n > size // 2:
        return None
    out, row, sep = np.empty((n, n), _point_dtype(n)), 0, b","   # row 0 has no "," before it
    while row < n:
        if buf.count(b"]") > n - row:   # the table's own "]" and what follows it
            k = -1
            for _ in range(n - row):
                k = buf.find(b"]", k + 1)
        elif (k := buf.rfind(b"]")) < 0 or len(buf) < JSON_BLOCK_ENTRIES:
            if block := stream.read(JSON_BLOCK_ENTRIES):
                buf += block
                continue
            if k < 0:
                return None
        rows = _read_rows(sep + buf[:k + 1], n)
        if rows is None or row + len(rows) > n:
            return None
        out[row:row + len(rows)], row, buf, sep = rows, row + len(rows), buf[k + 1:], b""
    rest = (buf + stream.read()).lstrip(_WS.encode())
    return (out, rest[1:]) if rest.startswith(b"]") else None


def _read_rows(b: bytes, n: int) -> np.ndarray | None:
    """The rows of ``b``, a "," and rows "[e,...,e]" joined by commas, as int64 when
    each e is one of 0..n-1 in digits, else None; ``np.fromstring`` stops at bad text."""
    c = b.translate(None, _WS.encode())
    if len(c) < len(b) and re.search(f"[0-9][{_WS}]+[0-9]".encode(), b):
        return None   # whitespace inside a number
    a = np.frombuffer(c + b"]]", np.uint8)   # two bytes past the end, so a[p + 2] is read
    p = np.flatnonzero((a[:-2] < 48) | (a[:-2] > 57))   # all but the digits b"0" to b"9"
    after, next2 = a[p + 1], a[p + 2]   # compared only: uint8 arithmetic costs a process 64 KB
    form = np.frombuffer(b",[" + b"," * (n - 1) + b"]", np.uint8)   # a row and its separator
    r = len(p) // (n + 2)
    if (len(p) != r * (n + 2) or (a[p].reshape(r, n + 2) != form).any()
            or (((after >= 48) & (after <= 57)).reshape(r, n + 2)
                != (np.arange(n + 2) % (n + 1) > 0)).any()
            or ((after == 48) & (next2 >= 48) & (next2 <= 57)).any()):
        return None   # only commas and brackets, digits after each "[" and comma, no leading 0
    v = np.fromstring(c.translate(None, b"[]")[1:], np.int64, sep=",")   # saturates past int64
    return v.reshape(r, n) if v.max() < n else None


def _distributivity_failures(a: np.ndarray, acts=None):
    """The ``failures`` of axiom 3 on ``a``: row q yields each (q, r, s), (r, s) row-major,
    with q . (r . s) != (q |> r) . (q . s), where q . s is q |> s, or ``acts[q, s]`` for
    an action's n x m permutations, compared a block of about ``JSON_BLOCK_ENTRIES``
    entries (rows r) at a time.  Row q is compared only through a[q] and u[q], so a
    row equal in both to one that passed passes; a row equal to one that failed is
    compared again, for its own witnesses."""
    u = a if acts is None else acts
    step, passed = max(1, JSON_BLOCK_ENTRIES // max(u.shape[1], 1)), {}   # passed: hash -> rows

    def failures(q):
        twins = passed.setdefault(hash(a[q].tobytes() + u[q].tobytes()), [])
        if any(np.array_equal(a[q], a[p]) and np.array_equal(u[q], u[p]) for p in twins):
            return
        failed = False
        for r in range(0, len(a), step):   # u[a[q, r], u[q, s]], u[q, u[r, s]]
            bad = u[a[q, r:r + step]].take(u[q], axis=1) != u[q][u[r:r + step]]
            if bad.any():
                failed = True
                yield from ((q, r + i, s) for i, s in np.argwhere(bad).tolist())
        if not failed:
            twins.append(q)
    return failures


def _violations(a: np.ndarray, cap: int):
    """``axiom_violations`` of the n x n array ``a`` of ``_point_dtype(n)``."""
    n = len(a)
    # axiom 1 on the diagonal.  Axiom 2, a row at a time: row q is a permutation exactly
    # when its count of each value has no zero, and its first zero is the least it misses
    out = [AxiomViolation(1, (int(q),)) for q in np.flatnonzero(a.diagonal() != np.arange(n))]
    out += [AxiomViolation(2, (q, int(np.bincount(a[q], minlength=n).argmin())))
            for q in range(n) if not np.bincount(a[q], minlength=n).all()]
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
    it is already); it builds no inverse table.
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
    return FiniteQuandle(a, labels=labels)
