"""The numeric table reader against the parse it stands in for.

``FiniteQuandle.from_json`` reads a table that runs from the "[" after the
text's last "table": to its last "]" straight into an array
(``quandle._read_object``), and hands every other text to ``json.loads``.
Each test runs both side by side: the reader
as it is, and ``json.loads`` followed by ``from_dict``, and requires the same
quandle or the same exception and message.  The CLI is compared the same
way, with the reader switched off for the reference run.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandles.quandle as quandle_module
from quandles import FiniteQuandle, dihedral, trivial, validate
from quandles.cli import run
from quandles.quandle import RangeError, _read_object

from corpus_util import cli_peak_mb, corpus

D3 = dihedral(3).to_json()   # the small file every byte of which is mutated


def json_loads_reference(text: str) -> FiniteQuandle:
    """``from_json`` as it read every text before the numeric reader."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RangeError(f"invalid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise RangeError("quandle JSON must be an object")
    return FiniteQuandle.from_dict(d)


def outcome(read, text):
    """The quandle ``read`` makes of ``text``, or its exception, as comparable values."""
    try:
        q = read(text)
    except Exception as exc:   # every failure is compared, whatever its type
        return type(exc), str(exc), getattr(exc, "positions", None)
    return q.op.dtype, q.op.tolist(), q.labels


def assert_same(text: str):
    assert outcome(FiniteQuandle.from_json, text) == outcome(json_loads_reference, text), text[:200]


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def reader_off():
    """Every text goes to ``json.loads``, as before the numeric reader."""
    original = quandle_module._read_object
    quandle_module._read_object = lambda text: None
    try:
        yield
    finally:
        quandle_module._read_object = original


def assert_cli_same(path, data: bytes, commands=("check", "connected")):
    """The CLI's exit code, stdout and stderr on ``data``, with the reader and without."""
    path.write_bytes(data)
    for command in commands:
        fast = cli([command, "--json", str(path)])
        with reader_off():
            slow = cli([command, "--json", str(path)])
        assert fast == slow, (command, data[:200])


def test_every_corpus_file_takes_the_reader():
    for name, q in corpus():
        text = q.to_json()
        d = _read_object(text)
        assert d is not None, name
        ref = json.loads(text)
        assert d["table"].dtype == q.op.dtype and d["table"].tolist() == ref["table"], name
        assert {k: v for k, v in d.items() if k != "table"} == {
            k: v for k, v in ref.items() if k != "table"}, name
        assert_same(text)
        assert_same(json.dumps(q.to_dict()))   # ", " and ": " separators


def _variants(q: FiniteQuandle):
    d = q.to_dict()
    table = json.dumps(d["table"])
    rows = json.dumps(d["table"], separators=(",", ":"))
    return {
        "indent": json.dumps(d, sort_keys=True, indent=1),
        "indent-0": json.dumps(d, sort_keys=True, indent=0),
        "tabs-crlf": json.dumps(d, sort_keys=True).replace(", ", ",\t\r\n "),
        "padded": " \n\t" + q.to_json().replace(":", " : ").replace("[", "[ ") + " \r\n ",
        "table-first": json.dumps({"table": d["table"], "size": q.size}),
        "table-middle": json.dumps({"size": q.size, "table": d["table"], "labels": d["labels"]}),
        "duplicate-table": '{"table":[[9]],"size":%d,"table":%s}' % (q.size, rows),
        "duplicate-table-last-bad": '{"table":%s,"table":[[9]]}' % rows,
        "table-in-a-label": json.dumps({"labels": ['"table":' + rows + "}"] + d["labels"][1:],
                                        "table": d["table"]}),
        "escaped-table-label": '{"labels":["x\\"table"],"table":%s}' % rows,
        "table-key-in-a-label": '{"a\\"table":%s}' % rows,
        "nested-table": '{"size":%d,"x":{"table":%s}}' % (q.size, rows),
        "only-table": '{"table":%s}' % table,
        "empty-head-comma": '{,"table":%s}' % rows,
        "double-comma": '{"size":%d,,"table":%s}' % (q.size, rows),
        "no-colon": '{"size":%d,"table"%s}' % (q.size, rows),
        "unclosed": '{"table":%s' % rows,
        "trailing-text": '{"table":%s}x' % rows,
        "array-of-object": '[{"table":%s}]' % rows,
        "size-mismatch": '{"size":%d,"table":%s}' % (q.size + 1, rows),
        "labels-mismatch": '{"labels":["a"],"table":%s}' % rows,
        "bom": "\ufeff" + q.to_json(),
        "non-ascii-label": '{"labels":%s,"table":%s}' % (json.dumps(["\u00e9"] * q.size), rows),
        "non-ascii-space": '{"table":[[0,\u00a02,1],[2,1,0],[1,0,2]]}',
        "constant-in-head": '{"labels":[Infinity%s],"table":%s}' % (",1" * (q.size - 1), rows),
        "nan-size": '{"size":NaN,"table":%s}' % rows,
    }


@pytest.mark.parametrize("name", sorted(_variants(dihedral(3))))
def test_layout_and_key_variants(name, tmp_path):
    for q in (dihedral(3), trivial(1), dihedral(5)):
        assert_same(_variants(q)[name])
    assert_cli_same(tmp_path / "q.json", _variants(dihedral(3))[name].encode())


def test_whitespace_variants_take_the_reader():
    q = dihedral(5)
    for name in ("indent", "indent-0", "tabs-crlf", "padded", "duplicate-table",
                 "table-in-a-label", "non-ascii-label"):
        text = _variants(q)[name]
        d = _read_object(text)
        assert d is not None and np.array_equal(d["table"], q.op), name


ENTRIES = ["01", "00", "-0", "-1", "+1", "1e2", "1E0", "1.0", "0.", ".5", "0x1", "1_0",
           "3", "255", "256", "65535", "65536", "70000", str(2**63), str(2**64),
           "1" * 30, "1" * 5000, "true", "null", '"1"', "[]", "[0]", "NaN", "Infinity", "",
           "0 0", "\u0663", "0:", "0/", "1:1"]


@pytest.mark.parametrize("entry", ENTRIES)
def test_entries_the_reader_refuses(entry, tmp_path):
    text = '{"size":3,"table":[[0,2,1],[2,1,%s],[1,0,2]]}' % entry
    assert _read_object(text) is None
    assert_same(text)
    assert_cli_same(tmp_path / "q.json", text.encode("utf-8"), commands=("check",))


@pytest.mark.parametrize("entry", ["01", "00", "010", "1 0", "1\t1", "1\r\n0", "1\n 1"])
def test_entries_the_reader_refuses_on_two_digit_tables(entry, tmp_path):
    # at n = 12 an entry may have two digits, so "01" and "1 0" would read as numbers
    entries = [list(map(str, row)) for row in dihedral(12).op.tolist()]
    entries[5][2] = entry
    text = '{"table":[%s]}' % ",".join("[%s]" % ",".join(row) for row in entries)
    assert _read_object(text) is None
    assert_same(text)
    assert_cli_same(tmp_path / "q.json", text.encode(), commands=("check",))


@pytest.mark.parametrize("table", ["[]", "[[]]", "[[],[]]", "[[0],[]]", "[[0,1],[1]]",
                                   "[[0,1],[1,0],[0,1]]", "[[0],[0]]", "[[0,1]]",
                                   "[[1,0],[0,1]]", "[[0,0],[1,1]]", "[[0,2],[1,0]]",
                                   "[[0,1],[1,0]", "[[0,1],[1,0]]]", "[[0,1][1,0]]",
                                   "[[0,1],,[1,0]]", "[[0,,1],[1,0]]", "[[,0,1],[1,0]]",
                                   "[[0,1,],[1,0]]", "[[0,1],[1,0],]", "[0,1]", "[[[0]]]",
                                   "0", "[[0]", "[[0]]]", "[[0],[0,1]]"])
def test_shapes_and_ranges(table, tmp_path):
    text = '{"table":%s}' % table
    assert_same(text)
    assert_cli_same(tmp_path / "q.json", text.encode(), commands=("check",))


def test_entries_at_and_past_n_on_wide_tables():
    for n in (255, 256, 257):
        op = trivial(n).op.astype(np.int64)
        for entry in (n - 1, n, 256, 65535, 65536):
            if entry == n - 1:
                continue
            bad = op.copy()
            bad[n // 2, 7] = entry
            assert_same(json.dumps({"table": bad.tolist()}, separators=(",", ":")))
        assert_same(trivial(n).to_json())


def test_a_table_too_large_for_its_text_is_not_allocated():
    # row 0 promises n = 10^6 entries a row; the text is far too short for
    # n^2, so the reader refuses before allocating, and json.loads reports
    text = '{"table":[[' + ",".join(["0"] * 10**6) + "]]}"
    assert _read_object(text) is None
    assert_same(text)


def test_invalid_quandles_report_the_same_witnesses():
    bad = dihedral(7).op.astype(np.int64)
    bad[3, [1, 2]] = bad[3, [2, 1]]
    for table in (bad, np.zeros((4, 4), int), np.eye(5, dtype=int) * 4):
        text = json.dumps({"size": len(table), "table": table.tolist()})
        assert _read_object(text) is not None
        assert_same(text)


def test_every_single_byte_mutation_of_a_small_file():
    data = D3.encode()
    for i in range(len(data)):
        for b in range(256):
            if b != data[i]:
                # latin-1 maps each byte to one character, non-ASCII included
                assert_same((data[:i] + bytes([b]) + data[i + 1:]).decode("latin-1"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(D3) - 1), st.integers(0, 255))
def test_single_byte_mutations_through_the_cli(tmp_path_factory, i, b):
    data = D3.encode()
    assert_cli_same(tmp_path_factory.mktemp("mutated") / "q.json",
                    data[:i] + bytes([b]) + data[i + 1:], commands=("check",))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([name for name, q in corpus() if q.size <= 30]), st.data())
def test_random_whitespace_between_table_tokens(name, data):
    q = dict(corpus())[name]
    head, table = q.to_json().split('"table":')
    pieces = table.replace(",", " , ").replace("[", " [ ").replace("]", " ] ").split(" ")
    spaces = data.draw(st.lists(st.sampled_from(["", " ", "\n", "\t", "\r\n", "  "]),
                                min_size=len(pieces), max_size=len(pieces)))
    text = head + '"table":' + "".join(p + s for p, s in zip(pieces, spaces))
    assert np.array_equal(_read_object(text)["table"], q.op)
    assert_same(text)


def test_a_table_followed_by_another_key_is_refused_before_its_rows(monkeypatch):
    # json.dumps(to_dict()) puts "labels" after "table"; no row is read before
    # the text goes to json.loads
    def read_rows(chunk, n):
        raise AssertionError("rows read")
    monkeypatch.setattr(quandle_module, "_read_rows", read_rows)
    for q in (dihedral(5), dihedral(300)):
        assert _read_object(json.dumps(q.to_dict())) is None
        assert _read_object(_variants(q)["table-middle"]) is None


def test_validate_keeps_the_array_the_reader_makes():
    table = _read_object(dihedral(300).to_json())["table"]
    assert np.shares_memory(validate(table).op, table)


@pytest.mark.parametrize("command", ["check", "connected"])
def test_a_2401_point_carrier_loads_without_python_ints(a743_json, command):
    # alexander(7, 4, 3): 303 MB for check and 323 MB for connected while
    # json.loads built the table's n^2 Python ints; about 100 MB each with the
    # reader (and the mask of saturate_forward), on a 2-core x86-64 Linux VM
    code, peak_mb, err = cli_peak_mb(command, str(a743_json))
    assert code == 0, err
    assert peak_mb < 150
