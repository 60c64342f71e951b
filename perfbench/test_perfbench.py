"""Self-test of the benchmark: metric names and units, answer data, answer
checks, the per-child limits and the smallest rung of the color workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from quandles import (FiniteGroup, conjugation, count_colorings,  # noqa: E402
                      dihedral, orbits, parse_braid, parse_pd)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_catalogue_is_the_documented_draw():
    assert workloads.draw_braid_words("conj-S4", 4, 20, 6, 2) == [w for w, _, _ in workloads.LINKS_S4]
    assert workloads.draw_braid_words("conj-S5", 4, 8, 4, 2) == [w for w, _ in workloads.LINKS_S5]
    assert workloads.draw_braid_words("knot-S4", 4, 9, 4, 1) == [w for w, _ in workloads.KNOTS_S4]


def _hurwitz_fixed(q, letters, strands: int, colors) -> int:
    """Tuples of colors on the braid's top that its action returns unchanged."""
    op, inv = np.array(q.op), np.array(q.inv_op)
    grids = np.meshgrid(*([np.array(sorted(colors))] * strands), indexing="ij")
    start = [g.ravel() for g in grids]
    cur = list(start)
    for i, sign in letters:
        a, b = cur[i - 1], cur[i]
        cur[i - 1], cur[i] = (op[a, b], a) if sign > 0 else (b, inv[b, a])
    return int(np.logical_and.reduce([x == y for x, y in zip(cur, start)]).sum())


def test_expected_s4_counts_match_the_hurwitz_action():
    s4 = conjugation(FiniteGroup.symmetric(4))
    deco = orbits(s4)
    for word, total, per_orbit in workloads.LINKS_S4:
        letters = workloads.parse_word(word)
        assert _hurwitz_fixed(s4, letters, 4, range(24)) == total
        assert tuple(sorted(_hurwitz_fixed(s4, letters, 4, o) for o in deco.orbits)) == per_orbit
    for word, total in workloads.KNOTS_S4:
        assert _hurwitz_fixed(s4, workloads.parse_word(word), 4, range(24)) == total


def test_pd_twins_close_the_same_knot():
    r3 = dihedral(3)
    for word, _ in workloads.KNOTS_S4:
        letters = workloads.parse_word(word)
        braid, pd = parse_braid(word, 4), parse_pd(workloads.braid_to_pd(letters, 4))
        assert pd.component_count == 1 and len(pd.crossings) == len(letters)
        assert count_colorings(pd, r3).total == count_colorings(braid, r3).total
    with pytest.raises(ValueError):
        workloads.braid_to_pd(workloads.parse_word(workloads.LINKS_S4[0][0]), 4)


def test_answer_checks_reject_wrong_answers():
    by_name = {t.name: t for w in workloads.WORKLOADS for t in workloads.tasks(w, 0)}
    good = {"group": {"order": 660}, "orbit": list(range(60)), "stabilizer": list(range(11)),
            "coset_reps": list(range(60)), "checks": {"pi_bijective": True}, "ok": True}
    check = by_name["realize u11"].check
    assert check(json.dumps(good)) is None
    assert check(json.dumps({**good, "group": {"order": 2058}}))
    assert check(json.dumps({**good, "ok": False}))
    assert check("not json")
    assert check('{"group": [], "orbit": 3}')
    assert by_name["inn a732"].check("inn: order 1029 on 343 points (343 generators)\n") is None
    assert by_name["inn a732"].check("inn: order 2058 on 343 points (343 generators)\n")
    assert by_name["pd trefoil d5"].check('{"total":5}') is None
    assert by_name["pd trefoil d5"].check('{"total":25}')
    assert by_name["by-orbit s4 link0"].check(
        '{"total":120,"by_orbit":[16,12,1,12,9],"components":2}') is None
    assert by_name["by-orbit s4 link0"].check(
        '{"total":120,"by_orbit":[16,12,1,12,8],"components":2}')


def test_seed_fixes_the_inputs():
    assert [t.argv for t in workloads.tasks("realize", 3)] == \
        [t.argv for t in workloads.tasks("realize", 3)]
    assert [t.argv for t in workloads.tasks("realize", 3)] != \
        [t.argv for t in workloads.tasks("realize", 4)]


def test_self_times_subtract_direct_children():
    own = spans.self_times([["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
                            ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]])
    assert own == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})
    nested = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["a", 2.0, 3.0, 1]]
    assert spans.total_times(nested) == pytest.approx({"a": 10.0, "b": 3.0})


def test_limits_apply_to_the_child(tmp_path, monkeypatch):
    hog = run.spawn([sys.executable, "-c", f"bytearray({2 * run.MEMORY_CEILING_MB} << 20)"],
                    tmp_path, {}, tmp_path / "out", tmp_path / "err")
    assert hog["exit"] != 0 and "MemoryError" in (tmp_path / "err").read_text()
    monkeypatch.setattr(run, "TASK_TIMEOUT_S", 0.5)
    stall = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"],
                      tmp_path, {}, tmp_path / "out", tmp_path / "err")
    assert stall["timed_out"] and stall["wall_s"] < 10


def test_smallest_rung(tmp_path):
    client = run.Client(ROOT, "color", 0)
    client.inputs, client.io = tmp_path / "inputs", tmp_path / "io"
    client.io.mkdir()
    assert client.setup() > 0
    rung = [t for t in workloads.tasks("color", 0) if "trefoil" in t.name]
    for task in [workloads.STARTUP, *rung]:
        assert client.run_task(task)["outcome"] == "ok", task.name
    traced = client.run_task(rung[0], traced=True)
    assert traced["outcome"] == "ok"
    names = {s[0] for s in traced["trace"]["spans"]}
    assert {"cli.self_s", "knots.parse_s", "knots.count_pd_s", "quandle.validate_s"} <= names
    wrong = workloads.Task("trefoil, wrong count", rung[0].argv, rung[1].check)
    assert client.run_task(wrong)["outcome"] == "wrong"
