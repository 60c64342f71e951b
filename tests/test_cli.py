import io
import json
import sys
import time

import pytest

from quandles.cli import run

from corpus_util import cli_peak_mb, cli_peak_mb_and_digest, small_corpus

TREFOIL_PD = "X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def r5_file(tmp_path):
    code, out, err = invoke(["make", "dihedral", "--n", "5"])
    assert code == 0, err
    return write(tmp_path, "r5.json", out)


def s3_group_json():
    from quandles import FiniteGroup
    return json.dumps(FiniteGroup.symmetric(3).to_dict())


# -- make and check -------------------------------------------------------------

def test_make_check_round_trip_all_families(tmp_path):
    z4 = json.dumps({"order": 4, "mul": [[(i + j) % 4 for j in range(4)]
                                         for i in range(4)]})
    grp = write(tmp_path, "z4.json", z4)
    s3 = write(tmp_path, "s3.json", s3_group_json())
    neg = write(tmp_path, "neg.json", json.dumps({"map": [0, 3, 2, 1]}))
    ident6 = write(tmp_path, "id6.json", json.dumps(list(range(6))))
    f = write(tmp_path, "f.json", json.dumps([[0, 1], [3, 0]]))
    invocations = [
        ["make", "trivial", "--n", "6"],
        ["make", "dihedral", "--n", "7"],
        ["make", "alexander", "--p", "5", "--a", "3"],
        ["make", "alexander", "--p", "3", "--n", "2", "--a", "[[1,1],[0,1]]"],
        ["make", "power_cocycle", "--p", "3", "--n", "2"],
        ["make", "unipotent_class", "--p", "3"],
        ["make", "conj", "--group", s3],
        ["make", "conj_class", "--group", s3, "--element", "1"],
        ["make", "phi_space", "--group", grp, "--phi", neg, "--subgroup", "0"],
        ["make", "vedernikov", "--group", s3, "--phi", ident6],
        ["make", "cocycle", "--x-size", "2", "--abelian", grp, "--cocycle", f],
    ]
    for argv in invocations:
        code, out, err = invoke(argv)
        assert code == 0, (argv, err)
        qfile = write(tmp_path, "q.json", out)
        code, out2, err2 = invoke(["check", qfile])
        assert code == 0, (argv, err2)


def test_make_with_generator_file(tmp_path):
    gens = write(tmp_path, "gens.txt", "(0 1)\n(0 1 2)\n")
    code, out, err = invoke(["make", "conj", "--gens", gens])
    assert code == 0, err
    assert json.loads(out)["size"] == 6


def test_make_usage_errors():
    assert invoke(["make", "nosuch"])[0] == 1
    assert invoke(["make", "trivial"])[0] == 1          # missing --n
    assert invoke(["make", "conj_class", "--n", "3"])[0] == 1  # missing group


def test_make_passes_zero_values_through():
    # a zero must reach the library's own check, not be replaced by a default
    code, out, err = invoke(["make", "alexander", "--p", "5", "--n", "0", "--a", "2"])
    assert (code, out) == (1, "") and "dimension must be positive" in err


def test_make_cocycle_passes_a_zero_x_size_through(tmp_path):
    from quandles import FiniteGroup
    z2 = write(tmp_path, "z2.json", json.dumps(FiniteGroup.cyclic(2).to_dict()))
    f = write(tmp_path, "f.json", "[[0]]")
    code, out, err = invoke(["make", "cocycle", "--x-size", "0", "--abelian", z2,
                             "--cocycle", f])
    assert (code, out) == (1, "") and "x_size must be positive" in err
    assert invoke(["make", "cocycle", "--abelian", z2, "--cocycle", f])[0] == 0


def test_check_invalid_table(tmp_path):
    bad = write(tmp_path, "bad.json",
                json.dumps({"size": 2, "table": [[1, 1], [0, 0]]}))
    code, out, err = invoke(["check", bad, "--json"])
    assert code == 1
    data = json.loads(out)
    assert data["valid"] is False
    assert {"axiom": 1, "witness": [0]} in data["violations"]


def test_check_of_a_changed_entry_fails_fast(tmp_path):
    # n = 1024 with row 5 no permutation: when every row was compared this
    # took 12.5 s on a 2-core x86-64 VM, and by n^3 growth n = 4096 would
    # take about 16 minutes
    table = [list(range(1024)) for _ in range(1024)]
    table[5][7] = 8
    path = write(tmp_path, "t1024_bad.json", json.dumps({"size": 1024, "table": table}))
    start = time.perf_counter()
    code, out, err = invoke(["check", path])
    assert time.perf_counter() - start < 10
    assert code == 1
    assert "axiom 2 (left-invertibility) fails at (5, 7)" in out


def test_check_malformed_json(tmp_path):
    bad = write(tmp_path, "bad.json", "{nope")
    code, out, err = invoke(["check", bad])
    assert code == 1 and "input error" in err


def test_missing_file():
    code, out, err = invoke(["check", "/nonexistent/q.json"])
    assert code == 1


# -- malformed input fails as an input error ---------------------------------------

def _z6_table():
    return [[(i + j) % 6 for j in range(6)] for i in range(6)]


def _assert_input_error(argv, *fragments):
    code, out, err = invoke(argv)
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err
    for text in fragments:
        assert text in err


@pytest.mark.parametrize("subgroup, index", [("0,9", "9"), ("0,-1", "-1")])
def test_phi_space_subgroup_index_out_of_range(tmp_path, subgroup, index):
    grp = write(tmp_path, "z6.json", json.dumps({"order": 6, "mul": _z6_table()}))
    neg = write(tmp_path, "neg.json", json.dumps({"map": [(-i) % 6 for i in range(6)]}))
    _assert_input_error(["make", "phi_space", "--group", grp, "--phi", neg,
                         "--subgroup", subgroup], "out-of-range", index)


def _z6_with(entry):
    """Z6 as group JSON, with ``entry`` at row 2, column 3 of its table."""
    table = _z6_table()
    table[2][3] = entry
    return {"order": 6, "mul": table}


@pytest.mark.parametrize("group, message", [
    (_z6_with(1.5), "row 2 of multiplication table is malformed"),
    (_z6_with(True), "row 2 of multiplication table is malformed"),
    ({"order": 6, "mul": 6}, "must be a list of rows"),
    (6, "needs a 'mul' table"),
    ({"order": 6, "mul": _z6_table(), "labels": 3}, "'labels' must be a list"),
], ids=["float-entry", "bool-entry", "mul-not-a-list", "not-an-object",
        "labels-not-a-list"])
def test_malformed_group_json(tmp_path, group, message):
    grp = write(tmp_path, "z6.json", json.dumps(group))
    _assert_input_error(["make", "conj", "--group", grp], message)


@pytest.mark.parametrize("phi, message", [
    ({"map": [0, 5, "4", 3, 2, 1]}, "mapping is not a bijection"),
    ({"map": 5}, "must be a list of element indices"),
    ({"mapx": [0]}, "automorphism JSON object needs a 'map' field"),
], ids=["string-entry", "map-not-a-list", "map-missing"])
def test_phi_entries_must_be_ints(tmp_path, phi, message):
    grp = write(tmp_path, "z6.json", json.dumps({"order": 6, "mul": _z6_table()}))
    bad = write(tmp_path, "phi.json", json.dumps(phi))
    _assert_input_error(["make", "phi_space", "--group", grp, "--phi", bad,
                         "--subgroup", "0"], message)


@pytest.mark.parametrize("quandle, message", [
    ({"table": [0]}, "row 0 is not a list"),
    ({"table": [[0]], "labels": 5}, "labels must be a list"),
], ids=["row-not-a-list", "labels-not-a-list"])
def test_malformed_quandle_json(tmp_path, quandle, message):
    _assert_input_error(["check", write(tmp_path, "q.json", json.dumps(quandle))],
                        message)


@pytest.mark.parametrize("action, message", [
    ([3, [[0, 1, 2]]], "must be an object"),
    ({"set_size": 2, "act": [[0, 1.0]] * 3}, "not a permutation"),
    ({"set_size": 3, "act": [5, [0, 1, 2], [0, 1, 2]]}, "action entry 5"),
], ids=["not-an-object", "float-entry", "int-entry"])
def test_malformed_action_json(tmp_path, action, message):
    _, out, _ = invoke(["make", "dihedral", "--n", "3"])
    q = write(tmp_path, "r3.json", out)
    act = write(tmp_path, "act.json", json.dumps(action))
    _assert_input_error(["action", "--quandle", q, "--action", act], message)


def test_alexander_rejects_a_non_number():
    _assert_input_error(["make", "alexander", "--p", "5", "--a", '"x"'],
                        "a must be an integer or a matrix")


# -- documented limits, at the limit and one step past it --------------------------

@pytest.mark.parametrize("command", ["realize", "sbar"])
def test_basepoint_range(r5_file, command):
    code, out, err = invoke([command, r5_file, "--basepoint", "4"])
    assert code == 0, err
    for bad in ("5", "-1"):
        _assert_input_error([command, r5_file, "--basepoint", bad],
                            f"basepoint {bad} out of range for size 5")


def test_closure_cap_counts_the_generators(r5_file):
    # Tr(R5) has order 5 and 4 distinct non-identity generators
    code, out, err = invoke(["tr", r5_file, "--cap", "5"])
    assert code == 0 and "order 5" in out, err
    _assert_input_error(["tr", r5_file, "--cap", "4"], "cap of 4")


def test_iso_size_limit(tmp_path):
    paths = {}
    for n in (64, 65):
        _, text, _ = invoke(["make", "dihedral", "--n", str(n)])
        paths[n] = write(tmp_path, f"d{n}.json", text)
    code, out, err = invoke(["iso", paths[64], paths[64]])
    assert code == 0 and out.startswith("isomorphic"), err
    _assert_input_error(["iso", paths[65], paths[65]], "size 64")


def test_unipotent_class_prime_limit():
    # the class is limited by its carrier, (p^2-1)/2 points, not by SL2's p <= 13
    code, out, err = invoke(["make", "unipotent_class", "--p", "17"])
    assert code == 0 and json.loads(out)["size"] == 144, err
    _assert_input_error(["make", "unipotent_class", "--p", "97"],
                        "carrier size 4704 exceeds the limit of 4096 elements")


def test_realize_past_the_table_limit(tmp_path):
    # |Tr(u23)| = 6072 > MAX_GROUP_ORDER: the text answers, realize --json still
    # refuses to print the group's table
    from quandles import unipotent_class_quandle

    path = write(tmp_path, "u23.json", unipotent_class_quandle(23).to_json())
    code, out, err = invoke(["realize", path, "--basepoint", "5"])
    assert code == 0 and "transvection group order 6072, stabilizer size 23" in out, err
    code, out, err = invoke(["report", path, "--json"])
    assert code == 0 and json.loads(out)["realizations"][0]["group_order"] == 6072, err
    _assert_input_error(["realize", path, "--json"],
                        "group order 6072 exceeds the limit of 4096 elements "
                        "for a multiplication table")


# -- library paths read the group arrays; no Python copy of the table exists -------

def test_library_paths_never_build_the_python_table(tmp_path):
    from quandles import FiniteGroup, unipotent_class_quandle

    assert not hasattr(FiniteGroup, "multiplication_table")
    s3 = FiniteGroup.symmetric(3)
    u7 = write(tmp_path, "u7.json", unipotent_class_quandle(7).to_json())
    grp = write(tmp_path, "s3.json", s3_group_json())
    phi = write(tmp_path, "phi.json", json.dumps([s3.conj(1, x) for x in range(6)]))
    for argv in (["realize", u7, "--json"], ["report", u7, "--json"],
                 ["sbar", u7, "--json"], ["make", "conj", "--group", grp],
                 ["make", "phi_space", "--group", grp, "--phi", phi, "--subgroup", "0,1"],
                 ["make", "vedernikov", "--group", grp, "--phi", phi]):
        code, out, err = invoke(argv)
        assert code == 0, (argv, err)


# -- analysis commands ------------------------------------------------------------

def test_orbits_and_groups(r5_file):
    code, out, _ = invoke(["orbits", r5_file, "--json"])
    assert code == 0
    assert json.loads(out)["count"] == 1
    code, out, _ = invoke(["inn", r5_file, "--json"])
    assert json.loads(out)["order"] == 10
    code, out, _ = invoke(["tr", r5_file, "--json"])
    assert json.loads(out)["order"] == 5


def test_connected_output(tmp_path):
    code, out, err = invoke(["make", "alexander", "--p", "5", "--a", "2"])
    qfile = write(tmp_path, "a.json", out)
    code, out, err = invoke(["connected", qfile])
    assert code == 0
    assert out.strip() == "connected: true"
    code, out, err = invoke(["make", "trivial", "--n", "3"])
    qfile = write(tmp_path, "t.json", out)
    code, out, err = invoke(["connected", qfile, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["connected"] is False and data["separating_pair"] is not None


def test_aut_command(tmp_path, r5_file):
    code, out, _ = invoke(["aut", r5_file, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 20 and data["homogeneous"] is True
    grp = write(tmp_path, "s3.json", s3_group_json())
    _, text, _ = invoke(["make", "conj", "--group", grp])
    code, out, _ = invoke(["aut", write(tmp_path, "conj_s3.json", text), "--json"])
    assert code == 0 and json.loads(out)["homogeneous"] is False


def test_aut_cap(tmp_path):
    _, text, _ = invoke(["make", "trivial", "--n", "7"])
    t7 = write(tmp_path, "t7.json", text)
    _assert_input_error(["aut", t7, "--cap", "1000"],
                        "automorphism group exceeded cap of 1000 elements")
    code, out, _ = invoke(["aut", t7, "--cap", "5040", "--json"])
    assert code == 0 and json.loads(out)["order"] == 5040


def test_iso_command(tmp_path):
    _, out, _ = invoke(["make", "dihedral", "--n", "3"])
    a = write(tmp_path, "a.json", out)
    _, out, _ = invoke(["make", "alexander", "--p", "3", "--a", "2"])
    b = write(tmp_path, "b.json", out)
    code, out, _ = invoke(["iso", a, b, "--json"])
    assert code == 0
    assert json.loads(out)["isomorphic"] is True
    _, out, _ = invoke(["make", "trivial", "--n", "3"])
    c = write(tmp_path, "c.json", out)
    code, out, _ = invoke(["iso", a, c, "--json"])
    assert json.loads(out)["isomorphic"] is False


def test_realize_command(r5_file):
    code, out, _ = invoke(["realize", r5_file, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["group"]["order"] == 5
    assert sorted(data["pi"]) == [0, 1, 2, 3, 4]


def test_sbar_command(r5_file):
    code, out, _ = invoke(["sbar", r5_file, "--basepoint", "1", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["is_homomorphism"] is True and data["injective"] is True


def test_report_command(r5_file):
    code, out, _ = invoke(["report", r5_file, "--json"])
    assert code == 0
    flags = json.loads(out)["flags"]
    assert flags == {"I_prime": True, "D_prime": True, "C": True, "Phi_prime": True}
    code, out, _ = invoke(["report", r5_file])
    assert code == 0 and "I': true" in out


def test_survey_command(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for spec in (["make", "dihedral", "--n", "5"],
                 ["make", "trivial", "--n", "2"],
                 ["make", "unipotent_class", "--p", "5"]):
        _, out, _ = invoke(spec)
        (d / f"{spec[1]}_{spec[-1]}.json").write_text(out)
    code, out, _ = invoke(["survey", str(d), "--json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 3
    assert "unipotent_class_5" in data["implications"]["C => I'"]
    code, out, _ = invoke(["survey", str(d)])
    assert code == 0 and "dihedral_5" in out


def test_color_command(tmp_path, r5_file):
    _, out, _ = invoke(["make", "dihedral", "--n", "3"])
    r3 = write(tmp_path, "r3.json", out)
    pd = write(tmp_path, "tre.pd", "# trefoil\n" + TREFOIL_PD + "\n")
    code, out, _ = invoke(["color", "--diagram", pd, "--quandle", r3])
    assert code == 0 and out.strip() == "colorings: 9"
    code, out, _ = invoke(["color", "--braid", "s1 s2' s1 s2'", "--strands", "3",
                           "--quandle", r5_file, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 25 and data["components"] == 1
    assert invoke(["color", "--quandle", r3])[0] == 1
    assert invoke(["color", "--braid", "s1", "--quandle", r3])[0] == 1


def test_color_refuses_a_huge_arc_label_before_allocating(tmp_path, r5_file):
    # one crossing has two labels; listing every label up to 10^9 as
    # missing would need tens of GB
    pd = write(tmp_path, "huge.pd", "X[1,2,3,1000000000]")
    start = time.perf_counter()
    code, out, err = invoke(["color", "--diagram", pd, "--quandle", r5_file])
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert "label 1000000000 exceeds 2, twice the number of crossings" in err
    assert len(err) < 200


def test_color_prints_counts_past_the_digit_limit(tmp_path):
    # s1^3 closes the first two of 10^4 strands into a trefoil and leaves
    # 9998 free loops: 3 * 3 colorings of the trefoil by R3, times 3^9998,
    # which has 4772 digits, past Python's default of 4300 for int to text
    _, out, _ = invoke(["make", "dihedral", "--n", "3"])
    r3 = write(tmp_path, "r3.json", out)
    limit = sys.get_int_max_str_digits()
    braid = ["color", "--braid", "s1 s1 s1", "--strands", "10000", "--quandle", r3]
    code, out, err = invoke(braid + ["--json"])
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    total = out.split('"total":')[1].split("}")[0]
    code, text, err = invoke(braid)
    assert code == 0, err
    assert text == f"colorings: {total}\n"
    sys.set_int_max_str_digits(0)
    try:
        assert int(total) == 3 ** 10000
    finally:
        sys.set_int_max_str_digits(limit)


def test_color_parses_input_under_the_digit_limit(tmp_path, r5_file):
    # the limit is lifted for printing counts only: a quandle file with a
    # 5000-digit entry is still refused as input
    bad = write(tmp_path, "big.json", '{"table": [[' + "9" * 5000 + "]]}")
    _assert_input_error(["color", "--braid", "s1", "--strands", "2", "--quandle", bad],
                        "4300")


def test_color_refuses_too_many_strands_before_allocating(r5_file):
    # 2 * 10^6 strands took 4.2 s and 428 MB before the limit
    start = time.perf_counter()
    _assert_input_error(["color", "--braid", "s1 s1 s1", "--strands", "2000000",
                         "--quandle", r5_file],
                        "2000000 strands exceed the limit of 100000")
    assert time.perf_counter() - start < 1
    code, _, err = invoke(["color", "--braid", "s1", "--strands", "100000",
                           "--quandle", r5_file])
    assert code == 0, err


def test_color_by_orbit(tmp_path):
    _, out, _ = invoke(["make", "conj", "--gens",
                        write(tmp_path, "g.txt", "(0 1)\n(0 1 2)\n")])
    q = write(tmp_path, "c.json", out)
    pd = write(tmp_path, "tre.pd", TREFOIL_PD)
    code, out, _ = invoke(["color", "--diagram", pd, "--quandle", q,
                           "--by-orbit", "--json"])
    assert code == 0
    data = json.loads(out)
    assert sum(data["by_orbit"]) <= data["total"]


def test_action_command(tmp_path):
    _, out, _ = invoke(["make", "trivial", "--n", "1"])
    q = write(tmp_path, "t1.json", out)
    act = write(tmp_path, "act.json",
                json.dumps({"set_size": 12,
                            "act": [[(x + 1) % 12 for x in range(12)]]}))
    code, out, _ = invoke(["action", "--quandle", q, "--action", act, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["op_orbits"] == [list(range(12))]
    assert data["tr_orbits"] == [[x] for x in range(12)]
    # cycle-notation entries are accepted too
    act2 = write(tmp_path, "act2.json",
                 json.dumps({"set_size": 3, "act": ["(0 1 2)"]}))
    code, out, _ = invoke(["action", "--quandle", q, "--action", act2, "--json"])
    assert code == 0
    assert json.loads(out)["op_group_order"] == 3


def test_action_rejects_bad_action(tmp_path):
    _, out, _ = invoke(["make", "dihedral", "--n", "3"])
    q = write(tmp_path, "r3.json", out)
    act = write(tmp_path, "act.json",
                json.dumps({"set_size": 3, "act": [[1, 2, 0], [0, 1, 2], [0, 1, 2]]}))
    code, out, err = invoke(["action", "--quandle", q, "--action", act])
    assert code == 1 and "input error" in err


def test_quandle_cap_env(r5_file, monkeypatch):
    monkeypatch.setenv("QUANDLE_CAP", "2")
    code, out, err = invoke(["inn", r5_file])
    assert code == 1 and "cap" in err.lower()


def test_cap_flag_overrides(r5_file):
    code, out, err = invoke(["inn", r5_file, "--cap", "3"])
    assert code == 1 and "cap" in err.lower()
    code, out, err = invoke(["inn", r5_file, "--cap", "100"])
    assert code == 0


@pytest.mark.parametrize("cap, env, fragment", [
    ("0", None, "--cap must be at least 1, got 0"),
    ("-3", None, "--cap must be at least 1, got -3"),
    (None, "0", "QUANDLE_CAP must be at least 1, got 0"),
])
def test_cap_below_one_is_a_usage_error(r5_file, monkeypatch, cap, env, fragment):
    if env is not None:
        monkeypatch.setenv("QUANDLE_CAP", env)
    code, out, err = invoke(["inn", r5_file] + (["--cap", cap] if cap else []))
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and fragment in err


@pytest.mark.parametrize("env", ["abc", "1.5", "2x"])
def test_quandle_cap_must_be_an_integer(r5_file, monkeypatch, env):
    monkeypatch.setenv("QUANDLE_CAP", env)
    code, out, err = invoke(["inn", r5_file])
    assert code == 1 and out == ""
    assert err == f"usage error: QUANDLE_CAP must be an integer, got {env!r}\n"
    assert invoke(["inn", r5_file, "--cap", "100"])[0] == 0   # --cap wins


def test_stdin_input(tmp_path, monkeypatch):
    import sys
    _, text, _ = invoke(["make", "dihedral", "--n", "3"])
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = invoke(["check", "-"])
    assert code == 0


# -- canonical json and determinism ------------------------------------------------

def canonical(text):
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))


def test_json_outputs_are_canonical(tmp_path, r5_file):
    pd = write(tmp_path, "tre.pd", TREFOIL_PD)
    argvs = [
        ["check", r5_file, "--json"],
        ["orbits", r5_file, "--json"],
        ["inn", r5_file, "--json"],
        ["connected", r5_file, "--json"],
        ["realize", r5_file, "--json"],
        ["report", r5_file, "--json"],
        ["color", "--diagram", pd, "--quandle", r5_file, "--json"],
        ["make", "dihedral", "--n", "6"],
    ]
    for argv in argvs:
        code, out, err = invoke(argv)
        assert code == 0, (argv, err)
        assert canonical(out) == out.strip(), argv


def test_make_prints_the_canonical_dump_of_each_small_corpus_quandle(tmp_path):
    from quandles import FiniteGroup, all_automorphisms

    s3 = FiniteGroup.symmetric(3)
    grp = {name: write(tmp_path, f"{name}.json", json.dumps(g.to_dict()))
           for name, g in (("s3", s3), ("s4", FiniteGroup.symmetric(4)),
                           ("z6", FiniteGroup.cyclic(6)))}
    neg6 = write(tmp_path, "neg6.json", json.dumps({"map": [(-i) % 6 for i in range(6)]}))
    phi1 = write(tmp_path, "phi1.json",
                 json.dumps(all_automorphisms(s3)[1].mapping.tolist()))
    argvs = {
        "trivial_4": ["trivial", "--n", "4"],
        "dihedral_5": ["dihedral", "--n", "5"],
        "alexander_5_1_2": ["alexander", "--p", "5", "--a", "2"],
        "conj_S3": ["conj", "--group", grp["s3"]],
        "conj_class_S4_1": ["conj_class", "--group", grp["s4"], "--element", "1"],
        "phi_space_Z6": ["phi_space", "--group", grp["z6"], "--phi", neg6, "--subgroup", "0"],
        "vedernikov_S3_1": ["vedernikov", "--group", grp["s3"], "--phi", phi1],
        "power_cocycle_3_2": ["power_cocycle", "--p", "3", "--n", "2"],
        "unipotent_3": ["unipotent_class", "--p", "3"],
    }
    assert sorted(argvs) == sorted(name for name, _ in small_corpus())
    for name, q in small_corpus():
        code, out, err = invoke(["make", *argvs[name]])
        assert code == 0, (name, err)
        assert out == json.dumps(q.to_dict(), sort_keys=True, separators=(",", ":")) + "\n", name


def test_make_at_the_carrier_limit_streams_its_table():
    # 1049 MB with the table as Python ints and one string, 430 MB with the
    # tables int64; as uint16 arrays, 128 MB on a 2-core x86-64 Linux VM
    code, peak_mb, digest = cli_peak_mb_and_digest("make", "trivial", "--n", "4096")
    assert code == 0
    assert digest == "552fefe0d37538edda35d9e98c4832fd255a0ec60dfff8b7620f652ac3dcc5ac"
    assert peak_mb < 300


def test_realize_json_costs_little_more_memory_than_realize(tmp_path):
    from quandles import unipotent_class_quandle

    u11 = write(tmp_path, "u11.json", unipotent_class_quandle(11).to_json())
    code, plain_mb, err = cli_peak_mb("realize", u11)
    assert code == 0, err
    code, json_mb, err = cli_peak_mb("realize", "--json", u11)
    assert code == 0, err
    assert json_mb - plain_mb < 5   # 14-16 MB with Tr(u11)'s 660 x 660 table as Python ints


def test_realize_json_of_u13_holds_its_group_table_narrow(tmp_path):
    # Tr(u13) has order 1092: its table is 2.4 MB as uint16 against 9.5 MB as
    # int64.  36.5 MB measured on a 2-core x86-64 Linux VM, 45 MB with int64 tables
    from quandles import unipotent_class_quandle

    u13 = write(tmp_path, "u13.json", unipotent_class_quandle(13).to_json())
    code, peak_mb, err = cli_peak_mb("realize", "--json", u13)
    assert code == 0, err
    assert peak_mb < 40


def test_thread_count_does_not_change_output(tmp_path, r5_file):
    pd = write(tmp_path, "tre.pd", TREFOIL_PD)
    argvs = [
        ["check", r5_file, "--json"],
        ["orbits", r5_file, "--json"],
        ["tr", r5_file, "--json"],
        ["connected", r5_file, "--json"],
        ["aut", r5_file, "--json"],
        ["realize", r5_file, "--json"],
        ["sbar", r5_file, "--json"],
        ["report", r5_file, "--json"],
        ["color", "--diagram", pd, "--quandle", r5_file, "--json", "--by-orbit"],
    ]
    for argv in argvs:
        one = invoke(argv + ["--threads", "1"])
        four = invoke(argv + ["--threads", "4"])
        assert one[0] == four[0] == 0
        assert one[1] == four[1], argv
