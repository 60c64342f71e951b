"""What a cold process pays before and after its command: the package and
each subcommand import only the modules they run, and the garbage collector
is left as the importer found it."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quandles

SRC = str(Path(quandles.__file__).resolve().parents[1])

# ``from quandles import *`` before the package imported lazily, written out
EXPORTED = {
    "ActionError", "AxiomViolation", "CapExceeded", "CocycleError", "ColoringCount",
    "ConnectednessReport", "ConstructionError", "ConstructionRecord",
    "CosetRealization", "CosetSpace", "Crossing", "CycleParseError",
    "FiniteGroup", "FiniteQuandle", "GroupAutomorphism", "GroupError", "HomReport",
    "InconsistentArcs", "InterOrbitReport", "InvalidQuandleError", "KnotDiagram",
    "NotASubgroup", "NotAbelian", "NotAnAutomorphism", "NotFixed", "OrbitDecomposition",
    "PermutationGroup", "QuandleAction", "QuandleError", "RangeError",
    "RegularityReport", "SaturationChain", "SbarReport", "SignedWord", "SurveyResult",
    "TooLarge", "alexander", "all_automorphisms", "aut", "axiom_violations", "close",
    "cocycle_extension", "conj_class", "conjugacy_class", "conjugation",
    "constructions", "coset_realization", "count_colorings", "cycle_type",
    "dihedral", "fixed_points", "format_cycles", "groups",
    "hom_check", "identity_perm", "implication_survey", "inn", "inter_orbit_action",
    "invariance_check", "is_connected", "iso_search",
    "isolated_connected_consequence", "knots", "matrix_group_sl2", "op_group",
    "orbits", "parse_braid", "parse_cycles",
    "parse_generator_lines", "parse_pd", "phi_space", "power_cocycle", "quandle",
    "regularity", "regularity_report", "saturate_forward",
    "sbar_hom", "symmetry", "tr", "tr_action_group",
    "trivial", "unipotent_class_quandle", "validate",
    "vedernikov",
}

# names that restated code that stays, or that no command, demo or routine reached
REMOVED = {
    "ElementSymmetry", "compose", "cosets", "fixed_subgroup", "invert", "is_homogeneous",
    "open_subquandle_check", "random_transvection_word", "saturate_mixed", "tr_orbit",
    "twisted_orbit_action",
}
REMOVED_METHODS = {
    "FiniteGroup": ("element_order", "is_subgroup", "subgroup_closure"),
    "FiniteQuandle": ("symmetry",),
    "SignedWord": ("exponent_sum", "is_transvection_word", "as_permutation"),
}
# parameters that only tests set, each now the one value in use:
# (module, function or Class.method, parameters)
REMOVED_PARAMETERS = (
    ("groups", "table_isomorphisms", ("pinned",)),
    ("groups", "_extensions", ("first",)),
    ("groups", "walk", ("cols",)),
    ("groups", "all_automorphisms", ("max_order",)),
    ("groups", "FiniteGroup.from_permutations", ("cap",)),
    ("groups", "parse_generator_lines", ("domain_size",)),
    ("quandle", "FiniteQuandle.__init__", ("record",)),
    ("symmetry", "tr", ("base",)),
    ("symmetry", "tr_action_group", ("base",)),
    ("symmetry", "aut", ("max_size",)),
    ("symmetry", "iso_search", ("max_size",)),
    ("symmetry", "inter_orbit_action", ("cap",)),
)


def python(*argv):
    """``python argv`` in a fresh process with this checkout importable."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("QUANDLE_CAP", None)
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def loaded_after(code):
    """The ``quandles.*`` submodules loaded once ``code`` has run."""
    done = python("-c", code + "\nimport sys\n"
                  "print(' '.join(sorted(m for m in sys.modules"
                  " if m.startswith('quandles.'))))")
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_import_quandles_loads_no_submodule():
    assert loaded_after("import quandles") == set()
    assert loaded_after("from quandles import FiniteGroup, constructions") == {
        "quandles.constructions", "quandles.groups", "quandles.quandle"}
    assert "quandles.symmetry" in loaded_after("import quandles; quandles.symmetry.orbits")


def loaded_by_cli(*argv):
    """The ``quandles.*`` submodules loaded by the CLI run on ``argv``."""
    done = python("-c", "import atexit, sys\n"
                  "atexit.register(lambda: print(*sorted(m for m in sys.modules"
                  " if m.startswith('quandles.')), file=sys.stderr))\n"
                  "from quandles.cli import main; main()", *argv)
    assert done.returncode == 0, done.stderr
    return set(done.stderr.split())


def test_color_without_by_orbit_skips_the_heavy_modules(tmp_path):
    path = tmp_path / "r5.json"
    path.write_text(quandles.dihedral(5).to_json())
    color = ["color", "--json", "--braid", "s1 s1 s1", "--strands", "2",
             "--quandle", str(path)]
    heavy = {"quandles.symmetry", "quandles.regularity", "quandles.constructions"}
    loaded = loaded_by_cli(*color)
    assert {"quandles.cli", "quandles.knots", "quandles.quandle"} <= loaded
    assert not loaded & heavy
    assert loaded_by_cli(*color, "--by-orbit") & heavy == {"quandles.symmetry"}


def test_importing_the_cli_leaves_the_collector_as_it_was():
    probe = "import gc{}\nimport quandles.cli\nprint(gc.isenabled(), gc.get_freeze_count())"
    assert python("-c", probe.format("")).stdout.split() == ["True", "0"]
    assert python("-c", probe.format("; gc.disable()")).stdout.split() == ["False", "0"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_the_cli_starts_no_blas_thread_pool():
    # importing numpy starts an OpenBLAS worker per core; the library's @
    # products are on int arrays and never call BLAS
    probe = ("import os, quandles.cli\n"
             "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)

    def threads_and_setting(env):
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()
    assert threads_and_setting(env) == ["1", "1"]
    assert threads_and_setting(dict(env, OPENBLAS_NUM_THREADS="2"))[1] == "2"


def test_no_collection_walks_the_import_time_objects():
    # under ``python -m quandles.cli`` the collector stays paused until
    # ``main`` freezes what the imports built, so every collection before
    # exit walks only young objects; the imports build over 20000
    probe = ("import atexit, gc, runpy, sys\n"
             "walked = []\n"
             "def count(phase, info):\n"
             "    if phase == 'start':\n"
             "        young = range(info['generation'] + 1)\n"
             "        walked.append(sum(len(gc.get_objects(g)) for g in young))\n"
             "gc.callbacks.append(count)\n"
             "atexit.register(lambda: print(max(walked, default=0), file=sys.stderr))\n"
             "sys.argv = ['quandles', 'make', 'trivial', '--n', '1']\n"
             "runpy.run_module('quandles.cli', run_name='__main__', alter_sys=True)\n")
    done = python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert int(done.stderr) < 10000


def test_only_main_freezes():
    report = ("import atexit, gc, sys\n"
              "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n")
    via_run = python("-c", report + "from quandles.cli import run\n"
                     "sys.exit(run(['make', 'trivial', '--n', '1']))")
    via_main = python("-c", report + "from quandles.cli import main\nmain()",
                      "make", "trivial", "--n", "1")
    assert via_run.returncode == via_main.returncode == 0
    assert via_run.stderr.split() == ["False"]
    assert via_main.stderr.split() == ["True"]


def test_all_names_resolve():
    assert set(quandles.__all__) == EXPORTED
    assert len(quandles.__all__) == len(EXPORTED)
    for name in quandles.__all__:
        assert getattr(quandles, name) is not None, name
    namespace = {}
    exec("from quandles import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED
    assert not any(hasattr(quandles, name) for name in REMOVED)
    assert not any(hasattr(getattr(quandles, home), name)
                   for home, names in REMOVED_METHODS.items() for name in names)


def test_parameters_without_a_caller_are_gone():
    for module, attr, params in REMOVED_PARAMETERS:
        fn = getattr(quandles, module)
        for part in attr.split("."):
            fn = getattr(fn, part)
        assert not set(params) & set(inspect.signature(fn).parameters), (module, attr)
    assert not hasattr(quandles.symmetry, "tr_orbit")
    assert not hasattr(quandles.symmetry, "_isomorphisms")


def test_console_script_matches_python_m(tmp_path):
    """``quandles`` as installed runs ``cli.main``; it prints what
    ``python -m quandles.cli`` prints and exits the same way."""
    for argv in (["make", "dihedral", "--n", "5"],
                 ["check", str(tmp_path / "missing.json")]):
        script = python("-c", "from quandles.cli import main; main()", *argv)
        module = python("-m", "quandles.cli", *argv)
        assert script.stdout == module.stdout, argv
        assert script.stderr == module.stderr, argv
        assert script.returncode == module.returncode, argv
    assert module.returncode == 1 and "input error" in module.stderr


def test_library_paths_leave_numpy_ma_unloaded(tmp_path):
    # np.unique without return_index or return_inverse imports numpy.ma,
    # 16-26 ms of a cold process
    r5, s3 = tmp_path / "r5.json", tmp_path / "s3.json"
    r5.write_text(quandles.dihedral(5).to_json())
    s3.write_text(json.dumps(quandles.FiniteGroup.symmetric(3).to_dict()))
    probe = ("import atexit, sys\n"
             "atexit.register(lambda: print('numpy.ma' in sys.modules, file=sys.stderr))\n"
             "from quandles.cli import main; main()")
    for argv in (["sbar", str(r5), "--basepoint", "0"],
                 ["check", str(r5)],
                 ["connected", str(r5)],
                 ["make", "conj_class", "--group", str(s3), "--element", "1"],
                 ["make", "alexander", "--p", "5", "--a", "3"],
                 ["make", "alexander", "--p", "3", "--n", "2", "--a", "[[1,1],[0,1]]"],
                 ["make", "unipotent_class", "--p", "13"]):
        done = python("-c", probe, *argv)
        assert done.returncode == 0, (argv, done.stderr)
        assert done.stderr.split() == ["False"], argv


def test_cli_commands_leave_dataclasses_unloaded(tmp_path):
    # the library's records are NamedTuples: importing dataclasses and
    # building 19 dataclasses cost a cold process about 10 ms
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    r5 = corpus / "r5.json"
    r5.write_text(quandles.dihedral(5).to_json())
    probe = ("import atexit, sys\n"
             "atexit.register(lambda: print('dataclasses' in sys.modules, file=sys.stderr))\n"
             "from quandles.cli import main; main()")
    for argv in (["make", "dihedral", "--n", "5"],
                 ["check", str(r5)],
                 ["realize", "--json", str(r5)],
                 ["report", "--json", str(r5)],
                 ["survey", str(corpus)],
                 ["aut", str(r5)],
                 ["color", "--braid", "s1 s1 s1", "--strands", "2", "--quandle", str(r5),
                  "--by-orbit"]):
        done = python("-c", probe, *argv)
        assert done.returncode == 0, (argv, done.stderr)
        assert done.stderr.split() == ["False"], argv
