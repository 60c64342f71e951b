"""Command-line interface: one multiplexer over the library's operations.

Exit codes: 0 success, 1 input or usage error, 2 property-verification
failure.  ``--json`` output is canonical (sorted keys, compact separators),
so re-serializing a parsed output reproduces it byte for byte.
``--threads`` is accepted and has no effect.
"""

from __future__ import annotations

import gc
import os
import sys

if "numpy" not in sys.modules:   # no OpenBLAS thread pool: the library never calls BLAS
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

_gc_was_enabled = gc.isenabled()
gc.disable()   # until the end of the module: collecting would only rescan what it builds
try:
    import argparse
    import json
    from pathlib import Path

    from . import knots
    from .groups import (FiniteGroup, GroupAutomorphism, GroupError, NotAnAutomorphism,
                         cycle_labels, parse_cycles, parse_generator_lines)
    from .quandle import FiniteQuandle, InvalidQuandleError, QuandleError, _json_chunks
except BaseException:
    if _gc_was_enabled:
        gc.enable()
    raise

INPUT_ERRORS = (QuandleError, GroupError, knots.ParseError, knots.InconsistentArcs,
                OSError, ValueError, KeyError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _print_json(obj, out) -> None:
    """Write ``obj`` as canonical JSON and a newline, its tables a row block at a time."""
    out.writelines(_json_chunks(obj))
    out.write("\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load_quandle(path: str) -> FiniteQuandle:
    """The quandle in the file ``path`` (stdin for "-"), read as a stream: its text is held
    whole only when the table reader refuses it."""
    return FiniteQuandle.from_json(sys.stdin.read() if path == "-" else Path(path))


def _load_group(args) -> FiniteGroup:
    if getattr(args, "group", None):
        data = json.loads(_read_text(args.group))
        return FiniteGroup.from_dict(data)
    if getattr(args, "gens", None):
        perms = parse_generator_lines(_read_text(args.gens))
        return FiniteGroup.from_permutations(perms)
    raise UsageError("this family needs --group FILE or --gens FILE")


def _load_phi(path: str, group: FiniteGroup) -> GroupAutomorphism:
    data = json.loads(_read_text(path))
    if isinstance(data, dict) and "map" not in data:
        raise NotAnAutomorphism("automorphism JSON object needs a 'map' field")
    mapping = data["map"] if isinstance(data, dict) else data
    if not isinstance(mapping, list):
        raise NotAnAutomorphism("automorphism JSON must be a list of element indices")
    return GroupAutomorphism(group, mapping)


def _parse_indices(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _closure_cap(default: int, args) -> int:
    """``--cap``, else ``QUANDLE_CAP``, else ``default``; it must be >= 1."""
    env = os.environ.get("QUANDLE_CAP")
    try:
        cap = args.cap if args.cap is not None else int(env) if env else default
    except ValueError:
        raise UsageError(f"QUANDLE_CAP must be an integer, got {env!r}") from None
    if cap < 1:
        source = "--cap" if args.cap is not None else "QUANDLE_CAP"
        raise UsageError(f"{source} must be at least 1, got {cap}")
    return cap


def _word_json(word) -> list:
    return [[q, s] for q, s in word.letters]


# ---------------------------------------------------------------------------
# subcommand implementations; each returns the process exit code

def _cmd_make(args, out, err) -> int:
    from . import constructions
    fam = args.family
    if fam == "trivial":
        q = constructions.trivial(_require(args, "n"))
    elif fam == "dihedral":
        q = constructions.dihedral(_require(args, "n"))
    elif fam == "alexander":
        a = args.a
        if a is None:
            raise UsageError("alexander needs --a")
        try:
            a = int(a)
        except ValueError:
            a = json.loads(a)
        q = constructions.alexander(_require(args, "p"), 1 if args.n is None else args.n, a)
    elif fam == "power_cocycle":
        q = constructions.power_cocycle(_require(args, "p"), _require(args, "n"))
    elif fam == "unipotent_class":
        q = constructions.unipotent_class_quandle(_require(args, "p"))
    elif fam == "conj":
        q = constructions.conjugation(_load_group(args))
    elif fam == "conj_class":
        g = _load_group(args)
        if args.element is None:
            raise UsageError("conj_class needs --element INDEX")
        q = constructions.conj_class(g, args.element)
    elif fam == "phi_space":
        g = _load_group(args)
        if not args.phi or args.subgroup is None:
            raise UsageError("phi_space needs --phi FILE and --subgroup INDICES")
        q = constructions.phi_space(g, _load_phi(args.phi, g),
                                    _parse_indices(args.subgroup))
    elif fam == "vedernikov":
        g = _load_group(args)
        if not args.phi:
            raise UsageError("vedernikov needs --phi FILE")
        q = constructions.vedernikov(g, _load_phi(args.phi, g))
    elif fam == "cocycle":
        if not args.abelian or not args.cocycle:
            raise UsageError("cocycle needs --abelian FILE and --cocycle FILE")
        a_grp = FiniteGroup.from_dict(json.loads(_read_text(args.abelian)))
        f = json.loads(_read_text(args.cocycle))
        x_size = len(f) if args.x_size is None else args.x_size
        q = constructions.cocycle_extension(x_size, a_grp, f)
    else:
        raise UsageError(f"unknown family {fam!r}; choices: {', '.join(constructions.FAMILIES)}")
    _print_json(q._fields(), out)
    return 0


def _require(args, name: str) -> int:
    val = getattr(args, name, None)
    if val is None:
        raise UsageError(f"{args.family} needs --{name}")
    return val


def _cmd_check(args, out, err) -> int:
    try:
        q = _load_quandle(args.quandle)
    except InvalidQuandleError as exc:
        if args.json:
            _print_json({"valid": False,
                         "violations": [{"axiom": v.axiom, "witness": list(v.witness)}
                                        for v in exc.violations],
                         "truncated": exc.truncated}, out)
        else:
            print("invalid", file=out)
            for v in exc.violations:
                print(f"  {v}", file=out)
        return 1
    if args.json:
        _print_json({"valid": True, "size": q.size}, out)
    else:
        print(f"valid (size {q.size})", file=out)
    return 0


def _cmd_orbits(args, out, err) -> int:
    from . import symmetry
    q = _load_quandle(args.quandle)
    deco = symmetry.orbits(q)
    if args.json:
        _print_json({
            "count": deco.count,
            "orbit_id": list(deco.orbit_id),
            "orbits": [list(o) for o in deco.orbits],
            "basepoints": list(deco.basepoints),
            "witness_words": [_word_json(w) for w in deco.witness_words],
        }, out)
    else:
        print(f"{deco.count} orbit(s)", file=out)
        for b, o in zip(deco.basepoints, deco.orbits):
            print(f"  basepoint {b}: {list(o)}", file=out)
    return 0


def _cmd_group(args, out, err, which: str) -> int:
    q = _load_quandle(args.quandle)   # parsed before the import, under a lower peak
    from . import symmetry
    cap = _closure_cap(symmetry.DEFAULT_CAP, args)
    grp = symmetry.inn(q, cap=cap) if which == "inn" else symmetry.tr(q, cap=cap)
    if args.json:
        _print_json({"order": grp.order,
                     "domain_size": grp.domain_size,
                     "generators": grp.gens,
                     "transitive": grp.is_transitive()}, out)
    else:
        print(f"{which}: order {grp.order} on {grp.domain_size} points "
              f"({len(grp.gens)} generators)", file=out)
    return 0


def _cmd_connected(args, out, err) -> int:
    from . import symmetry
    q = _load_quandle(args.quandle)
    rep = symmetry.is_connected(q)
    if args.json:
        _print_json({
            "connected": rep.connected,
            "separating_pair": list(rep.separating_pair) if rep.separating_pair else None,
            "forward_saturation_agrees": rep.forward_saturation_agrees,
            "witness_words": ([_word_json(w) for w in rep.witness_words]
                              if rep.witness_words else None),
        }, out)
    else:
        print(f"connected: {str(rep.connected).lower()}", file=out)
        if rep.separating_pair:
            print(f"  separated: {rep.separating_pair}", file=out)
    return 0 if rep.forward_saturation_agrees else 2


def _cmd_aut(args, out, err) -> int:
    from . import symmetry
    q = _load_quandle(args.quandle)
    grp = symmetry.aut(q, cap=_closure_cap(symmetry.REALIZE_CAP, args))
    homogeneous = grp.is_transitive()
    if args.json:
        _print_json({"order": grp.order, "homogeneous": homogeneous}, out)
    else:
        print(f"aut: order {grp.order}, homogeneous: {str(homogeneous).lower()}",
              file=out)
    return 0


def _cmd_iso(args, out, err) -> int:
    from . import symmetry
    q1 = _load_quandle(args.quandle)
    q2 = _load_quandle(args.other)
    f = symmetry.iso_search(q1, q2)
    if args.json:
        _print_json({"isomorphic": f is not None, "mapping": list(f) if f else None}, out)
    else:
        print("isomorphic" if f else "not isomorphic", file=out)
        if f:
            print(f"  mapping: {list(f)}", file=out)
    return 0


def _cmd_realize(args, out, err) -> int:
    from . import symmetry
    q = _load_quandle(args.quandle)
    cap = _closure_cap(symmetry.REALIZE_CAP, args)
    real = symmetry.coset_realization(q, args.basepoint, cap=cap)
    if args.json:   # G's table and labels are written a block of rows at a time
        g, b = real.group, real.basepoint
        mul = g.table_rows()   # past MAX_GROUP_ORDER, refused before a byte is written
        stabilizer, reps, pi = symmetry._cosets(g.perms, b)
        _print_json({
            "basepoint": b,
            "group": {"labels": cycle_labels(g.perms), "mul": mul, "order": g.order},
            "phi": symmetry._psi(q, g, b, b).tolist(),
            "stabilizer": stabilizer.tolist(),
            "coset_reps": reps.tolist(),
            "pi": pi.tolist(),
            "orbit": list(real.orbit),
            "checks": dict(sorted(real.checks.items())),
            "ok": real.ok,
        }, out)
    else:
        print(f"orbit of {real.basepoint}: size {len(real.orbit)}", file=out)
        print(f"transvection group order {real.group.order}, "
              f"stabilizer size {real.stabilizer_size}", file=out)
        for k, v in sorted(real.checks.items()):
            print(f"  {k}: {str(v).lower()}", file=out)
    return 0 if real.ok else 2


def _cmd_sbar(args, out, err) -> int:
    from . import symmetry
    q = _load_quandle(args.quandle)
    cap = _closure_cap(symmetry.DEFAULT_CAP, args)
    rep = symmetry.sbar_hom(q, args.basepoint, cap=cap)
    if args.json:
        _print_json({
            "basepoint": rep.basepoint,
            "group_order": rep.group.order,
            "mapping": list(rep.mapping),
            "fibers": [list(f) for f in rep.fibers],
            "injective": rep.injective,
            "is_homomorphism": rep.is_homomorphism,
        }, out)
    else:
        print(f"sbar at {rep.basepoint}: homomorphism "
              f"{str(rep.is_homomorphism).lower()}, injective "
              f"{str(rep.injective).lower()}, {len(rep.fibers)} fiber(s)", file=out)
    return 0 if rep.ok else 2


def _cmd_report(args, out, err) -> int:
    from . import regularity, symmetry
    q = _load_quandle(args.quandle)
    cap = _closure_cap(symmetry.REALIZE_CAP, args)
    rep = regularity.regularity_report(q, cap=cap)
    if args.json:
        _print_json(rep.to_dict(), out)
    else:
        flags = rep.flags()
        print(f"size {rep.size}", file=out)
        for name in regularity.CONDITION_NAMES:
            print(f"  {name}: {str(flags[name]).lower()}", file=out)
        for note in rep.notes:
            print(f"  note: {note}", file=out)
    return 0


def _cmd_survey(args, out, err) -> int:
    from . import regularity, symmetry
    directory = Path(args.directory)
    if not directory.is_dir():
        raise UsageError(f"{args.directory} is not a directory")
    corpus = [(path.stem, _load_quandle(str(path))) for path in sorted(directory.glob("*.json"))]
    cap = _closure_cap(symmetry.REALIZE_CAP, args)
    result = regularity.implication_survey(corpus, cap=cap)
    if args.json:
        _print_json(result.to_dict(), out)
    else:
        print(result.format_table(), file=out)
        observed = result.observed()
        if observed:
            print("implications with no counterexample: " + ", ".join(observed),
                  file=out)
    return 0


def _cmd_color(args, out, err) -> int:
    if bool(args.diagram) == bool(args.braid):
        raise UsageError("need exactly one of --diagram FILE or --braid WORD")
    if args.diagram:
        diagram = knots.parse_pd(_read_text(args.diagram))
    else:
        if args.strands is None:
            raise UsageError("--braid needs --strands")
        diagram = knots.parse_braid(args.braid, args.strands)
    q = _load_quandle(args.quandle)
    count = knots.count_colorings(diagram, q, by_orbit=args.by_orbit)
    # the int-to-text digit limit guards parsing; lift it to print exact counts
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.json:
            _print_json({
                "total": count.total,
                "by_orbit": list(count.by_orbit) if count.by_orbit else None,
                "arcs": diagram.arc_count,
                "crossings": len(diagram.crossings),
                "components": diagram.component_count,
            }, out)
        else:
            print(f"colorings: {count.total}", file=out)
            if count.by_orbit is not None:
                from . import symmetry
                deco = symmetry.orbits(q)
                for b, c in zip(deco.basepoints, count.by_orbit):
                    print(f"  within orbit of {b}: {c}", file=out)
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def _cmd_action(args, out, err) -> int:
    from . import symmetry
    q = _load_quandle(args.quandle)
    data = json.loads(_read_text(args.action))
    if (not isinstance(data, dict) or type(data.get("set_size")) is not int
            or not isinstance(data.get("act"), list)):
        raise symmetry.ActionError(
            "action JSON must be an object {'set_size': int, 'act': [permutations]}")
    set_size = data["set_size"]
    act = []
    for entry in data["act"]:
        if isinstance(entry, str):
            act.append(parse_cycles(entry, domain_size=set_size))
        elif isinstance(entry, list):
            act.append(tuple(entry))
        else:
            raise symmetry.ActionError(
                f"action entry {entry!r} is neither a list nor cycle notation")
    action = symmetry.QuandleAction(q, set_size, act)
    cap = _closure_cap(symmetry.DEFAULT_CAP, args)
    opg = symmetry.op_group(action, cap=cap)
    trg = symmetry.tr_action_group(action, cap=cap)
    op_orbits = [sorted(o) for o in opg.orbits()]
    tr_orbits = [sorted(o) for o in trg.orbits()]
    if args.json:
        _print_json({
            "op_group_order": opg.order,
            "tr_group_order": trg.order,
            "op_orbits": op_orbits,
            "tr_orbits": tr_orbits,
            "orbits_agree": op_orbits == tr_orbits,
        }, out)
    else:
        print(f"op group order {opg.order}, orbits {op_orbits}", file=out)
        print(f"tr group order {trg.order}, orbits {tr_orbits}", file=out)
    return 0


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> _Parser:
    parser = _Parser(prog="quandles",
                     description="finite quandle toolkit: construct, analyze, color")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; no effect on results or speed")
    common.add_argument("--cap", type=int, default=None,
                        help="override the element cap of group closures and of aut")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make", parents=[common], help="construct a quandle family")
    p.add_argument("family")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--a", help="invertible scalar, or a JSON matrix")
    p.add_argument("--x-size", type=int, dest="x_size")
    p.add_argument("--group", help="group JSON file {'order','mul','labels'?}")
    p.add_argument("--gens", help="permutation generators, one cycle notation per line")
    p.add_argument("--phi", help="automorphism JSON file {'map': [...]} or bare list")
    p.add_argument("--subgroup", help="comma-separated element indices")
    p.add_argument("--element", type=int, help="class representative index")
    p.add_argument("--abelian", help="abelian coefficient group JSON file")
    p.add_argument("--cocycle", help="JSON table of coefficient indices")

    for name, help_text in [("check", "validate a quandle file"),
                            ("orbits", "inner orbit decomposition"),
                            ("inn", "inner automorphism group"),
                            ("tr", "transvection group"),
                            ("connected", "connectedness with certificate"),
                            ("aut", "full automorphism group (small carriers)"),
                            ("realize", "coset realization of an orbit"),
                            ("sbar", "symmetry-comparison homomorphism"),
                            ("report", "regularity condition report")]:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("quandle", help="quandle JSON file, or - for stdin")
        if name in ("realize", "sbar"):
            p.add_argument("--basepoint", type=int, default=0)

    p = sub.add_parser("iso", parents=[common], help="isomorphism search")
    p.add_argument("quandle")
    p.add_argument("other")

    p = sub.add_parser("survey", parents=[common],
                       help="regularity flags across a directory of quandles")
    p.add_argument("directory")

    p = sub.add_parser("color", parents=[common], help="count quandle colorings")
    p.add_argument("--diagram", help="PD code file")
    p.add_argument("--braid", help="braid word, e.g. \"s1 s1 s1\"")
    p.add_argument("--strands", type=int)
    p.add_argument("--quandle", required=True)
    p.add_argument("--by-orbit", action="store_true", dest="by_orbit")

    p = sub.add_parser("action", parents=[common],
                       help="op- and tr-orbits of a quandle action on a set")
    p.add_argument("--quandle", required=True)
    p.add_argument("--action", required=True,
                   help="JSON file {'set_size': m, 'act': [permutations]}")
    return parser


_DISPATCH = {
    "make": _cmd_make,
    "check": _cmd_check,
    "orbits": _cmd_orbits,
    "inn": lambda a, o, e: _cmd_group(a, o, e, "inn"),
    "tr": lambda a, o, e: _cmd_group(a, o, e, "tr"),
    "connected": _cmd_connected,
    "aut": _cmd_aut,
    "iso": _cmd_iso,
    "realize": _cmd_realize,
    "sbar": _cmd_sbar,
    "report": _cmd_report,
    "survey": _cmd_survey,
    "color": _cmd_color,
    "action": _cmd_action,
}


def run(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help prints and exits
            return int(exc.code or 0)
        return _DISPATCH[args.command](args, out, err)
    except UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except json.JSONDecodeError as exc:
        print(f"input error: invalid JSON: {exc}", file=err)
        return 1
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=err)
        return 1


def main() -> None:
    gc.freeze()   # one command per process: what exists now lives until exit
    sys.exit(run())


# The pause ends here, not after the imports: the first young collection would
# walk everything they built, and under -m main() freezes that before any runs.
if _gc_was_enabled:
    gc.enable()

if __name__ == "__main__":
    main()
