"""Golden digests of canonical ``--json`` output.

Each case builds a quandle in process, writes it to a file, runs one CLI
subcommand through ``cli.run`` and compares the sha256 of stdout with a
digest recorded before the group layer was rewritten (the conj(S5) cases
before the realization moved onto the stabilizer chain, and its ``sbar``
cases and those on non-injective carriers while ``sbar`` still tabulated
Inn(Q)); the ``realize`` digests on u13, trivial(3) and dihedral(4) were
recorded while ``realize --json`` still built Tr(Q)'s whole table.  The ``orbits``,
``survey``, ``color``, ``make phi_space``/``make vedernikov`` and
inter-orbit digests were recorded before the realization code was merged
into one coset action, and the ``make unipotent_class`` digests for p < 13
while the class was still read off the table of SL2(F_p).  The ``aut`` and
``iso`` digests were recorded while ``aut`` still listed every automorphism.
Any change to a table, an element order, a label or a check shows up here
byte for byte.
"""

import functools
import hashlib
import io
import json
import random

import pytest

from quandles import (FiniteGroup, conjugation, dihedral, inter_orbit_action,
                      power_cocycle, trivial, unipotent_class_quandle, validate)
from quandles.cli import run

QUANDLES = {
    "u7": lambda: unipotent_class_quandle(7),
    "u11": lambda: unipotent_class_quandle(11),
    "conj_s4": lambda: conjugation(FiniteGroup.symmetric(4)),
    "d5": lambda: dihedral(5),
}

# the second basepoint of each quandle, next to 0
OTHER_BASEPOINT = {"u7": 5, "u11": 17, "conj_s4": 9, "d5": 3}

# carriers read by sbar alone, at the basepoints given: both are not
# injective, as power_cocycle(3, 2)'s symmetries depend on the first
# coordinate only and trivial(4)'s are all the identity
SBAR_CARRIERS = {"pc32": lambda: power_cocycle(3, 2), "t4": lambda: trivial(4)}
SBAR_BASEPOINTS = {"pc32": (0, 4), "t4": (0,)}

# carriers read by realize alone: u13's table of Tr (order 1092) is written in
# many row blocks, trivial(3)'s Tr is the trivial group, whose chain has no
# base point, and dihedral(4)'s Tr is not transitive
REALIZE_CARRIERS = {"u13": lambda: unipotent_class_quandle(13), "t3": lambda: trivial(3),
                    "d4": lambda: dihedral(4)}
REALIZE_BASEPOINTS = {"u13": (0,), "t3": (0, 2), "d4": (0, 1)}


def _s3_conjugation_by_1() -> list:
    s3 = FiniteGroup.symmetric(3)
    return [s3.conj(1, x) for x in range(s3.order)]


# input files other than the quandles, named in argv as "@name"
FILES = {
    "z6": lambda: json.dumps(FiniteGroup.cyclic(6).to_dict()),
    "neg6": lambda: json.dumps({"map": [(-i) % 6 for i in range(6)]}),
    "s3": lambda: json.dumps(FiniteGroup.symmetric(3).to_dict()),
    "conj_by_1": lambda: json.dumps(_s3_conjugation_by_1()),
    "trefoil": lambda: "X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]",
}

# the carriers of the aut and iso digests: each quandle, and dihedral(63)
AUT_CARRIERS = {**QUANDLES, "d63": lambda: dihedral(63)}


def _relabelled(name: str) -> str:
    """The carrier ``name`` with its points renamed by Random(0).sample."""
    q = AUT_CARRIERS[name]()
    sigma = random.Random(0).sample(range(q.size), q.size)
    op = q.op.tolist()
    inv = sorted(range(q.size), key=sigma.__getitem__)
    return validate([[sigma[op[inv[i]][inv[j]]] for j in range(q.size)]
                     for i in range(q.size)]).to_json()


FILES["d63"] = lambda: AUT_CARRIERS["d63"]().to_json()
FILES.update({f"{name}_relabelled": functools.partial(_relabelled, name)
              for name in AUT_CARRIERS})

# conj(S5) is read by realize, report and sbar alone: at 120 points it is past
# aut's limit, and in the survey directory it would move that digest.  Its
# orbit basepoints other than 0 lie outside the first basic orbit of Tr's
# stabilizer chain.
S5_BASEPOINTS = (0, 1, 3, 7, 9, 27, 33)

# (quandle, q, r) of each pinned inter_orbit_action report
INTER_ORBIT = (("conj_s4", 0, 9), ("conj_s4", 9, 9), ("u11", 0, 17))

DIGESTS = {
    "make_unipotent_2":
        "41d6fd6eb0df640ee36afdcec46c96192327e178b6ec34422df50788dbe00eb9",
    "make_unipotent_3":
        "75c2bd634c2ab57e0968dde222ef4d477abec20e3570c6ebb7994eaef80f786c",
    "make_unipotent_5":
        "0d1982e6167b434469bacd06bf902379e8c71242a41a9c5beeff61ae4faaff77",
    "make_unipotent_7":
        "9e8f4c4c4481b2bd0b986232184b0f87de2f1649944b89be805b20dfcb0fd001",
    "make_unipotent_11":
        "acce541c21221f7364be6cbbec8b00b2dfbe6697265ec6b74a45504d38f6b412",
    "make_unipotent_13":
        "d948ee457761c1b30ec7e9a2e2f11783be3711f9c585a61350181411f826ec5e",
    "u7:quandle":
        "779ea409ee6127d23ef8742225499ea960c4936737429d13f468a725d22b637e",
    "u7:report":
        "31749f587e679b2bf45c42a53ece11166089ab0636723810edea94b1981d84fe",
    "u7:realize:0":
        "ef541b2aa44b55a1e9831ee8ca36b03ac027e4722f28a95b42e9a3306c6a9d40",
    "u7:sbar:0":
        "f595682abff8af0eae1e63780ee0063aaa1ddb6406b1bbd647fed3308db84412",
    "u7:realize:5":
        "d1891269656ba9c96b62f89363735bfe7f78e867a9ef9786de1c3eab7fdd818b",
    "u7:sbar:5":
        "5458d07ba3d0d194ce965fd08eaef004cc0731f2610a27488766800347aa3bae",
    "u11:quandle":
        "9abb8eb9837a103917d432ef74dbd95dcb10b17e6b5fae73ee35c1b63c27b7d0",
    "u11:report":
        "71b1bc88ccaf75d790bd39040b46183208ba1d945a7d258d19dbd4db029154be",
    "u11:realize:0":
        "aa9ea138914f74a552e5fa31dc0f9c9a1de42176da9bfd26ce323addd1dde08e",
    "u11:sbar:0":
        "f2ac25630c1d8775073f34c8531e64cebe4e677f266d711f42418d8991d453e5",
    "u11:realize:17":
        "8fcbad3ea9666840e60f64edcc508165a5b1e798248fff5697d3afaaa0269138",
    "u11:sbar:17":
        "1b1b7cd8144f7f7b9220725f82d98f6cf0dc7374e2fbffb914d2c28ac4fe9de5",
    "conj_s4:quandle":
        "de10fe3f2eaff90ed9678e4488be5765d2fa0d574485c0d61c054e9178338019",
    "conj_s4:report":
        "1762a7ec6c6ecc585c408aa2c9743143875de6078297e6efd78dec16db190ea9",
    "conj_s4:realize:0":
        "3a266ebb55a5aef0b6565b82f9cfe57ceadcdb665a0a4ce0dcef9714609ac47a",
    "conj_s4:sbar:0":
        "7aaff6accc5bca3e3422e23145403612d62af1b1393f5b942ed6b0373df9165f",
    "conj_s4:realize:9":
        "657f75a3e2f2472c86abab9c2b9ab1c3d156d379319eee49da4ce39a2d235658",
    "conj_s4:sbar:9":
        "f2535f606a5ad08de1e21c5faaf84e03e4e973f5edd0c29f19195c92c653eb6a",
    "d5:quandle":
        "c2b531df85d4a4ed0f5cebd968320e4e0127ccd73020bdb1508e3568802e04e2",
    "d5:report":
        "d03e53b40ce23c5166cafb80da2b056b369f993256fb6476d870f8105cc25e49",
    "d5:realize:0":
        "706b9d690d96ca5ad805021a563cf4451c1749952a5f58cf3b801613fc00b4be",
    "d5:sbar:0":
        "008690d3398ed3a629c298780d8558505f831d23a6a6455474fd73dfddd3a7f3",
    "d5:realize:3":
        "546aa78f8af9e9d91de92048f18613cd6d35b91e5bbf11d56ca13e551742023c",
    "d5:sbar:3":
        "be6f7c1ec0000d0bc9fe515bcb847f08b9994c8839360f6109a2e40188ed796c",
    "make_phi_space":
        "1aafb3b88f72f43ae46e53eda990a553bbeee486ee524e0da6f8f6d05358fe28",
    "make_vedernikov":
        "649601be32776133cfc7e58fe4667cd705a3a02ebf3ef8288f9df9dc1e8bca55",
    "survey":
        "c51c1f392744e46e6247abd7d66ca566d7bd29cfab4845c45bad0da482185248",
    "d5:color_trefoil":
        "42aa0caa79c26d99b5d232be50d75dc771d9c66496c7fa2eb49d7fec15582b02",
    "u7:orbits":
        "799581feabc9a98c8f107d842d9f7f8b8f05b1c67213788db89b64686d849f6e",
    "u11:orbits":
        "4955417a5ff335aefeb80523c9c4fdf3fc044a885f7f7dd4b9cd407e658848df",
    "conj_s4:orbits":
        "bde564efaa4fc145561e6de6ef3dff3ed82987445e7e75d0b3c703113176c6c2",
    "d5:orbits":
        "a2d3d64dd8b121e5095884c08a8997944ddffd3283dd2443a8ea827f4ddcc531",
    "conj_s4:inter_orbit:0:9":
        "da941bfecd22967384e366f4de74a8fe74e2ed6949431e65fa107d2526edda77",
    "conj_s4:inter_orbit:9:9":
        "a4dbac1a423b1449b1713d714a847bf11e2e738c5f45c87f6e48da0da854dd3a",
    "u11:inter_orbit:0:17":
        "4f28e7ad0b042f89ddee1bfb82389ee3f6edf25cd9e9915c9162855a735f0b8b",
    "u7:aut":
        "32ce7f0f1b56ce87b6e20cefbe022862aeb135c65e54145e1ac3597845ae349e",
    "u7:iso":
        "7720c61a9c8a8cb1f40efab158931d3ce01f0875e49428bd93716c3a5b6dd6ca",
    "u11:aut":
        "184b59d8a08106271c8dae4b89538ca55078f316b3e12099f1e70688266c9fcd",
    "u11:iso":
        "1a82f39687481e4a20886d8ad6452b4fd367e04a2ada4a288d8d35bd2466fa40",
    "conj_s4:aut":
        "10162cb616e3939616deb1e051d3839316119441ea986dab20b844cac221da9d",
    "conj_s4:iso":
        "b1ff7985de975c5f8605b1a9928478fa408f698fcbd1878a3734e1edf0d95423",
    "d5:aut":
        "cc23566f939fc562865e49c32c5178040eb16357202824da29a4e99199e2ad2f",
    "d5:iso":
        "16b973e7e56e38a234707edcd97482a23556b68c14ea13017e78cc7eacdd1879",
    "d63:aut":
        "afbaf74f3da10924f8ab280905440ba72739894e95311211cf8a32ed8f13b4b2",
    "d63:iso":
        "46797700251e8d854041bbb17e544831c4a8f070b8ca74b5843ccab5fbe84cac",
    "conj_s5:report":
        "153c0ad7fa752af320cdeee10a98feabd160fc1681971d87af5e12e612ab4247",
    "conj_s5:realize:0":
        "5c6779ba6aa45a07d86166a2aeab4f38d7660fa0898761ed849df7627ebed047",
    "conj_s5:realize:1":
        "fd709c9d7b7af24fcc67333ebff5e063163011df38c21e96d2f8d41875792c5e",
    "conj_s5:realize:3":
        "ca278a3c1867c928f3ba1a38ac3c03a1e10374c7555e91b752daaa8ba30a54dc",
    "conj_s5:realize:7":
        "f26ce36ea0eb3472408686c9ee6363b4508d64290450d8fd655d71a4084da714",
    "conj_s5:realize:9":
        "367395be2e26fa7da0220ff3aba63f461556771f0ddae52c40843da898f47c20",
    "conj_s5:realize:27":
        "40750839f6de395259c57cfadfaf35a783a3fc24750a15c5de8a126b74dcfff1",
    "conj_s5:realize:33":
        "bb00a82362c97610a913cb35e22a28656f0961d8deaf7a22344e4ae5e0b0e16c",
    "pc32:sbar:0":
        "d88dc15cdf718b93995917b1db3f76ac0c9684f464c3bab74ee46f7a7053910c",
    "pc32:sbar:4":
        "c91ed52e21b1b4dd6cdac7a00974493237c05e56b5731ba4e5d4d7a3c663d5c4",
    "t4:sbar:0":
        "333ba451d1cd816d1c275918e307b98c961ba3e09d884ce8eb09ac9dd92b1261",
    "conj_s5:sbar:0":
        "f979b5e775e0c92f943eec27c0e52474e0c8fa94e424d484c7396d40a4705d53",
    "conj_s5:sbar:1":
        "88ae072c91b4239d2ecab11c730358176d8f2a9239cc7aaef22f506f5fc7c6ec",
    "conj_s5:sbar:3":
        "0577c5d17d8d868add49718629ec6950b7654dffa0bf095717160a7b60c1a78e",
    "conj_s5:sbar:7":
        "59d73816ed198c7239590beb3e57b4d2e580ee407cb10f68b0be69a5f45984ad",
    "conj_s5:sbar:9":
        "47d0d317e3701a9d0e9586b6f44f176f8cea7b97a020d9770887e2b7b54d83a7",
    "conj_s5:sbar:27":
        "1a24629e70fd37d75dbefcfaeda7e1bdf56956ba6b0d923f2aac431736660670",
    "conj_s5:sbar:33":
        "b2c35f25dd5778c77d33ab0865e7afc5bedf1fd01c92262ac988b5bba661aab5",
    "u13:realize:0":
        "1d8da2b0740748c7747d4bbfcd79dd43e4f1ba3450ee811f6db2a2c4b0c6fbe1",
    "t3:realize:0":
        "73d186c443054c52ca134e7eef466a40d1a4866fcd0b56a7f76827e525204f55",
    "t3:realize:2":
        "b2f482025a6996b523dde31559f1b2e4f9b4e2da119799571e75af709ceab8cb",
    "d4:realize:0":
        "ef88e8c4d761ed097b70bda2dc1463bf31dce8b221b019cd14239273d3d73863",
    "d4:realize:1":
        "cd30b226bc2db21e93dc782251a59c0d7b0929290e0fa8d1f2edd57f8a26d2f8",
}


def _argvs():
    for p in (2, 3, 5, 7, 11, 13):
        yield f"make_unipotent_{p}", None, ["make", "unipotent_class", "--p", str(p)]
    yield "make_phi_space", None, ["make", "phi_space", "--group", "@z6",
                                   "--phi", "@neg6", "--subgroup", "0"]
    yield "make_vedernikov", None, ["make", "vedernikov", "--group", "@s3",
                                    "--phi", "@conj_by_1"]
    yield "survey", None, ["survey", "@DIR", "--json"]
    yield "d5:color_trefoil", None, ["color", "--diagram", "@trefoil",
                                     "--quandle", "@d5", "--by-orbit", "--json"]
    for name in AUT_CARRIERS:
        yield f"{name}:aut", None, ["aut", f"@{name}", "--json"]
        yield f"{name}:iso", None, ["iso", f"@{name}", f"@{name}_relabelled", "--json"]
    for name in QUANDLES:
        yield f"{name}:quandle", name, None
        yield f"{name}:report", name, ["report", "FILE", "--json"]
        yield f"{name}:orbits", name, ["orbits", "FILE", "--json"]
        for bp in (0, OTHER_BASEPOINT[name]):
            for cmd in ("realize", "sbar"):
                yield f"{name}:{cmd}:{bp}", name, [cmd, "FILE", "--basepoint", str(bp), "--json"]
    for name, basepoints in SBAR_BASEPOINTS.items():
        for bp in basepoints:
            yield f"{name}:sbar:{bp}", name, ["sbar", "FILE", "--basepoint", str(bp), "--json"]
    for name, basepoints in REALIZE_BASEPOINTS.items():
        for bp in basepoints:
            yield f"{name}:realize:{bp}", name, ["realize", "FILE", "--basepoint", str(bp),
                                                 "--json"]


CASES = list(_argvs())


S5_CASES = [("conj_s5:report", ["report", "FILE", "--json"])] + [
    (f"conj_s5:{cmd}:{bp}", [cmd, "FILE", "--basepoint", str(bp), "--json"])
    for cmd in ("realize", "sbar") for bp in S5_BASEPOINTS]


@functools.cache
def quandle_json(name: str) -> str:
    if name == "conj_s5":
        return conjugation(FiniteGroup.symmetric(5)).to_json()
    return {**QUANDLES, **SBAR_CARRIERS, **REALIZE_CARRIERS}[name]().to_json()


def _path(tmp_path, token: str) -> str:
    """The file (or, for "@DIR", the directory of all the quandles) that an
    argv token "@name" stands for, written under ``tmp_path``."""
    name = token[1:]
    if name == "DIR":
        directory = tmp_path / "corpus"
        directory.mkdir(exist_ok=True)
        for q in QUANDLES:
            (directory / f"{q}.json").write_text(quandle_json(q))
        return str(directory)
    path = tmp_path / name
    path.write_text(quandle_json(name) if name in QUANDLES else FILES[name]())
    return str(path)


def output(tmp_path, name, argv) -> bytes:
    """Canonical stdout of one case: the quandle JSON itself when ``argv``
    is None, else the CLI's output run on that quandle's file ("FILE") and
    on the files named "@name"."""
    if name is not None:
        text = quandle_json(name)
        if argv is None:
            return text.encode()
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        argv = [str(path) if a == "FILE" else a for a in argv]
    argv = [_path(tmp_path, a) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    assert code == 0, err.getvalue()
    return out.getvalue().encode()


@pytest.mark.parametrize("case,name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_digest(tmp_path, case, name, argv):
    digest = hashlib.sha256(output(tmp_path, name, argv)).hexdigest()
    assert digest == DIGESTS[case]


@pytest.mark.parametrize("case,argv", S5_CASES, ids=[c[0] for c in S5_CASES])
def test_conj_s5_digest(tmp_path, case, argv):
    digest = hashlib.sha256(output(tmp_path, "conj_s5", argv)).hexdigest()
    assert digest == DIGESTS[case]


def inter_orbit_digest(name: str, q: int, r: int) -> str:
    """sha256 of the canonical JSON of (psi, action, sorted checks)."""
    rep = inter_orbit_action(QUANDLES[name](), q, r)
    text = json.dumps([list(rep.psi), [list(row) for row in rep.action],
                       sorted(rep.checks.items())], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,q,r", INTER_ORBIT,
                         ids=[f"{n}:{q}:{r}" for n, q, r in INTER_ORBIT])
def test_inter_orbit_digest(name, q, r):
    assert inter_orbit_digest(name, q, r) == DIGESTS[f"{name}:inter_orbit:{q}:{r}"]
