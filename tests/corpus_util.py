"""The shared instance corpus exercised by the property and acceptance
tests, and a probe of the CLI's peak memory."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import quandles
from quandles import (FiniteGroup, GroupAutomorphism, all_automorphisms,
                      alexander, conj_class, conjugacy_class, conjugation,
                      dihedral, matrix_group_sl2, phi_space, power_cocycle,
                      trivial, unipotent_class_quandle, vedernikov)

_CACHE = None


def corpus_groups():
    return [("S3", FiniteGroup.symmetric(3)),
            ("S4", FiniteGroup.symmetric(4)),
            ("Z8", FiniteGroup.cyclic(8)),
            ("SL2F3", matrix_group_sl2(3))]


def build_corpus():
    """Fresh list of (name, quandle) covering every construction family."""
    items = []
    for n in range(1, 13):
        items.append((f"trivial_{n}", trivial(n)))
    for n in range(3, 13):
        items.append((f"dihedral_{n}", dihedral(n)))
    for p in (3, 5, 7):
        for n in (1, 2):
            for a in range(1, p):
                items.append((f"alexander_{p}_{n}_{a}", alexander(p, n, a)))
    for gname, grp in corpus_groups():
        items.append((f"conj_{gname}", conjugation(grp)))
        seen = set()
        for g in range(grp.order):
            if g in seen:
                continue
            cls = conjugacy_class(grp, g)
            seen.update(cls)
            items.append((f"conj_class_{gname}_{cls[0]}", conj_class(grp, cls[0])))
    for n in range(3, 13):
        zn = FiniteGroup.cyclic(n)
        neg = GroupAutomorphism(zn, tuple((-i) % n for i in range(n)))
        items.append((f"phi_space_Z{n}", phi_space(zn, neg, (0,))))
    s3 = FiniteGroup.symmetric(3)
    for i, phi in enumerate(all_automorphisms(s3)):
        items.append((f"vedernikov_S3_{i}", vedernikov(s3, phi)))
    for p in (3, 5):
        for n in (2, 3):
            items.append((f"power_cocycle_{p}_{n}", power_cocycle(p, n)))
    for p in (3, 5):
        items.append((f"unipotent_{p}", unipotent_class_quandle(p)))
    return items


def corpus():
    """Cached corpus; treat the quandles as read-only."""
    global _CACHE
    if _CACHE is None:
        _CACHE = build_corpus()
    return _CACHE


def small_corpus():
    """A fast cross-section, one instance per family."""
    names = {"trivial_4", "dihedral_5", "alexander_5_1_2", "conj_S3",
             "conj_class_S4_1", "phi_space_Z6", "vedernikov_S3_1",
             "power_cocycle_3_2", "unipotent_3"}
    return [(n, q) for n, q in corpus() if n in names]


# A child's ru_maxrss also counts the RSS of the process it was forked from,
# which for pytest can be hundreds of MB, so the child is started from a small
# interpreter that reports its child's peak.
_PEAK_RSS_OF = (
    "import hashlib, os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)\n"
    "digest = hashlib.sha256()\n"
    "for block in iter(lambda: proc.stdout.read(1 << 16), b''):\n"
    "    digest.update(block)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, digest.hexdigest())\n"
)


def _measure(*argv):
    """Exit code, peak RSS in MB, stderr and the sha256 of stdout of ``python
    argv`` in a fresh process with this checkout's ``quandles`` importable."""
    src = str(Path(quandles.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cmd = [sys.executable, *argv]
    out = subprocess.run([sys.executable, "-c", _PEAK_RSS_OF, *cmd], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    code, peak_kib, digest = out.stdout.split()  # ru_maxrss is in KiB on Linux
    return int(code), int(peak_kib) / 1024, out.stderr, digest


def python_peak_mb(*argv):
    """Exit code, peak RSS in MB and stderr of ``python argv`` in a fresh
    process with this checkout's ``quandles`` importable."""
    return _measure(*argv)[:3]


def cli_peak_mb(*argv):
    """Exit code, peak RSS in MB and stderr of the CLI run on ``argv`` in a
    fresh process."""
    return python_peak_mb("-m", "quandles.cli", *argv)


def cli_peak_mb_and_digest(*argv):
    """Exit code, peak RSS in MB and the sha256 of stdout of the CLI run on
    ``argv`` in a fresh process."""
    code, peak_mb, _, digest = _measure("-m", "quandles.cli", *argv)
    return code, peak_mb, digest
