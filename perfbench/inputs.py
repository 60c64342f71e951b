"""Build the input files of one workload.

    python perfbench/inputs.py WORKLOAD SEED OUTDIR [SPANS_JSON]

run.py runs this in a fresh interpreter with ``src`` on PYTHONPATH and times
the whole process as ``setup_s``.  Each quandle comes from its family's
constructor and is written as a relabelled copy (except
``workloads.KEEP_LABELS``): the seed picks a permutation of the carrier, and
the copy is isomorphic to the original.
With SPANS_JSON, the constructor calls are recorded as spans.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import spans
import workloads


def relabel(quandle, rng: random.Random) -> dict:
    """The quandle's JSON object carried through a random permutation."""
    n = quandle.size
    sigma = list(range(n))
    rng.shuffle(sigma)
    table = [[0] * n for _ in range(n)]
    for x, row in enumerate(quandle.op):
        new_row = table[sigma[x]]
        for y, z in enumerate(row):
            new_row[sigma[y]] = sigma[z]
    out = {"size": n, "table": table}
    if quandle.labels is not None:
        labels = [""] * n
        for x, label in enumerate(quandle.labels):
            labels[sigma[x]] = label
        out["labels"] = labels
    return out


def build(family: str, params: dict):
    from quandles import FiniteGroup, constructions
    if family == "unipotent_class":
        return constructions.unipotent_class_quandle(params["p"])
    if family == "conj_symmetric":
        return constructions.conjugation(FiniteGroup.symmetric(params["n"]))
    if family == "dihedral":
        return constructions.dihedral(params["n"])
    if family == "trivial":
        return constructions.trivial(params["n"])
    if family == "alexander":
        return constructions.alexander(params["p"], params["n"], params["a"])
    raise ValueError(f"unknown family {family!r}")


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    recorder = None
    if len(argv) > 3:
        recorder = spans.Recorder()
        spans.install(recorder, spans.SETUP_TARGETS)
    for name, (family, params) in workloads.INPUTS[workload].items():
        quandle = build(family, params)
        if name in workloads.KEEP_LABELS:
            data = quandle.to_dict()
        else:
            data = relabel(quandle, random.Random(f"{workload}-{name}-{seed}"))
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")))
    if workload == "color":
        for name, code in workloads.pd_files().items():
            (out / name).write_text(code + "\n")
    if recorder is not None:
        Path(argv[3]).write_text(json.dumps(recorder.report()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
