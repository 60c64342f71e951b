"""Carrier commands hold one n x n table: the quandle's ``op``.

The inverse table is built only when read, the stabilizer chain keeps no
inverse transversals, its first level reads its transversal off the
generators, and ``tr``'s generators are formed where they are read; the
CLI's peaks at 4095 points follow from these.
"""

import io

import numpy as np
import pytest

import quandles.cli as cli_module
from quandles import alexander, dihedral, symmetry
from quandles.cli import run

from corpus_util import cli_peak_mb

LEVEL_FIELDS = {"base", "maps", "given", "orbit", "at", "parent", "via", "row", "kept", "pairs",
                "done"}


@pytest.mark.parametrize("command", ["check", "orbits", "connected", "inn", "tr"])
def test_carrier_commands_leave_the_inverse_table_unbuilt(tmp_path, monkeypatch, command):
    path, loaded = tmp_path / "a732.json", []
    path.write_text(alexander(7, 3, 2).to_json())
    load = cli_module._load_quandle
    monkeypatch.setattr(cli_module, "_load_quandle", lambda p: loaded.append(load(p)) or loaded[-1])
    assert run([command, "--json", str(path)], stdout=io.StringIO(), stderr=io.StringIO()) == 0
    assert len(loaded) == 1 and "inv_op" not in vars(loaded[0])


def test_the_inverse_table_is_built_once_when_read():
    q = dihedral(7)
    assert "inv_op" not in vars(q)
    inv = q.inv_op
    assert q.inv_op is inv and not inv.flags.writeable
    assert all(inv[a, q.op[a, b]] == b for a in range(7) for b in range(7))


def test_no_chain_level_holds_inverse_rows():
    # Inn(alexander(7, 3, 2)) has order 1029 on a chain of two levels, Tr order 343 on one.
    # Every row a level keeps is a transversal u, which takes the base to its point
    for grp in (symmetry.inn(alexander(7, 3, 2)), symmetry.tr(alexander(7, 3, 2))):
        grp.order
        for level in grp._levels:
            assert set(vars(level)) == LEVEL_FIELDS
            kept = np.flatnonzero(level.row >= 0)
            assert all(level.kept[level.row[p]][level.base] == level.orbit[p] for p in kept)
        # the first level stores no row: its points are the base, one strong
        # generator from it, or the image of the base under a given generator
        first = grp._levels[0]
        assert not ((first.row >= 0) & (first.parent > 0)).any()
        assert ((first.via < -1) | (first.parent <= 0)).all()


@pytest.fixture(scope="module")
def d4095_json(tmp_path_factory):
    """dihedral(4095), the largest odd carrier ``make`` writes (79 MB of JSON)."""
    path = tmp_path_factory.mktemp("carriers") / "d4095.json"
    path.write_text(dihedral(4095).to_json())
    return path


@pytest.mark.parametrize("command, budget", [("check", 80), ("inn", 90), ("tr", 90)])
def test_peaks_at_4095_points(d4095_json, command, budget):
    # 217 MB for check (the file's bytes, its str and the inverse table) and 270 MB
    # for tr (also the chain's inverse transversals) before the one-table layout;
    # 62, 100 and 128 MB for check, inn and tr while the chain stored an n x n
    # first-level transversal and tr an n x n generator array; 62, 64 and 63 MB
    # since, on a 2-core x86-64 Linux VM
    code, peak_mb, err = cli_peak_mb(command, str(d4095_json))
    assert code == 0, err
    assert peak_mb < budget
