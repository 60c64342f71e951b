"""``aut``'s orbit-stabilizer search against the listing it replaced.

The reference is the old ``aut``: every automorphism that ``table_isomorphisms``
yields on q's table and invariant profiles, sorted; and, for ``is_transitive``,
one pinned search of the reference backtracker from 0 to each other
inner-orbit basepoint.  ``power_cocycle_3_3`` is left out, as the
listing gives no answer on it within 30 s; carriers past 64 points are
refused by both."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles import CapExceeded, aut, hom_check, trivial, validate
from quandles.groups import table_isomorphisms
from quandles.symmetry import AUT_MAX_SIZE, REALIZE_CAP, _invariant_profiles, orbits

from corpus_util import corpus, small_corpus
from test_isomorphisms import reference_iso_backtrack


def listing(q):
    prof = _invariant_profiles(q)
    return sorted(table_isomorphisms(q.op, q.op, prof, prof))


def pinned_homogeneous(q):
    deco = orbits(q)
    return deco.count == 1 or all(
        next(reference_iso_backtrack(q, q, pinned={0: r}), None) is not None
        for r in deco.basepoints if deco.orbit_id[r] != deco.orbit_id[0])


def _is_trivial(q):
    return bool((q.op == np.arange(q.size)).all())


CARRIERS = [(name, q) for name, q in corpus()
            if q.size <= AUT_MAX_SIZE and name != "power_cocycle_3_3"]
# trivial quandles past 8 points have more than REALIZE_CAP automorphisms
FITS = [(name, q) for name, q in CARRIERS if not _is_trivial(q) or q.size <= 8]
PAST_CAP = [c for c in CARRIERS if c not in FITS]


def _assert_matches_listing(q):
    grp, els = aut(q), listing(q)
    assert grp.order == len(els)
    assert grp.is_transitive() == (len({f[0] for f in els}) == q.size)
    assert grp.elements == tuple(els)
    assert pinned_homogeneous(q) == grp.is_transitive()


@pytest.mark.parametrize("name,q", FITS, ids=[name for name, _ in FITS])
def test_aut_matches_the_listing(name, q):
    _assert_matches_listing(q)


@pytest.mark.parametrize("name,q", PAST_CAP, ids=[name for name, _ in PAST_CAP])
def test_aut_of_a_trivial_quandle_past_the_cap(name, q):
    with pytest.raises(CapExceeded, match=f"^automorphism group exceeded cap of {REALIZE_CAP} "):
        aut(q)
    grp = aut(q, cap=10**70)
    assert grp.order == math.factorial(q.size) and grp.is_transitive()


def test_aut_of_trivial_12_is_not_listed():
    grp = aut(trivial(12), cap=10**9)
    assert grp.order == math.factorial(12)
    assert grp.is_transitive()
    assert "perms" not in vars(grp)


def test_strong_generators_are_few_and_automorphisms():
    # each generator the search keeps enlarges the group the earlier ones
    # generate, at least doubling its order
    for name, q in CARRIERS:
        grp = aut(q, cap=10**70)
        assert len(grp.gens) <= math.log2(grp.order), name
        assert all(hom_check(f, q, q).ok for f in grp.gens.tolist()), name


def _relabel(q, sigma):
    inv = sorted(range(q.size), key=sigma.__getitem__)
    return validate([[sigma[q.op[inv[i], inv[j]]] for j in range(q.size)]
                     for i in range(q.size)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_aut_matches_the_listing_on_relabellings(data):
    q = data.draw(st.sampled_from([q for _, q in small_corpus()]))
    _assert_matches_listing(_relabel(q, data.draw(st.permutations(range(q.size)))))
