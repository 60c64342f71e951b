"""The one isomorphism search, ``groups.table_isomorphisms`` (through
``symmetry._isomorphisms`` for quandles), against the two backtrackers it
replaced, kept here as reference implementations: the mappings must come
out as the same sequence, not just the same set."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from quandles import (FiniteGroup, GroupAutomorphism, NotAnAutomorphism,
                      all_automorphisms, cycle_type, hom_check, iso_search,
                      validate)
from quandles.symmetry import _isomorphisms, orbits

from corpus_util import corpus, corpus_groups, small_corpus


def reference_profiles(quandle):
    deco = orbits(quandle)
    out = []
    for q in range(quandle.size):
        row = quandle.op[q]
        fixed = sum(1 for r in range(quandle.size) if row[r] == r)
        out.append((cycle_type(row), fixed, len(deco.orbit_of(q))))
    return out


def reference_iso_backtrack(q1, q2, pinned=None):
    """Backtracking isomorphism search with invariant pruning and forced
    propagation; lazily yields complete mappings (candidates in index order,
    so the search trace is deterministic)."""
    n = q1.size
    if q2.size != n:
        return
    prof1 = reference_profiles(q1)
    prof2 = reference_profiles(q2)
    by_profile: dict = {}
    for b in range(n):
        by_profile.setdefault(prof2[b], []).append(b)
    candidates = [tuple(by_profile.get(prof1[a], ())) for a in range(n)]
    if any(not c for c in candidates):
        return
    mapping = [-1] * n
    used = [False] * n
    op1, op2 = q1.op, q2.op

    def propagate(a, fa, trail):
        """Assign a -> fa plus everything forced by partial products."""
        stack = [(a, fa)]
        while stack:
            x, fx = stack.pop()
            if mapping[x] >= 0:
                if mapping[x] != fx:
                    return False
                continue
            if used[fx] or prof1[x] != prof2[fx]:
                return False
            mapping[x] = fx
            used[fx] = True
            trail.append(x)
            for y in range(n):
                fy = mapping[y]
                if fy < 0:
                    continue
                stack.append((op1[x][y], op2[fx][fy]))
                stack.append((op1[y][x], op2[fy][fx]))
        return True

    def undo(trail):
        for x in trail:
            used[mapping[x]] = False
            mapping[x] = -1

    order = sorted(range(n), key=lambda a: (len(candidates[a]), a))

    def rec():
        a = next((x for x in order if mapping[x] < 0), None)
        if a is None:
            yield tuple(mapping)
            return
        for fa in candidates[a]:
            if used[fa]:
                continue
            trail = []
            if propagate(a, fa, trail):
                yield from rec()
            undo(trail)

    pin_trail = []
    for a, fa in (pinned.items() if pinned else ()):
        if not propagate(a, fa, pin_trail):
            undo(pin_trail)
            return
    yield from rec()
    undo(pin_trail)


def reference_all_automorphisms(group):
    """Every automorphism's mapping, by backtracking over element orders
    with a partial consistency check and a full recheck of each result."""
    n = group.order
    orders = [group.element_order(i) for i in range(n)]
    by_order: dict = {}
    for i, o in enumerate(orders):
        by_order.setdefault(o, []).append(i)
    candidates = [tuple(by_order[orders[i]]) for i in range(n)]
    found = []
    mapping = [-1] * n
    used = [False] * n
    mapping[group.identity] = group.identity
    used[group.identity] = True
    todo = [i for i in range(n) if i != group.identity]
    todo.sort(key=lambda i: (len(candidates[i]), i))

    def consistent(i):
        for j in range(n):
            if mapping[j] < 0:
                continue
            p = group.mul(i, j)
            if mapping[p] >= 0 and mapping[p] != group.mul(mapping[i], mapping[j]):
                return False
            p = group.mul(j, i)
            if mapping[p] >= 0 and mapping[p] != group.mul(mapping[j], mapping[i]):
                return False
        return True

    def rec(k):
        if k == len(todo):
            found.append(tuple(mapping))
            return
        i = todo[k]
        for img in candidates[i]:
            if used[img]:
                continue
            mapping[i] = img
            used[img] = True
            if consistent(i):
                rec(k + 1)
            mapping[i] = -1
            used[img] = False

    rec(0)
    out = []
    for f in found:   # the partial check is necessary, not sufficient
        try:
            GroupAutomorphism(group, f, check=True)
            out.append(f)
        except NotAnAutomorphism:
            continue
    return out


def _relabel(q, sigma):
    """The quandle with element x renamed sigma[x]."""
    inv = [0] * q.size
    for x, y in enumerate(sigma):
        inv[y] = x
    return validate([[sigma[q.op[inv[i]][inv[j]]] for j in range(q.size)]
                     for i in range(q.size)])


def test_automorphisms_in_reference_order_on_corpus():
    # power_cocycle_3_3 is left out: the reference needs more than 15 s for
    # its first 500 automorphisms, most of it in dead ends below the first
    # fiber that the two searches walk alike
    for name, q in corpus():
        if name == "power_cocycle_3_3":
            continue
        assert (list(itertools.islice(_isomorphisms(q, q), 500))
                == list(itertools.islice(reference_iso_backtrack(q, q), 500))), name
        for r in orbits(q).basepoints:
            assert (next(_isomorphisms(q, q, pinned=(0, r)), None)
                    == next(reference_iso_backtrack(q, q, pinned={0: r}), None)), (name, r)


def test_first_isomorphism_matches_reference_on_same_size_pairs():
    rng = random.Random(0)
    small = [(name, q) for name, q in corpus() if q.size <= 12]
    pairs = [(q1, q2) for (n1, q1), (n2, q2) in itertools.combinations(small, 2)
             if q1.size == q2.size]
    pairs += [(q, _relabel(q, rng.sample(range(q.size), q.size))) for _, q in small]
    assert len(pairs) >= 300
    for q1, q2 in pairs:
        assert iso_search(q1, q2) == next(reference_iso_backtrack(q1, q2), None)


def test_group_automorphisms_in_reference_order():
    for name, g in corpus_groups():
        assert ([tuple(f.mapping.tolist()) for f in all_automorphisms(g)]
                == reference_all_automorphisms(g)), name
    z12 = FiniteGroup.cyclic(12)
    assert ([tuple(f.mapping.tolist()) for f in all_automorphisms(z12)]
            == reference_all_automorphisms(z12))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_iso_search_finds_a_relabelling(data):
    q = data.draw(st.sampled_from([q for _, q in small_corpus()]))
    sigma = data.draw(st.permutations(range(q.size)))
    target = _relabel(q, sigma)
    f = iso_search(q, target)
    assert f is not None and sorted(f) == list(range(q.size))
    assert hom_check(f, q, target).ok
