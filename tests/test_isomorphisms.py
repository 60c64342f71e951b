"""The one isomorphism search, ``groups.table_isomorphisms`` (on a quandle's
table and invariant profiles, as ``iso_search`` calls it), against the two backtrackers it
replaced, kept here as reference implementations: the mappings must come
out as the same sequence, not just the same set."""

import itertools
import random

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from quandles import (FiniteGroup, GroupAutomorphism, NotAnAutomorphism,
                      all_automorphisms, cycle_type, hom_check, iso_search,
                      validate)
from quandles.groups import table_isomorphisms
from quandles.symmetry import _invariant_profiles, orbits

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
    orders = group.element_orders.tolist()
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
        prof = _invariant_profiles(q)
        assert (list(itertools.islice(table_isomorphisms(q.op, q.op, prof, prof), 500))
                == list(itertools.islice(reference_iso_backtrack(q, q), 500))), name


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


def _pair_loop_isomorphisms(a, b, prof_a, prof_b):
    """The reference: ``table_isomorphisms`` as it was with the closure of
    the chain grown by a pair loop, each forced element read off the first
    product l.r of members that meets it."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    n = len(a)
    if len(b) != n:
        return
    ids: dict = {}
    pa = [ids.setdefault(p, len(ids)) for p in prof_a]
    pb = [ids.setdefault(p, len(ids)) for p in prof_b]
    cands = [[y for y in range(n) if pb[y] == i] for i in range(len(ids))]
    order = sorted(range(n), key=lambda x: (len(cands[pa[x]]), x))
    a_rows, b_rows = a.tolist(), b.tolist()
    members: list[int] = []
    inside = [False] * n
    levels = []
    for s in order:
        if inside[s]:
            continue
        lo = len(members)
        members.append(s)
        inside[s] = True
        derived = []
        for x in itertools.islice(members, lo, None):
            for y in list(members):
                for l, r in ((x, y), (y, x)):
                    z = a_rows[l][r]
                    if not inside[z]:
                        inside[z] = True
                        members.append(z)
                        derived.append((z, l, r))
        tries = cands[pa[s]]
        cur, fresh = np.array(members), np.arange(len(members)) >= lo
        xi, yi = np.nonzero(fresh[:, None] | fresh)
        xs, ys = cur[xi], cur[yi]
        levels.append((s, tries, derived, xs, ys, a[xs, ys]))
    f, fa = [-1] * n, np.full(n, -1)
    used = [False] * n

    def extend(k):
        if k == len(levels):
            yield tuple(f)
            return
        s, tries, derived, xs, ys, a_xy = levels[k]
        for y in tries:
            if used[y]:
                continue
            f[s] = fa[s] = y
            taken = [y]
            used[y] = True
            for x, l, r in derived:
                fx = b_rows[f[l]][f[r]]
                if used[fx] or pb[fx] != pa[x]:
                    break
                f[x] = fa[x] = fx
                taken.append(fx)
                used[fx] = True
            else:
                if (fa[a_xy] == b[fa[xs], fa[ys]]).all():
                    yield from extend(k + 1)
            for t in taken:
                used[t] = False

    yield from extend(0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_schreier_vector_search_matches_the_pair_loop(data):
    q = data.draw(st.sampled_from([q for _, q in small_corpus()]))
    target = _relabel(q, data.draw(st.permutations(range(q.size))))
    pq, pt = _invariant_profiles(q), _invariant_profiles(target)
    assert (list(itertools.islice(table_isomorphisms(q.op, target.op, pq, pt), 200))
            == list(itertools.islice(_pair_loop_isomorphisms(q.op, target.op, pq, pt), 200)))


def test_group_automorphisms_match_the_pair_loop():
    for name, g in corpus_groups() + [("Z12", FiniteGroup.cyclic(12))]:
        orders = g.element_orders.tolist()
        assert (list(table_isomorphisms(g.table, g.table, orders, orders))
                == list(_pair_loop_isomorphisms(g.table, g.table, orders, orders))), name
