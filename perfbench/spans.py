"""Spans around calls into the quandles modules, kept in memory.

The benchmark records spans from its own side: ``install`` replaces a public
function or method of a ``quandles`` module with a wrapper that records
(name, start, end, parent) and then calls the original.  Module-level
functions are replaced in every ``quandles`` module that imported them, so
calls between modules are recorded too.  A layer's self time is its span's
duration minus the durations of its direct child spans.

Targets that no longer exist are skipped and listed in the report, so the
benchmark keeps running while the program is refactored.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc


class Recorder:
    """Spans and counters of one process.  ``context`` holds facts about
    the task (such as the diagram kind) that name functions may read."""

    def __init__(self, context: dict | None = None):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.context = context or {}
        self._stack: list[int] = []

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def wrap(self, fn, name, after=None):
        """``name`` is a span name, or a function of (recorder, args, kwargs)
        returning one, or None to call through without a span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(self, args, kwargs) if callable(name) else name
            if label is None:
                return fn(*args, **kwargs)
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, result, args, kwargs)
            return result
        return traced

    def report(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "missing": self.missing}


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, each span counted minus its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def total_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, children included; a span nested inside a
    span of the same name is not counted twice."""
    out: dict[str, float] = {}
    for name, start, end, parent in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out[name] = out.get(name, 0.0) + end - start
    return out


# ---------------------------------------------------------------------------
# counters and span names that depend on the call

def _after_close(rec: Recorder, grp, args, kwargs) -> None:
    order, gens = grp.order, len(grp.generators)
    rec.add("groups.close_order", order)
    rec.add("groups.close_gens", gens)
    rec.add("groups.close_new", order - 1)
    rec.add("groups.close_tries", order * gens)


def _aut_check_name(rec: Recorder, args, kwargs):
    check = kwargs.get("check", args[3] if len(args) > 3 else True)
    return "groups.aut_check_s" if check else None


def _after_aut_check(rec: Recorder, result, args, kwargs) -> None:
    """Pairs the check multiplies: all n^2 unless the group module still
    samples above its exhaustive limit."""
    if not _aut_check_name(rec, args, kwargs):
        return
    groups = sys.modules["quandles.groups"]
    n = (kwargs.get("group") or args[1]).order
    limit = getattr(groups, "EXHAUSTIVE_PAIRS", None)
    sampled = limit is not None and n * n > limit
    rec.add("groups.aut_check_pairs",
            getattr(groups, "SAMPLED_CHECKS", n * n) if sampled else n * n)


def _encode_name(rec: Recorder, args, kwargs):
    """``to_dict`` counts as CLI encoding only when the CLI calls it; the
    library also calls it, e.g. to store a group table in a record."""
    return "cli.encode_s" if rec.current() == "cli.self_s" else None


def _count_name(rec: Recorder, args, kwargs) -> str:
    by_orbit = kwargs.get("by_orbit", args[2] if len(args) > 2 else False)
    if by_orbit:
        return "knots.count_by_orbit_s"
    return f"knots.count_{rec.context.get('diagram', 'braid')}_s"


# (module, attribute or Class.method, span name, after-hook)
TASK_TARGETS = (
    ("quandles.cli", "run", "cli.self_s", None),
    ("quandles.cli", "_canonical", "cli.encode_s", None),
    ("quandles.groups", "FiniteGroup.to_dict", _encode_name, None),
    ("quandles.regularity", "RegularityReport.to_dict", _encode_name, None),
    ("quandles.regularity", "SurveyResult.to_dict", _encode_name, None),
    ("quandles.quandle", "FiniteQuandle.from_json", "quandle.from_json_s", None),
    ("quandles.quandle", "validate", "quandle.validate_s", None),
    ("quandles.groups", "close", "groups.close_s", _after_close),
    ("quandles.groups", "FiniteGroup.from_permutation_group", "groups.table_s", None),
    ("quandles.groups", "FiniteGroup.multiplication_table", "groups.mul_table_s", None),
    ("quandles.groups", "GroupAutomorphism.__init__", _aut_check_name, _after_aut_check),
    ("quandles.groups", "CosetSpace.__init__", "groups.cosets_s", None),
    ("quandles.constructions", "phi_space", "constructions.phi_space_s", None),
    ("quandles.constructions", "vedernikov", "constructions.vedernikov_s", None),
    ("quandles.symmetry", "inn", "symmetry.inn_s", None),
    ("quandles.symmetry", "tr", "symmetry.tr_s", None),
    ("quandles.symmetry", "orbits", "symmetry.orbits_s", None),
    ("quandles.symmetry", "aut", "symmetry.aut_s", None),
    ("quandles.symmetry", "is_homogeneous", "symmetry.aut_s", None),
    ("quandles.symmetry", "coset_realization", "symmetry.coset_realization_s", None),
    ("quandles.symmetry", "sbar_hom", "symmetry.sbar_s", None),
    ("quandles.regularity", "regularity_report", "regularity.report_s", None),
    ("quandles.regularity", "implication_survey", "regularity.report_s", None),
    ("quandles.knots", "parse_pd", "knots.parse_s", None),
    ("quandles.knots", "parse_braid", "knots.parse_s", None),
    ("quandles.knots", "count_colorings", _count_name, None),
)

# The family constructors that set-up calls; nested constructor calls
# (unipotent_class_quandle -> conj_class) add up to the outer call's time.
SETUP_TARGETS = tuple(
    ("quandles.constructions", fn, "constructions.build_s", None)
    for fn in ("trivial", "dihedral", "alexander", "conjugation", "conj_class",
               "unipotent_class_quandle")
) + (("quandles.groups", "FiniteGroup.symmetric", "constructions.build_s", None),)

ALLOC_TARGET = ("quandles.quandle", "validate", "quandle.validate_alloc_mb")


def _with_alloc(rec: Recorder, fn, key: str):
    """Record tracemalloc's peak during each call as ``key`` (MB, max)."""
    @functools.wraps(fn)
    def measured(*args, **kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.peak(key, tracemalloc.get_traced_memory()[1] / 2**20)
            if started:
                tracemalloc.stop()
    return measured


def _replace_everywhere(old, new) -> None:
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").partition(".")[0] != "quandles":
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def _patch(rec: Recorder, module: str, attr: str, make) -> None:
    mod = importlib.import_module(module)
    owner_name, _, method = attr.rpartition(".")
    if not owner_name:
        fn = getattr(mod, attr, None)
        if fn is None:
            rec.missing.append(f"{module}:{attr}")
            return
        _replace_everywhere(fn, make(fn))
        return
    owner = getattr(mod, owner_name, None)
    raw = vars(owner).get(method) if owner is not None else None
    if raw is None:
        rec.missing.append(f"{module}:{attr}")
    elif isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, method, type(raw)(make(raw.__func__)))
    else:
        setattr(owner, method, make(raw))


def install(rec: Recorder, targets, alloc: bool = False) -> None:
    """Wrap every target in spans; with ``alloc``, also measure validate's
    allocation peak (outside its span, so the span holds only the call)."""
    for module, attr, name, after in targets:
        _patch(rec, module, attr, lambda fn, name=name, after=after: rec.wrap(fn, name, after))
    if alloc:
        module, attr, key = ALLOC_TARGET
        _patch(rec, module, attr, lambda fn: _with_alloc(rec, fn, key))
