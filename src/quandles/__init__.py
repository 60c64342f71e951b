"""Finite quandles: construction, symmetry groups, orbit analysis, coset
realizations, regularity conditions and knot coloring counts.  Each
submodule is imported when it or one of its names is first read."""

import importlib

_EXPORTS = {
    "quandle": """AxiomViolation FiniteQuandle InvalidQuandleError QuandleError RangeError
                  axiom_violations validate""",
    "groups": """CapExceeded CosetSpace CycleParseError FiniteGroup GroupAutomorphism
                 GroupError NotASubgroup NotAnAutomorphism PermutationGroup
                 all_automorphisms close conjugacy_class cycle_type format_cycles
                 identity_perm matrix_group_sl2 parse_cycles parse_generator_lines""",
    "constructions": """CocycleError ConstructionError ConstructionRecord NotAbelian
                        NotFixed alexander cocycle_extension conj_class conjugation
                        dihedral phi_space power_cocycle trivial unipotent_class_quandle
                        vedernikov""",
    "symmetry": """ActionError ConnectednessReport CosetRealization HomReport
                   InterOrbitReport OrbitDecomposition QuandleAction SaturationChain
                   SbarReport SignedWord TooLarge aut coset_realization hom_check inn
                   inter_orbit_action is_connected iso_search op_group orbits
                   saturate_forward sbar_hom tr tr_action_group""",
    "regularity": """RegularityReport SurveyResult fixed_points implication_survey
                     isolated_connected_consequence regularity_report""",
    "knots": """ColoringCount Crossing InconsistentArcs KnotDiagram count_colorings
                invariance_check parse_braid parse_pd""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
