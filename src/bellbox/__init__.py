"""Exact tools for bipartite Bell-type inequalities with non-local box resources.

The names below load their home module on first use (PEP 562), so importing
the package, or one of its modules such as `bellbox.cli`, loads no other
module of it.
"""

import importlib

_HOMES = {
    "behavior": (
        "BehaviorPoint", "InvalidBehaviorError", "Scenario", "convex_combine", "reconstruct_full", "validate",
    ),
    "functionals": (
        "BellFunctional", "SymmetryElement", "canonical_form", "make_c1", "make_c2", "make_chsh", "make_inn22",
        "make_mnn22", "orbit", "transform", "transform_point",
    ),
    "machines": (
        "MachineSpec", "WiringTable", "machine_behavior", "make_prn_wiring", "pr3_formula_check", "pr_box",
        "pr_machine", "recipe", "wire_pr_boxes",
    ),
    "polytope": (
        "FacetCertificate", "check_lemma1", "deterministic_saturators_mnn22", "enumerate_ns_vertices_n3",
        "membership_by_facets", "ns_vertex_rows", "verify_facet", "violation_census",
    ),
    "quantum": ("MeasurementSet", "TwoQubitState", "quantum_behavior", "seesaw_maximize", "theta_sweep"),
    "strategies": (
        "WiringStrategy", "enumerate_local", "enumerate_one_machine", "max_min_over_one_machine",
        "max_over_one_machine", "strategy_behavior",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted([*_HOMES, *_HOME_OF])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOMES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
