"""Exact tools for bipartite Bell-type inequalities with non-local box resources."""

from .behavior import (
    BehaviorPoint,
    InvalidBehaviorError,
    Scenario,
    convex_combine,
    reconstruct_full,
    validate,
)
from .functionals import (
    BellFunctional,
    SymmetryElement,
    canonical_form,
    make_c1,
    make_c2,
    make_chsh,
    make_inn22,
    make_mnn22,
    orbit,
    transform,
    transform_point,
)
from .machines import (
    MachineSpec,
    WiringTable,
    machine_behavior,
    make_prn_wiring,
    pr3_formula_check,
    pr_box,
    pr_machine,
    recipe,
    wire_pr_boxes,
)
from .polytope import (
    FacetCertificate,
    check_lemma1,
    deterministic_saturators_mnn22,
    enumerate_ns_vertices_n3,
    membership_by_facets,
    ns_vertex_rows,
    verify_facet,
    violation_census,
)
from .quantum import (
    MeasurementSet,
    TwoQubitState,
    quantum_behavior,
    seesaw_maximize,
    theta_sweep,
)
from .strategies import (
    WiringStrategy,
    enumerate_local,
    enumerate_one_machine,
    max_min_over_one_machine,
    max_over_one_machine,
    strategy_behavior,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
