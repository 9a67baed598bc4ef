"""Numerics for variable-exponent Sobolev trace constants.

Modules: exponents (variable exponent fields and critical exponents),
luxemburg (modulars and Luxemburg norms on quadrature samples), geometry
(planar meshes, boundary quadrature, Fermi charts), halfspace (extremal
profiles, sharp constants, expansion coefficients), solver (discrete trace
quotient minimization and concentration diagnostics), conditions
(existence-condition verdicts), cli (command-line entry point).
"""

__version__ = "0.1.0"

from .exponents import (  # noqa: F401
    ExponentField,
    local_extremum_check,
    parse_exponent,
)
from .luxemburg import (  # noqa: F401
    WeightedSamples,
    holder_product_bound,
    luxemburg_norm,
    modular,
    verify_norm_modular_relations,
)
from .geometry import (  # noqa: F401
    BoundaryLoop,
    CircularArc,
    FermiChart,
    PlanarDomain,
    Segment,
    fermi_chart,
    mesh_domain,
    polygon_loop,
    unit_disk_loop,
)
from .halfspace import (  # noqa: F401
    ExpansionCoefficients,
    ExtremalProfile,
    expansion_coefficients,
    norm_expansion_check,
    sharp_constant_formula,
    sharp_constant_inverse,
    sharp_constant_quadrature,
)
from .solver import (  # noqa: F401
    DiscreteTraceProblem,
    SolverReport,
    concentration_diagnostic,
    minimize,
    monotonicity_check,
    rayleigh_quotient,
    solve_problem,
)
from .conditions import (  # noqa: F401
    ConditionVerdict,
    Estimate,
    compactness_rate_check,
    existence_verdict,
    global_condition,
    local_condition,
)
