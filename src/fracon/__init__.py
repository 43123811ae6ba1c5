"""fracon: numeric verification of local fractional convexity inequalities.

The package evaluates local fractional integrals and derivatives on two
independent routes (an exact monomial table and graded Gauss--Legendre
quadrature of the kernel form), searches for counterexamples to
generalized strong eta-convexity, and measures every link of the
Hermite--Hadamard and Fejer inequality chains with signed gaps.  Nothing
is assumed from theory: each claimed inequality is checked numerically
and reported honestly, including the documented divergence of the
additive embedding in magnitude semantics for alpha < 1.
"""

from .calculus import (
    EXACT,
    NUMERIC,
    BackendKind,
    DerivativeMode,
    IntegralBackend,
    IntegrationError,
    QuadResult,
    lf_derivative,
    lf_integral,
    rl_integrate,
)
from .convexity import (
    ConvexityReport,
    Counterexample,
    LatticeGrid,
    MinimumConditionReport,
    NecessaryReport,
    SymmetryError,
    certify_gsc,
    check_eta_necessary,
    check_symmetry,
    defect,
    estimate_eta_sup,
    minimum_condition_check,
)
from .expr import (
    EtaSpec,
    EvalError,
    FunctionSpec,
    GPoly,
    NotPolynomial,
    ParseError,
    WeightSpec,
    evaluate,
    normalize,
    parse,
    pretty,
)
from .fractal_scalar import (
    AlphaContext,
    AxiomRow,
    GammaDomainError,
    axiom_conformance,
    gamma,
)
from .inequalities import (
    ConsistencyCheck,
    ConsistencyReport,
    FejerReport,
    HHReport,
    LinkStatus,
    fejer_terms,
    hh_fejer_consistency,
    hh_terms,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaContext",
    "AxiomRow",
    "BackendKind",
    "ConsistencyCheck",
    "ConsistencyReport",
    "ConvexityReport",
    "Counterexample",
    "DerivativeMode",
    "EXACT",
    "EtaSpec",
    "EvalError",
    "FejerReport",
    "FunctionSpec",
    "GPoly",
    "GammaDomainError",
    "HHReport",
    "IntegralBackend",
    "IntegrationError",
    "LatticeGrid",
    "LinkStatus",
    "MinimumConditionReport",
    "NUMERIC",
    "NecessaryReport",
    "NotPolynomial",
    "ParseError",
    "QuadResult",
    "SymmetryError",
    "WeightSpec",
    "axiom_conformance",
    "certify_gsc",
    "check_eta_necessary",
    "check_symmetry",
    "defect",
    "estimate_eta_sup",
    "evaluate",
    "fejer_terms",
    "gamma",
    "hh_fejer_consistency",
    "hh_terms",
    "lf_derivative",
    "lf_integral",
    "minimum_condition_check",
    "normalize",
    "parse",
    "pretty",
    "rl_integrate",
    "__version__",
]
