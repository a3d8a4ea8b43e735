"""Signed Taylor measures on subsets of the naturals.

Evaluation with certified error bounds, Jordan decomposition, a
factorial-weighted inner-product geometry, power-series probability
distributions with samplers and Monte Carlo estimators, stochastic
Taylor measures, and Taylor-coefficient representations of analytic
functions.

``import taylormeasure`` loads errors, kernel and measure only. The other
modules load on first use, when one of their names is read through the
package or they are imported: geometry, probability and analytic then
bind their public names in the package, as an eager import would; the
Monte Carlo and stochastic names (the only ones that need numpy) are
read through on every access. So deterministic use never imports numpy.
"""

from importlib import import_module

from .errors import (
    CenterMismatch,
    DegenerateDistribution,
    DivergenceUnknown,
    InvalidDocument,
    InvalidPmf,
    NegativeRadicand,
    NoSamplerAvailable,
    NonFiniteResult,
    OutOfDomain,
    PrecisionUnattainable,
    QuadratureStall,
    QuantileTailUnresolved,
    TaylorMeasureError,
    UnsupportedSpec,
)
from .kernel import (
    Bounded,
    CoefficientSequence,
    ConstantTail,
    CustomTail,
    FactorialGeometric,
    FiniteSupport,
    GeometricEnvelope,
    GeometricTail,
    SignedLogTerm,
    TermBackedSequence,
    TruncationPlan,
    Unverified,
    ZeroTail,
    constant_sequence,
    finite_sequence,
    geometric_sequence,
    plan_truncation,
    rule_sequence,
    sum_terms,
    tail_bound,
    term,
    term_value,
)
from .measure import (
    JordanPair,
    MeasureValue,
    NatSet,
    TaylorMeasure,
    evaluate,
    from_term_function,
    jordan_decompose,
    linear_combination,
    taylor_derivative,
    total_variation,
    zero_measure,
)

# public names of the modules loaded on first use, resolved by __getattr__
# (PEP 562). geometry, probability and analytic bind theirs in the package
# as they load (_bind), so that a read is a plain attribute read; the
# numpy-backed montecarlo and stochastic are read through on every access.
_LAZY = {
    "geometry": (
        "HilbertAxiomReport", "distance", "hilbert_axiom_report", "inner_product",
        "norm", "rational_approximation",
    ),
    "probability": (
        "JordanPmf", "PowerSeriesPmf", "TaylorProbabilityPair", "cdf", "from_pmf",
        "measure_from_densities", "normalizer", "pmf_eval", "probability_pair",
        "quantile",
    ),
    "analytic": (
        "AnalyticRep", "builtin", "cos_rep", "eval_rep", "exp_rep", "geometric_rep",
        "linear_combine", "lp_norm_on_interval", "multiply", "polynomial_rep",
        "power", "recenter", "sin_rep", "sup_distance_on_grid", "truncate_rep",
    ),
    "montecarlo": (
        "McEstimate",
        "RngSpec",
        "estimate_measure",
        "estimate_normalizer_poisson",
        "sample_pmf",
    ),
    "stochastic": (
        "Ar1",
        "BernoulliStep",
        "BrownianApprox",
        "GaussianIID",
        "GaussianIndep",
        "IndicatorGamma",
        "NormalStep",
        "RandomWalk",
        "SamplePath",
        "SimpleFunction",
        "UniformStep",
        "brownian_marginal_moments",
        "gaussian_truncation_plan",
        "sample_stm",
        "sample_stm_batch",
        "simulate_brownian",
        "simulate_brownian_batch",
        "simulate_random_walk",
        "simulate_random_walk_batch",
        "stm_coefficients",
        "stm_moments",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def _bind(namespace: dict) -> tuple[str, ...]:
    """Bind the public names of geometry, probability or analytic in the
    package, as an eager import would, and return them as the module's
    __all__. Each module calls this with its globals as it finishes
    loading, however it is imported."""
    names = _LAZY[namespace["__name__"].rpartition(".")[2]]
    globals().update({name: namespace[name] for name in names})
    return names


def __getattr__(name: str):
    # Reached once for a bound name (its module then binds it) and on every
    # access for a montecarlo or stochastic name: that one is not cached, so
    # each access reads the defining module's current binding.
    module = _LAZY_OWNER.get(name)
    if module is not None:
        return getattr(import_module(f".{module}", __name__), name)
    if name in _LAZY:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_OWNER})


__all__ = [
    # errors
    "CenterMismatch", "DegenerateDistribution", "DivergenceUnknown",
    "InvalidDocument", "InvalidPmf", "NegativeRadicand", "NoSamplerAvailable",
    "NonFiniteResult", "OutOfDomain", "PrecisionUnattainable", "QuadratureStall",
    "QuantileTailUnresolved",
    "TaylorMeasureError", "UnsupportedSpec",
    # kernel
    "Bounded", "CoefficientSequence", "ConstantTail", "CustomTail",
    "FactorialGeometric", "FiniteSupport", "GeometricEnvelope", "GeometricTail",
    "SignedLogTerm", "TermBackedSequence", "TruncationPlan", "Unverified",
    "ZeroTail", "constant_sequence", "finite_sequence", "geometric_sequence",
    "plan_truncation", "rule_sequence", "sum_terms", "tail_bound", "term",
    "term_value",
    # measure
    "JordanPair", "MeasureValue", "NatSet", "TaylorMeasure", "evaluate",
    "from_term_function", "jordan_decompose", "linear_combination",
    "taylor_derivative", "total_variation", "zero_measure",
    # geometry, probability, analytic, montecarlo and stochastic, loaded on
    # first use
    *_LAZY_OWNER,
]

__version__ = "0.1.0"
