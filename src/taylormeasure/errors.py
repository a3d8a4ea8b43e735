"""Exception taxonomy shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; anything else surfaces as ValueError/TypeError from validation.
"""

from __future__ import annotations


class TaylorMeasureError(Exception):
    """Base class for all package-specific errors."""


class DivergenceUnknown(TaylorMeasureError):
    """An infinite-set sum was requested without a usable growth certificate."""


class DegenerateDistribution(TaylorMeasureError):
    """A normalizer or mass is zero (within its error bound), so no
    probability distribution can be formed from it."""


class QuantileTailUnresolved(TaylorMeasureError):
    """The requested quantile lies beyond the resolvable tail mass."""


class NoSamplerAvailable(TaylorMeasureError):
    """Neither the inverse-CDF nor the rejection sampling path applies."""


class InvalidPmf(TaylorMeasureError):
    """Probability inputs are negative, non-normalizable, or carry a tail
    description too weak to verify normalization."""


class OutOfDomain(TaylorMeasureError):
    """Evaluation point lies outside the representation's stated radius."""


class CenterMismatch(TaylorMeasureError):
    """Binary operation on representations centered at different points."""


class QuadratureStall(TaylorMeasureError):
    """Quadrature refinement hit its depth cap before the tolerance."""


class NegativeRadicand(TaylorMeasureError):
    """A squared norm came out negative beyond its error bound."""


class NonFiniteResult(TaylorMeasureError):
    """A result or its error bound is not a finite float, for example a
    sum beyond the float range."""


class PrecisionUnattainable(TaylorMeasureError):
    """The requested eps is below what the result can carry: half an ulp
    of the correctly rounded sum alone reaches it, or a grid point's
    certified error exceeds both eps and 1e-6 of its value."""


class UnsupportedSpec(TaylorMeasureError):
    """The requested operation is not defined for this specification."""


class InvalidDocument(TaylorMeasureError):
    """A JSON input document failed validation.

    Parameters
    ----------
    field : str
        Dotted path of the offending field, e.g. ``coefficients.tail.kind``.
    message : str
        Human-readable diagnostic.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
