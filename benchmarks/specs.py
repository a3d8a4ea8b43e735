"""Benchmark inputs described as plain data.

Each spec knows how to build the package object it stands for and, where
the CLI workload needs it, the JSON document for it. The exact values of
the same inputs live in ``oracle.py``, which reads these specs and never
calls package code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import taylormeasure as tm


@dataclass(frozen=True)
class Seq:
    """Coefficient sequence a_n.

    kind:
      constant    prefix, then a_n = c               (Bounded)
      geometric   prefix, then a_n = c * r**n        (GeometricEnvelope from len(prefix))
      finite      a_n = prefix[n], zero beyond       (FiniteSupport)
      factorial   a_n = c * n! * r**n via a rule     (FactorialGeometric)
      unverified  a_n = c * (-1)**n via a rule       (Unverified)
    """

    kind: str
    prefix: tuple[float, ...] = ()
    c: float = 0.0
    r: float = 1.0

    def rule_value(self, n: int) -> float:
        """The float the rule-backed kinds hand to the package for a_n."""
        if self.kind == "factorial":
            if n <= 170:
                v = self.c * float(math.factorial(n)) * self.r ** n
                if math.isfinite(v):
                    return v
            return math.copysign(math.inf, self.c)
        return self.c * (-1.0 if n % 2 else 1.0)

    def build(self) -> tm.CoefficientSequence:
        k = self.kind
        if k == "constant":
            return tm.constant_sequence(self.c, self.prefix)
        if k == "geometric":
            if not self.prefix:
                return tm.geometric_sequence(self.c, self.r)
            return tm.CoefficientSequence(
                self.prefix,
                tm.GeometricTail(self.c, self.r),
                tm.GeometricEnvelope(abs(self.c), abs(self.r), len(self.prefix)),
            )
        if k == "finite":
            return tm.finite_sequence(self.prefix)
        if k == "factorial":
            c, r = self.c, self.r

            def log_rule(n: int) -> tuple[int, float]:
                sign = -1 if (c < 0) != (r < 0 and n % 2 == 1) else 1
                return sign, math.log(abs(c)) + math.lgamma(n + 1) + n * math.log(abs(r))

            return tm.rule_sequence(
                self.rule_value, tm.FactorialGeometric(abs(c), abs(r), 0), log_rule=log_rule
            )
        if k == "unverified":
            return tm.rule_sequence(self.rule_value, tm.Unverified())
        raise ValueError(f"unknown sequence kind {k!r}")

    def doc(self) -> dict:
        """The {"coefficients", "certificate"} pair of the JSON schema."""
        if self.kind == "constant":
            bound = max([abs(self.c)] + [abs(v) for v in self.prefix])
            tail = {"kind": "constant", "M": self.c}
            cert = {"kind": "bounded", "M": bound}
        elif self.kind == "geometric":
            tail = {"kind": "geometric", "M": self.c, "b": self.r}
            cert = {"kind": "geometric_equiv", "M": abs(self.c), "b": abs(self.r),
                    "start": len(self.prefix)}
        elif self.kind == "finite":
            tail = {"kind": "zero"}
            cert = {"kind": "finite_support"}
        else:
            raise ValueError(f"{self.kind} sequences have no document form")
        return {"coefficients": {"prefix": list(self.prefix), "tail": tail},
                "certificate": cert}


@dataclass(frozen=True)
class Measure:
    seq: Seq
    gamma: float

    def build(self) -> tm.TaylorMeasure:
        return tm.TaylorMeasure(self.seq.build(), self.gamma)

    def doc(self) -> dict:
        return {"gamma": self.gamma, **self.seq.doc()}


@dataclass(frozen=True)
class LinComb:
    """linear_combination(alpha, m1, beta, m2): a composed measure."""

    alpha: float
    m1: Measure
    beta: float
    m2: Measure

    def build(self) -> tm.TaylorMeasure:
        return tm.linear_combination(self.alpha, self.m1.build(), self.beta, self.m2.build())


@dataclass(frozen=True)
class Pmf:
    """Power-series pmf f(n) = b_n zeta**n / (n! Z)."""

    zeta: float
    b: Seq

    def build(self) -> tm.PowerSeriesPmf:
        return tm.PowerSeriesPmf(self.zeta, self.b.build())

    def doc(self) -> dict:
        return {"zeta": self.zeta, **self.b.doc()}


@dataclass(frozen=True)
class FromPmf:
    """from_pmf(PowerSeriesPmf(pmf), gamma): a composed measure."""

    pmf: Pmf
    gamma: float

    def build(self) -> tm.TaylorMeasure:
        return tm.from_pmf(self.pmf.build(), self.gamma)


@dataclass(frozen=True)
class Set:
    kind: str
    elements: tuple[int, ...] = ()

    def build(self) -> tm.NatSet:
        return tm.NatSet(self.kind, self.elements)

    def doc(self) -> dict:
        if self.kind == "all":
            return {"kind": "all"}
        return {"kind": self.kind, "elements": list(self.elements)}


@dataclass(frozen=True)
class Fn:
    """An analytic function representation.

    kind: exp | sin | cos | geometric (builtins at center 0), polynomial
    (``coeffs`` in powers of x), or the composed kinds mul (args f, g),
    pow (f, k) and recenter (f moved to ``center``).
    """

    kind: str
    coeffs: tuple[float, ...] = ()
    f: "Fn | None" = None
    g: "Fn | None" = None
    k: int = 0
    center: float = 0.0

    @property
    def composed(self) -> bool:
        return self.kind in ("mul", "pow", "recenter")

    def build(self) -> tm.AnalyticRep:
        if self.kind in ("exp", "sin", "cos", "geometric"):
            return tm.builtin(self.kind)
        if self.kind == "polynomial":
            return tm.polynomial_rep(self.coeffs)
        if self.kind == "mul":
            return tm.multiply(self.f.build(), self.g.build())
        if self.kind == "pow":
            return tm.power(self.f.build(), self.k)
        if self.kind == "recenter":
            return tm.recenter(self.f.build(), self.center)
        raise ValueError(f"unknown function kind {self.kind!r}")

    def doc(self) -> dict:
        if self.kind == "polynomial":
            return {"kind": "polynomial", "coeffs": list(self.coeffs)}
        if self.composed:
            raise ValueError("composed functions have no document form")
        return {"kind": "builtin", "name": self.kind}


# stochastic specs are package dataclasses already; the oracle reads them
# directly (they hold only floats and ints)
