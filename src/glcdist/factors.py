"""Local epsilon factors of characters of C^x and of parameter multisets.

With the additive character psi_b (the standard character precomposed with
multiplication by a nonzero b), the factor of kappa_{m,t} at s is

    i^{|m|} * b^m * |b|^(2t - m + s - 1/2),

the base case (b = 1) being i^{|m|}.  The value is kept factored as an
algebraic unit in Q(i) times a modulus power: |b|^2 is rational, so the
modulus power is exactly representable whenever the exponent is an even
integer (and trivially whenever |b| = 1); otherwise only the numeric
rendering leaves the exact world.

Factors of parameters multiply over the characters, and the pair factor of
two parameters multiplies over all products of one character from each.
For a distinguished parameter and b purely imaginary, the product at the
central point collapses to exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import cmath

from .errors import PreconditionError
from .exactnum import GQ_I, GQ_ONE, GaussianRational
from .params import CharacterCx, LanglandsParameter


@dataclass(frozen=True)
class AdditiveCharacterSpec:
    """The twist b of the additive character psi_b; trivial on R iff b is
    purely imaginary."""

    b: GaussianRational

    def __post_init__(self):
        if self.b.is_zero():
            raise PreconditionError("the additive twist b must be nonzero")

    @property
    def trivial_on_r(self) -> bool:
        return self.b.re == 0

    def abs_sq(self) -> Fraction:
        return self.b.norm_sq()


@dataclass(frozen=True)
class ExactEps:
    """A factored epsilon value: unit * |b|^modulus_exponent."""

    unit: GaussianRational
    abs_b_sq: Fraction
    modulus_exponent: GaussianRational

    def __mul__(self, other: "ExactEps") -> "ExactEps":
        if self.abs_b_sq != other.abs_b_sq:
            raise ValueError("cannot multiply factors over different twists")
        return ExactEps(
            self.unit * other.unit,
            self.abs_b_sq,
            self.modulus_exponent + other.modulus_exponent,
        )

    def exact_value(self) -> Optional[GaussianRational]:
        """The exact value in Q(i) when representable, else None.

        Representable when the modulus exponent e is an even integer
        (|b|^e = (|b|^2)^(e/2) is rational) and, degenerately, whenever
        |b|^2 = 1 or e = 0.
        """
        e = self.modulus_exponent
        if e.is_zero() or self.abs_b_sq == 1:
            return self.unit
        if e.is_integer() and e.re.numerator % 2 == 0:
            power = self.abs_b_sq ** (e.re.numerator // 2)
            return self.unit * GaussianRational(power)
        return None

    def numeric(self) -> complex:
        exact = self.exact_value()
        if exact is not None:
            return complex(exact)
        log_mod = cmath.log(float(self.abs_b_sq)) / 2.0
        return complex(self.unit) * cmath.exp(complex(self.modulus_exponent) * log_mod)

    def is_one(self) -> bool:
        return self.exact_value() == GQ_ONE

    def to_json(self) -> dict:
        value = self.numeric()
        return {
            "unit": self.unit.to_json(),
            "abs_b_sq": str(self.abs_b_sq),
            "half_exponent": (self.modulus_exponent * GaussianRational(Fraction(1, 2))).to_json(),
            "numeric": [value.real, value.imag],
        }

    @classmethod
    def one(cls, psi: AdditiveCharacterSpec) -> "ExactEps":
        return cls(GQ_ONE, psi.abs_sq(), GaussianRational(0))


def eps_character(
    c: CharacterCx, psi: AdditiveCharacterSpec, s0: GaussianRational
) -> ExactEps:
    """Factor of one character kappa_{m,t} at the point s0 against psi_b:
    unit i^{|m|} b^m, modulus exponent 2t - m + s0 - 1/2."""
    m = c.m
    unit = (GQ_I ** abs(m)) * (psi.b ** m)
    exponent = c.s + c.s + (s0 - m - GaussianRational(Fraction(1, 2)))
    return ExactEps(unit, psi.abs_sq(), exponent)


def eps_half_trivial_psi(c: CharacterCx, psi: AdditiveCharacterSpec) -> ExactEps:
    """Central-point factor for psi trivial on the reals, as a piecewise
    closed form: |b|^(2t) for m <= 0, and (-1)^m |b|^(2t) for m > 0."""
    if not psi.trivial_on_r:
        raise PreconditionError(
            "the piecewise central-value formula requires an additive "
            "character trivial on the reals (purely imaginary b)"
        )
    sign = -1 if (c.m > 0 and c.m % 2 == 1) else 1
    return ExactEps(GaussianRational(sign), psi.abs_sq(), c.s + c.s)


def eps_rep(
    p: LanglandsParameter,
    psi: AdditiveCharacterSpec,
    s0: GaussianRational = GaussianRational(Fraction(1, 2)),
) -> ExactEps:
    """Factor of a parameter: the product over its characters."""
    acc = ExactEps.one(psi)
    for c in p.chars:
        acc = acc * eps_character(c, psi, s0)
    return acc


def eps_pair(
    p1: LanglandsParameter,
    p2: LanglandsParameter,
    psi: AdditiveCharacterSpec,
) -> ExactEps:
    """Pair factor at the central point: the product over all character
    products of one entry from each parameter."""
    half = GaussianRational(Fraction(1, 2))
    acc = ExactEps.one(psi)
    for a in p1.chars:
        for b in p2.chars:
            acc = acc * eps_character(a * b, psi, half)
    return acc
