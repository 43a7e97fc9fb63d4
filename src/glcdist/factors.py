"""Central-point epsilon factors of characters of C^x and of parameters.

With the additive character psi_b (the standard character precomposed with
multiplication by a nonzero b), the central-point factor of kappa_{m,t} is

    i^{|m|} * b^m * |b|^(2t - m),

the base case (b = 1) being i^{|m|}.  The value is kept factored as an
algebraic unit in Q(i) times a modulus power: |b|^2 is rational, so the
modulus power is exactly representable whenever the exponent is an even
integer (and trivially whenever |b| = 1); otherwise only the numeric
rendering leaves the exact world.

Factors of parameters multiply over the characters, and i^{|m|} and b^m
multiply by adding exponents, so the factor of a parameter depends only on
three sums:

    i^(sum |m| mod 4) * b^(sum m) * |b|^(2 sum t - sum m).

The pair factor of two parameters, the product over all n1 * n2 products of
one character from each, has sum m = n2 sum m_a + n1 sum m_b, likewise for
sum t, and sum |m_a + m_b| over the pairs; no product character is built.
For a distinguished parameter and b purely imaginary, the factor is 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import cmath

from .errors import PreconditionError
from .exactnum import GQ_I, GQ_ONE, Frozen, GaussianRational
from .params import CharacterCx, LanglandsParameter

_HALF = GaussianRational(Fraction(1, 2))

# Cap on the size of a factor in bits, bits(z) being the longest numerator or
# denominator of z: |sum m| * bits(b) for the unit i^(sum |m| mod 4) b^(sum m)
# plus max(1, |Re e|/2) * bits(|b|^2) for the modulus power (|b|^2)^(e/2),
# and bits(e) for the exponent e.  Exact parts then print far inside Python's
# 4300-digit limit, and every rendered float stays below 2^1020 (1.5 x the
# cap).  The epsilon criterion needs at most 448 bits (a pair factor),
# cli-batch's eps requests at most 216 (200 rounds at seed 1).
EPS_MAX_BITS = 680


class AdditiveCharacterSpec(Frozen):
    """The twist b of the additive character psi_b; trivial on R iff b is
    purely imaginary."""

    __slots__ = _fields = ("b",)
    b: GaussianRational

    def __init__(self, b: GaussianRational):
        if b.is_zero():
            raise PreconditionError("the additive twist b must be nonzero")
        object.__setattr__(self, "b", b)

    @property
    def trivial_on_r(self) -> bool:
        return self.b.re == 0

    def abs_sq(self) -> Fraction:
        return self.b.norm_sq()


class ExactEps(Frozen):
    """A factored epsilon value: unit * |b|^modulus_exponent."""

    __slots__ = ("unit", "abs_b_sq", "modulus_exponent", "_exact")
    _fields = ("unit", "abs_b_sq", "modulus_exponent")
    unit: GaussianRational
    abs_b_sq: Fraction
    modulus_exponent: GaussianRational

    def __init__(self, unit: GaussianRational, abs_b_sq: Fraction, modulus_exponent: GaussianRational):
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "abs_b_sq", abs_b_sq)
        object.__setattr__(self, "modulus_exponent", modulus_exponent)
        e = modulus_exponent
        if e.is_zero() or abs_b_sq == 1:
            exact = unit
        elif e.is_integer() and e.re.numerator % 2 == 0:
            exact = unit * GaussianRational(abs_b_sq ** (e.re.numerator // 2))
        else:
            exact = None
        object.__setattr__(self, "_exact", exact)

    def exact_value(self) -> Optional[GaussianRational]:
        """The exact value in Q(i) when representable, else None; computed at
        construction.

        Representable when the modulus exponent e is an even integer
        (|b|^e = (|b|^2)^(e/2) is rational) and, degenerately, whenever
        |b|^2 = 1 or e = 0.
        """
        return self._exact

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
            "half_exponent": (self.modulus_exponent * _HALF).to_json(),
            "numeric": [value.real, value.imag],
        }


def _bits(*qs: Fraction) -> int:
    """The longest numerator or denominator among qs, in bits."""
    return max(max(q.numerator.bit_length(), q.denominator.bit_length()) for q in qs)


def _factor(abs_m: int, m: int, t_re, t_im, psi: AdditiveCharacterSpec) -> ExactEps:
    """The factor of characters with sum |m| = abs_m, sum m = m and sum t =
    t_re + t_im i: unit i^abs_m b^m, modulus exponent 2 sum t - m.  Raises
    PreconditionError, before any power is computed, when it does not fit
    EPS_MAX_BITS."""
    re, im = 2 * t_re - m, 2 * t_im
    unit_bits = abs(m) * _bits(psi.b.re, psi.b.im)
    power_bits = max(1, -(-abs(re) // 2)) * _bits(psi.abs_sq())
    exponent_bits = _bits(re, im)
    if max(unit_bits + power_bits, exponent_bits) > EPS_MAX_BITS:
        raise PreconditionError(
            f"the factor needs {unit_bits + power_bits} bits for its unit and modulus power and "
            f"{exponent_bits} for its exponent; at most EPS_MAX_BITS = {EPS_MAX_BITS} are supported"
        )
    unit = GQ_I ** (abs_m % 4) * psi.b ** m
    return ExactEps(unit, psi.abs_sq(), GaussianRational(re, im))


def _product(chars, psi: AdditiveCharacterSpec) -> ExactEps:
    """The product of the factors of ``chars``, within EPS_MAX_BITS."""
    return _factor(
        sum(abs(c.m) for c in chars),
        sum(c.m for c in chars),
        sum(c.s.re for c in chars),
        sum(c.s.im for c in chars),
        psi,
    )


def eps_character(c: CharacterCx, psi: AdditiveCharacterSpec) -> ExactEps:
    """Factor of one character kappa_{m,t} against psi_b: unit i^{|m|} b^m,
    modulus exponent 2t - m, within EPS_MAX_BITS."""
    return _product((c,), psi)


def eps_rep(p: LanglandsParameter, psi: AdditiveCharacterSpec) -> ExactEps:
    """Factor of a parameter: the product over its characters.  Precondition:
    it fits EPS_MAX_BITS, else PreconditionError before any power is computed."""
    return _product(p.chars, psi)


def eps_pair(
    p1: LanglandsParameter,
    p2: LanglandsParameter,
    psi: AdditiveCharacterSpec,
) -> ExactEps:
    """Pair factor at the central point: the product over all character
    products of one entry from each parameter, within EPS_MAX_BITS."""
    chars1, chars2 = p1.chars, p2.chars
    n1, n2 = len(chars1), len(chars2)
    return _factor(
        sum(abs(a.m + b.m) for a in chars1 for b in chars2),
        n2 * sum(c.m for c in chars1) + n1 * sum(c.m for c in chars2),
        n2 * sum(c.s.re for c in chars1) + n1 * sum(c.s.re for c in chars2),
        n2 * sum(c.s.im for c in chars1) + n1 * sum(c.s.im for c in chars2),
        psi,
    )
