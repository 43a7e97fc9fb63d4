import random
from fractions import Fraction

import pytest

from glcdist.errors import PreconditionError
from glcdist.exactnum import GQ_I, GQ_ONE, GaussianRational
from glcdist.factors import (
    AdditiveCharacterSpec,
    ExactEps,
    eps_character,
    eps_pair,
    eps_rep,
)
from glcdist.params import CharacterCx, LanglandsParameter
from glcdist.selftest import random_distinguished_parameter


def gq(re, im=0):
    return GaussianRational(re, im)


def kappa(m, re="0", im=0):
    return CharacterCx(m, gq(re, im))


def param(*chars):
    return LanglandsParameter(chars)


def eps_half_trivial_psi(c, psi):
    """Central-point factor for psi trivial on the reals, as a piecewise
    closed form independent of eps_character: |b|^(2t) for m <= 0, and
    (-1)^m |b|^(2t) for m > 0."""
    if not psi.trivial_on_r:
        raise PreconditionError("the piecewise formula needs a purely imaginary b")
    sign = -1 if (c.m > 0 and c.m % 2 == 1) else 1
    return ExactEps(GaussianRational(sign), psi.abs_sq(), c.s + c.s)


def product_oracle(chars, psi):
    """The central-point factor multiplied out one character at a time: the
    product of the units i^|m| b^m, and the sum of the exponents 2t - m of
    |b|, over the characters."""
    unit, exponent = GQ_ONE, gq(0)
    for c in chars:
        unit = unit * GQ_I ** (abs(c.m) % 4) * psi.b ** c.m
        exponent = exponent + c.s + c.s - c.m
    return ExactEps(unit, psi.abs_sq(), exponent)


def random_parameter(rng, n):
    """n characters with m in -5..5 and rational s."""
    chars = []
    for _ in range(n):
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        im = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        chars.append(CharacterCx(rng.randint(-5, 5), gq(re, im)))
    return param(*chars)


PSI_I = AdditiveCharacterSpec(gq(0, 1))
PSI_2I = AdditiveCharacterSpec(gq(0, 2))


class TestCharacterFactor:
    def test_unramified_base_point(self):
        eps = eps_character(kappa(0), PSI_I)
        assert eps.exact_value() == GQ_ONE

    def test_sign_twist_is_minus_one(self):
        eps = eps_character(kappa(1), PSI_I)
        assert eps.exact_value() == gq(-1)

    def test_even_twists_are_one(self):
        for k in (-2, -1, 1, 2):
            for b in (gq(0, 1), gq(0, "1/3"), gq(0, -2)):
                eps = eps_character(kappa(2 * k), AdditiveCharacterSpec(b))
                assert eps.exact_value() == GQ_ONE

    def test_base_character_value(self):
        # b = 1 reproduces the unramified normalization i^{|m|}.
        psi0 = AdditiveCharacterSpec(gq(1))
        for m, expected in [(0, gq(1)), (1, gq(0, 1)), (-3, gq(0, -1)), (2, gq(-1))]:
            eps = eps_character(kappa(m, "1/3"), psi0)
            assert eps.exact_value() == expected


class TestPiecewiseCentralValue:
    def test_positive_odd(self):
        assert eps_half_trivial_psi(kappa(1), PSI_I).exact_value() == gq(-1)

    def test_negative(self):
        assert eps_half_trivial_psi(kappa(-3), PSI_I).exact_value() == GQ_ONE

    def test_modulus_power_retained(self):
        eps = eps_half_trivial_psi(kappa(0, "1/2"), PSI_2I)
        assert eps.exact_value() is None
        assert eps.modulus_exponent == gq(1)
        assert abs(eps.numeric() - 2.0) < 1e-12

    def test_requires_trivial_restriction(self):
        with pytest.raises(PreconditionError):
            eps_half_trivial_psi(kappa(1), AdditiveCharacterSpec(gq(1, 1)))

    def test_consistency_with_general_formula(self):
        for m in range(-4, 5):
            for t in (Fraction(0), Fraction(1, 2), Fraction(-1, 2)):
                for psi in (PSI_I, PSI_2I):
                    a = eps_half_trivial_psi(CharacterCx(m, gq(t)), psi)
                    b = eps_character(CharacterCx(m, gq(t)), psi)
                    assert abs(a.numeric() - b.numeric()) < 1e-12
                    ea, eb = a.exact_value(), b.exact_value()
                    if ea is not None and eb is not None:
                        assert ea == eb


class TestParameterFactor:
    def test_distinguished_pair(self):
        p = param(kappa(1, "1/2"), kappa(1, "-1/2"))
        assert eps_rep(p, PSI_I).exact_value() == GQ_ONE

    def test_trivial_parameter(self):
        for psi in (PSI_I, PSI_2I, AdditiveCharacterSpec(gq(0, "-1/3"))):
            assert eps_rep(param(kappa(0)), psi).exact_value() == GQ_ONE

    def test_non_distinguished_witness(self):
        assert eps_rep(param(kappa(1)), PSI_I).exact_value() == gq(-1)

    def test_multiplicative_over_disjoint_union(self):
        rng = random.Random(7)
        for _ in range(50):
            p1 = random_distinguished_parameter(rng, 4)
            p2 = random_distinguished_parameter(rng, 4)
            union = param(*(p1.chars + p2.chars))
            combined = eps_rep(union, PSI_2I)
            a, b = eps_rep(p1, PSI_2I), eps_rep(p2, PSI_2I)
            assert combined.unit == a.unit * b.unit
            assert combined.modulus_exponent == a.modulus_exponent + b.modulus_exponent

    def test_triviality_on_random_distinguished(self):
        rng = random.Random(8)
        for _ in range(100):
            p = random_distinguished_parameter(rng, 8)
            for psi in (PSI_I, PSI_2I, AdditiveCharacterSpec(gq(0, "-1/3"))):
                assert eps_rep(p, psi).exact_value() == GQ_ONE


class TestPairFactor:
    def test_trivial_pair(self):
        assert eps_pair(param(kappa(0)), param(kappa(0)), PSI_I).exact_value() == GQ_ONE

    def test_distinguished_pair_squared(self):
        p = param(kappa(1, "1/2"), kappa(1, "-1/2"))
        assert eps_pair(p, p, PSI_I).exact_value() == GQ_ONE

    def test_single_cross_term(self):
        assert eps_pair(param(kappa(1)), param(kappa(0)), PSI_I).exact_value() == gq(-1)

    def test_triviality_on_random_pairs(self):
        rng = random.Random(9)
        for _ in range(30):
            p1 = random_distinguished_parameter(rng, 5)
            p2 = random_distinguished_parameter(rng, 5)
            for psi in (PSI_I, PSI_2I):
                assert eps_pair(p1, p2, psi).exact_value() == GQ_ONE


TWISTS = [AdditiveCharacterSpec(b) for b in (gq(0, 1), gq(0, 2), gq(3, -2), gq(1, 1), gq("-1/2", "5/3"))]


class TestSumsEqualTheProduct:
    def test_parameter_factor(self):
        rng = random.Random(11)
        residues, negative = set(), False
        for _ in range(60):
            p = random_parameter(rng, rng.randint(1, 6))
            residues.add(sum(abs(c.m) for c in p.chars) % 4)
            negative = negative or sum(c.m for c in p.chars) < 0
            for psi in TWISTS:
                assert eps_rep(p, psi) == product_oracle(p.chars, psi)
        assert residues == {0, 1, 2, 3} and negative

    def test_pair_factor(self):
        rng = random.Random(12)
        residues, negative = set(), False
        for _ in range(30):
            p1 = random_parameter(rng, rng.randint(1, 4))
            p2 = random_parameter(rng, rng.randint(1, 4))
            pairs = [CharacterCx(a.m + b.m, a.s + b.s) for a in p1.chars for b in p2.chars]
            residues.add(sum(abs(c.m) for c in pairs) % 4)
            negative = negative or sum(c.m for c in pairs) < 0
            for psi in TWISTS:
                assert eps_pair(p1, p2, psi) == product_oracle(pairs, psi)
        assert residues == {0, 1, 2, 3} and negative

    def test_character_factor(self):
        for m in range(-5, 6):
            c = kappa(m, "2/3", "-1/2")
            for psi in TWISTS:
                assert eps_character(c, psi) == product_oracle([c], psi)


class TestExactEps:
    def test_serialization_shape(self):
        blob = eps_rep(param(kappa(1, "1/2"), kappa(1, "-1/2")), PSI_2I).to_json()
        assert set(blob) == {"unit", "abs_b_sq", "half_exponent", "numeric"}
        assert blob["abs_b_sq"] == "4"

    def test_size_cap(self):
        # At b = 1 the unit of kappa_{m,0} takes |m| bits of EPS_MAX_BITS and
        # the modulus power ceil(|m|/2): 453 + 227 fits 680, 454 + 227 does not.
        psi_one = AdditiveCharacterSpec(gq(1))
        assert eps_rep(param(kappa(453)), psi_one).exact_value() == gq(0, 1)
        with pytest.raises(PreconditionError, match="EPS_MAX_BITS"):
            eps_rep(param(kappa(454)), psi_one)
        with pytest.raises(PreconditionError, match="EPS_MAX_BITS"):
            eps_pair(param(kappa(300)), param(kappa(300)), psi_one)
        with pytest.raises(PreconditionError, match="EPS_MAX_BITS"):
            eps_rep(param(kappa(0, "1/%d" % (10**300 + 1))), PSI_I)

    def test_size_cap_takes_no_power_first(self, monkeypatch):
        def refuse(self, exponent):
            raise AssertionError("a power was taken before the size check")

        monkeypatch.setattr(GaussianRational, "__pow__", refuse)
        psi_one = AdditiveCharacterSpec(gq(1))
        with pytest.raises(AssertionError):
            eps_rep(param(kappa(453)), psi_one)
        with pytest.raises(PreconditionError, match="EPS_MAX_BITS"):
            eps_rep(param(kappa(454)), psi_one)
        with pytest.raises(PreconditionError, match="EPS_MAX_BITS"):
            eps_character(kappa(454), psi_one)
        with pytest.raises(PreconditionError, match="EPS_MAX_BITS"):
            eps_pair(param(kappa(300)), param(kappa(300)), psi_one)

    def test_exact_value_is_computed_once(self):
        eps = eps_rep(param(kappa(1, "1"), kappa(1, "1")), PSI_2I)
        assert eps.exact_value() == gq(16) and eps.is_one() is False
        assert eps.exact_value() is eps.exact_value()

    def test_zero_twist_rejected(self):
        with pytest.raises(ValueError):
            AdditiveCharacterSpec(gq(0))
