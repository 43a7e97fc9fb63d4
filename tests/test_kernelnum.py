import cmath
import math
import random

import mpmath
import pytest

from glcdist.errors import PreconditionError, QuadratureError
from glcdist.kernelnum import (
    CASE1_STRIP,
    CASE2_STRIP,
    KERNEL_CONFIG,
    QuadratureConfig,
    adaptive_quad,
    angular_moment,
    beta_P,
    case1_displayed_form,
    case2_displayed_form,
    complex_gamma,
    kernel_case1,
    kernel_case2,
)

FAST = KERNEL_CONFIG


class TestGamma:
    def test_small_integers(self):
        assert abs(complex_gamma(1) - 1) < 1e-14
        assert abs(complex_gamma(5) - 24) < 1e-10

    def test_half_squares_to_pi(self):
        assert abs(complex_gamma(0.5) ** 2 - math.pi) < 1e-12

    def test_functional_equation(self):
        rng = random.Random(17)
        for _ in range(100):
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(z) < 1e-2 or (z.imag == 0 and z.real == int(z.real)):
                continue
            assert abs(complex_gamma(z + 1) / (z * complex_gamma(z)) - 1) < 1e-10

    def test_against_independent_implementation(self):
        rng = random.Random(18)
        for _ in range(40):
            z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            if abs(z.imag) < 0.05:
                continue
            mine = complex_gamma(z)
            theirs = complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))
            assert abs(mine - theirs) / abs(theirs) < 1e-11

    def test_poles_raise(self):
        for k in (0, -1, -2, -7):
            with pytest.raises(PreconditionError):
                complex_gamma(k)


class TestQuadrature:
    def test_polynomial_exact(self):
        value = adaptive_quad(lambda x: x ** 3 - x + 2.0, -1.0, 2.0)
        assert abs(value - 8.25) < 1e-12  # antiderivative check

    def test_determinism(self):
        cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10)
        import numpy as np

        f = lambda x: np.exp(-x) * np.sin(3 * x)
        a = adaptive_quad(f, 0.0, 10.0, cfg)
        b = adaptive_quad(f, 0.0, 10.0, cfg)
        assert a == b  # bit-identical

    def test_nonconvergence_raises_with_estimate(self):
        # No tolerance this tight is reachable within MAX_SUBDIVISIONS panels.
        cfg = QuadratureConfig(abs_tol=1e-16, rel_tol=1e-16)
        import numpy as np

        with pytest.raises(QuadratureError, match="subdivision limit") as info:
            adaptive_quad(lambda x: np.abs(np.sin(40.0 * x)) ** 0.3, 0.0, 10.0, cfg)
        assert info.value.estimate > 0

    def test_angular_moment_closed_form(self):
        # A(p) = 2 sqrt(pi) Gamma((p+1)/2) / Gamma(p/2 + 1), checked for a
        # few real and complex exponents.
        for p in (1.0, 2.0, 0.5, 1.5 + 0.25j):
            half_period = (
                math.sqrt(math.pi)
                * complex(mpmath.gamma((p + 1) / 2))
                / complex(mpmath.gamma(p / 2 + 1))
            )
            got = angular_moment(p, FAST)
            assert abs(got - 2.0 * half_period) / abs(2.0 * half_period) < 1e-8


class TestBetaPairing:
    def test_unit_values(self):
        pair = beta_P(1.0, 1.0)
        assert abs(pair.numeric - 2.0) < 1e-10
        assert abs(pair.closed - 2.0) < 1e-10

    def test_second_example(self):
        pair = beta_P(1.0, 2.0)
        assert abs(pair.numeric - 2.0) < 1e-9
        assert abs(pair.closed - 2.0) < 1e-12

    def test_arcsine_case(self):
        pair = beta_P(0.5, 0.5)
        assert abs(pair.numeric - 1.0) < 1e-9
        assert abs(pair.closed - 1.0) < 1e-12

    def test_numeric_domain_guard(self):
        with pytest.raises(PreconditionError):
            beta_P(-0.5, 1.0)

    def test_continuation_pole_guard(self):
        with pytest.raises(PreconditionError):
            beta_P(0.5, -0.5)


class TestKernelCases:
    def test_case1_at_zero(self):
        numeric, reference = kernel_case1(0.0, FAST)
        assert abs(numeric - 2 * math.pi) < 1e-7
        assert abs(reference - 2 * math.pi) < 1e-9

    def test_case2_at_zero(self):
        numeric, reference = kernel_case2(0.0, FAST)
        assert abs(numeric - math.pi / 2) < 1e-8
        assert abs(reference - math.pi / 2) < 1e-9

    def test_case1_oracle_at_half(self):
        numeric, reference = kernel_case1(0.5, FAST)
        assert abs(numeric - reference) / abs(reference) < 1e-6

    def test_case2_oracle_at_half(self):
        numeric, reference = kernel_case2(0.5, FAST)
        assert abs(numeric - reference) / abs(reference) < 1e-6

    def test_case1_normalization_ratio(self):
        for s in (0.0, 0.2):
            numeric, _ = kernel_case1(s, FAST)
            ratio = numeric / case1_displayed_form(s, FAST)
            assert abs(ratio - 2.0 ** (-(1 + s))) < 1e-6

    def test_case2_normalization_ratio(self):
        for s in (0.0, 0.2):
            numeric, _ = kernel_case2(s, FAST)
            ratio = numeric / case2_displayed_form(s, FAST)
            assert abs(ratio - 2.0 ** (-(1 + s)) / (s + 1)) < 1e-6

    def test_case2_reference_finite_nonzero_on_probe(self):
        for s in (0.0, 0.25, 0.5):
            _, reference = kernel_case2(s, FAST)
            assert reference != 0 and not cmath.isnan(reference) and not cmath.isinf(reference)

    def test_strip_guards(self):
        with pytest.raises(PreconditionError):
            kernel_case1(1.5, FAST)
        with pytest.raises(PreconditionError):
            kernel_case1(-0.5, FAST)
        with pytest.raises(PreconditionError):
            kernel_case2(2.5, FAST)


class TestStripDomain:
    def test_classification(self):
        # The radial convergence strips, as the kernel cases enforce them:
        # 0.2+0.3i lies in both, 1.5 only in case 2's, -0.9 in neither.
        for s in (0.2 + 0.3j, 1.5, -0.9):
            assert (CASE1_STRIP[0] < s.real < CASE1_STRIP[1]) == (s == 0.2 + 0.3j)
            assert (CASE2_STRIP[0] < s.real < CASE2_STRIP[1]) == (s != -0.9)
        for s in (1.5, -0.9):
            with pytest.raises(PreconditionError):
                kernel_case1(s, FAST)
        with pytest.raises(PreconditionError):
            kernel_case2(-0.9, FAST)
