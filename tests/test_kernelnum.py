import cmath
import math
import random

import mpmath
import pytest

from glcdist import kernelnum
from glcdist.errors import PreconditionError, QuadratureError
from glcdist.kernelnum import (
    KERNEL_CASES,
    KERNEL_CONFIG,
    KERNEL_MAX_IM,
    QuadratureConfig,
    adaptive_quad,
    angular_moment,
    _beta_args,
    _log_gamma,
    beta_P,
    beta_fn,
    case1_displayed_form,
    case2_displayed_form,
    complex_gamma,
    kernel_case1,
    kernel_case2,
    kernel_row,
    kernel_strip,
    radial_improper_quad,
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

    @pytest.mark.parametrize("z", [0.2 + 300j, -0.5 + 230j, 0.2 - 300j, -3.7 + 50j])
    def test_reflection_far_from_the_real_axis(self, z):
        # sin(pi z) alone overflows here, while Gamma(z) is about 1e-205 to 1e-40.
        with mpmath.workdps(30):
            theirs = complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))
        assert abs(complex_gamma(z) - theirs) / abs(theirs) < 1e-10

    @pytest.mark.parametrize(
        "z", [-math.inf, math.inf, math.nan, complex(0.0, math.inf), complex(math.nan, 1.0)], ids=str
    )
    def test_non_finite_arguments_raise(self, z):
        with pytest.raises(PreconditionError, match="finite"):
            complex_gamma(z)
        with pytest.raises(PreconditionError, match="finite"):
            _log_gamma(complex(z))
        with pytest.raises(PreconditionError, match="finite"):
            beta_fn(z, 1.5)
        with pytest.raises(PreconditionError, match="finite"):
            beta_fn(1.5, z)

    def test_poles_raise(self):
        for k in (0, -1, -2, -7):
            with pytest.raises(PreconditionError):
                complex_gamma(k)
            with pytest.raises(PreconditionError):
                _log_gamma(complex(k))
            with pytest.raises(PreconditionError):
                beta_fn(k, 1.5)

    def test_beta_where_the_gamma_product_underflows(self):
        # Case 1's Beta arguments at s = -0.3+240i: B is about 2.3e-165,
        # while Gamma(a) Gamma(b) / Gamma(a+b) as a product of values is 0.
        a, b = _beta_args(1, complex(-0.3, 240))
        with mpmath.workdps(30):
            theirs = complex(mpmath.beta(mpmath.mpc(a.real, a.imag), mpmath.mpc(b.real, b.imag)))
        assert abs(beta_fn(a, b) - theirs) / abs(theirs) < 1e-10


class TestQuadrature:
    def test_polynomial_exact(self):
        value = adaptive_quad(lambda x: x ** 3 - x + 2.0, -1.0, 2.0)
        assert abs(value - 8.25) < 1e-12  # antiderivative check

    def test_determinism(self):
        cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10)
        f = lambda x: math.exp(-x) * math.sin(3 * x)
        a = adaptive_quad(f, 0.0, 10.0, cfg)
        b = adaptive_quad(f, 0.0, 10.0, cfg)
        assert a == b  # bit-identical

    def test_nonconvergence_raises_with_estimate(self):
        # No tolerance this tight is reachable within MAX_SUBDIVISIONS panels.
        cfg = QuadratureConfig(abs_tol=1e-16, rel_tol=1e-16)
        with pytest.raises(QuadratureError, match="subdivision limit") as info:
            adaptive_quad(lambda x: abs(math.sin(40.0 * x)) ** 0.3, 0.0, 10.0, cfg)
        assert info.value.estimate > 0

    def test_angular_moment_closed_form(self):
        # A(p) = 2 sqrt(pi) Gamma((p+1)/2) / Gamma(p/2 + 1), checked for a
        # few real and complex exponents, down to Re p = 0.2 and up to
        # |Im p| = 5.
        for p in (1.0, 2.0, 0.5, 1.5 + 0.25j, 0.2, 2.9 - 0.9j, 0.7 + 5j):
            half_period = (
                math.sqrt(math.pi)
                * complex(mpmath.gamma((p + 1) / 2))
                / complex(mpmath.gamma(p / 2 + 1))
            )
            got = angular_moment(p, FAST)
            assert abs(got - 2.0 * half_period) / abs(2.0 * half_period) < 1e-8

    def test_angular_moment_domain_guard(self):
        # A(p) diverges for Re p <= -1; the radial moment refuses it rather
        # than integrate a substitution that no longer maps onto (0, inf).
        for p in (-1.0, -1.5 + 0.5j, complex(math.nan, 0.0)):
            with pytest.raises(PreconditionError):
                angular_moment(p, FAST)


def _reference_adaptive_quad(f, a, b, cfg):
    """The list-based integrator the heap replaced: every split re-sums all
    panels and scans them for the worst (largest error, then leftmost)."""
    value, err = kernelnum._kronrod_panel(f, a, b)
    intervals = [(a, b, value, err)]
    while True:
        total = sum(v for _, _, v, _ in intervals)
        total_err = sum(e for _, _, _, e in intervals)
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            break
        if len(intervals) >= kernelnum.MAX_SUBDIVISIONS:
            raise QuadratureError("subdivision limit reached", total_err)
        worst = max(range(len(intervals)), key=lambda i: (intervals[i][3], -intervals[i][0]))
        wa, wb, _, _ = intervals[worst]
        mid = 0.5 * (wa + wb)
        left = kernelnum._kronrod_panel(f, wa, mid)
        right = kernelnum._kronrod_panel(f, mid, wb)
        intervals[worst] = (wa, mid, left[0], left[1])
        intervals.append((mid, wb, right[0], right[1]))
    intervals.sort(key=lambda item: item[0])
    return sum(v for _, _, v, _ in intervals)


def test_heap_integrator_matches_the_list_reference(monkeypatch):
    # Same split order and same left-to-right sum: bit-identical rows.
    samples = [complex(re, im) for re in (-0.3, 0.2, 0.99) for im in (0.3, 60, -100)]
    rows = [kernel_row(s, case) for s in samples for case in KERNEL_CASES]
    monkeypatch.setattr(kernelnum, "adaptive_quad", _reference_adaptive_quad)
    assert rows == [kernel_row(s, case) for s in samples for case in KERNEL_CASES]


def seeded_exponents(count: int) -> list:
    """Seeded p with -0.9 < Re p < 4 and |Im p| <= 100."""
    rng = random.Random(11)
    return [complex(rng.uniform(-0.9, 4), rng.uniform(-100, 100)) for _ in range(count)]


@pytest.mark.parametrize("part", range(4))
def test_angular_moment_seeded_against_mpmath(part):
    # A(p) = 2 sqrt(pi) Gamma((p+1)/2) / Gamma(p/2 + 1); 100 exponents, in
    # four parts so that each test stays short.
    for p in seeded_exponents(100)[part::4]:
        with mpmath.workdps(30):
            q = mpmath.mpc(p.real, p.imag)
            want = complex(2 * mpmath.sqrt(mpmath.pi) * mpmath.gamma((q + 1) / 2) / mpmath.gamma(q / 2 + 1))
        assert abs(angular_moment(p, KERNEL_CONFIG) - want) / abs(want) < 1e-6, p


# The self-test's special-function grid, and exponents near the edge of the
# domain Re a > 0, Re b > 0.
BETA_GRID = [complex(r, i) for r in (0.5, 1.0, 1.5, 3.0) for i in (0.0, 0.5)]
BETA_POINTS = [(a, b) for a in BETA_GRID for b in BETA_GRID] + [
    (0.05, 1.0), (1.0, 0.05), (0.05, 0.05), (0.05 + 0.5j, 3.0), (1.5 + 0.5j, 0.05),
]


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

    @pytest.mark.parametrize("a, b", BETA_POINTS, ids=[f"{a}-{b}" for a, b in BETA_POINTS])
    def test_numeric_side_against_mpmath(self, a, b):
        # The numeric side against the continuation 2^(a+b-1)/Gamma(a+b).
        with mpmath.workdps(30):
            total = mpmath.mpc(a) + mpmath.mpc(b)
            want = complex(2 ** (total - 1) / mpmath.gamma(total))
        numeric = beta_P(a, b).numeric
        assert abs(numeric - want) / abs(want) < 1e-8


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

    @pytest.mark.parametrize("case", list(KERNEL_CASES))
    def test_row_integrates_one_angular_moment(self, case, monkeypatch):
        # The row's displayed form reuses the check's angular moment, and its
        # ratio equals the one computed through the public displayed form.
        calls = []

        def counted(p, cfg):
            calls.append(p)
            return angular_moment(p, cfg)

        monkeypatch.setattr(kernelnum, "angular_moment", counted)
        row = kernel_row(0.2 + 0.3j, case)
        assert len(calls) == 1
        monkeypatch.undo()
        kernel = kernel_case1 if case == "case1" else kernel_case2
        displayed = case1_displayed_form if case == "case1" else case2_displayed_form
        numeric, _ = kernel(0.2 + 0.3j, KERNEL_CONFIG)
        assert row.normalization_ratio == numeric / displayed(0.2 + 0.3j, KERNEL_CONFIG)

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
        # Samples must be finite, with |Im s| up to the stated cap.
        for s in (complex(0.2, math.nan), complex(0.5, math.inf), complex(0.2, KERNEL_MAX_IM + 0.5)):
            for kernel in (kernel_case1, kernel_case2):
                with pytest.raises(PreconditionError):
                    kernel(s, FAST)


def mpmath_kernel(case: int, s: complex) -> complex:
    """(1/2) B(...) A(p) at 30 digits, A(p) = 2 sqrt(pi) Gamma((p+1)/2) / Gamma(p/2+1)."""
    with mpmath.workdps(30):
        s = mpmath.mpc(s.real, s.imag)
        if case == 1:
            beta, p = mpmath.beta((1 - s) / 2, (3 * s + 1) / 2), 1 + s
        else:
            beta, p = mpmath.beta(1 - s / 2, (3 * s + 2) / 2), 2 + s
        angular = 2 * mpmath.sqrt(mpmath.pi) * mpmath.gamma((p + 1) / 2) / mpmath.gamma(p / 2 + 1)
        return complex(beta * angular / 2)


# Near a strip edge the radial integrand is nearly non-integrable at one end.
# 0.1-2i, -0.3 and -0.6 are the benchmark's fixed kernel points; 0.15+0.5i,
# 0.75, 1.25 and 1.2-i are seeded points it leaves out for cost.
MPMATH_POINTS = [
    (1, 0.1 - 2j), (1, -0.3), (1, -0.33), (1, 0.99), (1, 0.15 + 0.5j),
    (2, -0.6), (2, -0.66), (2, 1.99), (2, 0.75), (2, 1.25), (2, 1.2 - 1j),
]


@pytest.mark.parametrize("case, s", MPMATH_POINTS, ids=[f"case{c}-{s}" for c, s in MPMATH_POINTS])
def test_numeric_side_against_mpmath(case, s):
    kernel = kernel_case1 if case == 1 else kernel_case2
    numeric, _ = kernel(complex(s), KERNEL_CONFIG)
    want = mpmath_kernel(case, complex(s))
    assert abs(numeric - want) / abs(want) < 1e-6


# 9 values of Im s in [-100, 100], in two halves so that each test stays short.
STRIP_GRID_IM = {"lower": (-100, -75, -50, -25), "upper": (0, 25, 50, 75, 100)}


@pytest.mark.parametrize("half", list(STRIP_GRID_IM))
@pytest.mark.parametrize("case", [1, 2])
def test_strip_grid_against_mpmath(case, half):
    # 8 values of Re s, from 0.01 inside each edge of the strip, times half
    # of the Im s values.  Where |Im s| is large the radial moment is
    # exponentially small while its integrand on r > 0 is not; the moment is
    # taken on a turned ray.
    kernel = kernel_case1 if case == 1 else kernel_case2
    low, high = kernel_strip(case)
    for i in range(8):
        for im in STRIP_GRID_IM[half]:
            s = complex(low + 0.01 + (high - low - 0.02) * i / 7, im)
            numeric, _ = kernel(s, KERNEL_CONFIG)
            want = mpmath_kernel(case, s)
            assert abs(numeric - want) / abs(want) < 1e-6, s


def test_beta_pairing_seeded_against_mpmath():
    # Exponents with |Im| up to 40: where Im a and Im b have opposite signs,
    # the integral is exponentially small against its integrand.
    rng = random.Random(7)
    for _ in range(40):
        a = complex(rng.uniform(0.05, 3), rng.uniform(-40, 40))
        b = complex(rng.uniform(0.05, 3), rng.uniform(-40, 40))
        with mpmath.workdps(30):
            total = mpmath.mpc(a) + mpmath.mpc(b)
            want = complex(2 ** (total - 1) / mpmath.gamma(total))
        assert abs(beta_P(a, b).numeric - want) / abs(want) < 1e-6, (a, b)


def test_beta_pairing_far_from_the_real_axis():
    # Here w^-a alone is about e^870 and the ray's own factor about e^-900:
    # each term's factor is one exponential, so nothing overflows.
    pair = beta_P(0.5 + 300j, 0.5 - 10j)
    assert abs(pair.numeric - pair.closed) / abs(pair.closed) < 1e-6


@pytest.mark.parametrize("case", [1, 2])
def test_separable_product_is_the_nested_integral(case):
    # Fubini: integrate the displayed two-variable integrand
    # (1+r^2)^-(case+s) r^-(1+s) |sin t|^(case+s) r^case with a full radial
    # integral at every angular node, and compare with the separable product.
    s = 0.2 + 0.3j
    power = case + s

    def outer(theta):
        angular = abs(math.sin(theta)) ** power

        def radial(r):
            return angular * cmath.exp(-power * math.log1p(r * r) + (case - 1 - s) * math.log(r))

        return radial_improper_quad(radial, KERNEL_CONFIG)

    nested = adaptive_quad(outer, 0.0, math.pi, KERNEL_CONFIG) + adaptive_quad(
        outer, math.pi, 2.0 * math.pi, KERNEL_CONFIG
    )
    kernel = kernel_case1 if case == 1 else kernel_case2
    numeric = kernel(s, KERNEL_CONFIG).numeric
    assert abs(nested - numeric) / abs(numeric) < 1e-8


class TestStripDomain:
    def test_classification(self):
        # The radial convergence strips, as the kernel cases enforce them:
        # 0.2+0.3i lies in both, 1.5 only in case 2's, -0.9 in neither.
        (low1, high1), (low2, high2) = kernel_strip(1), kernel_strip(2)
        for s in (0.2 + 0.3j, 1.5, -0.9):
            assert (low1 < s.real < high1) == (s == 0.2 + 0.3j)
            assert (low2 < s.real < high2) == (s != -0.9)
        for s in (1.5, -0.9):
            with pytest.raises(PreconditionError):
                kernel_case1(s, FAST)
        with pytest.raises(PreconditionError):
            kernel_case2(-0.9, FAST)
