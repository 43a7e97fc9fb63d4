"""Complex special functions and quadrature for kernel-integral checks.

Every integral the kernel checks need is one radial moment

    M(a, c) = integral over r > 0 of (1+r^2)^-a r^c
            = (1/2) B((c+1)/2, a - (c+1)/2)    for Re c > -1, Re(2a - c) > 1,

with B(a,b) = Gamma(a)Gamma(b)/Gamma(a+b) (DLMF 5.12.3), integrated
numerically by ``_radial_moment``.  By Cauchy's theorem it moves the ray
r > 0 to r = rho e^(i phi), turned by phi = +-1.5 where the two Beta
arguments' imaginary parts have opposite signs: there M is exponentially
small in |Im|, while its integrand on the real axis is not, and double
precision could not resolve the cancellation.  It folds (1, inf) onto
(0, 1] by rho -> 1/rho, so it is one finite-interval integral with no
cutoff and no extrapolation, and it integrates the leading powers at 0
and at infinity in closed form, so that the remainders vanish at 0 and
need no substitution.  Each term is one exponential of a summed exponent,
so no value overflows.  Through it:

- the angular moment A(p), the integral of |sin t|^p over one period, is
  4 M(p/2 + 1, p): t = arctan r on each quarter period;
- the interval pairing beta_P's numeric side is
  2^(a+b) M(a+b, 2a-1) / (Gamma(a)Gamma(b)): x = (1-r^2)/(1+r^2) on
  [-1, 1], and M's conditions are its domain Re a > 0, Re b > 0;
- kernel case j in {1, 2} integrates (1+r^2)^-(j+s) r^(j-1-s) |sin t|^(j+s)
  over r > 0 and one period of t.  The integrand separates, so the numeric
  side is M(j+s, j-1-s) A(j+s), and M's conditions give the strip
  -j/3 < Re s < j.  The reference is the same A(j+s) times the closed form
  (1/2) B((j-s)/2, (j+3s)/2) of the radial factor.

An adaptive integral splits into at most MAX_SUBDIVISIONS panels, and a
kernel sample s must be finite with |Im s| <= KERNEL_MAX_IM.  Each panel is
a G7-K15 Gauss-Kronrod rule (Piessens et al., QUADPACK, 1983) in plain
Python: integrands are scalar, called with one float per node and computed
with ``math`` and ``cmath``, so the package needs no array library.

An "as-displayed" variant of each kernel closed form is kept as well:
2^s Gamma((j-s)/2) Gamma((j+3s)/2) / Gamma(s+1) A(j+s), which omits the
substitution Jacobian (and, in case 2, keeps a first-order denominator where
the substitution forces a second-order one).  Reports expose the ratio
numeric/displayed; its expected value is 2^-(1+s), divided by (s+1) once in
case 2.  The discrepancy is flagged, never silently corrected, and does not
affect holomorphy or non-vanishing.  ``kernel_row`` computes one such report
row in ``KERNEL_CONFIG``, with one angular moment shared by the check and the
displayed form; the ``verify-kernel`` command and the self-test's kernel
criterion both use it, and both fail a row for its ``failure``: a miss of
KERNEL_MAX_REL_ERR or of KERNEL_MAX_RATIO_ERR.

Determinism: intervals are split worst-error-first with ties broken by the
left endpoint, and the final reduction sums contributions in left-endpoint
order, so identical configurations give bit-identical results.
"""

from __future__ import annotations

import cmath
import heapq
import math
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Tuple

from .errors import PreconditionError, QuadratureError
from .exactnum import Frozen

# -- complex gamma -----------------------------------------------------------

# Rational-polynomial (Lanczos) coefficients, g = 7, 9 terms.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


_LOG_PI = math.log(math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_gamma(z: complex) -> complex:
    """A logarithm of Gamma(z), on no fixed branch.

    The rational-polynomial approximation on Re z >= 1/2; elsewhere the
    reflection Gamma(z) = pi / (sin(pi z) Gamma(1 - z)), with
    sin(pi z) = (i sigma / 2) exp(-i sigma pi z) (1 - exp(2 i sigma pi z))
    for sigma the sign of Im z, so that the last exponential has modulus at
    most 1 and nothing overflows however large |Im z| is.  Raises
    PreconditionError at the poles, the non-positive integers, and at a
    non-finite z.
    """
    if not cmath.isfinite(z):
        raise PreconditionError(f"gamma needs a finite argument; got z = {z}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise PreconditionError(f"gamma pole at z = {z.real:.0f}")
    if z.real < 0.5:
        sigma = 1.0 if z.imag >= 0.0 else -1.0
        turn = 1j * sigma * math.pi * z
        log_sin = cmath.log(0.5j * sigma) - turn + cmath.log(1.0 - cmath.exp(2.0 * turn))
        return _LOG_PI - log_sin - _log_gamma(1.0 - z)
    z -= 1.0
    acc = _LANCZOS_COEFFS[0]
    for k, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (z + k)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (z + 0.5) * cmath.log(t) - t + cmath.log(acc)


def complex_gamma(z: complex) -> complex:
    """Gamma on the complex plane, poles excluded.

    The exponential of ``_log_gamma``, so that the reflection half-plane
    neither overflows nor underflows before the result does; relative
    accuracy is around 1e-13 on moderate arguments.  Raises
    PreconditionError at non-positive integers and non-finite arguments.
    """
    return cmath.exp(_log_gamma(complex(z)))


def beta_fn(a: complex, b: complex) -> complex:
    """B(a,b) = Gamma(a) Gamma(b) / Gamma(a+b), as the exponential of a sum
    of ``_log_gamma`` values, so that the Gamma factors neither overflow nor
    underflow before B does.  Raises PreconditionError where ``_log_gamma``
    does: at a pole or a non-finite argument of a, b or a + b."""
    a, b = complex(a), complex(b)
    return cmath.exp(_log_gamma(a) + _log_gamma(b) - _log_gamma(a + b))


# -- adaptive quadrature ------------------------------------------------------

# 15-point Kronrod nodes (positive half) with Kronrod weights and the
# embedded 7-point Gauss weights (zero where the node is Kronrod-only).
_KRONROD_HALF = (
    (0.991455371120813, 0.022935322010529, 0.0),
    (0.949107912342759, 0.063092092629979, 0.129484966168870),
    (0.864864423359769, 0.104790010322250, 0.0),
    (0.741531185599394, 0.140653259715525, 0.279705391489277),
    (0.586087235467691, 0.169004726639267, 0.0),
    (0.405845151377397, 0.190350578064785, 0.381830050505119),
    (0.207784955007898, 0.204432940075298, 0.0),
    (0.0, 0.209482141084728, 0.417959183673469),
)

# All 15 (node, Kronrod weight, Gauss weight): the positive half, the
# centre, then the mirrored negative half.
_KRONROD = (
    _KRONROD_HALF
    + tuple((-x, wk, wg) for x, wk, wg in _KRONROD_HALF[:-1])
)


# Panels an adaptive integral may split into.
MAX_SUBDIVISIONS = 600


class QuadratureConfig(Frozen):
    """Tolerances for the adaptive integrator."""

    __slots__ = _fields = ("abs_tol", "rel_tol")
    abs_tol: float
    rel_tol: float

    def __init__(self, abs_tol: float = 1e-11, rel_tol: float = 1e-9):
        if abs_tol <= 0 or rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        object.__setattr__(self, "abs_tol", abs_tol)
        object.__setattr__(self, "rel_tol", rel_tol)


DEFAULT_CONFIG = QuadratureConfig()

# The configuration of verify-kernel rows (and so of the kernel criterion).
KERNEL_CONFIG = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-8)


def _kronrod_panel(f: Callable, a: float, b: float) -> Tuple[complex, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    k15 = g7 = 0j
    for x, wk, wg in _KRONROD:
        value = f(mid + half * x)
        k15 += wk * value
        g7 += wg * value
    k15 *= half
    return k15, abs(k15 - half * g7)


def adaptive_quad(
    f: Callable, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> complex:
    """Integrate a complex integrand over [a, b] adaptively.

    ``f`` is scalar: it takes one float and returns one number, and is
    called once per Kronrod node, 15 times per panel.  The panels wait in a
    heap keyed on (-error, left endpoint), and the stop test reads running
    sums, so each split costs O(log panels)."""
    value, err = _kronrod_panel(f, a, b)
    heap = [(-err, a, b, value)]
    total, total_err = value, err
    # A NaN estimate fails the stop test and keeps splitting.
    while not total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if len(heap) >= MAX_SUBDIVISIONS:
            raise QuadratureError("subdivision limit reached", total_err)
        neg_err, wa, wb, worst = heapq.heappop(heap)
        mid = 0.5 * (wa + wb)
        left, left_err = _kronrod_panel(f, wa, mid)
        right, right_err = _kronrod_panel(f, mid, wb)
        heapq.heappush(heap, (-left_err, wa, mid, left))
        heapq.heappush(heap, (-right_err, mid, wb, right))
        total += left + right - worst
        total_err += left_err + right_err + neg_err
    heap.sort(key=itemgetter(1))
    return sum(v for _, _, _, v in heap)


def radial_improper_quad(f: Callable, cfg: QuadratureConfig = DEFAULT_CONFIG) -> complex:
    """Integral of f over (0, inf), with (1, inf) folded onto (0, 1] by
    r -> 1/r: the one finite integral of f(r) + f(1/r)/r^2 over [0, 1].
    ``f`` is scalar, as in ``adaptive_quad``: it is called with one float
    r > 0 at a time."""
    return adaptive_quad(lambda r: f(r) + f(1.0 / r) / (r * r), 0.0, 1.0, cfg)


# -- Beta-type integrals ------------------------------------------------------


def _radial_moment(a: complex, c: complex, cfg: QuadratureConfig) -> complex:
    """M(a, c), the integral of (1+r^2)^-a r^c over (0, inf), for Re c > -1
    and Re(2a - c) > 1, taken on the ray r = rho e^(i phi).

    With w = e^(2 i phi) and the fold rho -> 1/rho of (1, inf) onto (0, 1],
    M = e^(i phi (c+1)) [1/(c+1) + w^-a/(2a-c-1) + the integral over (0, 1]
    of x^c ((1+x^2 w)^-a - 1) + w^-a x^(2a-c-2) ((1+x^2/w)^-a - 1)]: the
    leading powers at 0 and at infinity are integrated in closed form, and
    the remainders vanish at 0 like x^(Re c + 2) and x^Re(2a-c).  Each term's
    factor is one exponential of a summed exponent, so that no intermediate
    value overflows."""
    at_zero, at_inf = c.real + 1.0, (2.0 * a - c).real - 1.0
    if not (at_zero > 0.0 and at_inf > 0.0):
        raise PreconditionError(f"M(a, c) needs Re c > -1 and Re(2a - c) > 1; got a = {a}, c = {c}")
    # M is (1/2) B(alpha, beta), exponentially small but with an integrand
    # on r > 0 that is not, when Im alpha and Im beta have opposite signs.
    # Turning the ray towards the sign of Im alpha removes that cancellation;
    # any |phi| < pi/2 gives M, as the branch points +-i lie on arg r = +-pi/2.
    alpha = (c + 1.0) / 2.0
    beta = a - alpha
    phi = math.copysign(1.5, alpha.imag) if alpha.imag * beta.imag < 0.0 else 0.0
    w = cmath.exp(2j * phi)
    near = 1j * phi * (c + 1.0)
    far = near - 2j * phi * a
    # The bracket is formed relative to the larger closed-form factor, so
    # that cfg's absolute tolerance is measured on the scale of M.
    scale = max(near.real, far.real)
    near -= scale
    far -= scale
    far_power = 2.0 * a - c - 2.0

    def remainders(x):
        log_x = math.log(x)
        head = near + c * log_x
        tail = far + far_power * log_x
        return (
            cmath.exp(head - a * cmath.log(1.0 + x * x * w))
            - cmath.exp(head)
            + cmath.exp(tail - a * cmath.log(1.0 + x * x / w))
            - cmath.exp(tail)
        )

    closed = cmath.exp(near) / (c + 1.0) + cmath.exp(far) / (far_power + 1.0)
    return math.exp(scale) * (closed + adaptive_quad(remainders, 0.0, 1.0, cfg))


def angular_moment(p: complex, cfg: QuadratureConfig = DEFAULT_CONFIG) -> complex:
    """A(p): the integral of |sin t|^p over one full period, for Re p > -1.
    On each quarter period, t = arctan r turns it into M(p/2 + 1, p)."""
    p = complex(p)
    return 4.0 * _radial_moment(p / 2.0 + 1.0, p, cfg)


class BetaPair(NamedTuple):
    numeric: complex
    closed: complex


def beta_P(a: complex, b: complex) -> BetaPair:
    """The normalized interval pairing and its holomorphic continuation.

    numeric: 1/(Gamma(a)Gamma(b)) * integral over [-1,1] of
    (1-x)^(a-1) (1+x)^(b-1); requires Re a > 0 and Re b > 0.  With
    x = (1-r^2)/(1+r^2) the integral is 2^(a+b) M(a+b, 2a-1).
    closed: 2^(a+b-1)/Gamma(a+b), valid off the poles.  The two agree on
    the common domain.  The integral is taken in DEFAULT_CONFIG.
    """
    a = complex(a)
    b = complex(b)
    closed = 2.0 ** (a + b - 1.0) / complex_gamma(a + b)
    if a.real <= 0 or b.real <= 0:
        raise PreconditionError(
            "the defining integral needs Re a > 0 and Re b > 0; "
            "use the closed continuation instead"
        )
    integral = 2.0 ** (a + b) * _radial_moment(a + b, 2.0 * a - 1.0, DEFAULT_CONFIG)
    return BetaPair(integral / (complex_gamma(a) * complex_gamma(b)), closed)


# -- the two kernel pairings --------------------------------------------------


class KernelCheck(NamedTuple):
    numeric: complex
    reference: complex


# The largest |Im s| a kernel check accepts.  The reference's Beta factor is
# formed from log-Gamma values and matches mpmath to 1e-12 at case 1,
# s = -0.3+240i, where B is about 2e-165.  The quadrature side matches
# mpmath to 1.1e-7 or better on a grid over both strips up to |Im s| = 100.
# Further out, the fixed turn of the ray leaves more cancellation: on the
# same grid's Re s values the worst error is 1.4e-5 at |Im s| = 150, so the
# cap stays at 100.
KERNEL_MAX_IM = 100.0


def kernel_strip(j: int) -> Tuple[float, float]:
    """(low, high): case j converges on low < Re s < high, -j/3 < Re s < j."""
    return -j / 3.0, float(j)


def _beta_args(j: int, s: complex) -> Tuple[complex, complex]:
    """Case j's radial factor M(j+s, j-1-s) is (1/2) B of these."""
    return (j - s) / 2.0, (j + 3.0 * s) / 2.0


def _check(j: int, s: complex, cfg: QuadratureConfig) -> Tuple[KernelCheck, complex]:
    """Case j's check at s, and the angular moment A(j+s) it shares."""
    s = complex(s)
    if not (cmath.isfinite(s) and abs(s.imag) <= KERNEL_MAX_IM):
        raise PreconditionError(
            f"case {j} requires a finite s with |Im s| <= {KERNEL_MAX_IM:g}; got s = {s}"
        )
    low, high = kernel_strip(j)
    if not (low < s.real < high):
        raise PreconditionError(
            f"case {j} requires {low} < Re s < {high} for radial convergence; "
            f"got Re s = {s.real}"
        )
    angular = angular_moment(j + s, cfg)
    numeric = _radial_moment(j + s, j - 1.0 - s, cfg) * angular
    reference = 0.5 * beta_fn(*_beta_args(j, s)) * angular
    return KernelCheck(numeric, reference), angular


def kernel_case1(
    s: complex, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> KernelCheck:
    """Spherical-vector pairing: integrand
    (1/(1+r^2))^(1+s) (1/r)^(1+s) |sin t|^(1+s) r dr dt on -1/3 < Re s < 1.

    reference = (1/2) B((1-s)/2, (3s+1)/2) * A(1+s), the Beta substitution
    u = r^2 applied to the radial factor.
    """
    return _check(1, s, cfg)[0]


def kernel_case2(
    s: complex, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> KernelCheck:
    """Middle-vector pairing (algebraic prefactor omitted): integrand
    (1/(1+r^2))^(2+s) (1/r)^(1+s) |sin t|^(2+s) r^2 dr dt on -2/3 < Re s < 2.

    reference = (1/2) B(1-s/2, (3s+2)/2) * A(2+s); the substitution forces
    the second-order denominator in the Beta factor.
    """
    return _check(2, s, cfg)[0]


def _displayed_gammas(j: int, s: complex) -> complex:
    """2^s Gamma((j-s)/2) Gamma((j+3s)/2) / Gamma(s+1)."""
    s = complex(s)
    b1, b2 = _beta_args(j, s)
    return 2.0 ** s * complex_gamma(b1) * complex_gamma(b2) / complex_gamma(s + 1.0)


def case1_displayed_form(
    s: complex, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> complex:
    """The case-1 closed form without the substitution Jacobian:
    2^s Gamma((1-s)/2) Gamma((3s+1)/2) / Gamma(s+1) * A(1+s).
    numeric/displayed = 2^-(1+s)."""
    return _displayed_gammas(1, s) * angular_moment(1 + complex(s), cfg)


def case2_displayed_form(
    s: complex, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> complex:
    """The case-2 closed form as displayed (algebraic prefactor omitted),
    keeping the first-order denominator Gamma(s+1): 2^s Gamma((2-s)/2)
    Gamma((3s+2)/2)/Gamma(s+1) * A(2+s).
    numeric/displayed = 2^-(1+s) / (s+1)."""
    return _displayed_gammas(2, s) * angular_moment(2 + complex(s), cfg)


def _pair(z: complex) -> list:
    return [z.real, z.imag]


class KernelRow(NamedTuple):
    """One kernel case at one sample s, as verify-kernel reports it."""

    s: complex
    case: str
    numeric: complex
    reference: complex
    rel_err: float
    normalization_ratio: complex
    expected_ratio: complex

    def to_json(self) -> dict:
        return {
            "s": _pair(self.s),
            "case": self.case,
            "numeric": _pair(self.numeric),
            "reference": _pair(self.reference),
            "rel_err": self.rel_err,
            "normalization_ratio": _pair(self.normalization_ratio),
            "expected_normalization_ratio": _pair(self.expected_ratio),
        }

    @property
    def failure(self) -> Optional[str]:
        """Why the row misses its bounds, or None; a NaN misses them."""
        if not self.rel_err <= KERNEL_MAX_REL_ERR:
            return f"rel err {self.rel_err:.2e} exceeds {KERNEL_MAX_REL_ERR:g}"
        off = abs(self.normalization_ratio - self.expected_ratio)
        if not off <= KERNEL_MAX_RATIO_ERR:
            return f"normalization ratio error {off:.2e} exceeds {KERNEL_MAX_RATIO_ERR:g}"
        return None


# The kernel cases by name, each with its j.
KERNEL_CASES = {"case1": 1, "case2": 2}

# The largest relative error between a kernel check's numeric side and its
# reference, and the largest distance between a normalization ratio and its
# expected value, that the kernel criterion and verify-kernel accept.
KERNEL_MAX_REL_ERR = 1e-6
KERNEL_MAX_RATIO_ERR = 1e-6


def kernel_row(s: complex, case: str) -> KernelRow:
    """Case "case1" or "case2" at s in KERNEL_CONFIG: the numeric integral,
    the Beta-substitution reference and their relative error, and the ratio
    numeric/displayed with its expected value 2^-(1+s), divided by (s+1) in
    case 2.  The displayed form reuses the check's angular moment."""
    j = KERNEL_CASES[case]
    (numeric, reference), angular = _check(j, s, KERNEL_CONFIG)
    expected = 2.0 ** (-(1.0 + s))
    for _ in range(1, j):
        expected = expected / (s + 1.0)
    return KernelRow(
        s,
        case,
        numeric,
        reference,
        abs(numeric - reference) / abs(reference),
        numeric / (_displayed_gammas(j, s) * angular),
        expected,
    )
