"""Complex special functions and quadrature for kernel-integral checks.

The closed-form side of the two kernel pairings is re-derived through the
Beta substitution u = r^2:

    case 1 radial:  (1/2) B((1-s)/2, (3s+1)/2)     on -1/3 < Re s < 1
    case 2 radial:  (1/2) B(1-s/2, (3s+2)/2)       on -2/3 < Re s < 2

with B(a,b) = Gamma(a)Gamma(b)/Gamma(a+b), times the angular moment
A(p) = integral over [0, 2pi) of |sin t|^p (integrated numerically).  The
numeric side integrates the displayed two-variable integrand directly with
nested adaptive Gauss-Kronrod rules; the improper radial direction is split
at r = 1 and cut off at the fixed radius RADIAL_CUTOFF, beyond which a
power-law extrapolation supplies the tail; an adaptive integral splits into
at most MAX_SUBDIVISIONS panels.

An "as-displayed" variant of each closed form is kept as well: it omits the
substitution Jacobian (and, in case 2, keeps a first-order denominator
where the substitution forces a second-order one).  Reports expose the
ratio numeric/displayed; the expected elementary values are 2^-(1+s) for
case 1 and 2^-(1+s)/(s+1) for case 2.  The discrepancy is flagged, never
silently corrected, and does not affect holomorphy or non-vanishing.
``kernel_row`` computes one such report row in ``KERNEL_CONFIG``; the
``verify-kernel`` command and the self-test's kernel criterion both use it.

Determinism: intervals are split worst-error-first with ties broken by the
left endpoint, and the final reduction sums contributions in left-endpoint
order, so identical configurations give bit-identical results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Tuple

import numpy as np

from .errors import PreconditionError, QuadratureError

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


def complex_gamma(z: complex) -> complex:
    """Gamma on the complex plane, poles excluded.

    Uses a fixed-order rational-polynomial approximation on Re z >= 1/2 and
    the reflection formula elsewhere; relative accuracy is around 1e-13 on
    moderate arguments.  Raises PreconditionError at non-positive integers.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise PreconditionError(f"gamma pole at z = {z.real:.0f}")
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * complex_gamma(1.0 - z))
    z -= 1.0
    acc = _LANCZOS_COEFFS[0]
    for k, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (z + k)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


def beta_fn(a: complex, b: complex) -> complex:
    """B(a,b) = Gamma(a) Gamma(b) / Gamma(a+b)."""
    return complex_gamma(a) * complex_gamma(b) / complex_gamma(a + b)


# -- adaptive quadrature ------------------------------------------------------

# 15-point Kronrod nodes (positive half) with Kronrod weights and the
# embedded 7-point Gauss weights (zero where the node is Kronrod-only).
_KRONROD = (
    (0.991455371120813, 0.022935322010529, 0.0),
    (0.949107912342759, 0.063092092629979, 0.129484966168870),
    (0.864864423359769, 0.104790010322250, 0.0),
    (0.741531185599394, 0.140653259715525, 0.279705391489277),
    (0.586087235467691, 0.169004726639267, 0.0),
    (0.405845151377397, 0.190350578064785, 0.381830050505119),
    (0.207784955007898, 0.204432940075298, 0.0),
    (0.0, 0.209482141084728, 0.417959183673469),
)

_NODES = np.array(
    [x for x, _, _ in _KRONROD[:-1]] + [0.0] + [-x for x, _, _ in _KRONROD[:-1]]
)
_WK = np.array(
    [w for _, w, _ in _KRONROD[:-1]]
    + [_KRONROD[-1][1]]
    + [w for _, w, _ in _KRONROD[:-1]]
)
_WG = np.array(
    [w for _, _, w in _KRONROD[:-1]]
    + [_KRONROD[-1][2]]
    + [w for _, _, w in _KRONROD[:-1]]
)


# Panels an adaptive integral may split into, and the radius where improper
# radial integrals hand over to the power-law tail (the integrand must be in
# its power-law regime there for the tail to fall below tolerance).
MAX_SUBDIVISIONS = 600
RADIAL_CUTOFF = 1000.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the adaptive integrator."""

    abs_tol: float = 1e-11
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_CONFIG = QuadratureConfig()

# The configuration of verify-kernel rows (and so of the kernel criterion).
KERNEL_CONFIG = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-8)


def _kronrod_panel(f: Callable, a: float, b: float) -> Tuple[complex, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    values = np.asarray(f(mid + half * _NODES), dtype=complex)
    k15 = half * complex(np.sum(_WK * values))
    g7 = half * complex(np.sum(_WG * values))
    return k15, abs(k15 - g7)


def adaptive_quad(
    f: Callable, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> complex:
    """Integrate a (vectorized) complex integrand over [a, b] adaptively."""
    value, err = _kronrod_panel(f, a, b)
    intervals = [(a, b, value, err)]
    while True:
        total = sum(v for _, _, v, _ in intervals)
        total_err = sum(e for _, _, _, e in intervals)
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            break
        if len(intervals) >= MAX_SUBDIVISIONS:
            raise QuadratureError("subdivision limit reached", total_err)
        worst = max(range(len(intervals)), key=lambda i: (intervals[i][3], -intervals[i][0]))
        wa, wb, _, _ = intervals[worst]
        mid = 0.5 * (wa + wb)
        left = _kronrod_panel(f, wa, mid)
        right = _kronrod_panel(f, mid, wb)
        intervals[worst] = (wa, mid, left[0], left[1])
        intervals.append((mid, wb, right[0], right[1]))
    intervals.sort(key=lambda item: item[0])
    return sum(v for _, _, v, _ in intervals)


def _power_law_tail(f: Callable, cutoff: float) -> complex:
    """Extrapolated integral of f over [cutoff, inf) assuming f ~ A r^-p."""
    f1 = complex(np.asarray(f(np.array([cutoff])), dtype=complex)[0])
    f2 = complex(np.asarray(f(np.array([2.0 * cutoff])), dtype=complex)[0])
    if f1 == 0:
        return 0.0 + 0.0j
    p = -cmath.log(f2 / f1) / math.log(2.0)
    if p.real <= 1.0:
        raise QuadratureError(
            f"tail exponent {p.real:.3f} <= 1, divergent beyond cutoff", math.inf
        )
    return f1 * cutoff / (p - 1.0)


def radial_improper_quad(f: Callable, cfg: QuadratureConfig = DEFAULT_CONFIG) -> complex:
    """Integral of f over (0, inf): split at 1, cut at RADIAL_CUTOFF,
    power-law tail beyond."""
    inner = adaptive_quad(f, 0.0, 1.0, cfg)
    outer = adaptive_quad(f, 1.0, RADIAL_CUTOFF, cfg)
    return inner + outer + _power_law_tail(f, RADIAL_CUTOFF)


def angular_moment(p: complex, cfg: QuadratureConfig = DEFAULT_CONFIG) -> complex:
    """A(p): the integral of |sin t|^p over one full period."""

    def integrand(theta):
        mags = np.abs(np.sin(theta))
        out = np.zeros_like(theta, dtype=complex)
        mask = mags > 0
        out[mask] = np.exp(complex(p) * np.log(mags[mask]))
        return out

    # Split at pi: |sin| has a kink there.
    return adaptive_quad(integrand, 0.0, math.pi, cfg) + adaptive_quad(
        integrand, math.pi, 2.0 * math.pi, cfg
    )


# -- beta-type pairing --------------------------------------------------------


class BetaPair(NamedTuple):
    numeric: complex
    closed: complex


def beta_P(a: complex, b: complex, cfg: QuadratureConfig = DEFAULT_CONFIG) -> BetaPair:
    """The normalized interval pairing and its holomorphic continuation.

    numeric: 1/(Gamma(a)Gamma(b)) * integral over [-1,1] of
    (1-x)^(a-1) (1+x)^(b-1); requires Re a > 0 and Re b > 0.
    closed: 2^(a+b-1)/Gamma(a+b), valid off the poles.  The two agree on
    the common domain.
    """
    a = complex(a)
    b = complex(b)
    closed = 2.0 ** (a + b - 1.0) / complex_gamma(a + b)
    if a.real <= 0 or b.real <= 0:
        raise PreconditionError(
            "the defining integral needs Re a > 0 and Re b > 0; "
            "use the closed continuation instead"
        )

    # Split at 0 and substitute x = 1 - u^2 (resp. x = -1 + u^2); the
    # endpoint singularities (1 -+ x)^(a-1) become integrable powers u^(2a-1)
    # with nonnegative real part, which bisection resolves without running
    # into the floating-point edge at the endpoints.
    def half_integrand(p: complex, q: complex):
        def f(u):
            out = np.zeros_like(u, dtype=complex)
            mask = u > 0
            um = u[mask]
            out[mask] = 2.0 * np.exp(
                (2.0 * p - 1.0) * np.log(um) + (q - 1.0) * np.log(2.0 - um * um)
            )
            return out

        return f

    integral = adaptive_quad(half_integrand(a, b), 0.0, 1.0, cfg) + adaptive_quad(
        half_integrand(b, a), 0.0, 1.0, cfg
    )
    numeric = integral / (complex_gamma(a) * complex_gamma(b))
    return BetaPair(numeric, closed)


# -- the two kernel pairings --------------------------------------------------


class KernelCheck(NamedTuple):
    numeric: complex
    reference: complex


CASE1_STRIP = (-1.0 / 3.0, 1.0)
CASE2_STRIP = (-2.0 / 3.0, 2.0)


def _check_strip(s: complex, low: float, high: float, label: str) -> complex:
    s = complex(s)
    if not (low < s.real < high):
        raise PreconditionError(
            f"{label} requires {low} < Re s < {high} for radial convergence; "
            f"got Re s = {s.real}"
        )
    return s


def _nested_kernel_quad(
    radial_power: complex,
    inv_power: complex,
    sin_power: complex,
    r_factor: int,
    cfg: QuadratureConfig,
) -> complex:
    """Integral over (r, theta) of
    (1/(1+r^2))^radial_power (1/r)^inv_power |sin theta|^sin_power r^r_factor,
    as a genuinely nested 2D quadrature: every outer angular node triggers
    a full adaptive radial integral of the displayed integrand."""

    def outer(thetas):
        out = np.zeros_like(thetas, dtype=complex)
        for i, th in enumerate(thetas):
            mag = abs(math.sin(th))
            if mag == 0.0:
                continue
            angular = cmath.exp(complex(sin_power) * math.log(mag))

            def radial_integrand(r, _w=angular):
                return _w * np.exp(
                    -radial_power * np.log1p(r * r)
                    + (r_factor - inv_power) * np.log(r)
                )

            out[i] = radial_improper_quad(radial_integrand, cfg)
        return out

    return adaptive_quad(outer, 0.0, math.pi, cfg) + adaptive_quad(
        outer, math.pi, 2.0 * math.pi, cfg
    )


def kernel_case1(
    s: complex, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> KernelCheck:
    """Spherical-vector pairing: integrand
    (1/(1+r^2))^(1+s) (1/r)^(1+s) |sin t|^(1+s) r dr dt on -1/3 < Re s < 1.

    reference = (1/2) B((1-s)/2, (3s+1)/2) * A(1+s), the Beta substitution
    u = r^2 applied to the radial factor.
    """
    s = _check_strip(s, CASE1_STRIP[0], CASE1_STRIP[1], "case 1")
    numeric = _nested_kernel_quad(1.0 + s, 1.0 + s, 1.0 + s, 1, cfg)
    reference = 0.5 * beta_fn((1.0 - s) / 2.0, (3.0 * s + 1.0) / 2.0) * angular_moment(
        1.0 + s, cfg
    )
    return KernelCheck(numeric, reference)


def kernel_case2(
    s: complex, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> KernelCheck:
    """Middle-vector pairing (algebraic prefactor omitted): integrand
    (1/(1+r^2))^(2+s) (1/r)^(1+s) |sin t|^(2+s) r^2 dr dt on -2/3 < Re s < 2.

    reference = (1/2) B(1-s/2, (3s+2)/2) * A(2+s); the substitution forces
    the second-order denominator in the Beta factor.
    """
    s = _check_strip(s, CASE2_STRIP[0], CASE2_STRIP[1], "case 2")
    numeric = _nested_kernel_quad(2.0 + s, 1.0 + s, 2.0 + s, 2, cfg)
    reference = 0.5 * beta_fn(1.0 - s / 2.0, (3.0 * s + 2.0) / 2.0) * angular_moment(
        2.0 + s, cfg
    )
    return KernelCheck(numeric, reference)


def case1_displayed_form(
    s: complex, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> complex:
    """The case-1 closed form without the substitution Jacobian:
    2^s Gamma((1-s)/2) Gamma((3s+1)/2) / Gamma(s+1) * A(1+s).
    numeric/displayed = 2^-(1+s)."""
    s = complex(s)
    return (
        2.0 ** s
        * complex_gamma((1.0 - s) / 2.0)
        * complex_gamma((3.0 * s + 1.0) / 2.0)
        / complex_gamma(s + 1.0)
        * angular_moment(1.0 + s, cfg)
    )


def case2_displayed_form(
    s: complex, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> complex:
    """The case-2 closed form as displayed (algebraic prefactor omitted),
    keeping the first-order denominator Gamma(s+1): 2^s Gamma((2-s)/2)
    Gamma((3s+2)/2)/Gamma(s+1) * A(2+s).
    numeric/displayed = 2^-(1+s) / (s+1)."""
    s = complex(s)
    return (
        2.0 ** s
        * complex_gamma((2.0 - s) / 2.0)
        * complex_gamma((3.0 * s + 2.0) / 2.0)
        / complex_gamma(s + 1.0)
        * angular_moment(2.0 + s, cfg)
    )


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


# The kernel cases by name, each with its displayed closed form.
KERNEL_CASES = {
    "case1": (kernel_case1, case1_displayed_form),
    "case2": (kernel_case2, case2_displayed_form),
}


def kernel_row(s: complex, case: str) -> KernelRow:
    """Case "case1" or "case2" at s in KERNEL_CONFIG: the numeric integral,
    the Beta-substitution reference and their relative error, and the ratio
    numeric/displayed with its expected value 2^-(1+s), divided by (s+1) in
    case 2."""
    kernel, displayed = KERNEL_CASES[case]
    numeric, reference = kernel(s, KERNEL_CONFIG)
    expected = 2.0 ** (-(1.0 + s))
    if case == "case2":
        expected = expected / (s + 1.0)
    return KernelRow(
        s,
        case,
        numeric,
        reference,
        abs(numeric - reference) / abs(reference),
        numeric / displayed(s, KERNEL_CONFIG),
        expected,
    )
