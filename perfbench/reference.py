"""Computations the benchmark checks glcdist against, made apart from it.

Nothing here imports glcdist.  Scalars are ``fractions.Fraction``; a
character of C^x is the triple ``(m, re s, im s)`` and a parameter is the
multiset of its characters, counted in a dict.  The rules are the ones the
package README states:

* pairing condition (i): for s != 0 the multiplicities of (m, s) and
  (m, -s) agree; characters at s = 0 with m odd have even multiplicity;
* even-multiplicity condition (ii): characters with m odd and 2s a real
  integer have even multiplicity;
* blockwise: a block with u != 0 pairs in equal multiplicity with its
  u -> -u mirror, and a character block with u = 0 and odd k has even
  multiplicity.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# -- characters and the distinction conditions ----------------------------


def block_chars(kind: str, size: int, k: int, u_im: Fraction, t: Fraction = Fraction(0)):
    """Characters of a unitary block.

    A character block (n, k, u) contributes (k, (u + n + 1 - 2i)/2) for
    i = 1..n; a complementary block (m, k, u, t) is the pair of character
    blocks (m, k, u + t) and (m, k, u - t).  ``size`` is n for a character
    block and m for a complementary one; u = i * u_im.
    """
    if kind == "char":
        return [(k, Fraction(size + 1 - 2 * i, 2), u_im / 2) for i in range(1, size + 1)]
    out = []
    for shift in (t, -t):
        out.extend((k, (shift + size + 1 - 2 * i) / 2, u_im / 2) for i in range(1, size + 1))
    return out


def condition_i(counts: Dict[tuple, int]) -> bool:
    for (m, re, im), c in counts.items():
        if re == 0 and im == 0:
            if m % 2 and c % 2:
                return False
        elif counts.get((m, -re, -im), 0) != c:
            return False
    return True


def condition_ii(counts: Dict[tuple, int]) -> bool:
    for (m, re, im), c in counts.items():
        if m % 2 and im == 0 and (2 * re).denominator == 1 and c % 2:
            return False
    return True


def blocks_distinguished(counts: Dict[tuple, int]) -> bool:
    """Blockwise verdict on a count of blocks ``(kind, size, k, u_im, t)``."""
    for (kind, size, k, u_im, t), c in counts.items():
        if u_im != 0:
            if counts.get((kind, size, k, -u_im, t), 0) != c:
                return False
        elif kind == "char" and k % 2 and c % 2:
            return False
    return True


def unitary_chars(blocks: Iterable[tuple]) -> Counter:
    counts: Counter = Counter()
    for kind, size, k, u_im, t in blocks:
        counts.update(block_chars(kind, size, k, u_im, t))
    return counts


# -- the acceptance grid ---------------------------------------------------

# The grid of glcdist's formulation-equivalence scan: character blocks of
# size 1..8 and complementary blocks of size 2m, m = 1..4, each with k in
# -2..2 and u in {0, i, -i}; complementary blocks take t in {1/4, 1/2}.
GRID_TS = (Fraction(1, 4), Fraction(1, 2))


def grid_block_sizes() -> Counter:
    """Number of grid block types of each total size."""
    sizes: Counter = Counter()
    sizes.update({n: 5 * 3 for n in range(1, 9)})
    sizes.update({2 * m: 5 * 3 * len(GRID_TS) for m in range(1, 5)})
    return sizes


def multiset_counts_by_size(type_sizes: Dict[int, int], budget: int) -> List[int]:
    """Coefficients of prod_s (1 - x^s)^(-c_s) up to x^budget: the number of
    multisets of block types of each total size (index 0 is the empty one)."""
    coeffs = [1] + [0] * budget
    for size, count in sorted(type_sizes.items()):
        for _ in range(count):
            for total in range(size, budget + 1):
                coeffs[total] += coeffs[total - size]
    return coeffs


# -- K-types -------------------------------------------------------------------


def minimal_even_ktype(ms: Sequence[int]) -> Optional[List[int]]:
    """The README's construction: sort the twist exponents into the lowest
    K-type; each odd value of multiplicity 2c becomes c copies of value + 1
    and c of value - 1.  None when an odd value has odd multiplicity."""
    out: List[int] = []
    for v, c in Counter(ms).items():
        if v % 2 == 0:
            out += [v] * c
        elif c % 2:
            return None
        else:
            out += [v + 1] * (c // 2) + [v - 1] * (c // 2)
    return sorted(out, reverse=True)


# -- epsilon factors ------------------------------------------------------------


def gq_mul(a: Tuple[Fraction, Fraction], b: Tuple[Fraction, Fraction]):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gq_pow(a: Tuple[Fraction, Fraction], e: int):
    if e < 0:
        nrm = a[0] * a[0] + a[1] * a[1]
        a = (a[0] / nrm, -a[1] / nrm)
        e = -e
    out = (Fraction(1), Fraction(0))
    for _ in range(e):
        out = gq_mul(out, a)
    return out


def eps_factor(chars: Iterable[tuple], b: Tuple[Fraction, Fraction]):
    """The central-point factor of a parameter against psi_b, factored as
    (unit, |b|^2, half the modulus exponent, exact value or None).

    Each character (m, t) contributes i^|m| b^m |b|^(2t - m + s - 1/2) at
    s = 1/2.  The value is exact when the modulus exponent e is 0, when
    |b| = 1, or when e is an even integer.
    """
    unit = (Fraction(1), Fraction(0))
    exp_re = Fraction(0)
    exp_im = Fraction(0)
    for m, re, im in chars:
        unit = gq_mul(unit, gq_mul(gq_pow((Fraction(0), Fraction(1)), abs(m)), gq_pow(b, m)))
        exp_re += 2 * re - m
        exp_im += 2 * im
    abs_sq = b[0] * b[0] + b[1] * b[1]
    half = (exp_re / 2, exp_im / 2)
    value = None
    if (exp_re == 0 and exp_im == 0) or abs_sq == 1:
        value = unit
    elif exp_im == 0 and exp_re.denominator == 1 and exp_re.numerator % 2 == 0:
        power = abs_sq ** (exp_re.numerator // 2)
        value = (unit[0] * power, unit[1] * power)
    return unit, abs_sq, half, value


# -- derivatives ------------------------------------------------------------------


def monomial_stages(blocks: Sequence[Tuple[int, Fraction, Fraction, int]]):
    """Stages of the highest-derivative recursion of an ordered monomial
    product of blocks (k, re s, im s, size): every stage lowers each size by
    one and drops exhausted blocks.  Returns (total size, condition (i),
    condition (ii)) per stage; a block contributes (k, s + (size+1-2i)/2)."""
    stages = []
    current = list(blocks)
    while current:
        counts: Counter = Counter()
        for k, re, im, size in current:
            counts.update((k, re + Fraction(size + 1 - 2 * i, 2), im) for i in range(1, size + 1))
        stages.append((sum(b[3] for b in current), condition_i(counts), condition_ii(counts)))
        current = [(k, re, im, size - 1) for k, re, im, size in current if size > 1]
    return stages


# -- cosets ------------------------------------------------------------------------


def involution_count(n: int) -> int:
    """T(n) = T(n-1) + (n-1) T(n-2), T(0) = T(1) = 1."""
    a, b = 1, 1
    for j in range(2, n + 1):
        a, b = b, b + (j - 1) * a
    return b


# -- closed forms for the kernel checks (mpmath) ----------------------------


def closed_forms():
    """Reference values by mpmath at 30 digits, as complex numbers."""
    import mpmath as mp

    mp.mp.dps = 30

    def c(z):
        return complex(mp.mpc(z))

    def A(p):
        p = mp.mpc(p)
        return 2 * mp.sqrt(mp.pi) * mp.gamma((p + 1) / 2) / mp.gamma(p / 2 + 1)

    def case1(s):
        s = mp.mpc(s)
        return c(mp.beta((1 - s) / 2, (3 * s + 1) / 2) / 2 * A(1 + s))

    def case2(s):
        s = mp.mpc(s)
        return c(mp.beta(1 - s / 2, (3 * s + 2) / 2) / 2 * A(2 + s))

    def ratio1(s):
        return c(mp.power(2, -(1 + mp.mpc(s))))

    def ratio2(s):
        s = mp.mpc(s)
        return c(mp.power(2, -(1 + s)) / (s + 1))

    def beta_closed(a, b):
        a, b = mp.mpc(a), mp.mpc(b)
        return c(mp.power(2, a + b - 1) / mp.gamma(a + b))

    def radial(a, b):
        """integral over (0, inf) of r^a (1 + r^2)^-b dr."""
        a, b = mp.mpc(a), mp.mpc(b)
        return c(mp.beta((a + 1) / 2, b - (a + 1) / 2) / 2)

    return {
        "case1": case1,
        "case2": case2,
        "ratio1": ratio1,
        "ratio2": ratio2,
        "angular": lambda p: c(A(p)),
        "beta": beta_closed,
        "radial": radial,
        "gamma": lambda z: c(mp.gamma(mp.mpc(z))),
    }


def rel_err(got: complex, want: complex) -> float:
    if not (math.isfinite(got.real) and math.isfinite(got.imag)):
        return math.inf
    return abs(got - want) / abs(want)
