"""Exact arithmetic over the rationals and the Gaussian rationals Q(i).

All scalars used by the classification and coset machinery live here: plain
rationals are ``fractions.Fraction`` (already canonical: lowest terms,
positive denominator, arbitrary precision) and a Gaussian rational is a pair
of Fractions.  The one non-trivial operation is ``integer_rank``, the rank
over Q of integer rows by fraction-free (Bareiss) elimination;
``real_rank`` applies it to complex n-by-n matrices taken as real
2n^2-dimensional integer vectors, whose rows the caller (``cosets``) builds.
Exact input from outside the program is read here too, by ``read_int`` and
``read_rational``, which refuse more than MAX_INPUT_DIGITS digits.

Everything is immutable after construction and every function is pure.
Every value type of the package, the containers of characters and blocks
included, derives from ``Frozen``: slots set once by the constructor,
equality, hash and repr by field (by identity for interned ones).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

from .errors import InputError, PreconditionError, shown

RationalLike = Union[int, Fraction, str]

# Sign, then p and q without their leading zeros (but one zero left of 0).
_RATIONAL_TEXT = re.compile(r"([+-]?)0*([0-9]+)(?:/0*([0-9]+))?")

# Cap on the decimal digits of an integer, numerator or denominator read from
# outside: what is derived from one (a twist + 1, t/2, a sum of block sizes)
# then stays within CPython's 4,300-digit limit on int-to-str conversion.
MAX_INPUT_DIGITS = 4000
_INPUT_BOUND = 10**MAX_INPUT_DIGITS


def _too_long(what: str) -> PreconditionError:
    return PreconditionError(f"{what} has more than MAX_INPUT_DIGITS = {MAX_INPUT_DIGITS} decimal digits")


def _capped(value: int, what: str) -> int:
    if -_INPUT_BOUND < value < _INPUT_BOUND:
        return value
    raise _too_long(what)


def read_int(value, what: str = "value") -> int:
    """The one reader of integers from outside the program.

    Only an int that is not a bool (a JSON integer) is accepted; floats,
    booleans, strings and anything else raise InputError, and more than
    MAX_INPUT_DIGITS digits PreconditionError.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return _capped(value, what)
    raise InputError(f"{what} must be an integer, got {shown(repr(value))}")


def read_rational(value, what: str = "value") -> Fraction:
    """The one reader of rationals from outside the program.

    Accepts an int that is not a bool, or the text "p" or "p/q" in decimal
    digits (a sign only on p, surrounding spaces allowed) with q != 0.
    Floats, booleans, zero denominators and anything else raise InputError;
    a p or q of more than MAX_INPUT_DIGITS digits, leading zeros not
    counted, raises PreconditionError before any digit is converted.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(_capped(value, what))
    if isinstance(value, str):
        match = _RATIONAL_TEXT.fullmatch(value.strip())
        if match:
            sign, p, q = match.groups(default="1")
            if max(len(p), len(q)) > MAX_INPUT_DIGITS:
                raise _too_long(what)
            if q != "0":
                return Fraction(int(sign + p), int(q))
    raise InputError(f'{what} must be an integer or a rational "p/q", got {shown(repr(value))}')


class Frozen:
    """Base of the immutable value types.

    A subclass lists its attributes in ``__slots__``, its fields (a prefix
    or all of them) in ``_fields``, and sets each slot once in its
    constructor with ``object.__setattr__``; any other assignment or
    deletion raises AttributeError.  Two objects of the same class are
    equal when their fields are, the hash is that of the fields' tuple, and
    the repr is ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class GaussianRational(Frozen):
    """An element re + im*i of Q(i), with exact component-wise equality."""

    __slots__ = _fields = ("re", "im")
    re: Fraction
    im: Fraction

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        # Fractions first: every arithmetic result comes through here.
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else read_rational(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else read_rational(im))

    # -- field operations -------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return self + (-_coerce(other))

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inv(self) -> "GaussianRational":
        """Multiplicative inverse; raises ZeroDivisionError at 0."""
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __pow__(self, exponent: int) -> "GaussianRational":
        """Integer power by repeated squaring: O(log |exponent|) products."""
        if not isinstance(exponent, int):
            raise TypeError("only integer powers are exact")
        base = self if exponent >= 0 else self.inv()
        exponent = abs(exponent)
        result = GQ_ONE
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def norm_sq(self) -> Fraction:
        """|z|^2 = re^2 + im^2, a rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates and conversions ---------------------------------------

    def is_zero(self) -> bool:
        return not (self.re.numerator or self.im.numerator)

    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!s}, {self.im!s})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        return f"{self.re}+{self.im}i" if self.im > 0 else f"{self.re}{self.im}i"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    @classmethod
    def parse(cls, obj) -> "GaussianRational":
        """Accept {"re": "p/q", "im": "p/q"}, a bare rational string, or an int."""
        if isinstance(obj, dict):
            return cls(
                read_rational(obj.get("re", "0"), '"re"'),
                read_rational(obj.get("im", "0"), '"im"'),
            )
        return cls(read_rational(obj, "a Gaussian rational"))


def _coerce(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise TypeError(f"cannot coerce {value!r} into Q(i)")


GQ_ONE = GaussianRational(1)
GQ_I = GaussianRational(0, 1)


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over Q of a matrix given by integer rows, by fraction-free
    (Bareiss) elimination on a copy: the argument is left unchanged.

    Divisions are exact by the Sylvester identity; intermediates stay as
    minors of the original matrix, so there is no coefficient explosion
    beyond determinant size.
    """
    rows = [list(row) for row in rows]
    if not rows:
        return 0
    m, n = len(rows), len(rows[0])
    prev = 1
    pivot_row = 0
    for col in range(n):
        if pivot_row >= m:
            break
        swap = next((r for r in range(pivot_row, m) if rows[r][col] != 0), None)
        if swap is None:
            continue
        rows[pivot_row], rows[swap] = rows[swap], rows[pivot_row]
        p = rows[pivot_row][col]
        for r in range(pivot_row + 1, m):
            factor = rows[r][col]
            for c in range(col + 1, n):
                rows[r][c] = (rows[r][c] * p - factor * rows[pivot_row][c]) // prev
            rows[r][col] = 0
        prev = p
        pivot_row += 1
    return pivot_row


def real_rank(vectors: Iterable[Sequence[int]], n: int) -> int:
    """Dimension over R of the span of complex n-by-n matrices, exactly.

    Each matrix comes as its 2n^2 realified integer coordinates (re, im per
    entry, row-major), and the rank is computed over Q.  Raises ValueError
    for a vector of any other length.
    """
    size = 2 * n * n
    rows = list(vectors)
    for row in rows:
        if len(row) != size:
            raise ValueError(f"expected the {size} coordinates of a {n}x{n} matrix, got {len(row)}")
    return integer_rank(rows)
