"""Involutions, explicit double-coset representatives, and orbit dimensions.

The Borel double cosets on the symmetric space attached to the pair
(complex group, real form) are indexed by the involutions of the symmetric
group; an involution w built from disjoint transpositions (k, l) has the
explicit Gaussian-integer representative g_w: the identity except for the
2x2 pattern [[1, i], [i, 1]] spread over rows/columns k and l.

For a standard parabolic given by a composition of n, two involutions
represent the same double coset iff they lie in a common Young-subgroup
double coset.  Both the classes and their dimensions are read off in
closed form:

- A Young double coset is determined by its block-count matrix, the number
  of i with i in block a and w(i) in block b; the involutions are grouped
  by that matrix.
- The orbit of the parabolic times the real form through g_w has real
  dimension 2n^2 - n(n-1)/2 + max l(v), the max over the involutions v of
  w's class, for l the number of inversions (the length-function picture of
  Matsuki, J. Math. Soc. Japan 31 (1979), and Richardson-Springer, Geom.
  Dedicata 35 (1990)).  The open orbit is the unique class of dimension
  2n^2.

The formula is checked against an independent oracle, ``orbit_dimension``:
the exact real rank of the tangent space p g_w + g_w h (parabolic
subalgebra p, real form h), whose spanning matrices are rows and columns of
g_w copied into place.

This module decides how a complex matrix is represented: a tuple of rows of
Gaussian integers; for ``exactnum.real_rank``, its 2n^2 integer
coordinates; and, for the invertibility check by ``exactnum.integer_rank``,
its 2n-by-2n real form.  Nothing here inverts or multiplies matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Tuple

from .errors import PreconditionError
from .exactnum import GQ_I, GQ_ONE, GQ_ZERO, GaussianRational, integer_rank, real_rank

_MAX_ENUM_N = 10
_MAX_CLASS_N = 8


@dataclass(frozen=True)
class Involution:
    """A self-inverse permutation of {1..n}, stored in one-line notation."""

    perm: Tuple[int, ...]

    def __post_init__(self):
        p = tuple(int(x) for x in self.perm)
        object.__setattr__(self, "perm", p)
        n = len(p)
        if sorted(p) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {p}")
        if any(p[p[i] - 1] != i + 1 for i in range(n)):
            raise ValueError(f"not an involution: {p}")

    @property
    def n(self) -> int:
        return len(self.perm)

    def __call__(self, i: int) -> int:
        return self.perm[i - 1]

    def transpositions(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(
            (i + 1, self.perm[i]) for i in range(self.n) if self.perm[i] > i + 1
        )

    def to_json(self) -> list:
        return list(self.perm)

    def __repr__(self):
        return f"Involution{self.perm}"

    @classmethod
    def from_transpositions(cls, n: int, swaps: Iterable[Tuple[int, int]]) -> "Involution":
        perm = list(range(1, n + 1))
        for k, l in swaps:
            perm[k - 1], perm[l - 1] = l, k
        return cls(tuple(perm))


@lru_cache(maxsize=None)
def enumerate_involutions(n: int) -> Tuple[Involution, ...]:
    """All involutions of {1..n}, sorted by one-line notation.

    The count obeys T(n) = T(n-1) + (n-1) T(n-2).  Each n is built once
    (n is capped at _MAX_ENUM_N, so the cache holds at most that many
    tuples).
    """
    if not 1 <= n <= _MAX_ENUM_N:
        raise PreconditionError(f"n must lie in 1..{_MAX_ENUM_N}, got {n}")

    def build(points: tuple) -> List[tuple]:
        if not points:
            return [()]
        last = points[-1]
        out = [pairs for pairs in build(points[:-1])]
        for idx in range(len(points) - 1):
            rest = points[:idx] + points[idx + 1 : -1]
            out.extend(pairs + ((points[idx], last),) for pairs in build(rest))
        return out

    invs = [
        Involution.from_transpositions(n, pairs)
        for pairs in build(tuple(range(1, n + 1)))
    ]
    invs.sort(key=lambda w: w.perm)
    return tuple(invs)


Matrix = Tuple[Tuple[GaussianRational, ...], ...]
Pair = Tuple[int, int]


def representative(w: Involution) -> Matrix:
    """The explicit representative g_w, as n rows: the identity, with entries
    (k,k)=(l,l)=1 and (k,l)=(l,k)=sqrt(-1) for each transposition (k,l)."""
    n = w.n
    rows = [[GQ_ONE if i == j else GQ_ZERO for j in range(n)] for i in range(n)]
    for k, l in w.transpositions():
        rows[k - 1][l - 1] = GQ_I
        rows[l - 1][k - 1] = GQ_I
    return tuple(tuple(row) for row in rows)


def _integer_pairs(g: Matrix) -> List[List[Pair]]:
    """The entries of a Gaussian-integer matrix as (re, im) integer pairs."""
    if any(x.re.denominator != 1 or x.im.denominator != 1 for row in g for x in row):
        raise ValueError("expected a matrix of Gaussian integers")
    return [[(int(x.re), int(x.im)) for x in row] for row in g]


def _times_i(z: Pair) -> Pair:
    return (-z[1], z[0])


def _mul(x: Pair, y: Pair) -> Pair:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _matrix(n: int, cells: Iterable[Tuple[Pair, Pair]]) -> List[int]:
    """The 2n^2 coordinates ``real_rank`` takes (re, im per entry, row-major)
    of the n-by-n matrix with the given ((row, col), entry) cells, zero
    elsewhere."""
    vec = [0] * (2 * n * n)
    for (a, b), (re, im) in cells:
        vec[2 * (a * n + b)] = re
        vec[2 * (a * n + b) + 1] = im
    return vec


def in_torus_translate(g: Matrix, w: Involution) -> bool:
    """Check exactly that g conj(g)^{-1} lies in w T, i.e. equals the
    permutation matrix of w times an invertible diagonal matrix, for an
    n-by-n Gaussian-integer matrix g given by rows.

    Stated without an inverse, this is g = (w t) conj(g) with g invertible:
    row w(j) of g is a multiple of conj(row j of g) for every j.  g is
    invertible iff column k of g and sqrt(-1) times it, over all k, span
    R^2n: the 2n integer rows (Re col_k, Im col_k) and (-Im col_k, Re col_k)
    of the realification have rank 2n.
    """
    n = w.n
    z = _integer_pairs(g)
    rows = []
    for k in range(n):
        re = [z[a][k][0] for a in range(n)]
        im = [z[a][k][1] for a in range(n)]
        rows.append(re + im)
        rows.append([-x for x in im] + re)
    if integer_rank(rows) != 2 * n:
        return False
    for j in range(n):
        u = z[w(j + 1) - 1]
        v = [(re, -im) for re, im in z[j]]
        # u is a multiple of v != 0 iff every 2x2 minor of (u; v) vanishes.
        if any(
            _mul(u[a], v[b]) != _mul(u[b], v[a])
            for a in range(n)
            for b in range(a + 1, n)
        ):
            return False
    return True


def verify_representative(w: Involution) -> bool:
    """Check exactly that g_w conj(g_w)^{-1} lies in w T."""
    return in_torus_translate(representative(w), w)


@dataclass(frozen=True)
class Composition:
    """Positive parts summing to n; fixes a standard parabolic subgroup."""

    parts: Tuple[int, ...]

    def __post_init__(self):
        p = tuple(int(x) for x in self.parts)
        object.__setattr__(self, "parts", p)
        if not p or any(x < 1 for x in p):
            raise PreconditionError(f"composition parts must be positive, got {p}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def block_of(self) -> List[int]:
        """Map 0-based position -> block index."""
        out = []
        for b, size in enumerate(self.parts):
            out.extend([b] * size)
        return out


def parabolic_classes(n: int, comp: Composition) -> List[List[Involution]]:
    """Partition the involutions into Young-subgroup double cosets.

    Two involutions are equivalent iff one is sigma w sigma' for sigma,
    sigma' in the Young subgroup of ``comp``, that is iff their block-count
    matrices agree (the sorted pairs (block of i, block of w(i))).  Classes
    are sorted by, and listed with, their lexicographically minimal member
    first.
    """
    if comp.n != n:
        raise PreconditionError("composition must sum to n")
    if n > _MAX_CLASS_N:
        raise PreconditionError(f"parabolic classes supported for n <= {_MAX_CLASS_N}")
    block = comp.block_of()
    classes: dict = {}
    for w in enumerate_involutions(n):
        key = tuple(sorted((block[i], block[j - 1]) for i, j in enumerate(w.perm)))
        classes.setdefault(key, []).append(w)
    return list(classes.values())


def orbit_dimension(w: Involution, comp: Composition) -> int:
    """Real dimension of the parabolic-times-real-form orbit through g_w.

    This is the exact rank of the orbit's tangent space at g = g_w, which
    is p g + g h for the parabolic subalgebra p and the real form h.  It is
    spanned by E_ij g and sqrt(-1) E_ij g for block(i) <= block(j) (row j
    of g in row i) and by g E_ij (column i of g in column j), so no inverse
    or product is needed.  Right multiplication by g is an R-linear
    bijection, so this is also the dimension of p + g h g^{-1}; the orbit
    is open iff the result is 2 n^2.
    """
    n = w.n
    if comp.n != n:
        raise PreconditionError("composition must sum to n")
    z = _integer_pairs(representative(w))
    block = comp.block_of()
    vectors = []
    for i in range(n):
        for j in range(n):
            if block[i] <= block[j]:
                vectors.append(_matrix(n, (((i, b), z[j][b]) for b in range(n))))
                vectors.append(_matrix(n, (((i, b), _times_i(z[j][b])) for b in range(n))))
            vectors.append(_matrix(n, (((a, j), z[a][i]) for a in range(n))))
    return real_rank(vectors, n)


def _inversions(w: Involution) -> int:
    p = w.perm
    return sum(1 for i, x in enumerate(p) for y in p[i + 1 :] if x > y)


def class_dimensions(classes: List[List[Involution]]) -> List[int]:
    """The orbit dimension of each class, 2n^2 - n(n-1)/2 + max l(v) over
    its members v, for l the number of inversions."""
    dims = []
    for cls in classes:
        n = cls[0].n
        dims.append(2 * n * n - n * (n - 1) // 2 + max(_inversions(v) for v in cls))
    return dims
