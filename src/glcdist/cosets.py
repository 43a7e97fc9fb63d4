"""Involutions, explicit double-coset representatives, and orbit dimensions.

The Borel double cosets on the symmetric space attached to the pair
(complex group, real form) are indexed by the involutions of the symmetric
group, here tuples in one-line notation (w[i-1] = w(i)).  An involution w
built from disjoint transpositions (k, l) has the explicit Gaussian-integer
representative g_w: the identity except for the 2x2 pattern [[1, i], [i, 1]]
spread over rows/columns k and l.

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

Every matrix here has Gaussian-integer entries, each an (re, im) pair of
ints, and is given as a tuple of rows.  ``exactnum.real_rank`` takes its
2n^2 integer coordinates and the invertibility check by
``exactnum.integer_rank`` its 2n-by-2n real form.  Nothing here inverts or
multiplies matrices.  ``representatives_verified`` checks all g_w on n
letters once per process, up to _MAX_VERIFY_N letters.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Optional, Tuple

from .errors import PreconditionError, shown
from .exactnum import Frozen, integer_rank, real_rank

_MAX_ENUM_N = 10
_MAX_VERIFY_N = 7


@lru_cache(maxsize=None)
def enumerate_involutions(n: int) -> Tuple[Tuple[int, ...], ...]:
    """All involutions of {1..n}, as tuples in one-line notation, in that order.

    The smallest unassigned point is fixed first, then swapped with each
    larger unassigned point in ascending order, which is that order.  The
    count obeys T(n) = T(n-1) + (n-1) T(n-2).  Each n is built once (n is
    capped at _MAX_ENUM_N, so the cache holds at most that many tuples).
    Only involutions are built, so none is checked again; the entry points
    ``representative`` and ``in_torus_translate`` check a caller's.
    """
    if not 1 <= n <= _MAX_ENUM_N:
        raise PreconditionError(f"n must lie in 1..{_MAX_ENUM_N}, got {shown(repr(n))}")
    perm = list(range(1, n + 1))
    out = []

    def build(free: tuple) -> None:
        if not free:
            out.append(tuple(perm))
            return
        p, rest = free[0], free[1:]
        build(rest)
        for idx, q in enumerate(rest):
            perm[p - 1], perm[q - 1] = q, p
            build(rest[:idx] + rest[idx + 1 :])
            perm[p - 1], perm[q - 1] = p, q

    build(tuple(perm))
    return tuple(out)


Pair = Tuple[int, int]
Matrix = Tuple[Tuple[Pair, ...], ...]


def _involution(w: Tuple[int, ...]) -> int:
    """n, for an involution w of 1..n in one-line notation; else ValueError."""
    n = len(w)
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {w}")
    if any(w[w[i] - 1] != i + 1 for i in range(n)):
        raise ValueError(f"not an involution: {w}")
    return n


def representative(w: Tuple[int, ...]) -> Matrix:
    """The explicit representative g_w, as n rows of (re, im) pairs: the
    identity, with entries (k,k)=(l,l)=1 and (k,l)=(l,k)=sqrt(-1) for each
    transposition (k,l)."""
    n = _involution(w)
    return tuple(
        tuple((1, 0) if j == i else (0, 1) if j == w[i] - 1 else (0, 0) for j in range(n)) for i in range(n)
    )


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


def in_torus_translate(g: Matrix, w: Tuple[int, ...]) -> bool:
    """Check exactly that g conj(g)^{-1} lies in w T, i.e. equals the
    permutation matrix of w times an invertible diagonal matrix, for an
    n-by-n Gaussian-integer matrix g given by rows.

    Stated without an inverse, this is g = (w t) conj(g) with g invertible:
    row w(j) of g is a multiple of conj(row j of g) for every j.  g is
    invertible iff column k of g and sqrt(-1) times it, over all k, span
    R^2n: the 2n integer rows (Re col_k, Im col_k) and (-Im col_k, Re col_k)
    of the realification have rank 2n.
    """
    n = _involution(w)
    rows = []
    for k in range(n):
        re = [g[a][k][0] for a in range(n)]
        im = [g[a][k][1] for a in range(n)]
        rows.append(re + im)
        rows.append([-x for x in im] + re)
    if integer_rank(rows) != 2 * n:
        return False
    for j in range(n):
        u = g[w[j] - 1]
        v = [(re, -im) for re, im in g[j]]
        # u is a multiple of v != 0 iff every 2x2 minor of (u; v) vanishes.
        if any(
            _mul(u[a], v[b]) != _mul(u[b], v[a])
            for a in range(n)
            for b in range(a + 1, n)
        ):
            return False
    return True


def verify_representative(w: Tuple[int, ...]) -> bool:
    """Check exactly that g_w conj(g_w)^{-1} lies in w T."""
    return in_torus_translate(representative(w), w)


@lru_cache(maxsize=None)
def representatives_verified(n: int) -> Optional[bool]:
    """Whether every representative g_w on n letters passes
    ``verify_representative``, or None past _MAX_VERIFY_N letters, where the
    check is skipped.  A bad n raises before anything is cached, so the
    cache holds at most _MAX_ENUM_N answers."""
    involutions = enumerate_involutions(n)
    if n > _MAX_VERIFY_N:
        return None
    return all(verify_representative(w) for w in involutions)


class Composition(Frozen):
    """Positive parts summing to n; fixes a standard parabolic subgroup."""

    __slots__ = _fields = ("parts",)
    parts: Tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        p = tuple(int(x) for x in parts)
        if not p or any(x < 1 for x in p):
            raise PreconditionError(f"composition parts must be positive, got {shown(repr(p))}")
        object.__setattr__(self, "parts", p)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def block_of(self) -> List[int]:
        """Map 0-based position -> block index."""
        out = []
        for b, size in enumerate(self.parts):
            out.extend([b] * size)
        return out


def parabolic_classes(comp: Composition) -> List[List[Tuple[int, ...]]]:
    """Partition the involutions into Young-subgroup double cosets.

    Two involutions are equivalent iff one is sigma w sigma' for sigma,
    sigma' in the Young subgroup of ``comp``, that is iff their block-count
    matrices agree (the sorted pairs (block of i, block of w(i))).  Classes
    are sorted by, and listed with, their lexicographically minimal member
    first.  Only n = comp.n is bounded, by ``enumerate_involutions``.
    """
    block = comp.block_of()
    classes: dict = {}
    for w in enumerate_involutions(comp.n):
        key = tuple(sorted((block[i], block[j - 1]) for i, j in enumerate(w)))
        classes.setdefault(key, []).append(w)
    return list(classes.values())


def orbit_dimension(w: Tuple[int, ...], comp: Composition) -> int:
    """Real dimension of the parabolic-times-real-form orbit through g_w.

    This is the exact rank of the orbit's tangent space at g = g_w, which
    is p g + g h for the parabolic subalgebra p and the real form h.  It is
    spanned by E_ij g and sqrt(-1) E_ij g for block(i) <= block(j) (row j
    of g in row i) and by g E_ij (column i of g in column j), so no inverse
    or product is needed.  Right multiplication by g is an R-linear
    bijection, so this is also the dimension of p + g h g^{-1}; the orbit
    is open iff the result is 2 n^2.
    """
    n = len(w)
    if comp.n != n:
        raise PreconditionError("composition must sum to n")
    z = representative(w)
    block = comp.block_of()
    vectors = []
    for i in range(n):
        for j in range(n):
            if block[i] <= block[j]:
                vectors.append(_matrix(n, (((i, b), z[j][b]) for b in range(n))))
                vectors.append(_matrix(n, (((i, b), _times_i(z[j][b])) for b in range(n))))
            vectors.append(_matrix(n, (((a, j), z[a][i]) for a in range(n))))
    return real_rank(vectors, n)


def _inversions(w: Tuple[int, ...]) -> int:
    return sum(1 for i, x in enumerate(w) for y in w[i + 1 :] if x > y)


def class_dimensions(classes: List[List[Tuple[int, ...]]]) -> List[int]:
    """The orbit dimension of each class, 2n^2 - n(n-1)/2 + max l(v) over
    its members v, for l the number of inversions."""
    dims = []
    for cls in classes:
        n = len(cls[0])
        dims.append(2 * n * n - n * (n - 1) // 2 + max(_inversions(v) for v in cls))
    return dims
