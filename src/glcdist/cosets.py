"""Involutions, explicit double-coset representatives, and orbit dimensions.

The Borel double cosets on the symmetric space attached to the pair
(complex group, real form) are indexed by the involutions of the symmetric
group; an involution w built from disjoint transpositions (k, l) has the
explicit Gaussian-integer representative g_w: the identity except for the
2x2 pattern [[1, i], [i, 1]] spread over rows/columns k and l.

For a standard parabolic given by a composition of n, two involutions
represent the same double coset iff they lie in a common Young-subgroup
double coset; classes are computed by breadth-first closure (the closure
runs over all permutations in the double coset, then keeps the
involutions).  Orbit dimensions come from exact real ranks of Lie-algebra
spans at the representative; the open orbit is the unique class of full
dimension 2n^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from .errors import PreconditionError
from .exactnum import ExactMatrix, GQ_I, GQ_ONE, GQ_ZERO, real_rank

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


def enumerate_involutions(n: int) -> List[Involution]:
    """All involutions of {1..n}, sorted by one-line notation.

    The count obeys T(n) = T(n-1) + (n-1) T(n-2).
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
    return invs


def representative(w: Involution) -> ExactMatrix:
    """The explicit representative g_w: identity, with entries
    (k,k)=(l,l)=1 and (k,l)=(l,k)=sqrt(-1) for each transposition (k,l)."""
    n = w.n
    entries = [
        [GQ_ONE if i == j else GQ_ZERO for j in range(n)] for i in range(n)
    ]
    for k, l in w.transpositions():
        entries[k - 1][l - 1] = GQ_I
        entries[l - 1][k - 1] = GQ_I
    return ExactMatrix(entries)


def verify_representative(w: Involution) -> bool:
    """Check exactly that g_w conj(g_w)^{-1} lies in w T, i.e. equals the
    permutation matrix of w times an invertible diagonal matrix."""
    g = representative(w)
    m = g @ g.conj().inverse()
    n = w.n
    for j in range(1, n + 1):
        target_row = w(j)
        for i in range(1, n + 1):
            entry = m[(i - 1, j - 1)]
            if i == target_row:
                if entry.is_zero():
                    return False
            elif not entry.is_zero():
                return False
    return True


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

    def young_adjacent_transpositions(self) -> List[int]:
        """0-based positions i such that (i+1, i+2) swaps inside one block;
        these generate the Young subgroup."""
        gens = []
        offset = 0
        for size in self.parts:
            gens.extend(range(offset, offset + size - 1))
            offset += size
        return gens


def _apply_left(gen: int, perm: tuple) -> tuple:
    """Compose with the adjacent transposition on values gen+1, gen+2."""
    a, b = gen + 1, gen + 2
    return tuple(b if x == a else a if x == b else x for x in perm)


def _apply_right(gen: int, perm: tuple) -> tuple:
    """Compose with the adjacent transposition on positions gen, gen+1."""
    lst = list(perm)
    lst[gen], lst[gen + 1] = lst[gen + 1], lst[gen]
    return tuple(lst)


def parabolic_classes(n: int, comp: Composition) -> List[List[Involution]]:
    """Partition the involutions into Young-subgroup double cosets.

    Two involutions are equivalent iff one is sigma w sigma' for sigma,
    sigma' in the Young subgroup of ``comp``; the closure is taken over the
    whole double coset (which contains non-involutions) and the involutions
    in it form one class.  Classes are sorted by, and listed with, their
    lexicographically minimal member first.
    """
    if comp.n != n:
        raise PreconditionError("composition must sum to n")
    if n > _MAX_CLASS_N:
        raise PreconditionError(f"parabolic classes supported for n <= {_MAX_CLASS_N}")
    gens = comp.young_adjacent_transpositions()
    involutions = [w.perm for w in enumerate_involutions(n)]
    unassigned = set(involutions)
    classes = []
    for start in involutions:
        if start not in unassigned:
            continue
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    for q in (_apply_left(g, p), _apply_right(g, p)):
                        if q not in seen:
                            seen.add(q)
                            nxt.append(q)
            frontier = nxt
        members = sorted(q for q in seen if q in unassigned)
        unassigned.difference_update(members)
        classes.append([Involution(q) for q in members])
    classes.sort(key=lambda cls: cls[0].perm)
    return classes


def _parabolic_basis(n: int, comp: Composition) -> List[ExactMatrix]:
    """Real basis of the block-upper-triangular complex subalgebra."""
    block = comp.block_of()
    basis = []
    for i in range(n):
        for j in range(n):
            if block[i] <= block[j]:
                basis.append(ExactMatrix.unit(n, i, j, GQ_ONE))
                basis.append(ExactMatrix.unit(n, i, j, GQ_I))
    return basis


def orbit_dimension(w: Involution, comp: Composition) -> int:
    """Real dimension of the parabolic-times-real-form orbit through g_w.

    Computed as the exact rank of a spanning set of the sum of the
    parabolic subalgebra and the conjugate by g_w of the real-form
    subalgebra; the orbit is open iff the result is 2 n^2.
    """
    n = w.n
    if comp.n != n:
        raise PreconditionError("composition must sum to n")
    vectors = _parabolic_basis(n, comp)
    g = representative(w)
    ginv = g.inverse()
    for i in range(n):
        for j in range(n):
            # g E_ij g^{-1} is the outer product of column i of g with row
            # j of g^{-1}; assembled directly instead of two full products.
            entries = [
                [g[(a, i)] * ginv[(j, b)] for b in range(n)] for a in range(n)
            ]
            vectors.append(ExactMatrix(entries))
    return real_rank(vectors, n)


def is_open_orbit(w: Involution, comp: Composition) -> bool:
    return orbit_dimension(w, comp) == 2 * w.n * w.n
