"""Highest-weight combinatorics for the unitary group of rank n.

An irreducible representation of U(n) is identified with its highest
weight, a weakly decreasing integer n-tuple.  This module provides:

*   the evenness test for carrying an O(n)-fixed vector,
*   sorted concatenation of two highest weights (the K-type on which a
    product of two periods stays non-vanishing),
*   the lowest K-type of a principal-series parameter and the construction
    of its distinguished minimal K-type (each odd entry value of even
    multiplicity 2c is replaced by c copies of value+1 and c of value-1),
*   an independent brute-force oracle for the distinguished minimal K-type,
    backed by exact weight multiplicities (Kostant partition function with
    Weyl alternation), and
*   restriction multiplicities U(n+m) down to U(n) x U(m) by the
    Littlewood-Richardson rule, with the uniform-shift reduction that makes
    weights with negative entries into partitions.
"""

from __future__ import annotations

from itertools import islice, permutations
from math import isqrt
from typing import Dict, Iterable, Sequence, Set, Tuple

from .errors import PreconditionError
from .params import LanglandsParameter


class NotDistinguishedError(PreconditionError):
    """Raised when the even-multiplicity hypothesis on odd entries fails."""


class RadiusExhaustedError(PreconditionError):
    """Raised when no candidate weight exists within the search radius."""


class HighestWeight:
    """A weakly decreasing integer tuple."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[int]):
        t = tuple(int(x) for x in entries)
        if not t:
            raise ValueError("a highest weight needs at least one entry")
        if any(a < b for a, b in zip(t, t[1:])):
            raise ValueError(f"entries must be weakly decreasing: {t}")
        self.entries = t

    @classmethod
    def of(cls, x) -> "HighestWeight":
        return x if isinstance(x, HighestWeight) else cls(x)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        if isinstance(other, HighestWeight):
            return self.entries == other.entries
        if isinstance(other, tuple):
            return self.entries == other
        return NotImplemented

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"HighestWeight{self.entries}"

    def norm_sq(self) -> int:
        return sum(x * x for x in self.entries)

    def to_json(self) -> list:
        return list(self.entries)


def is_o_distinguished(mu) -> bool:
    """True iff every entry is even (existence of an O(n)-fixed vector)."""
    return all(x % 2 == 0 for x in HighestWeight.of(mu))


def concat_reorder(mu, gamma) -> HighestWeight:
    """The weakly decreasing merge of two highest weights."""
    merged = sorted(
        list(HighestWeight.of(mu)) + list(HighestWeight.of(gamma)), reverse=True
    )
    return HighestWeight(merged)


def lowest_ktype(p: LanglandsParameter) -> HighestWeight:
    """Twist exponents of the parameter, sorted weakly decreasing."""
    return HighestWeight(sorted((c.m for c in p.chars), reverse=True))


def distinguished_minimal_ktype(p: LanglandsParameter) -> HighestWeight:
    """Replace each odd entry value (even multiplicity 2c) of the lowest
    K-type by c copies of value+1 and c copies of value-1, then re-sort."""
    base = lowest_ktype(p)
    counts: Dict[int, int] = {}
    for v in base:
        counts[v] = counts.get(v, 0) + 1
    out = []
    for v, c in counts.items():
        if v % 2 == 0:
            out.extend([v] * c)
        else:
            if c % 2 == 1:
                raise NotDistinguishedError(
                    f"odd K-type entry {v} has odd multiplicity {c}; "
                    "the pairing condition fails and no distinguished "
                    "minimal K-type exists"
                )
            out.extend([v + 1] * (c // 2))
            out.extend([v - 1] * (c // 2))
    return HighestWeight(sorted(out, reverse=True))


# -- exact weight multiplicities --------------------------------------------

_KOSTANT_MEMO: Dict[tuple, int] = {}


def _kostant(beta: Tuple[int, ...]) -> int:
    """Number of ways to write beta as a nonnegative integer combination of
    the positive roots e_i - e_j (i < j)."""
    n = len(beta)
    if sum(beta) != 0:
        return 0
    roots = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def rec(vec: Tuple[int, ...], idx: int) -> int:
        if all(x == 0 for x in vec):
            return 1
        if idx == len(roots):
            return 0
        key = (vec, idx)
        cached = _KOSTANT_MEMO.get(key)
        if cached is not None:
            return cached
        i, j = roots[idx]
        # Subtracting c*(e_i - e_j) lowers the prefix sums over [i, j-1] by
        # c; every nonnegative root combination has nonnegative prefix sums,
        # so c is bounded by their minimum on that window.
        prefix = 0
        bound = None
        for l in range(j):
            prefix += vec[l]
            if l >= i:
                bound = prefix if bound is None else min(bound, prefix)
        total = 0
        if bound is not None and bound >= 0:
            lst = list(vec)
            for c in range(0, bound + 1):
                lst[i] = vec[i] - c
                lst[j] = vec[j] + c
                total += rec(tuple(lst), idx + 1)
        _KOSTANT_MEMO[key] = total
        return total

    return rec(tuple(beta), 0)


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def weight_multiplicity(mu, nu: Sequence[int]) -> int:
    """Dimension of the nu-weight space of the irreducible with highest
    weight mu, by Kostant's multiplicity formula.

    mult(nu) = sum over the Weyl group of sgn(w) * K(w(mu+rho) - (nu+rho)),
    with rho = (n-1, n-2, ..., 0) and K the partition count over positive
    roots.
    """
    mu = HighestWeight.of(mu)
    nu = tuple(int(x) for x in nu)
    n = len(mu)
    if len(nu) != n:
        raise ValueError("weight length mismatch")
    if sum(mu) != sum(nu):
        return 0
    rho = tuple(range(n - 1, -1, -1))
    shifted = tuple(m + r for m, r in zip(mu, rho))
    target = tuple(v + r for v, r in zip(nu, rho))
    total = 0
    for perm in permutations(range(n)):
        moved = tuple(shifted[perm[i]] for i in range(n))
        beta = tuple(a - b for a, b in zip(moved, target))
        if any(x < 0 for x in _prefix_sums(beta)):
            continue
        total += _perm_sign(perm) * _kostant(beta)
    return total


def _prefix_sums(vec: Sequence[int]):
    acc = 0
    for x in vec:
        acc += x
        yield acc


def _even_dominant_weights(n: int, radius: int, total: int):
    """Dominant weights with all entries even, Euclidean norm <= radius and
    prescribed entry sum (other sums carry multiplicity zero), in decreasing
    lexicographic order.

    Each entry v runs only over values the later entries can complete: with
    r entries left to sum to ``rest - v``, each at most v, v >= rest/(r+1);
    and as their squares sum to at least (rest-v)^2/r, v^2 + (rest-v)^2/r
    must fit in the norm left.  So a huge radius costs nothing until
    weights are actually produced.
    """

    def rec(prefix: list, room: int, rest: int):
        r = n - len(prefix) - 1
        hi = prefix[-1] if prefix else radius
        if r == 0:
            if rest <= hi and rest % 2 == 0 and rest * rest <= room:
                yield HighestWeight(prefix + [rest])
            return
        # (r+1) v^2 - 2 rest v + rest^2 - r room <= 0
        disc = r * ((r + 1) * room - rest * rest)
        if disc < 0:
            return
        v = min(hi, (rest + isqrt(disc)) // (r + 1))
        v -= v % 2
        low = -(-rest // (r + 1))
        while v >= low:
            yield from rec(prefix + [v], room - v * v, rest - v)
            v -= 2

    if total % 2 == 0:  # even entries never sum to an odd total
        yield from rec([], radius * radius, total)


# Caps on the oracle's work: each candidate costs a Weyl sum of n! terms, and
# the candidates grow fast with the radius (n = 6: 49 at radius 10, 99,650 at
# radius 60).  Criterion 5 (n <= 3, radius 8) stays well inside both.
ORACLE_MAX_RANK = 6
ORACLE_MAX_CANDIDATES = 64


def minimal_distinguished_ktype_oracle(
    p: LanglandsParameter, radius: int
) -> Set[HighestWeight]:
    """Brute-force minimal even K-types of the full principal series.

    A K-type mu occurs in the principal series iff the twist-exponent
    vector is a weight of mu (reciprocity for induction from the torus);
    even entries characterize O(n)-fixed vectors.  Among all even dominant
    mu of Euclidean norm at most ``radius`` with positive weight
    multiplicity at the exponent vector, the subset of minimal norm is
    returned (all minimizers, so a non-unique minimum is surfaced).

    Preconditions: n <= ORACLE_MAX_RANK, and at most ORACLE_MAX_CANDIDATES
    candidate weights within the radius; PreconditionError otherwise.
    """
    nu = tuple(sorted((c.m for c in p.chars), reverse=True))
    if len(nu) > ORACLE_MAX_RANK:
        raise PreconditionError(f"the K-type oracle supports n <= {ORACLE_MAX_RANK}, got n = {len(nu)}")
    if radius < max((abs(v) for v in nu), default=0):
        raise PreconditionError(
            "search radius must be at least the largest twist exponent"
        )
    candidates = list(
        islice(_even_dominant_weights(len(nu), radius, sum(nu)), ORACLE_MAX_CANDIDATES + 1)
    )
    if len(candidates) > ORACLE_MAX_CANDIDATES:
        raise PreconditionError(
            f"more than {ORACLE_MAX_CANDIDATES} candidate K-types within radius "
            f"{radius}; the oracle supports at most {ORACLE_MAX_CANDIDATES}"
        )
    best: Set[HighestWeight] = set()
    best_norm = None
    for mu in candidates:
        if weight_multiplicity(mu, nu) <= 0:
            continue
        nrm = mu.norm_sq()
        if best_norm is None or nrm < best_norm:
            best = {mu}
            best_norm = nrm
        elif nrm == best_norm:
            best.add(mu)
    if not best:
        raise RadiusExhaustedError(
            f"no even K-type containing weight {nu} within radius {radius}"
        )
    return best


# -- Littlewood-Richardson restriction ---------------------------------------


def _lr_skew_count(outer: Sequence[int], inner: Sequence[int], content: Sequence[int]) -> int:
    """Number of Littlewood-Richardson skew tableaux of shape outer/inner
    with the given content: semistandard filling whose reverse reading word
    is a lattice word."""
    rows = len(outer)
    cells = []
    for r in range(rows):
        lo = inner[r] if r < len(inner) else 0
        for col in range(outer[r] - 1, lo - 1, -1):
            cells.append((r, col))
    if sum(outer) - sum(inner) != sum(content):
        return 0
    values = len(content)
    grid: Dict[Tuple[int, int], int] = {}
    used = [0] * (values + 1)

    def rec(pos: int) -> int:
        if pos == len(cells):
            return 1
        r, col = cells[pos]
        above = grid.get((r - 1, col))
        right = grid.get((r, col + 1))
        total = 0
        for v in range(1, values + 1):
            if used[v] >= content[v - 1]:
                continue
            if v > 1 and used[v] + 1 > used[v - 1]:
                continue  # lattice word prefix violated
            if right is not None and v > right:
                continue  # rows weakly increase left to right
            if above is not None and v <= above:
                continue  # columns strictly increase downward
            grid[(r, col)] = v
            used[v] += 1
            total += rec(pos + 1)
            used[v] -= 1
            del grid[(r, col)]
        return total

    return rec(0)


def lr_restriction_multiplicity(sigma, mu, gamma) -> int:
    """Multiplicity of mu (x) gamma in sigma restricted to U(n) x U(m).

    All three weights are shifted by one common constant so they become
    partitions (a determinant twist on each factor, which leaves branching
    multiplicities unchanged), then counted by the Littlewood-Richardson
    rule.  Raises ValueError when len(sigma) != len(mu) + len(gamma).
    """
    sigma = HighestWeight.of(sigma)
    mu = HighestWeight.of(mu)
    gamma = HighestWeight.of(gamma)
    if len(sigma) != len(mu) + len(gamma):
        raise ValueError("rank mismatch: len(sigma) must be len(mu)+len(gamma)")
    shift = -min(min(sigma), min(mu), min(gamma), 0)
    s = [x + shift for x in sigma]
    a = [x + shift for x in mu]
    g = [x + shift for x in gamma]
    if sum(s) != sum(a) + sum(g):
        return 0
    a_padded = a + [0] * (len(s) - len(a))
    if any(a_padded[i] > s[i] for i in range(len(s))):
        return 0
    if any(x < 0 for x in g):
        return 0
    return _lr_skew_count(s, a_padded, g)
