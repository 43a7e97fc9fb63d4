"""Highest-weight combinatorics for the unitary group of rank n.

An irreducible representation of U(n) is identified with its highest
weight, a weakly decreasing integer n-tuple, and every function here takes
and returns highest weights as plain tuples (``weight_multiplicity`` and
``is_o_distinguished`` check theirs).  This module provides:

*   the evenness test for carrying an O(n)-fixed vector,
*   the lowest K-type of a principal-series parameter and the construction
    of its distinguished minimal K-type (each odd entry value of even
    multiplicity 2c is replaced by c copies of value+1 and c of value-1),
*   an independent brute-force oracle for the distinguished minimal K-type,
    backed by exact weight multiplicities (counts of Gelfand-Tsetlin
    patterns).
"""

from __future__ import annotations

from itertools import accumulate, islice
from math import isqrt
from typing import Dict, Sequence, Set, Tuple

from .errors import PreconditionError
from .params import LanglandsParameter


class NotDistinguishedError(PreconditionError):
    """Raised when the even-multiplicity hypothesis on odd entries fails."""

    label = "precondition violated (even-multiplicity hypothesis)"


def _highest_weight(mu) -> Tuple[int, ...]:
    """``mu`` as a highest weight: a non-empty, weakly decreasing integer
    tuple; ValueError otherwise."""
    t = tuple(int(x) for x in mu)
    if not t:
        raise ValueError("a highest weight needs at least one entry")
    if any(a < b for a, b in zip(t, t[1:])):
        raise ValueError(f"entries must be weakly decreasing: {t}")
    return t


def is_o_distinguished(mu) -> bool:
    """True iff every entry is even (existence of an O(n)-fixed vector)."""
    return all(x % 2 == 0 for x in _highest_weight(mu))


def lowest_ktype(p: LanglandsParameter) -> Tuple[int, ...]:
    """Twist exponents of the parameter, sorted weakly decreasing."""
    return tuple(sorted((c.m for c in p.chars), reverse=True))


def distinguished_minimal_ktype(p: LanglandsParameter) -> Tuple[int, ...]:
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
    return tuple(sorted(out, reverse=True))


# -- exact weight multiplicities --------------------------------------------


def weight_multiplicity(mu, nu: Sequence[int]) -> int:
    """Dimension of the nu-weight space of the irreducible with highest
    weight mu: the number of Gelfand-Tsetlin patterns with top row mu whose
    row k sums to nu_1 + ... + nu_k (Gelfand-Tsetlin 1950).

    Row k-1 of a pattern interlaces row k: row[i+1] <= next[i] <= row[i].
    The count under each row is memoised for the length of this call only.
    """
    mu = _highest_weight(mu)
    nu = tuple(int(x) for x in nu)
    if len(nu) != len(mu):
        raise ValueError("weight length mismatch")
    if sum(mu) != sum(nu):
        return 0
    sums = list(accumulate(nu))
    memo: Dict[Tuple[int, ...], int] = {}

    def below(row: Tuple[int, ...]) -> int:
        k = len(row) - 1
        if k == 0:
            return 1
        if row in memo:
            return memo[row]

        def fill(prefix: Tuple[int, ...], rest: int) -> int:
            # Entry i runs only over values the later entries, each between
            # row[j+1] and row[j], can complete to the row sum.
            i = len(prefix)
            if i == k:
                return below(prefix)
            lo = max(row[i + 1], rest - sum(row[i + 1 : k]))
            hi = min(row[i], rest - sum(row[i + 2 :]))
            return sum(fill(prefix + (v,), rest - v) for v in range(lo, hi + 1))

        memo[row] = fill((), sums[k - 1])
        return memo[row]

    return below(mu)


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
                yield tuple(prefix + [rest])
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


# Caps on the oracle's work: the candidates grow fast with the radius (n = 6:
# 49 at radius 10, 99,650 at radius 60), and each costs a pattern count whose
# rows grow with n and with the spread of the candidate's entries.
# Criterion 5 (n <= 4, radius 8) stays well inside both.
ORACLE_MAX_RANK = 6
ORACLE_MAX_CANDIDATES = 64


def minimal_distinguished_ktype_oracle(
    p: LanglandsParameter, radius: int
) -> Set[Tuple[int, ...]]:
    """Brute-force minimal even K-types of the full principal series.

    A K-type mu occurs in the principal series iff the twist-exponent
    vector is a weight of mu (reciprocity for induction from the torus);
    even entries characterize O(n)-fixed vectors.  Among all even dominant
    mu of Euclidean norm at most ``radius`` with positive weight
    multiplicity at the exponent vector, the subset of minimal norm is
    returned (all minimizers, so a non-unique minimum is surfaced).

    Preconditions: n <= ORACLE_MAX_RANK, at most ORACLE_MAX_CANDIDATES
    candidate weights within the radius, and a minimizer among them;
    PreconditionError otherwise.
    """
    nu = lowest_ktype(p)
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
    best: Set[Tuple[int, ...]] = set()
    best_norm = None
    for mu in candidates:
        if weight_multiplicity(mu, nu) <= 0:
            continue
        nrm = sum(x * x for x in mu)
        if best_norm is None or nrm < best_norm:
            best = {mu}
            best_norm = nrm
        elif nrm == best_norm:
            best.add(mu)
    if not best:
        raise PreconditionError(
            f"no even K-type containing weight {nu} within radius {radius}"
        )
    return best

