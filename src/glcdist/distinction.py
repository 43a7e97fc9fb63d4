"""Decision procedures for real-distinction of parameter data.

Two formulations are implemented and must agree:

*   On a parameter (multiset of characters kappa_{m,s}):
    condition (i): there is an involution w pairing each character with its
    conjugate-inverse partner kappa_{m,-s}, every fixed point taking the
    value 1 at -1 (m even, s = 0).  Equivalently, by counting: for every
    (m, s) with s != 0 the multiplicities of kappa_{m,s} and kappa_{m,-s}
    agree, and every kappa_{m,0} with m odd has even multiplicity.
    condition (ii): every kappa_{m,s} with m odd, s real and 2s an integer
    has even multiplicity.
    A unitary representation is distinguished iff (i) and (ii); a generic
    one iff (i) alone.

*   On a unitary block multiset:
    (ia) character blocks with u != 0 pair in equal multiplicity with the
    u -> -u block of identical (n, k); (ib) likewise for complementary
    series blocks of identical (m, k, t); (ii) character blocks with u = 0
    and odd k have even multiplicity.

Genericity and unitarity of the input are caller-asserted; no
irreducibility test is performed here.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .params import (
    CharBlock,
    CharacterCx,
    LanglandsParameter,
    UnitaryRep,
    block_characters,
    sort_key,
)


class InvolutionWitness(NamedTuple):
    """An involution on 1-based positions of the normal-form character list.

    ``pairs`` are the two-cycles (i, j) with i < j; ``fixed`` the fixed
    points.  Together they partition {1..n}; each pair joins kappa_{m,s}
    with kappa_{m,-s}, and each fixed index carries s = 0 and even m.
    """

    pairs: Tuple[Tuple[int, int], ...]
    fixed: Tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "pairs": [list(ij) for ij in self.pairs],
            "fixed": list(self.fixed),
        }


class DistinctionVerdict(NamedTuple):
    distinguished: bool
    condition_i: bool
    condition_ii: bool
    witness: Optional[InvolutionWitness]
    failing_characters: Tuple[CharacterCx, ...]

    def to_json(self) -> dict:
        return {
            "distinguished": self.distinguished,
            "condition_i": self.condition_i,
            "condition_ii": self.condition_ii,
            "witness": self.witness.to_json() if self.witness else None,
            "failing_characters": [c.to_json() for c in self.failing_characters],
        }


def check_condition_i(
    p: LanglandsParameter,
) -> Tuple[bool, Optional[InvolutionWitness]]:
    """Pairing condition, with a greedy deterministic witness when it holds.

    Indices of each character value are paired, in normal-form order, with
    indices of the conjugate-inverse value; kappa_{m,0} with m odd pair
    among themselves, and kappa_{m,0} with m even stay fixed.
    """
    positions: dict = {}
    for idx, c in enumerate(p.chars, start=1):
        positions.setdefault(c, []).append(idx)

    pairs = []
    fixed = []
    for c, idxs in positions.items():
        if c.s_is_zero:
            if c.m % 2 == 0:
                fixed.extend(idxs)
            elif len(idxs) % 2:
                return False, None
            else:
                pairs.extend(
                    (idxs[t], idxs[t + 1]) for t in range(0, len(idxs), 2)
                )
        else:
            mates = positions.get(c.conj_inverse())
            if mates is None or len(mates) != len(idxs):
                return False, None
            # Equal characters are adjacent in normal form, so the two runs
            # do not interleave: pair them once, from the earlier run.
            if idxs[0] < mates[0]:
                pairs.extend(zip(idxs, mates))
    witness = InvolutionWitness(tuple(sorted(pairs)), tuple(sorted(fixed)))
    return True, witness


def check_condition_ii(
    p: LanglandsParameter,
) -> Tuple[bool, Tuple[CharacterCx, ...]]:
    """Even multiplicity for every kappa_{m,s} with m odd and 2s in Z."""
    counts: dict = {}
    for c in p.chars:
        if c.half_integral_odd:
            counts[c] = counts.get(c, 0) + 1
    failing = sorted((c for c, count in counts.items() if count % 2), key=sort_key)
    return not failing, tuple(failing)


def is_distinguished_generic(p: LanglandsParameter) -> DistinctionVerdict:
    """Distinction of an irreducible generic representation: condition (i).

    The caller asserts that the parameter belongs to an irreducible generic
    representation; that hypothesis is not checked here.
    """
    cond_i, witness = check_condition_i(p)
    cond_ii, failing = check_condition_ii(p)
    return DistinctionVerdict(cond_i, cond_i, cond_ii, witness, failing)


def is_distinguished_unitary(p: LanglandsParameter) -> DistinctionVerdict:
    """Distinction of an irreducible unitary representation: (i) and (ii)."""
    cond_i, witness = check_condition_i(p)
    cond_ii, failing = check_condition_ii(p)
    return DistinctionVerdict(
        cond_i and cond_ii, cond_i, cond_ii, witness, failing
    )


def _block_counts(rep: UnitaryRep) -> dict:
    counts: dict = {}
    for b in rep.blocks:
        counts[b] = counts.get(b, 0) + 1
    return counts


def is_distinguished_blocks(rep: UnitaryRep) -> DistinctionVerdict:
    """Blockwise formulation on a unitary block multiset.

    condition_i here is (ia) and (ib); condition_ii the even-multiplicity
    clause for u = 0 blocks of odd k.  ``failing_characters`` expands each
    block violating (ii) into its constituent characters (one copy each).
    """
    counts = _block_counts(rep)
    cond_i = True
    cond_ii = True
    failing: list = []
    for b, c in counts.items():
        if not b.u_is_zero:
            if counts.get(b.mirror(), 0) != c:
                cond_i = False
        elif isinstance(b, CharBlock) and b.k % 2 == 1 and c % 2 == 1:
            cond_ii = False
            failing.extend(block_characters(b))
    failing.sort(key=sort_key)
    return DistinctionVerdict(
        cond_i and cond_ii, cond_i, cond_ii, None, tuple(failing)
    )


def has_exceptional_factor(rep: UnitaryRep) -> bool:
    """Detect blocks whose minimal-K-type non-vanishing guarantee is waived.

    True iff some character block of size n >= 2 with odd k and u = 0
    appears; such a block contributes characters with m odd and nonzero
    half-integral exponent, the one family excluded from the test-vector
    statement.
    """
    return any(
        isinstance(b, CharBlock) and b.n >= 2 and b.k % 2 == 1 and b.u_is_zero
        for b in rep.blocks
    )
