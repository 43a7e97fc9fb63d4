"""Decision procedures for real-distinction of parameter data.

Two formulations must agree.  Both read a value only through ``partner()``
(kappa_{m,-s} for kappa_{m,s}, the u -> -u block for a block, the value
itself when ``self_paired``: s = 0, or u = 0), ``needs_even`` and ``size``.

*   On a parameter (multiset of characters kappa_{m,s}):
    condition (i): there is an involution w pairing each character with its
    partner, every fixed point taking the value 1 at -1 (m even, s = 0).
    Equivalently, by counting: each character not self-paired has its
    partner's multiplicity, and each self-paired one with ``needs_even``
    (m odd) has even multiplicity.
    condition (ii): every character with ``needs_even`` (m odd, s real and
    2s an integer) has even multiplicity.
    A unitary representation is distinguished iff (i) and (ii); a generic
    one iff (i) alone.

*   On a unitary block multiset: (i) each block not self-paired has its
    partner's multiplicity; (ii) each block with ``needs_even`` (a character
    block with u = 0 and odd k) has even multiplicity.

Genericity and unitarity of the input are caller-asserted; no
irreducibility test is performed here.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .params import (
    CharacterCx,
    LanglandsParameter,
    UnitaryRep,
    block_characters,
    sort_key,
)


class InvolutionWitness(NamedTuple):
    """An involution on 1-based positions of the normal-form character list.

    ``pairs`` are the two-cycles (i, j) with i < j; ``fixed`` the fixed
    points.  Together they partition {1..n}; each pair joins a character
    with its partner, and each fixed index carries s = 0 and even m.
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

    Decided by counting, as in the module docstring; only a parameter that
    passes gets position lists.  Indices of each character value are
    paired, in normal-form order, with indices of its partner; self-paired
    characters with ``needs_even`` pair among themselves, and the other
    self-paired ones stay fixed.
    """
    counts: dict = {}
    for c in p.chars:
        counts[c] = counts.get(c, 0) + 1
    for c, count in counts.items():
        if c.self_paired:
            if c.needs_even and count % 2:
                return False, None
        elif counts.get(c.partner()) != count:
            return False, None

    positions: dict = {}
    for idx, c in enumerate(p.chars, start=1):
        positions.setdefault(c, []).append(idx)
    pairs = []
    fixed = []
    for c, idxs in positions.items():
        if not c.self_paired:
            mates = positions[c.partner()]
            # Equal characters are adjacent in normal form, so the two runs
            # do not interleave: pair them once, from the earlier run.
            if idxs[0] < mates[0]:
                pairs.extend(zip(idxs, mates))
        elif c.needs_even:
            pairs.extend(zip(idxs[::2], idxs[1::2]))
        else:
            fixed.extend(idxs)
    witness = InvolutionWitness(tuple(sorted(pairs)), tuple(sorted(fixed)))
    return True, witness


def check_condition_ii(
    p: LanglandsParameter,
) -> Tuple[bool, Tuple[CharacterCx, ...]]:
    """Even multiplicity for every character with ``needs_even``."""
    counts: dict = {}
    for c in p.chars:
        if c.needs_even:
            counts[c] = counts.get(c, 0) + 1
    # The counts are in the order of p.chars, which is the normal form.
    failing = tuple([c for c, count in counts.items() if count % 2])
    return not failing, failing


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


def is_distinguished_blocks(rep: UnitaryRep) -> DistinctionVerdict:
    """Blockwise formulation on a unitary block multiset.

    condition_i here is the partner clause; condition_ii the even clause
    for the blocks with ``needs_even`` (character blocks with u = 0 and odd
    k).  ``failing_characters`` expands each block violating (ii) into its
    constituent characters (one copy each).
    """
    counts: dict = {}
    for b in rep.blocks:
        counts[b] = counts.get(b, 0) + 1
    cond_i = True
    failing: list = []
    for b, c in counts.items():
        if not b.self_paired:
            if cond_i and counts.get(b.partner()) != c:
                cond_i = False
        elif c % 2 and b.needs_even:
            failing.extend(block_characters(b))
    cond_ii = not failing
    if failing:
        failing.sort(key=sort_key)
    return DistinctionVerdict(
        cond_i and cond_ii, cond_i, cond_ii, None, tuple(failing)
    )


def has_exceptional_factor(rep: UnitaryRep) -> bool:
    """Detect blocks whose minimal-K-type non-vanishing guarantee is waived.

    True iff some block of size >= 2 has its ``needs_even`` flag set, that
    is a character block of size n >= 2 with odd k and u = 0; such a block
    contributes characters with m odd and nonzero half-integral exponent,
    the one family excluded from the test-vector statement.
    """
    return any(b.needs_even and b.size >= 2 for b in rep.blocks)
