"""Highest derivatives of monomial products and the necessity test.

A monomial representation is an ordered product of character blocks
(k, s, size), each the character (det/|det|)^k |det|^(2s) on its size; the
depth equals the number of blocks.  Its highest derivative is the same
product with every size lowered by one (blocks reaching size zero vanish),
the character data unchanged.

Iterating the highest derivative and testing the pairing condition at every
stage gives a necessity test: a failed stage certifies non-distinction for
unitary inputs whose stage-0 parameter satisfies the pairing condition.
The converse direction is not asserted.  ``derivative_stages`` is the one
walk over the stages; the test and the ``derive`` report both read it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

from .distinction import check_condition_i
from .errors import InputError
from .exactnum import Frozen, GaussianRational, read_int
from .params import LanglandsParameter, check_rank, expand_block, read_json


class MonomialBlock(Frozen):
    __slots__ = _fields = ("k", "s", "size")
    k: int
    s: GaussianRational
    size: int

    def __init__(self, k: int, s: GaussianRational, size: int):
        if size < 1:
            raise InputError("block size must be positive")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "size", size)

    def to_json(self) -> dict:
        return {"k": self.k, "s": self.s.to_json(), "size": self.size}


class MonomialRep:
    """An ordered sequence of character blocks; may be empty (size-0 group)."""

    __slots__ = ("blocks",)

    def __init__(self, blocks=()):
        self.blocks = tuple(blocks)

    @property
    def depth(self) -> int:
        return len(self.blocks)

    @property
    def total_size(self) -> int:
        return sum(b.size for b in self.blocks)

    def is_empty(self) -> bool:
        return not self.blocks

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialRep) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"MonomialRep({[(b.k, str(b.s), b.size) for b in self.blocks]})"

    def parameter(self) -> LanglandsParameter:
        """Expand into a parameter: block (k, s, n) contributes
        kappa_{k, s+(n+1-2i)/2} for i = 1..n."""
        if self.is_empty():
            raise ValueError("the empty monomial has no parameter")
        chars = []
        for b in self.blocks:
            chars.extend(expand_block(b.k, b.s, b.size))
        return LanglandsParameter(chars)

    def to_json(self) -> dict:
        return {"type": "monomial", "blocks": [b.to_json() for b in self.blocks]}

    @classmethod
    def parse(cls, obj) -> "MonomialRep":
        obj = read_json(obj, dict, "a monomial")
        if obj.get("type") != "monomial":
            raise InputError('expected {"type": "monomial", "blocks": [...]}')
        blocks = []
        for raw in read_json(obj.get("blocks"), list, '"blocks"'):
            raw = read_json(raw, dict, "a block")
            blocks.append(
                MonomialBlock(
                    read_int(raw.get("k"), '"k"'),
                    GaussianRational.parse(raw.get("s")),
                    read_int(raw.get("size"), '"size"'),
                )
            )
        check_rank(sum(b.size for b in blocks))
        return cls(blocks)


def highest_derivative(m: MonomialRep) -> MonomialRep:
    """Lower every block size by one, dropping exhausted blocks."""
    if m.is_empty():
        raise ValueError("highest derivative of the empty monomial")
    return MonomialRep(
        MonomialBlock(b.k, b.s, b.size - 1) for b in m.blocks if b.size > 1
    )


def derivative_stages(m: MonomialRep) -> Iterator[Tuple[MonomialRep, bool]]:
    """Iterate highest derivatives from stage 0 until the monomial is empty,
    yielding each stage with whether its parameter satisfies the pairing
    condition.  Lazy, so a consumer may stop at the first failure."""
    current = m
    while not current.is_empty():
        ok, _ = check_condition_i(current.parameter())
        yield current, ok
        current = highest_derivative(current)


def necessity_verdict(stages: Iterable[Tuple[MonomialRep, bool]]) -> Tuple[bool, Optional[int]]:
    """(True, None) when every stage satisfies the pairing condition, else
    (False, first failing stage); reads no stage past the first failure."""
    for index, (_, ok) in enumerate(stages):
        if not ok:
            return False, index
    return True, None


def derivative_necessity_test(
    m: MonomialRep,
) -> Tuple[bool, Optional[int]]:
    """Iterate highest derivatives, testing the pairing condition each stage.

    Returns (True, None) when every stage (including stage 0) satisfies the
    pairing condition, else (False, first failing stage).  A failure
    certifies non-distinction for unitary inputs that satisfy the pairing
    condition at stage 0.
    """
    return necessity_verdict(derivative_stages(m))
