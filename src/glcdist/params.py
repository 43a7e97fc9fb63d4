"""Characters of C^x, parameter multisets, and unitary building blocks.

Conventions, fixed once for the whole package:

*   A character of C^x is kappa_{m,s}(z) = (z/|z|)^m |z|^(2s) with m an
    integer and s a Gaussian rational.  The stored ``s`` is always the
    exponent in this |z|^(2s) normalization; data written in the plain
    |z|^e normalization enters with s = e/2.
*   A parameter is a multiset of n such characters.  Its normal form sorts
    by (m ascending, Re s descending, Im s descending), so equality of
    normal forms is multiset equality and reported witnesses are
    deterministic.
*   A unitary representation is described by a multiset of blocks: either a
    unitary character block on size n (twist exponent k, with |det|^u,
    u purely imaginary), or a complementary-series block on size 2m
    (k, u as before, plus an inner |det|^t x |det|^{-t} with 0 < t < 1).

``to_langlands`` expands blocks into characters: a character block of size
n contributes kappa_{k,(u+n+1-2i)/2} for i = 1..n, and a complementary
series block splits into the two constituent character blocks with outer
twists u+t and u-t before expanding.  ``expand_block`` is that one rule,
for monomial blocks (see derivatives) too.  The ``parse`` methods raise
InputError on malformed JSON, and PreconditionError past MAX_RANK.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

from .errors import InputError, PreconditionError
from .exactnum import GaussianRational, read_int, read_rational

# Cap on the rank of a parameter read from outside the program (its
# characters, or the total size of its blocks), checked before any block is
# expanded.  `derive` walks up to n stages of rank up to n: one monomial block
# of size 64, the largest allowed, took 0.05 s in-process (0.53 s with
# 4000-digit slots; size 1000 took 18 s) on a shared 2-CPU container
# (CPython 3.11.7).  Fixtures have rank <= 6, cli-batch requests <= 16.
MAX_RANK = 64


def check_rank(n: int) -> None:
    """PreconditionError if a parameter of rank n exceeds MAX_RANK."""
    if n > MAX_RANK:
        raise PreconditionError(f"a parameter of rank {n} exceeds MAX_RANK = {MAX_RANK}")


def read_json(value, kind: type, what: str):
    """``value`` if it is a JSON object (dict) or array (list), else InputError."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "array"
        raise InputError(f"{what} must be a JSON {name}, got {value!r}")
    return value


@dataclass(frozen=True)
class CharacterCx:
    """The character kappa_{m,s} of C^x."""

    m: int
    s: GaussianRational

    def __post_init__(self):
        if not isinstance(self.m, int):
            raise TypeError("twist exponent m must be an integer")
        # Cache hash and normal-form sort key; classification scans hash and
        # compare characters heavily.
        object.__setattr__(self, "_hash", hash((self.m, self.s.re, self.s.im)))
        object.__setattr__(self, "_key", (self.m, -self.s.re, -self.s.im))

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return self._key

    def conj_inverse(self) -> "CharacterCx":
        """The inverse of the conjugate character: kappa_{m,-s}.

        Precomposing with conjugation sends kappa_{m,s} to kappa_{-m,s},
        and inverting that gives kappa_{m,-s}.
        """
        return CharacterCx(self.m, -self.s)

    def __mul__(self, other: "CharacterCx") -> "CharacterCx":
        return CharacterCx(self.m + other.m, self.s + other.s)

    def is_half_integral_odd(self) -> bool:
        """m odd, s real with 2s an integer (the even-multiplicity clause)."""
        two_s = self.s + self.s
        return self.m % 2 == 1 and two_s.is_integer()

    def to_json(self) -> dict:
        return {"m": self.m, "s": self.s.to_json()}

    @classmethod
    def parse(cls, obj) -> "CharacterCx":
        obj = read_json(obj, dict, "a character")
        return cls(read_int(obj.get("m"), '"m"'), GaussianRational.parse(obj.get("s")))

    def __str__(self):
        return f"k[{self.m},{self.s}]"


class LanglandsParameter:
    """A multiset of characters of C^x, kept in normal form."""

    __slots__ = ("chars",)

    def __init__(self, chars: Iterable[CharacterCx]):
        self.chars = tuple(sorted(chars, key=CharacterCx.sort_key))
        if not self.chars:
            raise InputError("a parameter needs at least one character")

    @property
    def n(self) -> int:
        return len(self.chars)

    def __eq__(self, other) -> bool:
        return isinstance(other, LanglandsParameter) and self.chars == other.chars

    def __hash__(self) -> int:
        return hash(self.chars)

    def __iter__(self):
        return iter(self.chars)

    def __len__(self):
        return len(self.chars)

    def __repr__(self):
        return "LanglandsParameter({%s})" % ", ".join(str(c) for c in self.chars)

    def counts(self) -> dict:
        out: dict = {}
        for c in self.chars:
            out[c] = out.get(c, 0) + 1
        return out

    def to_json(self) -> dict:
        return {
            "type": "langlands",
            "characters": [c.to_json() for c in self.chars],
        }

    @classmethod
    def parse(cls, obj) -> "LanglandsParameter":
        obj = read_json(obj, dict, "a parameter")
        characters = read_json(obj.get("characters"), list, '"characters"')
        check_rank(len(characters))
        return cls(CharacterCx.parse(c) for c in characters)


# -- unitary building blocks ----------------------------------------------


@dataclass(frozen=True)
class CharBlock:
    """Unitary character block (det/|det|)^k |det|^u on size n, u imaginary."""

    n: int
    k: int
    u: GaussianRational

    def __post_init__(self):
        if self.n < 1:
            raise InputError("block size must be positive")
        if self.u.re != 0:
            raise InputError("character block twist u must be purely imaginary")

    @property
    def size(self) -> int:
        return self.n

    def to_json(self) -> dict:
        return {"kind": "char", "n": self.n, "k": self.k, "u": self.u.to_json()}


@dataclass(frozen=True)
class CompSeriesBlock:
    """Complementary series block on size 2m: twists (k, u), inner +-t, 0<t<1."""

    m: int
    k: int
    u: GaussianRational
    t: Fraction

    def __post_init__(self):
        if self.m < 1:
            raise InputError("block size must be positive")
        if self.u.re != 0:
            raise InputError("complementary twist u must be purely imaginary")
        if not (0 < self.t < 1):
            raise InputError("complementary parameter requires 0 < t < 1 strictly")

    @property
    def size(self) -> int:
        return 2 * self.m

    def to_json(self) -> dict:
        return {
            "kind": "comp",
            "m": self.m,
            "k": self.k,
            "u": self.u.to_json(),
            "t": str(self.t),
        }


UnitaryBlock = Union[CharBlock, CompSeriesBlock]


def _block_sort_key(b: UnitaryBlock):
    if isinstance(b, CharBlock):
        return (0, b.n, b.k, b.u.im, Fraction(0))
    return (1, b.m, b.k, b.u.im, b.t)


class UnitaryRep:
    """A multiset of unitary blocks; total size is the sum of block sizes."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[UnitaryBlock]):
        self.blocks = tuple(sorted(blocks, key=_block_sort_key))
        if not self.blocks:
            raise InputError("a unitary representation needs at least one block")

    @property
    def n(self) -> int:
        return sum(b.size for b in self.blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, UnitaryRep) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __repr__(self):
        return f"UnitaryRep({list(self.blocks)!r})"

    def to_json(self) -> dict:
        return {"type": "unitary", "blocks": [b.to_json() for b in self.blocks]}

    @classmethod
    def parse(cls, obj) -> "UnitaryRep":
        obj = read_json(obj, dict, "a unitary representation")
        blocks = []
        for raw in read_json(obj.get("blocks"), list, '"blocks"'):
            raw = read_json(raw, dict, "a block")
            kind = raw.get("kind")
            if kind == "char":
                blocks.append(
                    CharBlock(
                        read_int(raw.get("n"), '"n"'),
                        read_int(raw.get("k"), '"k"'),
                        GaussianRational.parse(raw.get("u")),
                    )
                )
            elif kind == "comp":
                blocks.append(
                    CompSeriesBlock(
                        read_int(raw.get("m"), '"m"'),
                        read_int(raw.get("k"), '"k"'),
                        GaussianRational.parse(raw.get("u")),
                        read_rational(raw.get("t"), '"t"'),
                    )
                )
            else:
                raise InputError(f"unknown block kind: {kind!r}")
        check_rank(sum(b.size for b in blocks))
        return cls(blocks)


_HALF = GaussianRational(Fraction(1, 2))


def expand_block(k: int, center: GaussianRational, size: int) -> tuple:
    """The characters kappa_{k, center+(size+1-2i)/2}, i = 1..size: a run of
    ``size`` slots spaced by 1 around ``center``, all with twist exponent k.
    The size-n block (det/|det|)^k |det|^u is the run around u/2."""
    return tuple(
        CharacterCx(k, center + GaussianRational(Fraction(size + 1 - 2 * i, 2)))
        for i in range(1, size + 1)
    )


@lru_cache(maxsize=None)
def block_characters(block: UnitaryBlock) -> tuple:
    """The character multiset contributed by one block, as a sorted tuple."""
    if isinstance(block, CharBlock):
        chars = expand_block(block.k, block.u * _HALF, block.n)
    else:
        up = (block.u + block.t) * _HALF
        down = (block.u - block.t) * _HALF
        chars = expand_block(block.k, up, block.m) + expand_block(block.k, down, block.m)
    return tuple(sorted(chars, key=CharacterCx.sort_key))


def to_langlands(rep: UnitaryRep) -> LanglandsParameter:
    """Expand a unitary block multiset into its parameter."""
    chars: list = []
    for block in rep.blocks:
        chars.extend(block_characters(block))
    return LanglandsParameter(chars)


def parse_parameter_file(obj):
    """Dispatch a parameter JSON object on its "type" field."""
    kind = read_json(obj, dict, "a parameter file").get("type")
    if kind == "langlands":
        return LanglandsParameter.parse(obj)
    if kind == "unitary":
        return UnitaryRep.parse(obj)
    raise InputError(f'unknown parameter type: {kind!r} (expected "langlands" or "unitary")')
