"""Characters of C^x, parameter multisets, and unitary building blocks.

Conventions, fixed once for the whole package:

*   A character of C^x is kappa_{m,s}(z) = (z/|z|)^m |z|^(2s) with m an
    integer and s a Gaussian rational.  The stored ``s`` is always the
    exponent in this |z|^(2s) normalization; data written in the plain
    |z|^e normalization enters with s = e/2.
*   A parameter is a multiset of n such characters.  Its normal form sorts
    by (m ascending, Re s descending, Im s descending), so equality of
    normal forms is multiset equality and reported witnesses are
    deterministic.  Parameters and block multisets are ``Frozen``: the
    normal form is set once and cannot be reassigned.
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

Characters and blocks are immutable (``exactnum.Frozen``, every value in a
slot) and hash-consed: there is one object per ``key`` (building a value
whose object is alive returns that object), so equality and hash are by
identity, in C.  One recipe, ``_Keyed``, builds all three: a ``__new__``
checks its arguments and looks its key up first, and only on a miss
computes the derived values that ``_Keyed._enter`` stores: the flag
``s_is_zero`` or ``u_is_zero``, a block's ``size`` (n, or 2m), and the (ii)
flag, ``half_integral_odd`` for a character (m odd, s real, 2s an integer)
and ``needs_even`` for a block (a character block with u = 0 and odd k).
The partner, a character's ``conj_inverse()`` or a block's u -> -u
``mirror()``, is built on first use and kept in the one ``_partner`` slot.
``distinction`` and ``equivalence_scan`` read these slots, so no other
module tests which kind a block is.

The ``key`` is a flat tuple that orders exactly as (m, -Re s, -Im s) for a
character and (kind, n or m, k, Im u, t) for a block, kind 0 for a
character block and 1 for a complementary series block (a character block
has no t).  Each rational in it is its continued fraction as ints with
alternating signs, closed by an infinite float mark (see ``_rational_key``),
and every int entry is doubled, so none is -1, whose hash CPython shares
with -2.  The key determines every field, so it is what the intern table
looks up.  Sorts compare keys, and dict lookups and equality compare
identities: none calls a ``Fraction`` method.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Union

from .errors import InputError, PreconditionError, shown
from .exactnum import Frozen, GaussianRational, read_int, read_rational

# Cap on the rank of a parameter read from outside the program (its
# characters, or the total size of its blocks), checked before any block is
# expanded.  `derive` walks up to n stages of rank up to n: one monomial block
# of size 64, the largest allowed, took 0.05 s in-process (0.53 s with slots
# of MAX_INPUT_DIGITS = 4000 digits; size 1000 took 18 s) on a shared 2-CPU
# container (CPython 3.11.7).  Fixtures have rank <= 6, cli-batch requests <= 16.
MAX_RANK = 64


def check_rank(n: int) -> None:
    """PreconditionError if a parameter of rank n exceeds MAX_RANK."""
    if n > MAX_RANK:
        raise PreconditionError(f"a parameter of rank {n} exceeds MAX_RANK = {MAX_RANK}")


def read_json(value, kind: type, what: str):
    """``value`` if it is a JSON object (dict) or array (list), else InputError."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "array"
        raise InputError(f"{what} must be a JSON {name}, got {shown(repr(value))}")
    return value


_INF = float("inf")


def _rational_key(p: int, q: int) -> list:
    """The rational p/q (q > 0) as entries that compare exactly as the
    rationals do: its continued fraction [a0; a1, ..., an] from ``divmod``
    as 2*a0, -2*a1, 2*a2, ..., closed by +-inf.

    A larger a_j makes the value larger at even j and smaller at odd j,
    hence the alternating signs.  Euclid's quotients are unique per value,
    and the mark stands for a_{n+1} = inf, so the entries end where the
    value does and several rationals concatenate into one key.
    """
    out = []
    sign = 2
    while q:
        a, r = divmod(p, q)
        out.append(sign * a)
        p, q = q, r
        sign = -sign
    out.append(sign * _INF)
    return out


class _Keyed(Frozen):
    """One object per exact ``key``, so equality and hash are identity.

    A subclass builds its instance in ``__new__`` (an ``__init__`` would run
    again on every hit): it checks its arguments, computes the key and looks
    it up in its own ``_table``, a ``WeakValueDictionary``.  A hit returns
    the live object; a miss calls ``_enter``, which fills the slots of a new
    one and enters it.  The table keeps no object alive: an entry goes when
    the last outside reference to its object does.  Every slot is set here,
    the lazy ``_partner`` by ``_keep_partner``.
    """

    __slots__ = ("__weakref__", "key", "_partner")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @classmethod
    def _enter(cls, key: tuple, *values):
        """A new object with ``key``, and ``values`` in the subclass's own
        ``__slots__`` in their order, entered in the table."""
        self = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(self, "key", key)
        for name, value in zip(cls.__slots__, values):
            setattr_(self, name, value)
        cls._table[key] = self
        return self

    def _keep_partner(self, partner):
        """``partner``, kept in the ``_partner`` slot for the next call."""
        object.__setattr__(self, "_partner", partner)
        return partner


# The normal-form order of characters, and the order of blocks.
sort_key = attrgetter("key")


class CharacterCx(_Keyed):
    """The character kappa_{m,s} of C^x."""

    __slots__ = ("m", "s", "s_is_zero", "half_integral_odd")
    _fields = ("m", "s")
    _table = weakref.WeakValueDictionary()  # keeps no object alive
    m: int
    s: GaussianRational

    def __new__(cls, m: int, s: GaussianRational):
        if not isinstance(m, int):
            raise TypeError("twist exponent m must be an integer")
        key = (
            2 * m,
            *_rational_key(-s.re.numerator, s.re.denominator),
            *_rational_key(-s.im.numerator, s.im.denominator),
        )
        self = cls._table.get(key)
        if self is not None:
            return self
        odd = m % 2 == 1 and not s.im.numerator and s.re.denominator <= 2
        return cls._enter(key, m, s, s.is_zero(), odd)

    def conj_inverse(self) -> "CharacterCx":
        """The inverse of the conjugate character: kappa_{m,-s}, built on
        first use and kept.

        Precomposing with conjugation sends kappa_{m,s} to kappa_{-m,s},
        and inverting that gives kappa_{m,-s}.
        """
        try:
            return self._partner
        except AttributeError:
            return self._keep_partner(self if self.s_is_zero else CharacterCx(self.m, -self.s))

    def to_json(self) -> dict:
        return {"m": self.m, "s": self.s.to_json()}

    @classmethod
    def parse(cls, obj) -> "CharacterCx":
        obj = read_json(obj, dict, "a character")
        return cls(read_int(obj.get("m"), '"m"'), GaussianRational.parse(obj.get("s")))

    def __str__(self):
        return f"k[{self.m},{self.s}]"


class LanglandsParameter(Frozen):
    """A multiset of characters of C^x, kept in normal form."""

    __slots__ = _fields = ("chars",)

    def __init__(self, chars: Iterable[CharacterCx]):
        chars = tuple(sorted(chars, key=sort_key))
        if not chars:
            raise InputError("a parameter needs at least one character")
        object.__setattr__(self, "chars", chars)

    @property
    def n(self) -> int:
        return len(self.chars)

    def __repr__(self):
        return "LanglandsParameter({%s})" % ", ".join(str(c) for c in self.chars)

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


class CharBlock(_Keyed):
    """Unitary character block (det/|det|)^k |det|^u on size n, u imaginary."""

    __slots__ = ("n", "k", "u", "u_is_zero", "size", "needs_even")
    _fields = ("n", "k", "u")
    _table = weakref.WeakValueDictionary()  # keeps no object alive
    n: int
    k: int
    u: GaussianRational

    def __new__(cls, n: int, k: int, u: GaussianRational):
        if n < 1:
            raise InputError("block size must be positive")
        if u.re != 0:
            raise InputError("character block twist u must be purely imaginary")
        im = u.im
        key = (0, 2 * n, 2 * k, *_rational_key(im.numerator, im.denominator))
        self = cls._table.get(key)
        if self is not None:
            return self
        u_is_zero = u.is_zero()
        return cls._enter(key, n, k, u, u_is_zero, n, u_is_zero and k % 2 == 1)

    def mirror(self) -> "CharBlock":
        """The u -> -u block, built on first use and kept."""
        try:
            return self._partner
        except AttributeError:
            return self._keep_partner(self if self.u_is_zero else CharBlock(self.n, self.k, -self.u))

    def to_json(self) -> dict:
        return {"kind": "char", "n": self.n, "k": self.k, "u": self.u.to_json()}


class CompSeriesBlock(_Keyed):
    """Complementary series block on size 2m: twists (k, u), inner +-t, 0<t<1."""

    __slots__ = ("m", "k", "u", "t", "u_is_zero", "size", "needs_even")
    _fields = ("m", "k", "u", "t")
    _table = weakref.WeakValueDictionary()  # keeps no object alive
    m: int
    k: int
    u: GaussianRational
    t: Fraction

    def __new__(cls, m: int, k: int, u: GaussianRational, t: Fraction):
        if m < 1:
            raise InputError("block size must be positive")
        if u.re != 0:
            raise InputError("complementary twist u must be purely imaginary")
        if not (0 < t < 1):
            raise InputError("complementary parameter requires 0 < t < 1 strictly")
        im = u.im
        key = (
            2,
            2 * m,
            2 * k,
            *_rational_key(im.numerator, im.denominator),
            *_rational_key(t.numerator, t.denominator),
        )
        self = cls._table.get(key)
        if self is not None:
            return self
        return cls._enter(key, m, k, u, t, u.is_zero(), 2 * m, False)

    def mirror(self) -> "CompSeriesBlock":
        """The u -> -u block, built on first use and kept."""
        try:
            return self._partner
        except AttributeError:
            return self._keep_partner(self if self.u_is_zero else CompSeriesBlock(self.m, self.k, -self.u, self.t))

    def to_json(self) -> dict:
        return {
            "kind": "comp",
            "m": self.m,
            "k": self.k,
            "u": self.u.to_json(),
            "t": str(self.t),
        }


UnitaryBlock = Union[CharBlock, CompSeriesBlock]


class UnitaryRep(Frozen):
    """A multiset of unitary blocks; total size is the sum of block sizes."""

    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks: Iterable[UnitaryBlock]):
        blocks = tuple(sorted(blocks, key=sort_key))
        if not blocks:
            raise InputError("a unitary representation needs at least one block")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return sum(b.size for b in self.blocks)

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
                raise InputError(f"unknown block kind: {shown(repr(kind))}")
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


# Bound on the blocks whose characters ``block_characters`` keeps: the
# acceptance grid has 240, and requests with fresh rationals add new blocks
# that rarely recur, so the least recently used go first.
BLOCK_CACHE_SIZE = 4096


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def block_characters(block: UnitaryBlock) -> tuple:
    """The character multiset contributed by one block, as a sorted tuple."""
    if isinstance(block, CharBlock):
        chars = expand_block(block.k, block.u * _HALF, block.n)
    else:
        up = (block.u + block.t) * _HALF
        down = (block.u - block.t) * _HALF
        chars = expand_block(block.k, up, block.m) + expand_block(block.k, down, block.m)
    return tuple(sorted(chars, key=sort_key))


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
    raise InputError(f'unknown parameter type: {shown(repr(kind))} (expected "langlands" or "unitary")')
