import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from glcdist.equivalence_scan import acceptance_block_grid
from glcdist.errors import PreconditionError
from glcdist.exactnum import GaussianRational
from glcdist.params import (
    BLOCK_CACHE_SIZE,
    MAX_RANK,
    CharBlock,
    CharacterCx,
    CompSeriesBlock,
    LanglandsParameter,
    UnitaryRep,
    block_characters,
    parse_parameter_file,
    sort_key,
    to_langlands,
)


def gq(re, im=0):
    return GaussianRational(re, im)


def kappa(m, re, im=0):
    return CharacterCx(m, gq(re, im))


characters = st.builds(
    CharacterCx,
    st.integers(min_value=-4, max_value=4),
    st.builds(
        GaussianRational,
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ),
)


imaginary = st.builds(
    GaussianRational, st.just(Fraction(0)), st.fractions(min_value=-2, max_value=2, max_denominator=3)
)
char_blocks = st.builds(CharBlock, st.integers(1, 4), st.integers(-2, 2), imaginary)
comp_blocks = st.builds(
    CompSeriesBlock,
    st.integers(1, 2),
    st.integers(-2, 2),
    imaginary,
    st.fractions(min_value=Fraction(1, 8), max_value=Fraction(7, 8), max_denominator=8),
)

# Rationals whose floats tie, and unbounded numerators and denominators.
TIES = [Fraction(1), Fraction(2**60 + 1, 2**60), Fraction(2**60 - 1, 2**60), Fraction(-(2**60 + 1), 2**60),
        Fraction(-1), Fraction(3**40, 3**40 + 1), Fraction(0), Fraction(1, 2**70), Fraction(-1, 2**70)]
# Values of the inner parameter 0 < t < 1 with the same float, and one apart.
INNER_T = [Fraction(1, 2), Fraction(2**60 + 1, 2**61), Fraction(2**60 - 1, 2**61), Fraction(1, 4)]
rationals = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from(TIES),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
)
wide_characters = st.builds(
    CharacterCx, st.integers(-4, 4), st.builds(GaussianRational, rationals, rationals)
)
wide_blocks = st.one_of(
    st.builds(CharBlock, st.integers(1, 3), st.integers(-2, 2), st.builds(GaussianRational, st.just(Fraction(0)), rationals)),
    st.builds(
        CompSeriesBlock,
        st.integers(1, 3),
        st.integers(-2, 2),
        st.builds(GaussianRational, st.just(Fraction(0)), rationals),
        st.sampled_from(INNER_T),
    ),
)

GRID_BLOCKS = acceptance_block_grid()
GRID_CHARACTERS = sorted({c for b in GRID_BLOCKS for c in block_characters(b)}, key=sort_key)


def fresh(z: GaussianRational) -> GaussianRational:
    return GaussianRational(Fraction(z.re.numerator, z.re.denominator), Fraction(z.im.numerator, z.im.denominator))


def fields(x) -> tuple:
    """The order the key must reproduce: (m, -Re s, -Im s) for a character,
    (kind, n or m, k, Im u, t) for a block, with t = 0 on a character block."""
    if isinstance(x, CharacterCx):
        return (x.m, -x.s.re, -x.s.im)
    if isinstance(x, CharBlock):
        return (0, x.n, x.k, x.u.im, Fraction(0))
    return (1, x.m, x.k, x.u.im, x.t)


def check_same_order(values) -> None:
    """The key orders and identifies values exactly as their fields do."""
    for a in values:
        for b in values:
            assert (a.key < b.key) == (fields(a) < fields(b))
            assert (a.key == b.key) == (fields(a) == fields(b)) == (a == b)
            if a == b:
                assert hash(a) == hash(b)
    assert [fields(x) for x in sorted(values, key=sort_key)] == sorted(fields(x) for x in values)


def check_character_cache(c: CharacterCx) -> None:
    """Each value a character keeps equals its recomputation from the fields."""
    again = CharacterCx(c.m, fresh(c.s))
    assert again is not c and again == c and hash(again) == hash(c) and again.key == c.key
    assert hash(c.s) == hash(fresh(c.s)) == hash((c.s.re, c.s.im))
    assert all(isinstance(e, int) or abs(e) == math.inf for e in c.key)
    assert c != CharacterCx(c.m + 1, c.s) and c != CharacterCx(c.m, c.s + GaussianRational(0, 1))
    assert c.s_is_zero == (c.s == GaussianRational(0))
    assert c.half_integral_odd == (c.m % 2 == 1 and (c.s + c.s).is_integer())
    assert c.conj_inverse() == CharacterCx(c.m, -c.s)
    assert c.conj_inverse() is c.conj_inverse()
    assert c.conj_inverse().conj_inverse() == c


def check_block_cache(b) -> None:
    """Each value a block keeps equals its recomputation from the fields."""
    if isinstance(b, CharBlock):
        again = CharBlock(b.n, b.k, fresh(b.u))
        mirror = CharBlock(b.n, b.k, -b.u)
    else:
        again = CompSeriesBlock(b.m, b.k, fresh(b.u), Fraction(b.t.numerator, b.t.denominator))
        mirror = CompSeriesBlock(b.m, b.k, -b.u, b.t)
    assert again is not b and again == b and hash(again) == hash(b) and again.key == b.key
    assert hash(b.u) == hash(fresh(b.u)) == hash((b.u.re, b.u.im))
    assert all(isinstance(e, int) or abs(e) == math.inf for e in b.key)
    assert b.u_is_zero == (b.u == GaussianRational(0))
    assert b.mirror() == mirror and hash(b.mirror()) == hash(mirror)
    assert b.mirror() is b.mirror()
    assert b.mirror().mirror() == b


class TestCachedValues:
    def test_grid_characters(self):
        assert len(GRID_CHARACTERS) == 555
        for c in GRID_CHARACTERS:
            check_character_cache(c)
        check_same_order(GRID_CHARACTERS)

    def test_grid_blocks(self):
        for b in GRID_BLOCKS:
            check_block_cache(b)
        check_same_order(GRID_BLOCKS)

    def test_grid_hashes_are_distinct(self):
        # CPython's hash(-1) == hash(-2): field-tuple hashes gave the grid's
        # blocks 192 distinct values and its characters 432.
        assert len({hash(b) for b in GRID_BLOCKS}) == len(GRID_BLOCKS) == 240
        assert len({hash(c) for c in GRID_CHARACTERS}) == len(GRID_CHARACTERS) == 555

    def test_float_ties(self):
        chars = [CharacterCx(m, GaussianRational(re, im)) for m in (-1, 0) for re in TIES for im in TIES[:3]]
        check_same_order(chars)
        blocks = [CharBlock(1, -1, GaussianRational(0, x)) for x in TIES]
        blocks += [CompSeriesBlock(1, -1, GaussianRational(0, x), t) for x in TIES[:4] for t in INNER_T]
        check_same_order(blocks)

    def test_types_never_equal(self):
        assert CharBlock(1, 0, GaussianRational(0)) != CharacterCx(0, GaussianRational(0))
        assert CharacterCx(0, GaussianRational(0)) != (0, 0)

    def test_block_cache_is_bounded(self):
        assert block_characters.cache_info().maxsize == BLOCK_CACHE_SIZE >= 10 * len(GRID_BLOCKS)

    @given(st.one_of(characters, wide_characters))
    def test_drawn_characters(self, c):
        check_character_cache(c)

    @given(st.one_of(char_blocks, comp_blocks, wide_blocks))
    def test_drawn_blocks(self, b):
        check_block_cache(b)

    @given(st.lists(wide_characters, min_size=1, max_size=8))
    def test_drawn_character_order(self, chars):
        check_same_order(chars + [CharacterCx(c.m, fresh(c.s)) for c in chars[:2]])

    @given(st.lists(st.one_of(char_blocks, comp_blocks, wide_blocks), min_size=1, max_size=8))
    def test_drawn_block_order(self, blocks):
        check_same_order(blocks)


class TestCharacterOps:
    def test_conj_inverse_examples(self):
        assert kappa(1, "1/2").conj_inverse() == kappa(1, "-1/2")
        assert kappa(0, 0).conj_inverse() == kappa(0, 0)
        assert kappa(-2, 0, "3/4").conj_inverse() == kappa(-2, 0, "-3/4")

    @given(characters)
    def test_conj_inverse_is_involution(self, c):
        assert c.conj_inverse().conj_inverse() == c

    def test_product_examples(self):
        assert kappa(1, "1/2") * kappa(1, "-1/2") == kappa(2, 0)
        assert kappa(0, 0) * kappa(3, "1/7") == kappa(3, "1/7")
        assert kappa(-1, 0, 1) * kappa(1, 0, -1) == kappa(0, 0)

    @given(characters, characters, characters)
    def test_product_monoid(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert kappa(0, 0) * a == a


class TestParameter:
    def test_multiset_equality(self):
        a = LanglandsParameter([kappa(1, "1/2"), kappa(0, 0)])
        b = LanglandsParameter([kappa(0, 0), kappa(1, "1/2")])
        assert a == b
        assert LanglandsParameter([kappa(1, "1/2")]) != LanglandsParameter([kappa(1, "-1/2")])
        assert LanglandsParameter([kappa(0, 0), kappa(0, 0)]) != LanglandsParameter([kappa(0, 0)])

    def test_normal_form_sorting(self):
        p = LanglandsParameter(
            [kappa(1, "-1/2"), kappa(0, 3), kappa(1, "1/2"), kappa(0, 3, -1), kappa(0, 3, 1)]
        )
        ms = [c.m for c in p.chars]
        assert ms == sorted(ms)
        assert p.chars[0] == kappa(0, 3, 1)  # within m=0, Re desc then Im desc
        assert p.chars[1] == kappa(0, 3)
        assert p.chars[2] == kappa(0, 3, -1)

    @given(st.lists(characters, min_size=1, max_size=6))
    def test_json_round_trip(self, chars):
        p = LanglandsParameter(chars)
        again = parse_parameter_file(json.loads(json.dumps(p.to_json())))
        assert p == again


class TestUnitaryBlocks:
    def test_char_block_expansion(self):
        p = to_langlands(UnitaryRep([CharBlock(2, 1, gq(0))]))
        assert p == LanglandsParameter([kappa(1, "1/2"), kappa(1, "-1/2")])

    def test_trivial_block(self):
        p = to_langlands(UnitaryRep([CharBlock(1, 0, gq(0))]))
        assert p == LanglandsParameter([kappa(0, 0)])

    def test_comp_block_expansion(self):
        p = to_langlands(UnitaryRep([CompSeriesBlock(1, 0, gq(0), Fraction(1, 2))]))
        assert p == LanglandsParameter([kappa(0, "1/4"), kappa(0, "-1/4")])

    def test_comp_block_matches_standard_family_layout(self):
        # The k-twisted family on half-size n at inner parameter t expands to
        # (z/|z|)^k |z|^(n+1+t-2i) and (z/|z|)^k |z|^(n+1-t-2i), i = 1..n.
        n, k, t = 3, 1, Fraction(1, 2)
        p = to_langlands(UnitaryRep([CompSeriesBlock(n, k, gq(0), t)]))
        expected = []
        for i in range(1, n + 1):
            expected.append(CharacterCx(k, gq(Fraction(n + 1 - 2 * i) + t) * gq("1/2")))
            expected.append(CharacterCx(k, gq(Fraction(n + 1 - 2 * i) - t) * gq("1/2")))
        assert p == LanglandsParameter(expected)

    def test_block_validation(self):
        with pytest.raises(ValueError):
            CharBlock(2, 1, gq(1))  # u must be imaginary
        with pytest.raises(ValueError):
            CompSeriesBlock(1, 0, gq(0), Fraction(1))  # t must be < 1
        with pytest.raises(ValueError):
            CompSeriesBlock(1, 0, gq(0), Fraction(0))

    def test_size_accounting(self):
        rep = UnitaryRep(
            [CharBlock(3, 0, gq(0, 1)), CompSeriesBlock(2, -1, gq(0), Fraction(1, 4))]
        )
        assert rep.n == 7
        assert to_langlands(rep).n == 7

    def test_rank_cap(self):
        # The cap counts characters, or the total size of the blocks, before
        # any block is expanded.
        def chars(n):
            return {"type": "langlands", "characters": [{"m": 0, "s": "0"}] * n}

        def blocks(n, m):
            return {"type": "unitary", "blocks": [{"kind": "char", "n": n, "k": 0, "u": "0"},
                                                  {"kind": "comp", "m": m, "k": 0, "u": "0", "t": "1/2"}]}

        assert parse_parameter_file(chars(MAX_RANK)).n == MAX_RANK
        assert parse_parameter_file(blocks(MAX_RANK - 2, 1)).n == MAX_RANK
        for doc in (chars(MAX_RANK + 1), blocks(MAX_RANK - 1, 1), blocks(1, 10**12)):
            with pytest.raises(PreconditionError, match="MAX_RANK"):
                parse_parameter_file(doc)

    @given(st.lists(st.one_of(char_blocks, comp_blocks), min_size=1, max_size=4))
    def test_expansion_size_and_round_trip(self, blocks):
        rep = UnitaryRep(blocks)
        assert to_langlands(rep).n == rep.n
        again = parse_parameter_file(json.loads(json.dumps(rep.to_json())))
        assert again == rep
