import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from glcdist.exactnum import GaussianRational
from glcdist.params import (
    CharBlock,
    CharacterCx,
    CompSeriesBlock,
    LanglandsParameter,
    UnitaryRep,
    parse_parameter_file,
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

    @given(
        st.lists(
            st.one_of(
                st.builds(
                    CharBlock,
                    st.integers(1, 4),
                    st.integers(-2, 2),
                    st.builds(GaussianRational, st.just(Fraction(0)), st.fractions(min_value=-2, max_value=2, max_denominator=3)),
                ),
                st.builds(
                    CompSeriesBlock,
                    st.integers(1, 2),
                    st.integers(-2, 2),
                    st.builds(GaussianRational, st.just(Fraction(0)), st.fractions(min_value=-2, max_value=2, max_denominator=3)),
                    st.fractions(min_value=Fraction(1, 8), max_value=Fraction(7, 8), max_denominator=8),
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_expansion_size_and_round_trip(self, blocks):
        rep = UnitaryRep(blocks)
        assert to_langlands(rep).n == rep.n
        again = parse_parameter_file(json.loads(json.dumps(rep.to_json())))
        assert again == rep
