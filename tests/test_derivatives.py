import pytest
from hypothesis import given, strategies as st

from glcdist.derivatives import (
    MonomialBlock,
    MonomialRep,
    derivative_necessity_test,
    derivative_stages,
    highest_derivative,
    necessity_verdict,
)
from glcdist.distinction import check_condition_i, check_condition_ii
from glcdist.exactnum import GaussianRational
from glcdist.params import CharacterCx, LanglandsParameter


def gq(re, im=0):
    return GaussianRational(re, im)


def mono(*blocks):
    return MonomialRep([MonomialBlock(k, gq(s), size) for k, s, size in blocks])


class TestHighestDerivative:
    def test_sign_cube(self):
        m = mono((1, 0, 2), (1, 0, 2), (1, 0, 2))
        assert highest_derivative(m) == mono((1, 0, 1), (1, 0, 1), (1, 0, 1))

    def test_single_character_vanishes(self):
        assert highest_derivative(mono((0, 0, 1))).is_empty()

    def test_mixed_sizes(self):
        assert highest_derivative(mono((1, 0, 3), (1, 0, 1))) == mono((1, 0, 2))

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            highest_derivative(MonomialRep())

    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 5)), min_size=1, max_size=4))
    def test_iteration_reaches_empty_after_max_size(self, raw):
        m = MonomialRep([MonomialBlock(k, gq(0), size) for k, size in raw])
        steps = max(size for _, size in raw)
        current = m
        for _ in range(steps):
            current = highest_derivative(current)
        assert current.is_empty()


class TestParameterExpansion:
    def test_block_expansion(self):
        m = mono((1, "1/2", 2))
        assert m.parameter() == LanglandsParameter(
            [CharacterCx(1, gq(1)), CharacterCx(1, gq(0))]
        )

    def test_sign_character_block(self):
        assert mono((1, 0, 2)).parameter() == LanglandsParameter(
            [CharacterCx(1, gq("1/2")), CharacterCx(1, gq("-1/2"))]
        )


class TestNecessity:
    def test_sign_cube_fails_at_stage_one(self):
        assert derivative_necessity_test(mono((1, 0, 2), (1, 0, 2), (1, 0, 2))) == (False, 1)

    def test_sign_square_passes(self):
        assert derivative_necessity_test(mono((1, 0, 2), (1, 0, 2))) == (True, None)

    def test_trivial_character_passes(self):
        assert derivative_necessity_test(mono((0, 0, 5))) == (True, None)

    def test_stage_walk(self):
        m = mono((1, 0, 2), (1, 0, 2), (1, 0, 2))
        stages = list(derivative_stages(m))
        assert stages == [(m, True), (highest_derivative(m), False)]
        assert necessity_verdict(stages) == (False, 1)
        # The verdict stops at the first failing stage.
        assert necessity_verdict(iter([(m, False), None])) == (False, 0)

    def test_stage_zero_failure(self):
        # A lone odd twist on size 1 already violates the pairing condition.
        assert derivative_necessity_test(mono((1, 0, 1))) == (False, 0)

    def test_agreement_with_even_multiplicity_condition(self):
        # Exhaustive over twisted monomials of total size <= 5: among inputs
        # whose stage-0 parameter satisfies the pairing condition, the test
        # fails exactly when the even-multiplicity condition fails.
        types = [(k, size) for size in range(1, 6) for k in range(-2, 3)]

        def rec(start, rem, acc):
            for idx in range(start, len(types)):
                k, size = types[idx]
                if size > rem:
                    continue
                acc.append(MonomialBlock(k, gq(0), size))
                m = MonomialRep(acc)
                p = m.parameter()
                if check_condition_i(p)[0]:
                    passes, _ = derivative_necessity_test(m)
                    assert passes == check_condition_ii(p)[0], m
                rec(idx, rem - size, acc)
                acc.pop()

        rec(0, 5, [])
