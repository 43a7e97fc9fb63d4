import itertools
import random

import pytest
from hypothesis import given, strategies as st

from glcdist.errors import PreconditionError
from glcdist.exactnum import GaussianRational
from glcdist.ktypes import (
    ORACLE_MAX_CANDIDATES,
    ORACLE_MAX_RANK,
    HighestWeight,
    NotDistinguishedError,
    RadiusExhaustedError,
    concat_reorder,
    distinguished_minimal_ktype,
    is_o_distinguished,
    lowest_ktype,
    lr_restriction_multiplicity,
    minimal_distinguished_ktype_oracle,
    weight_multiplicity,
)
from glcdist.params import CharacterCx, LanglandsParameter
from glcdist.selftest import random_distinguished_parameter


def gq(re, im=0):
    return GaussianRational(re, im)


def kappa(m, re="0", im=0):
    return CharacterCx(m, gq(re, im))


def param(*chars):
    return LanglandsParameter(chars)


class TestBasics:
    def test_evenness(self):
        assert is_o_distinguished((2, 2, 0))
        assert not is_o_distinguished((2, 1, 0))
        assert is_o_distinguished((0, 0, 0, 0))

    def test_concat_reorder(self):
        assert concat_reorder((2, 0), (2, 0)) == (2, 2, 0, 0)
        assert concat_reorder((1,), (-1,)) == (1, -1)
        assert concat_reorder((3, 1), (2,)) == (3, 2, 1)

    def test_weakly_decreasing_enforced(self):
        with pytest.raises(ValueError):
            HighestWeight((0, 1))

    def test_lowest_ktype(self):
        p = param(kappa(1), kappa(1), kappa(1, "1/4"), kappa(1, "-1/4"))
        assert lowest_ktype(p) == (1, 1, 1, 1)
        assert lowest_ktype(param(kappa(0))) == (0,)
        assert lowest_ktype(param(kappa(3, "1/2"), kappa(-1, "1/3"))) == (3, -1)


class TestMinimalKtypeConstruction:
    def test_worked_example(self):
        p = param(kappa(1), kappa(1), kappa(1, "1/4"), kappa(1, "-1/4"))
        assert distinguished_minimal_ktype(p) == (2, 2, 0, 0)

    def test_all_even_fixed_point(self):
        p = param(kappa(2), kappa(0), kappa(0))
        assert distinguished_minimal_ktype(p) == (2, 0, 0)

    def test_ones_become_twos_and_zeros(self):
        for n in range(1, 6):
            p = param(*[kappa(1, "1/2")] * n + [kappa(1, "-1/2")] * n)
            assert distinguished_minimal_ktype(p) == tuple([2] * n + [0] * n)

    def test_untwisted_family_has_trivial_minimal_ktype(self):
        from fractions import Fraction

        from glcdist.params import CompSeriesBlock, UnitaryRep, to_langlands

        for n in range(1, 5):
            block = CompSeriesBlock(n, 0, gq(0), Fraction(1, 2))
            p = to_langlands(UnitaryRep([block]))
            assert distinguished_minimal_ktype(p) == tuple([0] * (2 * n))

    def test_odd_multiplicity_raises(self):
        with pytest.raises(NotDistinguishedError):
            distinguished_minimal_ktype(param(kappa(1)))

    def test_output_is_even_and_sum_preserving(self):
        rng = random.Random(123)
        for _ in range(100):
            p = random_distinguished_parameter(rng, 8)
            minimal = distinguished_minimal_ktype(p)
            assert is_o_distinguished(minimal)
            assert sum(minimal) == sum(lowest_ktype(p))


class TestWeightMultiplicity:
    def test_examples(self):
        assert weight_multiplicity((2, 0), (1, 1)) == 1
        assert weight_multiplicity((1, 0), (1, 0)) == 1
        assert weight_multiplicity((2, 2), (1, 1)) == 0

    def test_highest_weight_has_multiplicity_one(self):
        for mu in [(3, 1), (2, 0, -2), (1, 1, 0), (4, 2, 2)]:
            assert weight_multiplicity(mu, mu) == 1

    def test_adjoint_zero_weight(self):
        # gl_3 adjoint-type weight (1, 0, -1): zero weight space has dim 2.
        assert weight_multiplicity((1, 0, -1), (0, 0, 0)) == 2

    def test_symmetric_square_dimensions(self):
        # (2,0,0) on rank 3 is the 6-dimensional symmetric square.
        total = 0
        for nu in itertools.product(range(3), repeat=3):
            if sum(nu) == 2:
                total += weight_multiplicity((2, 0, 0), nu)
        assert total == 6

    @given(
        st.permutations([1, 0, -1]),
    )
    def test_weyl_invariance(self, nu):
        assert weight_multiplicity((1, 0, -1), tuple(nu)) == weight_multiplicity(
            (1, 0, -1), (1, 0, -1)
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weight_multiplicity((1, 0), (1, 0, 0))

    def test_against_pattern_count(self):
        # Independent route: the weight multiplicity equals the number of
        # triangular interlacing patterns whose row sums step by the weight.
        def patterns(top, weight):
            def rec(row, sums_left):
                if len(row) == 1:
                    return 1 if row[0] == sums_left[0] else 0
                total = 0
                lo_hi = list(zip(row[1:], row[:-1]))

                def build(next_row, idx):
                    if idx == len(lo_hi):
                        if sum(row) - sum(next_row) == sums_left[-1]:
                            return rec(tuple(next_row), sums_left[:-1])
                        return 0
                    lo, hi = lo_hi[idx]
                    acc = 0
                    for v in range(lo, hi + 1):
                        acc += build(next_row + [v], idx + 1)
                    return acc

                total += build([], 0)
                return total

            return rec(tuple(top), tuple(weight))

        cases = [
            ((2, 0), (1, 1)),
            ((2, 1, 0), (1, 1, 1)),
            ((1, 0, -1), (0, 0, 0)),
            ((3, 1, 0), (2, 1, 1)),
            ((2, 2, 0), (2, 1, 1)),
        ]
        for mu, nu in cases:
            assert weight_multiplicity(mu, nu) == patterns(mu, nu), (mu, nu)


class TestOracle:
    def test_examples(self):
        p = param(kappa(1, "1/4"), kappa(1, "-1/4"))
        assert minimal_distinguished_ktype_oracle(p, 4) == {HighestWeight((2, 0))}
        p0 = param(kappa(0), kappa(0))
        assert minimal_distinguished_ktype_oracle(p0, 2) == {HighestWeight((0, 0))}
        p2 = param(kappa(2), kappa(0))
        assert minimal_distinguished_ktype_oracle(p2, 4) == {HighestWeight((2, 0))}

    def test_radius_precondition(self):
        with pytest.raises(ValueError):
            minimal_distinguished_ktype_oracle(param(kappa(3, "1/2"), kappa(3, "-1/2")), 2)

    def test_radius_exhausted(self):
        # Odd total twist sum admits no even weight at all.
        with pytest.raises(RadiusExhaustedError):
            minimal_distinguished_ktype_oracle(param(kappa(1), kappa(0)), 6)
        with pytest.raises(RadiusExhaustedError):
            minimal_distinguished_ktype_oracle(param(kappa(1), kappa(0)), 10**9)

    def test_work_caps(self):
        # Both caps are checked before any Weyl sum, and a huge radius costs
        # no more than a small one.
        six = param(*(kappa(m) for m in (1, 1, 2, 0, 0, -2)))
        for radius in (60, 10**9):
            with pytest.raises(PreconditionError, match=f"at most {ORACLE_MAX_CANDIDATES}"):
                minimal_distinguished_ktype_oracle(six, radius)
        wide = param(*[kappa(0)] * (ORACLE_MAX_RANK + 1))
        with pytest.raises(PreconditionError, match=f"n <= {ORACLE_MAX_RANK}"):
            minimal_distinguished_ktype_oracle(wide, 2)

    def test_agreement_with_construction_small(self):
        slots = ["0", "1/4", "-1/4", "1/2", "-1/2"]
        grid = [kappa(m, s) for m in range(-2, 3) for s in slots]
        from glcdist.distinction import check_condition_i

        checked = 0
        for size in (1, 2):
            for combo in itertools.combinations_with_replacement(grid, size):
                p = param(*combo)
                if not check_condition_i(p)[0]:
                    continue
                assert minimal_distinguished_ktype_oracle(p, 6) == {
                    distinguished_minimal_ktype(p)
                }
                checked += 1
        assert checked > 10


class TestRestriction:
    def test_examples(self):
        assert lr_restriction_multiplicity((2, 2, 0), (2, 0), (2,)) == 1
        assert lr_restriction_multiplicity((2, 0, 0), (0, 0), (2,)) == 1
        assert lr_restriction_multiplicity((2, 0), (1,), (2,)) == 0

    def test_rank_mismatch_guarded(self):
        with pytest.raises(ValueError):
            lr_restriction_multiplicity((2, 2), (1, 0), (2,))

    def test_negative_entries_via_shift(self):
        # Restriction is determinant-twist invariant: shift everything by 2.
        assert lr_restriction_multiplicity((0, 0, -2), (0, -2), (0,)) == (
            lr_restriction_multiplicity((2, 2, 0), (2, 0), (2,))
        )

    def test_concat_has_multiplicity_one(self):
        def weights(max_len):
            for length in range(1, max_len + 1):
                for entries in itertools.combinations_with_replacement(range(2, -3, -1), length):
                    yield tuple(sorted(entries, reverse=True))

        for mu in weights(3):
            for gamma in weights(3):
                sigma = concat_reorder(mu, gamma)
                assert lr_restriction_multiplicity(sigma, mu, gamma) == 1, (mu, gamma)

    def test_factor_symmetry(self):
        cases = [
            ((2, 2, 0), (2, 0), (2,)),
            ((3, 1, 0), (2, 1), (1,)),
            ((2, 1, 1, 0), (2, 1), (1, 0)),
            ((2, 0, -2), (1, -1), (0,)),
        ]
        for sigma, mu, gamma in cases:
            assert lr_restriction_multiplicity(sigma, mu, gamma) == (
                lr_restriction_multiplicity(sigma, gamma, mu)
            ), (sigma, mu, gamma)

    def test_torus_restriction_matches_weights(self):
        # Restricting (3,1) to U(1) x U(1) picks out its weights, each once.
        assert lr_restriction_multiplicity((3, 1), (3,), (1,)) == 1
        assert lr_restriction_multiplicity((3, 1), (1,), (3,)) == 1
        assert lr_restriction_multiplicity((3, 1), (2,), (2,)) == 1
        assert lr_restriction_multiplicity((3, 1), (4,), (0,)) == 0
        assert lr_restriction_multiplicity((3, 1), (5,), (-1,)) == 0
