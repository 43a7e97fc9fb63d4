import itertools
import random

import pytest
from hypothesis import given, strategies as st

from glcdist.errors import PreconditionError
from glcdist.exactnum import GaussianRational
from glcdist.ktypes import (
    ORACLE_MAX_CANDIDATES,
    ORACLE_MAX_RANK,
    NotDistinguishedError,
    distinguished_minimal_ktype,
    is_o_distinguished,
    lowest_ktype,
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


def kostant_multiplicity(mu, nu, memo):
    """Reference weight multiplicity by Kostant's formula, independent of the
    pattern count: the sum over permutations w of sgn(w) K(w(mu+rho) -
    (nu+rho)), with rho = (n-1, ..., 0) and K the number of ways to write a
    vector as a nonnegative integer combination of the positive roots
    e_i - e_j (i < j).  ``memo`` holds the partition counts across calls."""
    n = len(mu)
    if sum(mu) != sum(nu):
        return 0
    roots = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def partitions(vec, idx):
        if not any(vec):
            return 1
        if idx == len(roots):
            return 0
        key = (vec, idx)
        if key not in memo:
            i, j = roots[idx]
            # Subtracting c*(e_i - e_j) lowers the prefix sums over [i, j-1]
            # by c, and those of a nonnegative root combination are >= 0.
            bound = min(list(itertools.accumulate(vec[:j]))[i:])
            total = 0
            lst = list(vec)
            for c in range(bound + 1):
                lst[i], lst[j] = vec[i] - c, vec[j] + c
                total += partitions(tuple(lst), idx + 1)
            memo[key] = total
        return memo[key]

    total = 0
    for perm in itertools.permutations(range(n)):
        beta = tuple(mu[perm[i]] + n - 1 - perm[i] - (nu[i] + n - 1 - i) for i in range(n))
        if min(itertools.accumulate(beta)) < 0:
            continue
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        total += (-1) ** inversions * partitions(beta, 0)
    return total


class TestBasics:
    def test_evenness(self):
        assert is_o_distinguished((2, 2, 0))
        assert not is_o_distinguished((2, 1, 0))
        assert is_o_distinguished((0, 0, 0, 0))

    def test_weakly_decreasing_enforced(self):
        for check in (lambda mu: weight_multiplicity(mu, (1, 0)), is_o_distinguished):
            with pytest.raises(ValueError, match="weakly decreasing"):
                check((0, 1))
            with pytest.raises(ValueError, match="at least one entry"):
                check(())

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

    def test_named_cases_against_kostant(self):
        memo = {}
        cases = [
            ((2, 0), (1, 1)),
            ((2, 1, 0), (1, 1, 1)),
            ((1, 0, -1), (0, 0, 0)),
            ((3, 1, 0), (2, 1, 1)),
            ((2, 2, 0), (2, 1, 1)),
        ]
        for mu, nu in cases:
            assert weight_multiplicity(mu, nu) == kostant_multiplicity(mu, nu, memo), (mu, nu)

    def test_exhaustive_grid_against_kostant(self):
        # Every dominant mu with entries in -3..3 for n <= 3 and -2..2 for
        # n = 4, against every nu in the same box: 73,983 pairs.
        memo = {}
        pairs = positive = 0
        for n, low, high in ((1, -3, 3), (2, -3, 3), (3, -3, 3), (4, -2, 2)):
            box = range(low, high + 1)
            for mu in itertools.product(box, repeat=n):
                if any(a < b for a, b in zip(mu, mu[1:])):
                    continue
                for nu in itertools.product(box, repeat=n):
                    got = weight_multiplicity(mu, nu)
                    assert got == kostant_multiplicity(mu, nu, memo), (mu, nu)
                    pairs += 1
                    positive += got > 0
        assert pairs == 73983 and positive > 1000


class TestOracle:
    def test_examples(self):
        p = param(kappa(1, "1/4"), kappa(1, "-1/4"))
        assert minimal_distinguished_ktype_oracle(p, 4) == {(2, 0)}
        p0 = param(kappa(0), kappa(0))
        assert minimal_distinguished_ktype_oracle(p0, 2) == {(0, 0)}
        p2 = param(kappa(2), kappa(0))
        assert minimal_distinguished_ktype_oracle(p2, 4) == {(2, 0)}

    def test_rank_six(self):
        six = param(*(kappa(1, f"{sign * k}/7") for k in (1, 2, 3) for sign in (1, -1)))
        assert minimal_distinguished_ktype_oracle(six, 11) == {(2, 2, 2, 0, 0, 0)}

    def test_radius_precondition(self):
        with pytest.raises(ValueError):
            minimal_distinguished_ktype_oracle(param(kappa(3, "1/2"), kappa(3, "-1/2")), 2)

    def test_radius_exhausted(self):
        # Odd total twist sum admits no even weight at all.
        for radius in (6, 10**9):
            with pytest.raises(PreconditionError, match=r"no even K-type containing weight \(1, 0\) within radius"):
                minimal_distinguished_ktype_oracle(param(kappa(1), kappa(0)), radius)

    def test_work_caps(self):
        # Both caps are checked before any multiplicity is counted, and a
        # huge radius costs no more than a small one.
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

