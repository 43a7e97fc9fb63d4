import random
from fractions import Fraction

from glcdist.distinction import (
    check_condition_i,
    check_condition_ii,
    has_exceptional_factor,
    is_distinguished_blocks,
    is_distinguished_generic,
    is_distinguished_unitary,
)
from glcdist.equivalence_scan import random_reps
from glcdist.exactnum import GaussianRational
from glcdist.params import (
    CharBlock,
    CharacterCx,
    CompSeriesBlock,
    LanglandsParameter,
    UnitaryRep,
    to_langlands,
)
from glcdist.selftest import random_distinguished_parameter


def gq(re, im=0):
    return GaussianRational(re, im)


def kappa(m, re, im=0):
    return CharacterCx(m, gq(re, im))


def param(*chars):
    return LanglandsParameter(chars)


SGN2 = CharBlock(2, 1, gq(0))


def witness_is_valid(witness, p):
    """The witness's pairs and fixed points partition 1..n, each pair joins
    kappa_{m,s} with kappa_{m,-s}, and each fixed point has s = 0, m even."""
    seen = sorted([i for ij in witness.pairs for i in ij] + list(witness.fixed))
    if seen != list(range(1, p.n + 1)):
        return False
    chars = p.chars
    for i, j in witness.pairs:
        a, b = chars[i - 1], chars[j - 1]
        if a.m != b.m or a.s != -b.s:
            return False
    return all(chars[i - 1].s.is_zero() and chars[i - 1].m % 2 == 0 for i in witness.fixed)


class TestConditionI:
    def test_paired(self):
        ok, witness = check_condition_i(param(kappa(1, "1/2"), kappa(1, "-1/2")))
        assert ok and witness.pairs == ((1, 2),) and witness.fixed == ()

    def test_forced_odd_fixed_point(self):
        ok, witness = check_condition_i(param(kappa(1, 0)))
        assert not ok and witness is None

    def test_trivial_characters_fixed(self):
        ok, witness = check_condition_i(param(kappa(0, 0), kappa(0, 0), kappa(0, 0)))
        assert ok and witness.pairs == () and witness.fixed == (1, 2, 3)

    def test_witness_validates(self):
        p = param(
            kappa(1, "1/2"), kappa(1, "-1/2"), kappa(2, 0), kappa(-1, 0), kappa(-1, 0),
            kappa(0, 0, "1/2"), kappa(0, 0, "-1/2"),
        )
        ok, witness = check_condition_i(p)
        assert ok
        assert witness_is_valid(witness, p)

    def test_monotone_failure(self):
        base = [kappa(1, 0), kappa(1, 0), kappa(0, 0)]
        ok, _ = check_condition_i(param(*base))
        assert ok
        ok2, _ = check_condition_i(param(*base, kappa(1, 0)))
        assert not ok2


class TestConditionII:
    def test_triple_sign_pair_fails(self):
        p = param(*([kappa(1, "1/2")] * 3 + [kappa(1, "-1/2")] * 3))
        ok, failing = check_condition_ii(p)
        assert not ok
        assert set(failing) == {kappa(1, "1/2"), kappa(1, "-1/2")}

    def test_double_sign_pair_passes(self):
        p = param(*([kappa(1, "1/2")] * 2 + [kappa(1, "-1/2")] * 2))
        assert check_condition_ii(p)[0]

    def test_non_half_integral_vacuous(self):
        p = param(kappa(1, "3/10"), kappa(1, "-3/10"))
        assert check_condition_ii(p)[0]

    def test_imaginary_slot_vacuous(self):
        p = param(kappa(1, 0, 1), kappa(1, 0, -1))
        assert check_condition_ii(p)[0]


class TestVerdicts:
    def test_generic_examples(self):
        assert is_distinguished_generic(param(kappa(1, "1/2"), kappa(1, "-1/2"))).distinguished
        assert not is_distinguished_generic(param(kappa(1, 0), kappa(0, 0))).distinguished
        assert is_distinguished_generic(param(kappa(0, 0, 2), kappa(0, 0, -2))).distinguished

    def test_unitary_examples(self):
        sgn3 = to_langlands(UnitaryRep([SGN2] * 3))
        verdict = is_distinguished_unitary(sgn3)
        assert not verdict.distinguished and verdict.condition_i and not verdict.condition_ii
        assert is_distinguished_unitary(to_langlands(UnitaryRep([SGN2] * 2))).distinguished
        assert is_distinguished_unitary(param(kappa(0, 0))).distinguished

    def test_blocks_examples(self):
        assert not is_distinguished_blocks(UnitaryRep([SGN2] * 3)).distinguished
        assert is_distinguished_blocks(UnitaryRep([SGN2] * 2)).distinguished
        pair = UnitaryRep(
            [
                CompSeriesBlock(1, 0, gq(0, 1), Fraction(1, 2)),
                CompSeriesBlock(1, 0, gq(0, -1), Fraction(1, 2)),
            ]
        )
        assert is_distinguished_blocks(pair).distinguished

    def test_blocks_mismatched_twist_multiplicity(self):
        rep = UnitaryRep(
            [CharBlock(1, 0, gq(0, 1)), CharBlock(1, 0, gq(0, 1)), CharBlock(1, 0, gq(0, -1))]
        )
        assert not is_distinguished_blocks(rep).distinguished
        assert not is_distinguished_unitary(to_langlands(rep)).distinguished


class TestExceptionalFactor:
    def test_examples(self):
        assert has_exceptional_factor(UnitaryRep([SGN2] * 2))
        assert not has_exceptional_factor(UnitaryRep([CharBlock(1, 1, gq(0))] * 2))
        assert not has_exceptional_factor(UnitaryRep([CharBlock(3, 2, gq(0))]))
        assert not has_exceptional_factor(
            UnitaryRep([CompSeriesBlock(2, 1, gq(0), Fraction(1, 2))])
        )


class TestInvariants:
    def test_formulation_equivalence_random(self):
        rng = random.Random(97)
        for total in (3, 5, 8):
            for rep in random_reps(rng, total, 150):
                via_blocks = is_distinguished_blocks(rep).distinguished
                via_param = is_distinguished_unitary(to_langlands(rep)).distinguished
                assert via_blocks == via_param, rep

    def test_conjugation_symmetry(self):
        rng = random.Random(98)
        for _ in range(100):
            p = random_distinguished_parameter(rng, 6)
            flipped = LanglandsParameter(c.conj_inverse() for c in p)
            assert (
                is_distinguished_unitary(p).distinguished
                == is_distinguished_unitary(flipped).distinguished
            )

    def test_witness_validity_random(self):
        rng = random.Random(99)
        for _ in range(200):
            p = random_distinguished_parameter(rng, 8)
            ok, witness = check_condition_i(p)
            assert ok and witness_is_valid(witness, p)

    def test_witness_deterministic(self):
        rng = random.Random(100)
        for _ in range(50):
            p = random_distinguished_parameter(rng, 8)
            assert check_condition_i(p) == check_condition_i(
                LanglandsParameter(reversed(p.chars))
            )

    def test_verdict_json_shape(self):
        verdict = is_distinguished_unitary(param(kappa(1, "1/2"), kappa(1, "-1/2")))
        blob = verdict.to_json()
        assert set(blob) == {
            "distinguished",
            "condition_i",
            "condition_ii",
            "witness",
            "failing_characters",
        }
        assert blob["witness"]["pairs"] == [[1, 2]]
