import random
from fractions import Fraction

from glcdist.distinction import (
    DistinctionVerdict,
    InvolutionWitness,
    check_condition_i,
    check_condition_ii,
    has_exceptional_factor,
    is_distinguished_blocks,
    is_distinguished_generic,
    is_distinguished_unitary,
)
from glcdist.equivalence_scan import acceptance_block_grid, enumerate_reps, random_reps
from glcdist.exactnum import GaussianRational
from glcdist.params import (
    CharBlock,
    CharacterCx,
    CompSeriesBlock,
    LanglandsParameter,
    UnitaryRep,
    block_characters,
    sort_key,
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
            flipped = LanglandsParameter(CharacterCx(c.m, -c.s) for c in p.chars)
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


# The verdicts as they were before they were decided by counting: position
# lists built for every parameter, and every block's mirror looked up.  The
# counting versions must give the same verdicts, witnesses and order.  The
# oracles compute from the fields, not from the flags and partners that
# the code under test reads.


def _reference_check_condition_i(p):
    positions: dict = {}
    for idx, c in enumerate(p.chars, start=1):
        positions.setdefault(c, []).append(idx)

    pairs = []
    fixed = []
    for c, idxs in positions.items():
        if c.s.is_zero():
            if c.m % 2 == 0:
                fixed.extend(idxs)
            elif len(idxs) % 2:
                return False, None
            else:
                pairs.extend(
                    (idxs[t], idxs[t + 1]) for t in range(0, len(idxs), 2)
                )
        else:
            mates = positions.get(CharacterCx(c.m, -c.s))
            if mates is None or len(mates) != len(idxs):
                return False, None
            if idxs[0] < mates[0]:
                pairs.extend(zip(idxs, mates))
    witness = InvolutionWitness(tuple(sorted(pairs)), tuple(sorted(fixed)))
    return True, witness


def _reference_check_condition_ii(p):
    counts: dict = {}
    for c in p.chars:
        if c.m % 2 == 1 and (c.s + c.s).is_integer():
            counts[c] = counts.get(c, 0) + 1
    failing = sorted((c for c, count in counts.items() if count % 2), key=sort_key)
    return not failing, tuple(failing)


def _reference_is_distinguished_unitary(p):
    cond_i, witness = _reference_check_condition_i(p)
    cond_ii, failing = _reference_check_condition_ii(p)
    return DistinctionVerdict(cond_i and cond_ii, cond_i, cond_ii, witness, failing)


def _reference_is_distinguished_blocks(rep):
    counts: dict = {}
    for b in rep.blocks:
        counts[b] = counts.get(b, 0) + 1
    cond_i = True
    cond_ii = True
    failing: list = []
    for b, c in counts.items():
        if not b.u.is_zero():
            if isinstance(b, CharBlock):
                mirror = CharBlock(b.n, b.k, -b.u)
            else:
                mirror = CompSeriesBlock(b.m, b.k, -b.u, b.t)
            if counts.get(mirror, 0) != c:
                cond_i = False
        elif isinstance(b, CharBlock) and b.k % 2 == 1 and c % 2 == 1:
            cond_ii = False
            failing.extend(block_characters(b))
    failing.sort(key=sort_key)
    return DistinctionVerdict(cond_i and cond_ii, cond_i, cond_ii, None, tuple(failing))


def fresh_character(m: int, re: Fraction, im: Fraction) -> CharacterCx:
    """kappa_{m, re + i im}, built from rationals no other object shares."""
    return CharacterCx(m, GaussianRational(Fraction(re.numerator, re.denominator), Fraction(im.numerator, im.denominator)))


def random_parameter(rng: random.Random) -> LanglandsParameter:
    """Up to four character values, each repeated up to three times, most
    with some copies of their conjugate-inverse; a quarter of the values are
    kappa_{m,0} with m odd, and a sixth kappa_{m,0} with m even."""
    chars = []
    for _ in range(rng.randint(1, 4)):
        draw = rng.random()
        if draw < 0.25:
            m, re, im = rng.randrange(-3, 4, 2), Fraction(0), Fraction(0)
        elif draw < 0.42:
            m, re, im = rng.randrange(-2, 3, 2), Fraction(0), Fraction(0)
        else:
            m = rng.randint(-2, 2)
            re = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
            im = Fraction(rng.choice((0, 0, 1, -2)), rng.choice((1, 2)))
        copies = rng.randint(1, 3)
        chars += [fresh_character(m, re, im) for _ in range(copies)]
        if rng.random() < 0.7:
            chars += [fresh_character(m, -re, -im) for _ in range(rng.choice((copies, copies, copies + 1)))]
    return LanglandsParameter(chars)


class TestAgainstReference:
    def test_grid_multisets_to_size_4(self):
        reps = [UnitaryRep(combo) for combo in enumerate_reps(acceptance_block_grid(), 4)]
        assert len(reps) == 11315
        for rep in reps:
            p = to_langlands(rep)
            assert is_distinguished_unitary(p) == _reference_is_distinguished_unitary(p), rep
            assert is_distinguished_blocks(rep) == _reference_is_distinguished_blocks(rep), rep

    def test_seeded_parameters(self):
        rng = random.Random(101)
        outcomes = set()
        for _ in range(500):
            p = random_parameter(rng)
            verdict = is_distinguished_unitary(p)
            assert verdict == _reference_is_distinguished_unitary(p), p
            assert is_distinguished_generic(p) == verdict._replace(distinguished=verdict.condition_i)
            outcomes.add((verdict.condition_i, verdict.condition_ii))
        # Both conditions pass and fail, in every combination.
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
