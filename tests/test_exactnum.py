import importlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import glcdist
from glcdist.cosets import Composition
from glcdist.derivatives import MonomialBlock, MonomialRep
from glcdist.distinction import InvolutionWitness
from glcdist.errors import InputError, PreconditionError
from glcdist.factors import AdditiveCharacterSpec, ExactEps
from glcdist.kernelnum import QuadratureConfig
from glcdist.params import CharacterCx, CharBlock, CompSeriesBlock, LanglandsParameter, UnitaryRep
from glcdist.selftest import CriterionResult
from glcdist.exactnum import (
    GQ_I,
    GQ_ONE,
    Frozen,
    GaussianRational,
    integer_rank,
    read_int,
    read_rational,
    real_rank,
)

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=12
)
gaussians = st.builds(GaussianRational, rationals, rationals)
nonzero_gaussians = gaussians.filter(lambda z: not z.is_zero())


def gq(re, im=0):
    return GaussianRational(re, im)


class TestFieldOps:
    def test_norm_of_conjugate_pair(self):
        assert gq("1/2", 1) * gq("1/2", -1) == gq("5/4")

    def test_inverse_of_i(self):
        assert GQ_I.inv() == gq(0, -1)

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            gq(0).inv()

    def test_integer_powers(self):
        assert GQ_I ** 2 == gq(-1)
        assert GQ_I ** -1 == gq(0, -1)
        assert gq(2) ** -2 == gq("1/4")
        assert GQ_I ** (4 * 10**12 + 1) == GQ_I
        base, power = gq("2/3", -1), GQ_ONE
        for k in range(17):
            assert base ** k == power and base ** -k == power.inv()
            power = power * base

    @given(gaussians, gaussians, gaussians)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(nonzero_gaussians)
    def test_multiplicative_inverse(self, a):
        assert a * a.inv() == GQ_ONE

    @given(gaussians)
    def test_hash_is_the_pair_hash(self, z):
        assert hash(z) == hash((z.re, z.im))


# The immutable value types: a constructor, a field, and the expected repr.
VALUE_TYPES = [
    (lambda: gq("1/2", -3), "re", "GaussianRational(1/2, -3)"),
    (lambda: CharacterCx(1, gq("1/2")), "m", "CharacterCx(m=1, s=GaussianRational(1/2, 0))"),
    (lambda: CharBlock(2, 1, gq(0, 1)), "u", "CharBlock(n=2, k=1, u=GaussianRational(0, 1))"),
    (
        lambda: CompSeriesBlock(1, 0, gq(0), Fraction(1, 2)),
        "t",
        "CompSeriesBlock(m=1, k=0, u=GaussianRational(0, 0), t=Fraction(1, 2))",
    ),
    (lambda: InvolutionWitness(((1, 2),), (3,)), "pairs", "InvolutionWitness(pairs=((1, 2),), fixed=(3,))"),
    (lambda: MonomialBlock(1, gq(0), 2), "size", "MonomialBlock(k=1, s=GaussianRational(0, 0), size=2)"),
    (
        lambda: LanglandsParameter([CharacterCx(1, gq(0)), CharacterCx(0, gq("1/2"))]),
        "chars",
        "LanglandsParameter({k[0,1/2], k[1,0]})",
    ),
    (
        lambda: UnitaryRep([CharBlock(1, 0, gq(0)), CharBlock(2, 1, gq(0, 1))]),
        "blocks",
        "UnitaryRep([CharBlock(n=1, k=0, u=GaussianRational(0, 0)), CharBlock(n=2, k=1, u=GaussianRational(0, 1))])",
    ),
    (
        lambda: MonomialRep([MonomialBlock(1, gq(0), 2), MonomialBlock(0, gq("1/2"), 1)]),
        "blocks",
        "MonomialRep([(1, '0', 2), (0, '1/2', 1)])",
    ),
    (lambda: Composition((2, 2)), "parts", "Composition(parts=(2, 2))"),
    (lambda: AdditiveCharacterSpec(gq(0, 1)), "b", "AdditiveCharacterSpec(b=GaussianRational(0, 1))"),
    (
        lambda: ExactEps(gq(1), Fraction(4), gq(2)),
        "unit",
        "ExactEps(unit=GaussianRational(1, 0), abs_b_sq=Fraction(4, 1), modulus_exponent=GaussianRational(2, 0))",
    ),
    (lambda: QuadratureConfig(abs_tol=1e-10, rel_tol=1e-8), "rel_tol", "QuadratureConfig(abs_tol=1e-10, rel_tol=1e-08)"),
    (
        lambda: CriterionResult(8, "kernel oracle", True, "ok", 0.5, 60.0),
        "passed",
        "CriterionResult(index=8, name='kernel oracle', passed=True, detail='ok', elapsed=0.5, budget=60.0)",
    ),
]


@pytest.mark.parametrize("make, field, text", VALUE_TYPES, ids=[text.split("(")[0] for _, _, text in VALUE_TYPES])
def test_value_type_contract(make, field, text):
    a, b = make(), make()
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    # Characters and blocks are hash-consed: one object per value.
    interned = isinstance(a, (CharacterCx, CharBlock, CompSeriesBlock))
    assert (a is b) == interned and a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == text


def value_types_without_a_row(rows) -> list:
    """The concrete ``Frozen`` subclasses of the package (``_Keyed``, the base
    of the interned ones, excepted) that no row of ``rows`` constructs."""
    for path in Path(glcdist.__file__).parent.glob("*.py"):
        if path.stem != "__main__":  # which would run the CLI
            importlib.import_module(f"glcdist.{path.stem}")
    found, stack = set(), [Frozen]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("glcdist.") and cls.__name__ != "_Keyed":
                found.add(cls)
    return sorted(cls.__name__ for cls in found - {type(make()) for make, _, _ in rows})


def test_detects_a_value_type_without_a_row():
    assert value_types_without_a_row(VALUE_TYPES[1:]) == ["GaussianRational"]


def test_every_value_type_has_a_row():
    assert value_types_without_a_row(VALUE_TYPES) == []


class TestSerialization:
    def test_rational_strings(self):
        assert gq("3/4", 5).to_json() == {"re": "3/4", "im": "5"}
        assert read_rational("-7/2") == Fraction(-7, 2)

    @given(gaussians)
    def test_json_round_trip(self, a):
        assert GaussianRational.parse(a.to_json()) == a


class TestReaders:
    def test_integers(self):
        assert read_int(3) == 3
        assert read_int(-10**30) == -10**30

    @pytest.mark.parametrize("value", [1.5, 1.0, True, False, "1", None, [1], {"m": 1}])
    def test_integer_rejects(self, value):
        with pytest.raises(InputError):
            read_int(value)

    def test_rationals(self):
        assert read_rational("3") == 3
        assert read_rational(" -3/12 ") == Fraction(-1, 4)
        assert read_rational(-2) == -2
        assert GaussianRational("1/2", -1) == GaussianRational(Fraction(1, 2), Fraction(-1))

    @pytest.mark.parametrize(
        "value",
        ["1/0", "0/0", "1.5", "1e3", "1/-2", "+", "", "x", "1/2/3", "1/" + "0" * 5000, 0.1, True, None, [1]],
        ids=lambda value: value if isinstance(value, str) else repr(value),  # by content, not by position
    )
    def test_rational_rejects(self, value):
        with pytest.raises(InputError):
            read_rational(value)
        with pytest.raises(InputError):
            GaussianRational.parse({"re": value, "im": "0"})

    def test_digit_cap(self):
        # 4,000 digits are read, counted on the value (leading zeros are
        # free), and text past int()'s own 4,300-digit limit is too long too.
        top = 10**4000 - 1
        assert read_int(-top) == -top and read_rational(top) == top
        assert read_rational("1/" + "9" * 4000) == Fraction(1, top)
        assert read_rational("0" * 4001 + "1") == 1
        assert read_rational("0" * 5000 + "1/" + "0" * 5000 + "3") == Fraction(1, 3)
        for value in (10**4000, -(10**4000)):
            with pytest.raises(PreconditionError, match="MAX_INPUT_DIGITS = 4000"):
                read_int(value)
        for value in ("1" * 4001, "-1/" + "1" * 4001, "1" * 5000):
            with pytest.raises(PreconditionError, match="MAX_INPUT_DIGITS = 4000"):
                read_rational(value)

    def test_gaussian_parse_rejects_non_objects(self):
        for value in (None, 0.5, [0, 1], False):
            with pytest.raises(InputError):
                GaussianRational.parse(value)


def unit(n, i, j, re=1, im=0):
    """The coordinates real_rank takes of the n-by-n matrix with re + im*i at (i, j)."""
    row = [0] * (2 * n * n)
    row[2 * (i * n + j)], row[2 * (i * n + j) + 1] = re, im
    return row


def identity(n, re=1, im=0):
    return [sum(col) for col in zip(*(unit(n, k, k, re, im) for k in range(n)))]


class TestIntegerRank:
    def test_small_matrices(self):
        assert integer_rank([]) == 0
        assert integer_rank([[0, 0], [0, 0]]) == 0
        assert integer_rank([[1, 2], [2, 4]]) == 1
        assert integer_rank([[0, 1], [1, 0]]) == 2
        assert integer_rank([[2, 3, 5], [4, 6, 10], [1, 0, 7]]) == 2

    def test_argument_is_left_unchanged(self):
        rows = [[0, 2, 3], [4, 5, 6], [7, 8, 10]]
        copy = [row[:] for row in rows]
        assert integer_rank(rows) == 3
        assert rows == copy

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), max_size=5))
    def test_matches_rank_over_the_rationals(self, rows):
        # Gaussian elimination in Fractions as the independent reference.
        work = [[Fraction(x) for x in row] for row in rows]
        rank = 0
        for col in range(3):
            pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
            if pivot is None:
                continue
            work[rank], work[pivot] = work[pivot], work[rank]
            for r in range(rank + 1, len(work)):
                factor = work[r][col] / work[rank][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
            rank += 1
        assert integer_rank(rows) == rank


class TestRealRank:
    def test_single_identity(self):
        assert real_rank([identity(2)], 2) == 1

    def test_identity_and_i_identity(self):
        assert real_rank([identity(2), identity(2, 0, 1)], 2) == 2

    def test_upper_triangular_plus_real_matrices(self):
        vectors = []
        for i in range(2):
            for j in range(2):
                if i <= j:
                    vectors.append(unit(2, i, j))
                    vectors.append(unit(2, i, j, 0, 1))
        for i in range(2):
            for j in range(2):
                vectors.append(unit(2, i, j))
        assert real_rank(vectors, 2) == 7

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            real_rank([identity(3)], 2)
        with pytest.raises(ValueError):
            real_rank([identity(2) + [0]], 2)

    @given(st.randoms(use_true_random=False))
    def test_invariant_under_permutation_and_rescaling(self, rng):
        vectors = [
            unit(2, rng.randrange(2), rng.randrange(2), rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(5)
        ]
        base = real_rank(vectors, 2)
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        scaled = []
        for v in shuffled:
            factor = rng.choice([-7, -2, 1, 3])
            scaled.append([x * factor for x in v])
        assert real_rank(scaled, 2) == base

    def test_combinations_do_not_raise_rank(self):
        a = unit(3, 0, 1)
        b = unit(3, 1, 2, 0, 1)
        combo = [2 * x - 3 * y for x, y in zip(a, b)]
        assert real_rank([a, b, combo], 3) == 2
