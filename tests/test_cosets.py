import pytest

from glcdist.cosets import (
    Composition,
    Involution,
    enumerate_involutions,
    is_open_orbit,
    orbit_dimension,
    parabolic_classes,
    representative,
    verify_representative,
)
from glcdist.errors import PreconditionError
from glcdist.exactnum import ExactMatrix, GQ_I, GQ_ONE, GQ_ZERO


class TestEnumeration:
    def test_counts(self):
        assert [len(enumerate_involutions(n)) for n in range(1, 6)] == [1, 2, 4, 10, 26]

    def test_recurrence(self):
        counts = {n: len(enumerate_involutions(n)) for n in range(1, 8)}
        for n in range(3, 8):
            assert counts[n] == counts[n - 1] + (n - 1) * counts[n - 2]

    def test_small_sets(self):
        assert [w.perm for w in enumerate_involutions(3)] == [
            (1, 2, 3),
            (1, 3, 2),
            (2, 1, 3),
            (3, 2, 1),
        ]

    def test_range_guard(self):
        with pytest.raises(PreconditionError):
            enumerate_involutions(0)
        with pytest.raises(PreconditionError):
            enumerate_involutions(11)

    def test_non_involution_rejected(self):
        with pytest.raises(ValueError):
            Involution((2, 3, 1))


class TestRepresentatives:
    def test_identity(self):
        assert representative(Involution((1, 2, 3))) == ExactMatrix.identity(3)

    def test_transposition_block(self):
        m = representative(Involution((2, 1)))
        assert m == ExactMatrix([[GQ_ONE, GQ_I], [GQ_I, GQ_ONE]])

    def test_disjoint_product(self):
        m = representative(Involution((2, 1, 4, 3)))
        block = [[GQ_ONE, GQ_I], [GQ_I, GQ_ONE]]
        expected = [
            [block[0][0], block[0][1], GQ_ZERO, GQ_ZERO],
            [block[1][0], block[1][1], GQ_ZERO, GQ_ZERO],
            [GQ_ZERO, GQ_ZERO, block[0][0], block[0][1]],
            [GQ_ZERO, GQ_ZERO, block[1][0], block[1][1]],
        ]
        assert m == ExactMatrix(expected)

    def test_twisted_conjugation_lands_in_torus_translate(self):
        g = representative(Involution((2, 1)))
        m = g @ g.conj().inverse()
        assert m == ExactMatrix([[GQ_ZERO, GQ_I], [GQ_I, GQ_ZERO]])

    def test_verification_examples(self):
        assert verify_representative(Involution((1, 2)))
        assert verify_representative(Involution((2, 1)))
        assert verify_representative(Involution((3, 2, 1)))

    def test_verification_exhaustive_to_five(self):
        for n in range(1, 6):
            assert all(verify_representative(w) for w in enumerate_involutions(n))


class TestParabolicClasses:
    def test_trivial_composition(self):
        classes = parabolic_classes(4, Composition((1, 1, 1, 1)))
        assert len(classes) == 10
        assert all(len(cls) == 1 for cls in classes)

    def test_full_composition(self):
        assert len(parabolic_classes(4, Composition((4,)))) == 1

    def test_half_half(self):
        classes = parabolic_classes(4, Composition((2, 2)))
        assert len(classes) == 3
        reps = [cls[0].perm for cls in classes]
        assert reps == [(1, 2, 3, 4), (1, 3, 2, 4), (3, 4, 1, 2)]

    def test_half_half_counts(self):
        for half in (1, 2, 3):
            classes = parabolic_classes(2 * half, Composition((half, half)))
            assert len(classes) == half + 1

    def test_composition_guard(self):
        with pytest.raises(PreconditionError):
            parabolic_classes(4, Composition((2, 1)))
        with pytest.raises(PreconditionError):
            parabolic_classes(9, Composition((9,)))
        with pytest.raises(PreconditionError):
            Composition((2, 0))


class TestOrbitDimensions:
    def test_borel_rank_two(self):
        comp = Composition((1, 1))
        assert orbit_dimension(Involution((1, 2)), comp) == 7
        assert orbit_dimension(Involution((2, 1)), comp) == 8
        assert is_open_orbit(Involution((2, 1)), comp)

    def test_full_parabolic_always_open(self):
        for w in enumerate_involutions(3):
            assert orbit_dimension(w, Composition((3,))) == 18

    def test_borel_open_orbit_is_longest_involution(self):
        for n in range(1, 5):
            comp = Composition((1,) * n)
            full = 2 * n * n
            open_perms = [
                w.perm
                for w in enumerate_involutions(n)
                if orbit_dimension(w, comp) == full
            ]
            assert open_perms == [tuple(range(n, 0, -1))]

    def test_middle_parabolic_open_class_is_full_pairing(self):
        for half in (1, 2, 3):
            comp = Composition((half, half))
            classes = parabolic_classes(2 * half, comp)
            full = 2 * (2 * half) ** 2
            open_reps = [
                cls[0].perm
                for cls in classes
                if orbit_dimension(cls[0], comp) == full
            ]
            pairing = tuple(list(range(half + 1, 2 * half + 1)) + list(range(1, half + 1)))
            assert open_reps == [pairing]

    def test_unique_open_class_rank_three(self):
        def compositions(n):
            if n == 0:
                yield ()
                return
            for first in range(1, n + 1):
                for rest in compositions(n - first):
                    yield (first,) + rest

        for parts in compositions(3):
            comp = Composition(parts)
            classes = parabolic_classes(3, comp)
            open_count = 0
            for cls in classes:
                dims = {orbit_dimension(w, comp) for w in cls}
                assert len(dims) == 1, "dimension must be constant on classes"
                if dims.pop() == 18:
                    open_count += 1
            assert open_count == 1
