import random
import re

import pytest

from glcdist import cosets
from glcdist.cosets import (
    Composition,
    class_dimensions,
    enumerate_involutions,
    in_torus_translate,
    orbit_dimension,
    parabolic_classes,
    representative,
    representatives_verified,
    verify_representative,
)
from glcdist.errors import PreconditionError

ZERO, ONE, I = (0, 0), (1, 0), (0, 1)


def compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def closure_classes(n, parts):
    """Young double cosets by breadth-first closure: the involutions reached
    from each one by adjacent transpositions inside a block, applied to
    values (left) or positions (right)."""
    gens = []
    offset = 0
    for size in parts:
        gens.extend(range(offset, offset + size - 1))
        offset += size

    def neighbours(p):
        for g in gens:
            a, b = g + 1, g + 2
            yield tuple(b if x == a else a if x == b else x for x in p)
            q = list(p)
            q[g], q[g + 1] = q[g + 1], q[g]
            yield tuple(q)

    involutions = list(enumerate_involutions(n))
    unassigned = set(involutions)
    classes = []
    for start in involutions:
        if start not in unassigned:
            continue
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for p in frontier:
                for q in neighbours(p):
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        members = sorted(seen & unassigned)
        unassigned -= seen
        classes.append(members)
    return sorted(classes)


def integer_rows(rows):
    """Integer rows as rows of (re, im) pairs."""
    return tuple(tuple((x, 0) for x in row) for row in rows)


class TestEnumeration:
    def test_counts(self):
        assert [len(enumerate_involutions(n)) for n in range(1, 6)] == [1, 2, 4, 10, 26]

    def test_recurrence(self):
        counts = {}
        for n in range(1, 11):
            perms = list(enumerate_involutions(n))
            assert perms == sorted(set(perms)), n
            counts[n] = len(perms)
        for n in range(3, 11):
            assert counts[n] == counts[n - 1] + (n - 1) * counts[n - 2]

    def test_small_sets(self):
        assert list(enumerate_involutions(3)) == [
            (1, 2, 3),
            (1, 3, 2),
            (2, 1, 3),
            (3, 2, 1),
        ]

    def test_built_once_per_n(self):
        # Callers share one immutable tuple per n; nothing rebuilds it.
        first = enumerate_involutions(6)
        assert type(first) is tuple and enumerate_involutions(6) is first

    def test_range_guard(self):
        with pytest.raises(PreconditionError):
            enumerate_involutions(0)
        with pytest.raises(PreconditionError):
            enumerate_involutions(11)

    # Enumerated involutions are not checked again; a caller's is, where it enters.
    def test_non_involution_rejected(self):
        with pytest.raises(ValueError, match=re.escape("not an involution: (2, 3, 1)")):
            representative((2, 3, 1))

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError, match=re.escape("not a permutation of 1..2: (1, 1)")):
            in_torus_translate(representative((2, 1)), (1, 1))


class TestRepresentatives:
    def test_identity(self):
        assert representative((1, 2, 3)) == integer_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_transposition_block(self):
        m = representative((2, 1))
        assert m == ((ONE, I), (I, ONE))

    def test_disjoint_product(self):
        m = representative((2, 1, 4, 3))
        expected = (
            (ONE, I, ZERO, ZERO),
            (I, ONE, ZERO, ZERO),
            (ZERO, ZERO, ONE, I),
            (ZERO, ZERO, I, ONE),
        )
        assert m == expected

    def test_twisted_conjugation_lands_in_torus_translate(self):
        # g conj(g)^{-1} = w t means row w(j) of g is t_j conj(row j);
        # sqrt(-1) conj(re + im i) = im + re i.
        g = representative((2, 1))
        assert g[1] == tuple((im, re) for re, im in g[0])

    def test_check_rejects_wrong_matrices(self):
        w = (2, 1)
        assert in_torus_translate(representative(w), w)
        for rows in ([[1, 1], [1, 1]], [[1, 1], [0, 1]], [[1, 0], [0, 1]]):
            assert not in_torus_translate(integer_rows(rows), w), rows

    def test_check_rejects_singular_complex_matrices(self):
        # Each row is sqrt(-1) times its conjugate, or real, so only the
        # rank of the realification rejects these.
        identity = (1, 2)
        one_plus_i, two = (1, 1), (2, 0)
        assert not in_torus_translate(((one_plus_i, one_plus_i), (two, two)), identity)
        assert in_torus_translate(((one_plus_i, ZERO), (ZERO, two)), identity)

    def test_verification_examples(self):
        assert verify_representative((1, 2))
        assert verify_representative((2, 1))
        assert verify_representative((3, 2, 1))

    def test_verification_exhaustive_to_five(self):
        for n in range(1, 6):
            assert all(verify_representative(w) for w in enumerate_involutions(n))

    def test_verified_once_per_n(self, monkeypatch):
        calls = []

        def counted(w):
            calls.append(w)
            return verify_representative(w)

        representatives_verified.cache_clear()
        monkeypatch.setattr(cosets, "verify_representative", counted)
        try:
            assert [representatives_verified(n) for n in range(1, 8)] == [True] * 7
            assert len(calls) == 351 == len(set(calls))  # 1 + 2 + 4 + ... + 232
            for n in range(1, 8):
                assert representatives_verified(n) is True
            assert [representatives_verified(n) for n in (8, 9, 10)] == [None] * 3
            assert len(calls) == 351
        finally:
            representatives_verified.cache_clear()

    def test_verified_range_guard_is_not_cached(self):
        before = representatives_verified.cache_info().currsize
        for n in (0, 11):
            with pytest.raises(PreconditionError):
                representatives_verified(n)
        assert representatives_verified.cache_info().currsize == before


class TestParabolicClasses:
    def test_trivial_composition(self):
        classes = parabolic_classes(Composition((1, 1, 1, 1)))
        assert len(classes) == 10
        assert all(len(cls) == 1 for cls in classes)

    def test_full_composition(self):
        assert len(parabolic_classes(Composition((4,)))) == 1

    def test_half_half(self):
        classes = parabolic_classes(Composition((2, 2)))
        assert len(classes) == 3
        reps = [cls[0] for cls in classes]
        assert reps == [(1, 2, 3, 4), (1, 3, 2, 4), (3, 4, 1, 2)]

    def test_half_half_counts(self):
        for half in (1, 2, 3):
            classes = parabolic_classes(Composition((half, half)))
            assert len(classes) == half + 1

    def test_against_the_closure(self):
        for n in range(1, 7):
            for parts in compositions(n):
                classes = parabolic_classes(Composition(parts))
                assert classes == closure_classes(n, parts), parts

    def test_composition_guard(self):
        # n is bounded only by enumerate_involutions.
        assert len(parabolic_classes(Composition((1,) * 10))) == 9496
        with pytest.raises(PreconditionError):
            parabolic_classes(Composition((11,)))
        with pytest.raises(PreconditionError):
            Composition((2, 0))


class TestOrbitDimensions:
    def test_borel_rank_two(self):
        comp = Composition((1, 1))
        assert orbit_dimension((1, 2), comp) == 7
        assert orbit_dimension((2, 1), comp) == 8

    def test_full_parabolic_always_open(self):
        for w in enumerate_involutions(3):
            assert orbit_dimension(w, Composition((3,))) == 18

    def test_borel_open_orbit_is_longest_involution(self):
        for n in range(1, 5):
            comp = Composition((1,) * n)
            full = 2 * n * n
            open_perms = [w for w in enumerate_involutions(n) if orbit_dimension(w, comp) == full]
            assert open_perms == [tuple(range(n, 0, -1))]

    def test_middle_parabolic_open_class_is_full_pairing(self):
        for half in (1, 2, 3):
            comp = Composition((half, half))
            classes = parabolic_classes(comp)
            full = 2 * (2 * half) ** 2
            open_reps = [cls[0] for cls in classes if orbit_dimension(cls[0], comp) == full]
            pairing = tuple(list(range(half + 1, 2 * half + 1)) + list(range(1, half + 1)))
            assert open_reps == [pairing]

    def test_unique_open_class_rank_three(self):
        for parts in compositions(3):
            comp = Composition(parts)
            classes = parabolic_classes(comp)
            open_count = 0
            for cls in classes:
                dims = {orbit_dimension(w, comp) for w in cls}
                assert len(dims) == 1, "dimension must be constant on classes"
                if dims.pop() == 18:
                    open_count += 1
            assert open_count == 1

    def test_dimension_tables(self):
        # Computed as dim(p + g h g^{-1}) with an exact inverse, before the
        # tangent-space formulation; the two must agree.
        borel = {
            1: [2],
            2: [7, 8],
            3: [15, 16, 16, 18],
            4: [26, 27, 27, 29, 27, 28, 29, 30, 31, 32],
        }
        for n, dims in borel.items():
            comp = Composition((1,) * n)
            assert [orbit_dimension(w, comp) for w in enumerate_involutions(n)] == dims
        comp = Composition((2, 2))
        assert [orbit_dimension(w, comp) for w in enumerate_involutions(4)] == [
            28, 28, 31, 31, 28, 28, 31, 32, 31, 32,
        ]

    def test_formula_against_rank(self):
        for parts in ((3, 4), (4, 4)):
            comp = Composition(parts)
            classes = parabolic_classes(comp)
            assert class_dimensions(classes) == [orbit_dimension(cls[0], comp) for cls in classes]
        rng = random.Random(11)
        for n in (7, 8):
            comp = Composition((1,) * n)
            classes = rng.sample(parabolic_classes(comp), 6)
            assert class_dimensions(classes) == [orbit_dimension(cls[0], comp) for cls in classes]

    def test_work_cap(self, monkeypatch):
        # The closed form computes no rank, so every composition answers.
        def no_rank(w, comp):
            raise AssertionError("class_dimensions computed a rank")

        monkeypatch.setattr(cosets, "orbit_dimension", no_rank)
        for n in range(1, 9):
            full = 2 * n * n
            for parts in compositions(n):
                dims = class_dimensions(parabolic_classes(Composition(parts)))
                assert dims.count(full) == 1 and all(0 < d <= full for d in dims), parts
