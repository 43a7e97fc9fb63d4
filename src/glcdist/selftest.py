"""The acceptance suite: every exit criterion as a callable check.

Each criterion returns (passed, detail) and is wrapped with a wall-clock
budget; the pytest acceptance module and the CLI ``selftest`` subcommand
both run this list and print one line per criterion.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, List, NamedTuple, Tuple

from .cosets import (
    Composition,
    class_dimensions,
    enumerate_involutions,
    orbit_dimension,
    parabolic_classes,
    representatives_verified,
)
from .derivatives import MonomialBlock, MonomialRep, derivative_necessity_test
from .distinction import (
    check_condition_i,
    check_condition_ii,
    is_distinguished_generic,
    is_distinguished_unitary,
)
from .equivalence_scan import (
    direct_exhaustive_check,
    direct_verdicts,
    enumerate_reps,
    random_reps,
    run_equivalence_scan,
)
from .exactnum import GQ_ONE, GaussianRational
from .factors import AdditiveCharacterSpec, eps_pair, eps_rep
from .kernelnum import KERNEL_CONFIG  # noqa: F401  re-exported for perfbench/kernel_verify.py
from .kernelnum import KERNEL_CASES, beta_P, complex_gamma, kernel_row
from .ktypes import (
    distinguished_minimal_ktype,
    lowest_ktype,
    minimal_distinguished_ktype_oracle,
)
from .params import (
    CharBlock,
    CharacterCx,
    CompSeriesBlock,
    LanglandsParameter,
    UnitaryRep,
    to_langlands,
)


class CriterionResult(NamedTuple):
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float

    @property
    def within_budget(self) -> bool:
        return self.elapsed < self.budget

    @property
    def ok(self) -> bool:
        """Passed, and within the budget."""
        return self.passed and self.within_budget

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] criterion {self.index}: {self.name} "
            f"({self.elapsed:.2f}s / budget {self.budget:.0f}s) {self.detail}"
        )


def _sgn_block(size: int) -> CharBlock:
    return CharBlock(size, 1, GaussianRational(0))


def criterion_1_worked_examples() -> Tuple[bool, str]:
    """Exact fixtures: the six-fold sign product, the four-fold one, and
    the minimal even K-types of the standard families."""
    checks = []

    sgn3 = to_langlands(UnitaryRep([_sgn_block(2)] * 3))
    v = is_distinguished_unitary(sgn3)
    checks.append(not v.distinguished and v.condition_i and not v.condition_ii)

    sgn2 = to_langlands(UnitaryRep([_sgn_block(2)] * 2))
    checks.append(is_distinguished_unitary(sgn2).distinguished)

    quarter = GaussianRational(Fraction(1, 4))
    g4 = LanglandsParameter(
        [
            CharacterCx(1, GaussianRational(0)),
            CharacterCx(1, GaussianRational(0)),
            CharacterCx(1, quarter),
            CharacterCx(1, -quarter),
        ]
    )
    checks.append(lowest_ktype(g4) == (1, 1, 1, 1))
    checks.append(distinguished_minimal_ktype(g4) == (2, 2, 0, 0))

    for n in range(1, 6):
        block = CompSeriesBlock(n, 1, GaussianRational(0), Fraction(1, 2))
        p = to_langlands(UnitaryRep([block]))
        checks.append(lowest_ktype(p) == tuple([1] * (2 * n)))
        checks.append(
            distinguished_minimal_ktype(p) == tuple([2] * n + [0] * n)
        )

    return all(checks), f"{sum(checks)}/{len(checks)} fixture checks"


def criterion_2_formulation_equivalence() -> Tuple[bool, str]:
    """Parameter-level and block-level verdicts agree on the whole size <= 8
    grid (exhaustive scan factored by component), reconciled with the
    direct API."""
    scan = run_equivalence_scan(8)
    if scan.disagreements:
        return False, f"scan found {scan.disagreements} disagreements, first: {scan.first_failure}"
    direct_budget = 5
    disagreements, nodes, dist = direct_exhaustive_check(direct_budget)
    if disagreements:
        return False, f"direct API disagreements at size <= {direct_budget}"
    if list(nodes) != list(scan.nodes_by_size[: direct_budget + 1]):
        return False, "node counts do not reconcile between scan and direct API"
    if list(dist) != list(scan.dist_by_size[: direct_budget + 1]):
        return False, "distinguished counts do not reconcile"
    rng = random.Random(140924)
    spot_checks = 0
    for total in (6, 7, 8):
        for rep in random_reps(rng, total, 700):
            via_param, via_blocks = direct_verdicts(rep)
            if via_param != via_blocks:
                return False, f"direct spot check disagreement at {rep}"
            spot_checks += 1
    return True, (
        f"{scan.total_nodes} multisets scanned over {scan.components} components, "
        f"exhaustive direct check to size {direct_budget}, {spot_checks} spot checks"
    )


def criterion_3_derivative_necessity() -> Tuple[bool, str]:
    """On every sign-twisted monomial of total size <= 6 whose parameter
    satisfies the pairing condition, the derivative test fails exactly when
    the even-multiplicity condition fails."""
    zero = GaussianRational(0)
    blocks = [MonomialBlock(k, zero, size) for size in range(1, 7) for k in range(-2, 3)]
    checked = 0
    for combo in enumerate_reps(blocks, 6):
        m = MonomialRep(combo)
        p = m.parameter()
        if check_condition_i(p)[0]:
            passes, _ = derivative_necessity_test(m)
            cond_ii, _ = check_condition_ii(p)
            if passes != cond_ii:
                return False, f"{checked} monomials with the pairing condition checked"
            checked += 1
    return True, f"{checked} monomials with the pairing condition checked"


def random_distinguished_parameter(rng: random.Random, max_n: int = 8) -> LanglandsParameter:
    """A parameter satisfying the pairing condition, built from conjugate
    pairs and even fixed points."""
    n = rng.randint(1, max_n)
    re_pool = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4), Fraction(1), Fraction(3, 2)]
    im_pool = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2)]
    chars = []
    remaining = n
    while remaining > 0:
        if remaining == 1 or rng.random() < 0.35:
            chars.append(CharacterCx(2 * rng.randint(-2, 2), GaussianRational(0)))
            remaining -= 1
        else:
            m = rng.randint(-3, 3)
            s = GaussianRational(rng.choice(re_pool), rng.choice(im_pool))
            chars.append(CharacterCx(m, s))
            chars.append(CharacterCx(m, -s))
            remaining -= 2
    return LanglandsParameter(chars)


def criterion_4_eps_triviality() -> Tuple[bool, str]:
    """Factors of distinguished parameters and pairs are exactly 1 at the
    central point for purely imaginary twists."""
    rng = random.Random(271828)
    psis = [
        AdditiveCharacterSpec(GaussianRational(0, 1)),
        AdditiveCharacterSpec(GaussianRational(0, 2)),
    ]
    params = [random_distinguished_parameter(rng) for _ in range(500)]
    for p in params:
        if not is_distinguished_generic(p).distinguished:
            return False, f"generator produced a non-distinguished parameter {p}"
        for psi in psis:
            if eps_rep(p, psi).exact_value() != GQ_ONE:
                return False, f"factor not exactly 1 for {p}"
    pairs = 100
    for _ in range(pairs):
        p1 = rng.choice(params)
        p2 = rng.choice(params)
        for psi in psis:
            if eps_pair(p1, p2, psi).exact_value() != GQ_ONE:
                return False, f"pair factor not exactly 1 for {p1} x {p2}"
    return True, f"{len(params)} parameters and {pairs} pairs, both twists, all exactly 1"


def criterion_5_ktype_oracle() -> Tuple[bool, str]:
    """Construction vs brute-force oracle for the minimal even K-type."""
    slots = [Fraction(0), Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(-1, 2)]
    grid = [
        CharacterCx(m, GaussianRational(s))
        for m in range(-3, 4)
        for s in slots
    ]
    checked = 0
    for size in (1, 2, 3, 4):
        for combo in combinations_with_replacement(grid, size):
            p = LanglandsParameter(combo)
            if not check_condition_i(p)[0]:
                continue
            expected = {distinguished_minimal_ktype(p)}
            got = minimal_distinguished_ktype_oracle(p, 8)
            if got != expected:
                return False, f"oracle {got} != construction {expected} at {p}"
            checked += 1
    return True, f"{checked} parameters with the pairing condition agree"


def criterion_6_cosets() -> Tuple[bool, str]:
    """Involution counts, class counts, the closed-form orbit dimensions
    against the exact rank, open-orbit uniqueness, and representative
    verification."""
    expected_counts = {1: 1, 2: 2, 3: 4, 4: 10, 5: 26}
    for n, count in expected_counts.items():
        if len(enumerate_involutions(n)) != count:
            return False, f"involution count wrong at n={n}"

    for half in range(1, 5):
        classes = parabolic_classes(Composition((half, half)))
        if len(classes) != half + 1:
            return False, f"(n,n) class count wrong at n={half}: {len(classes)}"

    def compositions(n):
        if n == 0:
            yield ()
            return
        for first in range(1, n + 1):
            for rest in compositions(n - first):
                yield (first,) + rest

    # The closed-form dimensions against the exact rank at every member.
    for n in range(1, 6):
        full = 2 * n * n
        for parts in compositions(n):
            comp = Composition(parts)
            classes = parabolic_classes(comp)
            dims = class_dimensions(classes)
            for cls, dim in zip(classes, dims):
                if any(orbit_dimension(w, comp) != dim for w in cls):
                    return False, f"rank differs from the closed form {dim} on class {cls}"
            if dims.count(full) != 1:
                return False, f"{dims.count(full)} open classes for n={n}, comp={parts}"

    for n in range(1, 7):
        if not representatives_verified(n):
            return False, f"representative check failed at n={n}"

    return True, (
        "counts 1,2,4,10,26; n+1 classes; rank equals the closed form on every "
        "class member to n=5; unique open orbit; reps verified to n=6"
    )


def criterion_7_special_functions() -> Tuple[bool, str]:
    """Gamma identities and the interval pairing against its continuation."""
    if abs(complex_gamma(0.5) ** 2 - math.pi) > 1e-12:
        return False, "gamma(1/2)^2 misses pi"
    rng = random.Random(31415)
    worst_residual = 0.0
    count = 0
    while count < 100:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z) < 1e-2 or (z.imag == 0 and z.real == int(z.real)):
            continue
        residual = abs(complex_gamma(z + 1) / (z * complex_gamma(z)) - 1)
        worst_residual = max(worst_residual, residual)
        count += 1
    if worst_residual > 1e-10:
        return False, f"functional equation residual {worst_residual:.2e}"

    pair = beta_P(1.0, 1.0)
    if abs(pair.numeric - 2) > 1e-10 or abs(pair.closed - 2) > 1e-10:
        return False, f"P(1,1) = {pair}"

    worst_rel = 0.0
    for ra in (0.5, 1.0, 1.5, 3.0):
        for rb in (0.5, 1.0, 1.5, 3.0):
            for ia in (0.0, 0.5):
                for ib in (0.0, 0.5):
                    pair = beta_P(complex(ra, ia), complex(rb, ib))
                    rel = abs(pair.numeric - pair.closed) / abs(pair.closed)
                    worst_rel = max(worst_rel, rel)
    if worst_rel > 1e-8:
        return False, f"pairing vs continuation drifts to {worst_rel:.2e}"
    return True, (
        f"functional residual {worst_residual:.1e}, pairing grid worst {worst_rel:.1e}"
    )


# On the real axis, near both strips' edges, and with |Im s| up to the cap,
# where the kernel moments are exponentially small.
KERNEL_SAMPLES = (
    0.0 + 0.0j, 0.2 + 0.0j, 0.4 + 0.0j, 0.2 + 0.3j, 0.2 + 30j, -0.3 + 100j, 0.99 + 60j,
)


def criterion_8_kernel_oracle() -> Tuple[bool, str]:
    """The numeric side (one angular moment times one folded radial
    integral) vs the Beta-substitution reference, plus each case's
    normalization ratio, on the rows verify-kernel reports."""
    worst = 0.0
    for s in KERNEL_SAMPLES:
        for case in KERNEL_CASES:
            row = kernel_row(s, case)
            if row.failure:
                return False, f"{case} s={s}: {row.failure}"
            worst = max(worst, row.rel_err)
    return True, f"{len(KERNEL_SAMPLES)} samples, both cases, worst relative error {worst:.1e}"


CRITERIA: List[Tuple[str, Callable[[], Tuple[bool, str]], float]] = [
    ("worked examples", criterion_1_worked_examples, 1.0),
    ("formulation equivalence", criterion_2_formulation_equivalence, 30.0),
    ("derivative necessity", criterion_3_derivative_necessity, 10.0),
    ("epsilon triviality", criterion_4_eps_triviality, 5.0),
    ("K-type oracle agreement", criterion_5_ktype_oracle, 60.0),
    ("coset counts and dimensions", criterion_6_cosets, 30.0),
    ("special functions", criterion_7_special_functions, 5.0),
    ("kernel oracle", criterion_8_kernel_oracle, 60.0),
]


def run_criterion(index: int) -> CriterionResult:
    name, fn, budget = CRITERIA[index - 1]
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # surfaced, not swallowed: a crash is a failure
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return CriterionResult(index, name, passed, detail, elapsed, budget)


def run_all() -> List[CriterionResult]:
    """Run every criterion in order, printing each one's line as it ends."""
    results = []
    for index in range(1, len(CRITERIA) + 1):
        result = run_criterion(index)
        results.append(result)
        print(result.line())
    return results
