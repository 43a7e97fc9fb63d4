"""Exhaustive equivalence scan between the two distinction formulations.

The grid of unitary representations with total size at most 8, block twist
k in [-2, 2], u in {0, +-i} and complementary parameter t in {1/4, 1/2}
contains about 10.9 million block multisets, too many to push through the
full object API, or even to visit one by one, inside the acceptance budget.
Both formulations are conjunctions of clauses of one shape on the counts
of single characters and single blocks: a value's count equals its
``partner()``'s, and a value with ``needs_even`` has an even count.  So
the scan factors the grid instead.  A union-find joins each block to its
characters and each value to its partner, which splits the blocks into
independent components.  Each component reads its clauses off the objects,
checking in the same pass that none reaches outside it; its sub-multisets
are enumerated once and tallied by (parameter verdict, block verdict,
size), and the components are combined by an AND-convolution of one
polynomial in total size per verdict pair.  A disagreeing sub-multiset of
one component is on its own a complete witness.

The scan's semantics are tied back to the real implementation in two ways
by the caller (see selftest): exhaustive direct-API agreement on all
multisets of total size <= 5, whose per-size node and distinguished counts
must reconcile with the scan's counts, and random direct spot checks at
sizes 6 to 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .distinction import is_distinguished_blocks, is_distinguished_unitary
from .errors import PreconditionError
from .exactnum import GaussianRational
from .params import CharBlock, CompSeriesBlock, UnitaryRep, block_characters, to_langlands


def acceptance_block_grid() -> List:
    """All block types of the acceptance grid (sizes 1..8 fit the budget)."""
    blocks: List = []
    for n in range(1, 9):
        for k in range(-2, 3):
            for uq in (0, 1, -1):
                blocks.append(CharBlock(n, k, GaussianRational(0, uq)))
    for m in range(1, 5):
        for k in range(-2, 3):
            for uq in (0, 1, -1):
                for t in (Fraction(1, 4), Fraction(1, 2)):
                    blocks.append(CompSeriesBlock(m, k, GaussianRational(0, uq), t))
    return blocks


def _components(blocks: Sequence) -> List[List]:
    """Split the blocks into classes that no clause of either formulation
    crosses: a union-find joining each block to its characters, and each
    block and character to its partner."""
    parent: dict = {}

    def find(x):
        root = parent.setdefault(x, x)
        while root is not parent[root]:
            parent[x] = root = parent[root]
        return root

    def union(x, y) -> None:
        parent[find(x)] = find(y)

    for b in blocks:
        union(b, b.partner())
        for c in block_characters(b):
            union(b, c)
            union(c, c.partner())
    groups: dict = {}
    for b in blocks:
        groups.setdefault(find(b), []).append(b)
    return list(groups.values())


def _clauses(index: dict) -> Tuple[list, list]:
    """The clauses on the counts of the characters or blocks in ``index``
    (value -> position): the pairs i < j of a value and its partner, whose
    counts agree, and the values with ``needs_even``, whose counts are even."""
    for x in index:
        if x.partner() not in index:
            raise RuntimeError(f"{x.partner()}, the partner of {x}, lies outside its component")
    pairs = [(i, index[x.partner()]) for x, i in index.items() if i < index[x.partner()]]
    return pairs, [i for x, i in index.items() if x.needs_even]


def _component_tallies(members: Sequence, budget: int, seen: set):
    """Enumerate every sub-multiset of one component of total size <= budget.

    Returns (tallies, first): ``tallies[state][n]`` counts the sub-multisets
    of size n with verdict pair ``state`` (bit 1 the parameter verdict, bit
    0 the block verdict), the empty one included; ``first`` lists the blocks
    of the first sub-multiset whose verdicts disagree, or is None.  Raises
    RuntimeError if a clause reaches outside the component: a partner not
    in it, or a character in ``seen``, the characters of the components
    scanned before (this one's are added).
    """
    index = {b: i for i, b in enumerate(members)}
    chars: dict = {}
    block_chars = [
        tuple(chars.setdefault(c, len(chars)) for c in block_characters(b)) for b in members
    ]
    for c in chars:
        if c in seen:
            raise RuntimeError(f"character {c} is shared by two components")
    seen.update(chars)
    char_pairs, char_even = _clauses(chars)
    block_pairs, block_even = _clauses(index)
    size = [b.size for b in members]
    cnt_block = [0] * len(members)
    cnt_char = [0] * len(chars)
    tallies = [[0] * (budget + 1) for _ in range(4)]
    first = None

    def visit(start: int, total: int) -> None:
        nonlocal first
        param_verdict = all(cnt_char[c] == cnt_char[q] for c, q in char_pairs) and all(
            cnt_char[c] % 2 == 0 for c in char_even
        )
        block_verdict = all(cnt_block[b] == cnt_block[p] for b, p in block_pairs) and all(
            cnt_block[b] % 2 == 0 for b in block_even
        )
        tallies[2 * param_verdict + block_verdict][total] += 1
        if param_verdict != block_verdict and first is None:
            first = [b for b, n in zip(members, cnt_block) for _ in range(n)]
        for b in range(start, len(members)):
            if total + size[b] > budget:
                continue
            cnt_block[b] += 1
            for c in block_chars[b]:
                cnt_char[c] += 1
            visit(b, total + size[b])
            cnt_block[b] -= 1
            for c in block_chars[b]:
                cnt_char[c] -= 1

    visit(0, 0)
    return tallies, first


def _and_convolve(acc: list, tallies: list, budget: int) -> list:
    """Verdict-state polynomials of the disjoint union of two block sets:
    sizes add, and each verdict is the AND of the two sides' verdicts."""
    out = [[0] * (budget + 1) for _ in range(4)]
    for s1, a in enumerate(acc):
        for s2, b in enumerate(tallies):
            target = out[s1 & s2]
            for i, x in enumerate(a):
                if x:
                    for j in range(budget + 1 - i):
                        target[i + j] += x * b[j]
    return out


@dataclass
class ScanResult:
    budget: int
    disagreements: int
    nodes_by_size: List[int]
    dist_by_size: List[int]
    first_failure: Optional[UnitaryRep]
    components: int

    @property
    def total_nodes(self) -> int:
        return sum(self.nodes_by_size)


def scan_blocks(blocks: Sequence, budget: int) -> ScanResult:
    """Scan every multiset of ``blocks`` of total size <= budget."""
    components = _components(blocks)
    acc = [[0] * (budget + 1) for _ in range(4)]
    acc[3][0] = 1  # the empty multiset satisfies both formulations
    failure = None
    seen: set = set()
    for members in components:
        tallies, first = _component_tallies(members, budget, seen)
        if failure is None and first is not None:
            failure = UnitaryRep(first)
        acc = _and_convolve(acc, tallies, budget)
    nodes = [sum(col) for col in zip(*acc)]
    dist = [a + b for a, b in zip(acc[2], acc[3])]
    nodes[0] = dist[0] = 0  # the empty multiset is not a representation
    disagreements = sum(acc[1]) + sum(acc[2])
    return ScanResult(budget, disagreements, nodes, dist, failure, len(components))


# The largest total size run_equivalence_scan accepts.  The scan's work
# grows with the budget (size 32 takes 0.9-1.3 s under CPython 3.11 on a
# 2-CPU Xeon, and counts past 2^64); 32 is the largest budget the tests run.
SCAN_MAX_BUDGET = 32


def run_equivalence_scan(budget: int = 8) -> ScanResult:
    """Scan every block multiset of total size <= budget on the grid, for
    an integer budget in 0..SCAN_MAX_BUDGET."""
    if not (type(budget) is int and 0 <= budget <= SCAN_MAX_BUDGET):
        raise PreconditionError(
            f"scan budget must be an integer in 0..{SCAN_MAX_BUDGET}; got {budget!r}"
        )
    return scan_blocks(acceptance_block_grid(), budget)


def _sized_reps(blocks: Sequence, budget: int):
    """Yield (multiset, total size) for every nonempty block multiset with
    total size <= budget: depth first, each multiset a nondecreasing run of
    positions in ``blocks``, extended before its successors are tried."""
    sizes = [b.size for b in blocks]
    count = len(blocks)
    # fits[rem][t]: the first position >= t whose block fits in rem.
    fits = []
    for rem in range(budget + 1):
        row = [count] * (count + 1)
        for t in range(count - 1, -1, -1):
            row[t] = t if sizes[t] <= rem else row[t + 1]
        fits.append(row)
    acc: list = []
    positions: list = []
    total = 0
    t = fits[budget][0]
    while True:
        if t < count:
            acc.append(blocks[t])
            positions.append(t)
            total += sizes[t]
            yield tuple(acc), total
            t = fits[budget - total][t]
        elif positions:
            t = positions.pop()
            acc.pop()
            total -= sizes[t]
            t = fits[budget - total][t + 1]
        else:
            return


def enumerate_reps(blocks: Sequence, budget: int):
    """Yield every nonempty block multiset with total size <= budget."""
    for combo, _ in _sized_reps(blocks, budget):
        yield combo


def direct_verdicts(rep: UnitaryRep) -> Tuple[bool, bool]:
    """(parameter-formulation verdict, block-formulation verdict)."""
    return (
        is_distinguished_unitary(to_langlands(rep)).distinguished,
        is_distinguished_blocks(rep).distinguished,
    )


def direct_exhaustive_check(budget: int) -> Tuple[int, List[int], List[int]]:
    """Push every multiset of total size <= budget through the full API.

    Returns (number of disagreements, nodes per size, distinguished per
    size); the counts must reconcile with the component scan.
    """
    nodes = [0] * (budget + 1)
    dist = [0] * (budget + 1)
    disagreements = 0
    for combo, n in _sized_reps(acceptance_block_grid(), budget):
        nodes[n] += 1
        via_param, via_blocks = direct_verdicts(UnitaryRep(combo))
        if via_param != via_blocks:
            disagreements += 1
        if via_param:
            dist[n] += 1
    return disagreements, nodes, dist


def random_reps(rng, total: int, count: int) -> List[UnitaryRep]:
    """Random block multisets of exactly the given total size."""
    blocks = acceptance_block_grid()
    out = []
    for _ in range(count):
        rem = total
        acc = []
        while rem > 0:
            b = blocks[rng.randrange(len(blocks))]
            if b.size <= rem:
                acc.append(b)
                rem -= b.size
        out.append(UnitaryRep(acc))
    return out
