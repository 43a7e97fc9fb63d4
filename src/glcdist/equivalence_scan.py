"""Exhaustive equivalence scan between the two distinction formulations.

The grid of unitary representations with total size at most 8, block twist
k in [-2, 2], u in {0, +-i} and complementary parameter t in {1/4, 1/2}
contains about 10.9 million block multisets, too many to push through the
full object API, or even to visit one by one, inside the acceptance budget.
Both formulations are conjunctions of clauses on the counts of single
characters and single blocks, so the scan factors the grid instead.  From
integer tables built with the real API (each block's parameter expansion,
conjugate-inverse pairing of characters, and the parity flags of both
formulations), a union-find splits the blocks into independent components;
the independence is checked on every call.  Each component's sub-multisets
are enumerated once and tallied by (parameter verdict, block verdict, size),
and the components are combined by an AND-convolution of one polynomial in
total size per verdict pair.  A disagreeing sub-multiset of one component is
on its own a complete witness.

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
from .params import (
    CharBlock,
    CompSeriesBlock,
    UnitaryRep,
    block_characters,
    to_langlands,
)


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


def _scan_tables(blocks: Sequence) -> dict:
    """Integer tables encoding both formulations, built from the real API.

    Blocks are indexed by their position in ``blocks`` and characters by
    first appearance.  ``partner`` is the u -> -u mirror of each block,
    ``pid`` the conjugate-inverse of each character; ``ii_block``,
    ``selfpair_odd`` and ``ii_char`` flag the blocks and characters whose
    multiplicity must be even.
    """
    index = {b: i for i, b in enumerate(blocks)}
    size = []
    partner = []
    ii_block = []
    for b in blocks:
        size.append(b.size)
        partner.append(index[b.mirror()])
        ii_block.append(1 if isinstance(b, CharBlock) and b.u_is_zero and b.k % 2 == 1 else 0)

    char_ids: dict = {}
    block_chars = []
    for b in blocks:
        ids = []
        for c in block_characters(b):
            ids.append(char_ids.setdefault(c, len(char_ids)))
        block_chars.append(tuple(ids))
    chars = list(char_ids)
    # The grid is closed under u -> -u, so every conjugate-inverse is present.
    pid = [char_ids[c.conj_inverse()] for c in chars]
    selfpair_odd = [
        1 if pid[i] == i and chars[i].m % 2 == 1 else 0 for i in range(len(chars))
    ]
    ii_char = [1 if c.half_integral_odd else 0 for c in chars]
    return {
        "size": size,
        "partner": partner,
        "ii_block": ii_block,
        "block_chars": block_chars,
        "pid": pid,
        "selfpair_odd": selfpair_odd,
        "ii_char": ii_char,
    }


def _components(tables: dict) -> List[List[int]]:
    """Split the blocks into classes that no clause of either formulation
    crosses: a union-find joining each block to its characters and to its
    mirror, and each character to its conjugate-inverse."""
    n_blocks = len(tables["size"])
    parent = list(range(n_blocks + len(tables["pid"])))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for b in range(n_blocks):
        union(b, tables["partner"][b])
        for c in tables["block_chars"][b]:
            union(b, n_blocks + c)
    for c, q in enumerate(tables["pid"]):
        union(n_blocks + c, n_blocks + q)
    groups: dict = {}
    for b in range(n_blocks):
        groups.setdefault(find(b), []).append(b)
    return list(groups.values())


def _check_independent(tables: dict, components: Sequence[Sequence[int]]) -> None:
    """Raise unless every clause of both formulations reads the counts of a
    single component: each block's mirror, each character's blocks and each
    character's conjugate-inverse must all lie in one component."""
    block_label = {}
    for label, members in enumerate(components):
        for b in members:
            block_label[b] = label
    char_label: dict = {}
    for b, label in block_label.items():
        p = tables["partner"][b]
        if block_label.get(p) != label:
            raise RuntimeError(f"blocks {b} and {p} are mirrors in different components")
        for c in tables["block_chars"][b]:
            if char_label.setdefault(c, label) != label:
                raise RuntimeError(f"character {c} is shared by two components")
    for c, label in char_label.items():
        q = tables["pid"][c]
        if char_label.get(q) != label:
            raise RuntimeError(
                f"characters {c} and {q} are conjugate-inverse in different components"
            )


def _component_tallies(tables: dict, members: Sequence[int], budget: int):
    """Enumerate every sub-multiset of one component of total size <= budget.

    Returns (tallies, first): ``tallies[state][n]`` counts the sub-multisets
    of size n with verdict pair ``state`` (bit 1 the parameter verdict, bit
    0 the block verdict), the empty one included; ``first`` maps block index
    to count for the first sub-multiset whose verdicts disagree, or is None.
    """
    size = tables["size"]
    block_chars = tables["block_chars"]
    pid = tables["pid"]
    chars = sorted({c for b in members for c in block_chars[b]})
    char_pairs = [(c, pid[c]) for c in chars if c < pid[c]]
    char_even = [
        c for c in chars if tables["ii_char"][c] or tables["selfpair_odd"][c]
    ]
    block_pairs = [(b, tables["partner"][b]) for b in members if b < tables["partner"][b]]
    block_even = [b for b in members if tables["ii_block"][b]]
    cnt_block = dict.fromkeys(members, 0)
    cnt_char = dict.fromkeys(chars, 0)
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
            first = {b: n for b, n in cnt_block.items() if n}
        for i in range(start, len(members)):
            b = members[i]
            if total + size[b] > budget:
                continue
            cnt_block[b] += 1
            for c in block_chars[b]:
                cnt_char[c] += 1
            visit(i, total + size[b])
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


def scan_tables(blocks: Sequence, tables: dict, budget: int) -> ScanResult:
    """Scan every multiset of ``blocks`` of total size <= budget, component
    by component, against the formulations encoded in ``tables``."""
    components = _components(tables)
    _check_independent(tables, components)
    acc = [[0] * (budget + 1) for _ in range(4)]
    acc[3][0] = 1  # the empty multiset satisfies both formulations
    failure = None
    for members in components:
        tallies, first = _component_tallies(tables, members, budget)
        if failure is None and first is not None:
            failure = UnitaryRep(
                [blocks[b] for b, count in first.items() for _ in range(count)]
            )
        acc = _and_convolve(acc, tallies, budget)
    nodes = [sum(col) for col in zip(*acc)]
    dist = [a + b for a, b in zip(acc[2], acc[3])]
    nodes[0] = dist[0] = 0  # the empty multiset is not a representation
    disagreements = sum(acc[1]) + sum(acc[2])
    return ScanResult(budget, disagreements, nodes, dist, failure, len(components))


# The largest total size run_equivalence_scan accepts.  The scan's work
# grows with the budget (size 32 takes about 2 s, and counts past 2^64);
# 32 is the largest budget the tests run.
SCAN_MAX_BUDGET = 32


def run_equivalence_scan(budget: int = 8) -> ScanResult:
    """Scan every block multiset of total size <= budget on the grid, for
    an integer budget in 0..SCAN_MAX_BUDGET."""
    if not (type(budget) is int and 0 <= budget <= SCAN_MAX_BUDGET):
        raise PreconditionError(
            f"scan budget must be an integer in 0..{SCAN_MAX_BUDGET}; got {budget!r}"
        )
    blocks = acceptance_block_grid()
    return scan_tables(blocks, _scan_tables(blocks), budget)


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
