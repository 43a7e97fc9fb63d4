"""grid-sweep: every block multiset of the acceptance grid of total size
<= 5 through the direct API, plus one formulation-equivalence scan to total
size 12."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import partial
from typing import List

import reference
from harness import Op

from glcdist import equivalence_scan, params

DIRECT_BUDGET = 5
SCAN_BUDGET = 12


def block_key(block) -> tuple:
    """The benchmark's description of a grid block: (kind, n or m, k, Im u, t)."""
    if isinstance(block, params.CharBlock):
        return ("char", block.n, block.k, block.u.im, Fraction(0))
    return ("comp", block.m, block.k, block.u.im, block.t)


def direct(blocks: tuple) -> tuple:
    """The calls glcdist's direct reconciliation makes on one multiset."""
    return equivalence_scan.direct_verdicts(params.UnitaryRep(blocks))


def scan() -> object:
    return equivalence_scan.run_equivalence_scan(SCAN_BUDGET)


def expected_verdicts(keys: tuple) -> tuple:
    chars = reference.unitary_chars(keys)
    via_param = reference.condition_i(chars) and reference.condition_ii(chars)
    return via_param, reference.blocks_distinguished(Counter(keys))


def verdicts_match(expected: tuple, out) -> bool:
    return isinstance(out, tuple) and out == expected


def check_scan(result, expected_dist: List[int]) -> bool:
    nodes = reference.multiset_counts_by_size(reference.grid_block_sizes(), SCAN_BUDGET)
    nodes[0] = 0
    return bool(
        result.disagreements == 0
        and result.first_failure is None
        and [int(x) for x in result.nodes_by_size] == nodes
        and [int(x) for x in result.dist_by_size[: DIRECT_BUDGET + 1]] == expected_dist
        and all(0 <= d <= n for d, n in zip(result.dist_by_size, result.nodes_by_size))
    )


class GridSweep:
    modules = ["glcdist.params", "glcdist.equivalence_scan"]

    def __init__(self, seed: int):
        self.seed = seed
        blocks = equivalence_scan.acceptance_block_grid()
        keys = {id(b): block_key(b) for b in blocks}
        if Counter(k[1] * (2 if k[0] == "comp" else 1) for k in keys.values()) != reference.grid_block_sizes():
            raise RuntimeError("acceptance_block_grid differs from the grid the benchmark describes")
        # One check per verdict pair, shared by the ops that expect it, so
        # that an op holds no more than its blocks.
        checks = {}
        self.ops = []
        dist = [0] * (DIRECT_BUDGET + 1)
        for combo in equivalence_scan.enumerate_reps(blocks, DIRECT_BUDGET):
            expected = expected_verdicts(tuple(keys[id(b)] for b in combo))
            if expected[0]:
                dist[sum(b.size for b in combo)] += 1
            check = checks.setdefault(expected, partial(verdicts_match, expected))
            self.ops.append(Op("direct", direct, (combo,), check))
        counts = reference.multiset_counts_by_size(reference.grid_block_sizes(), DIRECT_BUDGET)
        if len(self.ops) != sum(counts) - 1:
            raise RuntimeError("multiset enumeration disagrees with the generating function")
        self.ops.append(Op("scan", scan, (), partial(check_scan, expected_dist=dist)))

    def round_ops(self, rnd: int) -> List[Op]:
        """The same operations every round, in a new order."""
        ops = list(self.ops)
        random.Random(f"grid-sweep:{self.seed}:{rnd}").shuffle(ops)
        return ops

    def layer_values(self, ops: List[Op], outputs: List) -> dict:
        scan = next(out for op, out in zip(ops, outputs) if op.kind == "scan")
        return {
            "equivalence_scan.multisets": (scan.total_nodes, "count"),
            "equivalence_scan.components": (scan.components, "count"),
        }
