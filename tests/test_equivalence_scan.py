from fractions import Fraction

import pytest

from glcdist import equivalence_scan
from glcdist.equivalence_scan import (
    SCAN_MAX_BUDGET,
    _components,
    acceptance_block_grid,
    direct_exhaustive_check,
    direct_verdicts,
    enumerate_reps,
    run_equivalence_scan,
    scan_blocks,
)
from glcdist.errors import PreconditionError
from glcdist.exactnum import GaussianRational
from glcdist.params import CharBlock, CharacterCx, CompSeriesBlock, UnitaryRep, block_characters


class TestFullScan:
    def test_pinned_counts(self):
        scan = run_equivalence_scan(8)
        assert list(scan.nodes_by_size) == [
            0, 15, 165, 1370, 9765, 60918, 345015, 1795605, 8724225
        ]
        assert list(scan.dist_by_size) == [
            0, 3, 26, 73, 384, 1022, 4153, 10560, 36422
        ]
        assert scan.total_nodes == 10937078
        assert scan.disagreements == 0
        assert scan.first_failure is None
        assert scan.components == 50

    def test_counts_are_python_ints_past_64_bits(self):
        scan = run_equivalence_scan(SCAN_MAX_BUDGET)
        assert all(type(x) is int for x in scan.nodes_by_size + scan.dist_by_size)
        assert scan.total_nodes == sum(scan.nodes_by_size) > 2**63
        assert scan.disagreements == 0

    def test_budget_bound(self):
        # 0 and SCAN_MAX_BUDGET (run above) are the edges.  Outside them, and
        # for a budget that is not an int, the scan names its bound instead
        # of failing inside the convolution.
        assert run_equivalence_scan(0).nodes_by_size == [0]
        for budget in (-1, SCAN_MAX_BUDGET + 1, True, 2.0):
            with pytest.raises(PreconditionError, match=f"0..{SCAN_MAX_BUDGET}"):
                run_equivalence_scan(budget)

    def test_matches_direct_api_small_budget(self):
        scan = run_equivalence_scan(3)
        disagreements, nodes, dist = direct_exhaustive_check(3)
        assert disagreements == scan.disagreements == 0
        assert list(nodes) == list(scan.nodes_by_size)
        assert list(dist) == list(scan.dist_by_size)

    def test_factored_counts_match_direct_api_past_size_5(self):
        # The 48 blocks with k = 1 fall into 10 components, several of which
        # hold multisets of size 6 to 8 that combine across components:
        # every one of the 8,054 multisets goes through the full API.
        blocks = [b for b in acceptance_block_grid() if b.k == 1]
        scan = scan_blocks(blocks, 8)
        assert scan.components == 10
        nodes, dist, disagreements = [0] * 9, [0] * 9, 0
        for combo in enumerate_reps(blocks, 8):
            n = sum(b.size for b in combo)
            via_param, via_blocks = direct_verdicts(UnitaryRep(combo))
            nodes[n] += 1
            dist[n] += via_param
            disagreements += via_param != via_blocks
        assert sum(nodes) == 8054
        assert scan.nodes_by_size == nodes
        assert scan.dist_by_size == dist
        assert scan.disagreements == disagreements == 0


class TestWitness:
    @pytest.mark.parametrize(
        "block",
        [
            CharBlock(1, 0, GaussianRational(0)),
            CharBlock(2, 1, GaussianRational(0)),
            CompSeriesBlock(1, 0, GaussianRational(0), Fraction(1, 2)),
        ],
        ids=str,
    )
    def test_flipped_parity_flag_is_reported(self, block, monkeypatch):
        # One character of ``block`` gets twist m + 1, which flips the
        # parity its (ii) clause reads: the scan must find the block in a
        # disagreement of total size at most 4.
        def faulty(b):
            chars = block_characters(b)
            if b != block:
                return chars
            return (CharacterCx(chars[0].m + 1, chars[0].s),) + chars[1:]

        monkeypatch.setattr(equivalence_scan, "block_characters", faulty)
        scan = scan_blocks(acceptance_block_grid(), 4)
        assert scan.disagreements > 0
        assert scan.first_failure is not None
        assert block in scan.first_failure.blocks
        assert scan.first_failure.n <= 4


class TestIndependence:
    def test_grid_components_are_independent(self):
        blocks = acceptance_block_grid()
        components = _components(blocks)
        assert sorted(
            (b for members in components for b in members), key=blocks.index
        ) == blocks
        owner = {}
        for label, members in enumerate(components):
            assert {b.partner() for b in members} == set(members)
            chars = {c for b in members for c in block_characters(b)}
            assert {c.partner() for c in chars} == chars
            for c in chars:
                assert owner.setdefault(c, label) == label

    @pytest.mark.parametrize(
        "block, message",
        [
            (CharBlock(1, 0, GaussianRational(0, 1)), "the partner of .* lies outside"),
            (CharBlock(1, 0, GaussianRational(0)), "shared by two components"),
        ],
        ids=["mirror-outside", "shared-character"],
    )
    def test_split_component_raises(self, block, message, monkeypatch):
        # The u = i block leaves its mirror behind; the u = 0 block is its
        # own mirror, but its character k[0,0] also lies in CharBlock(3, 0, 0).
        components = _components(acceptance_block_grid())

        def split(blocks):
            return [[b for b in members if b != block] for members in components] + [[block]]

        monkeypatch.setattr(equivalence_scan, "_components", split)
        with pytest.raises(RuntimeError, match=message):
            run_equivalence_scan(4)

    def test_missing_mirror_raises(self):
        # The characters k[0, i/2 +- 7/2] of CharBlock(8, 0, i) have their
        # conjugate-inverses in its mirror alone, so that clause fails first.
        missing = CharBlock(8, 0, GaussianRational(0, -1))
        blocks = [b for b in acceptance_block_grid() if b != missing]
        with pytest.raises(RuntimeError, match=r"the partner of .* lies outside"):
            scan_blocks(blocks, 4)
