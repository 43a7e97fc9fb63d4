from fractions import Fraction

import pytest

from glcdist.equivalence_scan import (
    SCAN_MAX_BUDGET,
    _check_independent,
    _components,
    _scan_tables,
    acceptance_block_grid,
    direct_exhaustive_check,
    run_equivalence_scan,
    scan_tables,
)
from glcdist.errors import PreconditionError
from glcdist.exactnum import GaussianRational
from glcdist.params import CharBlock, CompSeriesBlock


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
    def test_flipped_parity_flag_is_reported(self, block):
        blocks = acceptance_block_grid()
        tables = _scan_tables(blocks)
        i = blocks.index(block)
        tables["ii_block"][i] ^= 1
        scan = scan_tables(blocks, tables, 4)
        assert scan.disagreements > 0
        assert scan.first_failure is not None
        assert block in scan.first_failure.blocks
        assert scan.first_failure.n <= 4


class TestIndependence:
    def test_grid_components_are_independent(self):
        tables = _scan_tables(acceptance_block_grid())
        components = _components(tables)
        _check_independent(tables, components)
        assert sorted(b for members in components for b in members) == list(
            range(len(tables["size"]))
        )

    def test_coupled_mirror_raises(self):
        tables = _scan_tables(acceptance_block_grid())
        components = _components(tables)
        a, b = components[0][0], components[1][0]
        tables["partner"][a] = b
        with pytest.raises(RuntimeError, match="mirrors in different components"):
            _check_independent(tables, components)

    def test_coupled_conjugate_inverse_raises(self):
        tables = _scan_tables(acceptance_block_grid())
        components = _components(tables)
        c = tables["block_chars"][components[0][0]][0]
        q = tables["block_chars"][components[1][0]][0]
        tables["pid"][c] = q
        with pytest.raises(RuntimeError, match="conjugate-inverse in different"):
            _check_independent(tables, components)

    def test_shared_character_raises(self):
        tables = _scan_tables(acceptance_block_grid())
        components = _components(tables)
        a, b = components[0][0], components[1][0]
        tables["block_chars"][b] = tables["block_chars"][b] + tables["block_chars"][a][:1]
        with pytest.raises(RuntimeError, match="shared by two components"):
            _check_independent(tables, components)
