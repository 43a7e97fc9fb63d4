"""Each checker of the benchmark accepts glcdist's answer and rejects a
deliberately wrong one.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from fractions import Fraction as F
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cli_batch  # noqa: E402
import grid_sweep  # noqa: E402
import harness  # noqa: E402
import kernel_verify  # noqa: E402
import reference  # noqa: E402


def tamper(outcome, edit):
    code, out, err = outcome
    obj = json.loads(out)
    edit(obj["results"])
    return code, json.dumps(obj), err


def setter(*path):
    """An edit that replaces results[path[0]]...[path[-2]] by path[-1]."""

    def edit(results):
        target = results
        for key in path[:-2]:
            target = target[key]
        target[path[-2]] = path[-1]

    return edit


# -- reference computations ------------------------------------------------


def test_reference_conditions_on_the_basic_pair():
    pair = Counter([(1, F(1, 2), F(0)), (1, F(-1, 2), F(0))])
    assert reference.condition_i(pair)
    assert not reference.condition_ii(pair)
    assert not reference.condition_i(Counter([(1, F(0), F(0))]))
    assert reference.condition_i(Counter([(2, F(0), F(0))]))


def test_reference_grid_counts_and_recurrences():
    counts = reference.multiset_counts_by_size(reference.grid_block_sizes(), 5)
    assert counts == [1, 15, 165, 1370, 9765, 60918]
    assert [reference.involution_count(n) for n in range(1, 6)] == [1, 2, 4, 10, 26]
    assert reference.minimal_even_ktype([1, 1, 1, 1]) == [2, 2, 0, 0]
    assert reference.minimal_even_ktype([1, 1, 1]) is None


# -- grid-sweep ----------------------------------------------------------------


def test_scan_check_rejects_wrong_counts():
    scan = grid_sweep.scan()
    dist = [int(x) for x in scan.dist_by_size[:6]]
    assert grid_sweep.check_scan(scan, dist)
    assert not grid_sweep.check_scan(dataclasses.replace(scan, disagreements=1), dist)
    nodes = scan.nodes_by_size.copy()
    nodes[12] += 1
    assert not grid_sweep.check_scan(dataclasses.replace(scan, nodes_by_size=nodes), dist)
    assert not grid_sweep.check_scan(scan, dist[:5] + [dist[5] + 1])


def test_direct_verdicts_against_the_classifier():
    from glcdist.equivalence_scan import acceptance_block_grid

    sign = next(b for b in acceptance_block_grid() if grid_sweep.block_key(b) == ("char", 2, 1, F(0), F(0)))
    for count, expected in ((2, (True, True)), (3, (False, False))):
        keys = (grid_sweep.block_key(sign),) * count
        assert grid_sweep.expected_verdicts(keys) == expected
        assert grid_sweep.direct((sign,) * count) == expected


def test_verdict_check_rejects_exceptions_and_other_outputs():
    check = partial(grid_sweep.verdicts_match, (True, False))
    assert check((True, False))
    assert not check((True, True))
    assert not check(ValueError("raised by the program"))
    assert not check([True, False])
    assert not check(None)


def test_round_fails_ops_that_raise_whatever_their_check_says():
    def boom():
        raise ValueError("raised by the program")

    permissive = lambda out: True  # noqa: E731
    ops = [
        harness.Op("raises", boom, (), permissive),
        harness.Op("not-a-bool", tuple, (), lambda out: NotImplemented),
        harness.Op("passes", tuple, (), lambda out: out == ()),
        harness.Op("known-fault", boom, (), permissive, fault=True),
    ]
    outputs = harness.run_round(ops).outputs
    assert harness.check_round(ops, outputs, log=lambda message: None) == (3, 2)


# -- cli-batch -----------------------------------------------------------------

PAIR = [(1, F(1, 2), F(0)), (1, F(-1, 2), F(0))]


def run(argv):
    return cli_batch.call_main(argv + ["--json"])


def test_classify_check_rejects_wrong_verdicts():
    outcome = run(["classify", "--inline", cli_batch.langlands_json(PAIR), "--mode", "generic"])
    check = partial(cli_batch.check_classify, chars=Counter(PAIR), mode="generic", blocks=None)
    assert check(outcome)
    assert not check(tamper(outcome, setter("verdict", "distinguished", False)))
    assert not check(tamper(outcome, setter("verdict", "witness", "pairs", [[1, 1]])))
    assert not check((2,) + outcome[1:])

    blocks = [("char", 2, 1, F(0), F(0))] * 3
    outcome = run(["classify", "--inline", cli_batch.blocks_json(blocks), "--mode", "unitary"])
    check = partial(
        cli_batch.check_classify, chars=reference.unitary_chars(blocks), mode="unitary", blocks=blocks
    )
    assert check(outcome)
    assert not check(tamper(outcome, setter("block_verdict", "distinguished", True)))
    assert not check(tamper(outcome, setter("exceptional_factor", False)))


def test_ktype_check_rejects_wrong_ktypes():
    chars = [(1, F(0), F(0)), (1, F(0), F(0)), (1, F(1, 4), F(0)), (1, F(-1, 4), F(0))]
    outcome = run(["ktype", "--inline", cli_batch.langlands_json(chars), "--radius", "4"])
    check = partial(cli_batch.check_ktype, ms=[1, 1, 1, 1], radius=4)
    assert check(outcome)
    assert not check(tamper(outcome, setter("distinguished_minimal_ktype", [2, 1, 1, 0])))
    assert not check(tamper(outcome, setter("oracle_agrees", False)))
    odd = partial(cli_batch.check_ktype, ms=[1, 1, 1], radius=None)
    assert odd(run(["ktype", "--inline", cli_batch.langlands_json(chars[:3])]))
    assert not odd(outcome)


def test_derive_check_rejects_wrong_stages():
    blocks = [(1, F(0), F(0), 2)] * 3
    outcome = run(["derive", "--inline", cli_batch.monomial_json(blocks)])
    check = partial(cli_batch.check_derive, blocks=blocks)
    assert check(outcome)
    assert not check(tamper(outcome, setter("passes", True)))
    assert not check(tamper(outcome, setter("failing_stage", 0)))
    assert not check(tamper(outcome, setter("stages", 0, "condition_i", False)))


def test_eps_check_rejects_wrong_factors():
    outcome = run(["eps", "--inline", cli_batch.langlands_json(PAIR), "--b=0,2"])
    check = partial(cli_batch.check_eps, chars=Counter(PAIR), twist="0,2")
    assert check(outcome)
    assert not check(tamper(outcome, setter("exactly_one", False)))
    assert not check(tamper(outcome, setter("factor", "unit", {"re": "-1", "im": "0"})))
    assert not check(tamper(outcome, setter("factor", "half_exponent", {"re": "1/2", "im": "0"})))


def test_cosets_check_rejects_wrong_classes():
    outcome = run(["cosets", "--n", "4", "--comp", "2,2"])
    check = partial(cli_batch.check_cosets, n=4, comp="2,2")
    assert check(outcome)
    assert not check(tamper(outcome, setter("count", 9)))
    assert not check(tamper(outcome, setter("open_classes", 2)))
    assert not check(tamper(outcome, setter("class_dimensions", [32, 32, 30])))
    assert not check(tamper(outcome, lambda results: results["classes"].pop()))
    assert not check(tamper(outcome, setter("representatives_verified", None)))


def test_fault_check_accepts_only_handled_errors():
    assert cli_batch.check_handled(run(["cosets", "--n", "4", "--comp", "2,3"]))
    assert not cli_batch.check_handled((0, "", ""))
    assert not cli_batch.check_handled(("ValueError", "", ""))


# -- kernel-verify ----------------------------------------------------------------


def test_kernel_checks_reject_perturbed_values():
    forms = reference.closed_forms()
    z = 1.3 + 0.4j
    want = (forms["gamma"](z),)
    value = kernel_verify.gamma_check(z)
    assert kernel_verify.KernelVerify.check(value, want)
    assert not kernel_verify.KernelVerify.check(value * (1 + 1e-5), want)

    a, b = 0.7 + 0.1j, 1.9 - 0.2j
    want = (forms["radial"](a, b),)
    value = kernel_verify.radial_check(a, b)
    assert kernel_verify.KernelVerify.check(value, want)
    assert not kernel_verify.KernelVerify.check(value + 1e-5 * abs(value), want)

    s = 0.0
    wants = (forms["case2"](s), forms["case2"](s), forms["ratio2"](s))
    numeric, ref, ratio = kernel_verify.kernel_check("case2", s)
    assert kernel_verify.KernelVerify.check((numeric, ref, ratio), wants)
    assert not kernel_verify.KernelVerify.check((numeric, ref, 2 * ratio), wants)
