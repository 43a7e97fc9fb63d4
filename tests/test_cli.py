import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from glcdist import cli, kernelnum, selftest
from glcdist.cli import main
from glcdist.derivatives import MonomialRep, derivative_necessity_test, derivative_stages
from glcdist.errors import InputError, PreconditionError, QuadratureError
from glcdist.kernelnum import KERNEL_CASES, KERNEL_MAX_REL_ERR, kernel_row
from glcdist.ktypes import NotDistinguishedError


SRC = str(Path(__file__).resolve().parents[1] / "src")


def fixture_path(name: str) -> str:
    return str(resources.files("glcdist").joinpath("fixtures", name))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


class TestClassify:
    def test_sign_cube_unitary(self, capsys):
        code, report = run_json(
            capsys, "classify", "--input", fixture_path("sign_cube_g6.json"), "--mode", "unitary"
        )
        assert code == 0
        verdict = report["results"]["verdict"]
        assert verdict["distinguished"] is False
        assert verdict["condition_i"] is True
        assert verdict["condition_ii"] is False
        assert report["results"]["formulations_agree"] is True
        assert report["results"]["exceptional_factor"] is True

    def test_sign_square_unitary(self, capsys):
        code, report = run_json(
            capsys, "classify", "--input", fixture_path("sign_square_g4.json")
        )
        assert code == 0
        assert report["results"]["verdict"]["distinguished"] is True

    def test_generic_pair_and_branching_alias(self, capsys):
        code, report = run_json(
            capsys, "classify", "--input", fixture_path("pair_g2.json"), "--mode", "generic"
        )
        assert code == 0
        assert report["results"]["verdict"]["distinguished"] is True
        assert report["results"]["appears_in_induced_trivial_branching"] is True

    def test_unitary_mode_on_plain_parameter(self, capsys):
        # A parameter input has no block structure: only the parameter-side
        # verdict is reported.
        code, report = run_json(
            capsys, "classify", "--input", fixture_path("pair_g2.json")
        )
        assert code == 0
        assert "block_verdict" not in report["results"]
        assert report["results"]["verdict"]["distinguished"] is False  # odd pair, (ii) fails

    def test_report_round_trip(self, capsys):
        code, report = run_json(
            capsys, "classify", "--input", fixture_path("sign_cube_g6.json")
        )
        assert code == 0
        echoed = json.dumps(report["inputs"]["blocks"])
        code2, report2 = run_json(capsys, "classify", "--inline", echoed)
        assert code2 == 0
        assert report2 == report


class TestKtype:
    def test_g4_example(self, capsys):
        code, report = run_json(
            capsys, "ktype", "--input", fixture_path("g4_mixed.json"), "--radius", "6"
        )
        assert code == 0
        assert report["results"]["lowest_ktype"] == [1, 1, 1, 1]
        assert report["results"]["distinguished_minimal_ktype"] == [2, 2, 0, 0]
        assert report["results"]["oracle_minimizers"] == [[2, 2, 0, 0]]
        assert report["results"]["oracle_agrees"] is True

    def test_precondition_exit_code(self, capsys):
        code = main(
            ["ktype", "--inline", '{"type":"langlands","characters":[{"m":1,"s":{"re":"0","im":"0"}}]}']
        )
        capsys.readouterr()
        assert code == 2


class TestDerive:
    def test_stages_are_the_stage_walk(self, capsys):
        path = fixture_path("sign_cube_monomial_g6.json")
        code, report = run_json(capsys, "derive", "--input", path)
        assert code == 0
        with open(path, encoding="utf-8") as handle:
            mono = MonomialRep.parse(json.load(handle))
        walk = [([b.to_json() for b in m.blocks], m.total_size, ok) for m, ok in derivative_stages(mono)]
        stages = report["results"]["stages"]
        assert [(st["blocks"], st["total_size"], st["condition_i"]) for st in stages] == walk
        results = report["results"]
        assert (results["passes"], results["failing_stage"]) == derivative_necessity_test(mono)

    def test_sign_cube_monomial(self, capsys):
        code, report = run_json(
            capsys, "derive", "--input", fixture_path("sign_cube_monomial_g6.json")
        )
        assert code == 0
        assert report["results"]["passes"] is False
        assert report["results"]["failing_stage"] == 1
        assert report["results"]["stages"][0]["condition_i"] is True
        assert report["results"]["stages"][1]["condition_i"] is False


class TestEps:
    def test_pair_fixture(self, capsys):
        code, report = run_json(
            capsys, "eps", "--input", fixture_path("pair_g2.json"), "--b", "0,1"
        )
        assert code == 0
        assert report["results"]["exactly_one"] is True
        assert report["results"]["psi_trivial_on_r"] is True

    def test_twist_two_i(self, capsys):
        code, report = run_json(
            capsys, "eps", "--input", fixture_path("sign_square_g4.json"), "--b", "0,2"
        )
        assert code == 0
        assert report["results"]["exactly_one"] is True
        assert report["results"]["factor"]["abs_b_sq"] == "4"

    def test_negative_twist_after_equals_sign(self, capsys):
        # argparse takes "-1/2,5/3" after a space for a flag; after "=" it is the value.
        code, report = run_json(capsys, "eps", "--input", fixture_path("pair_g2.json"), "--b=-1/2,5/3")
        assert code == 0
        assert report["inputs"]["b"] == "-1/2,5/3"

    def test_unit_charged_by_its_own_exponent(self, capsys):
        # Twists +-40 give sum |m| = 640 but sum m = 0: the unit i^640 b^0
        # stays small, so the factor fits EPS_MAX_BITS and is exactly 1.
        chars = ",".join(
            '{"m":%d,"s":"%s%s"}' % (m, sign, t) for m in (40, -40) for sign in "+-" for t in ("1/2", "1/3", "1/4", "1/5")
        )
        code, report = run_json(capsys, "eps", "--inline", '{"type":"langlands","characters":[%s]}' % chars, "--b=0,2")
        assert code == 0
        assert len(report["inputs"]["parameter"]["characters"]) == 16
        assert report["results"]["exactly_one"] is True

    def test_bad_twist_is_parse_error(self, capsys):
        code = main(["eps", "--input", fixture_path("pair_g2.json"), "--b", "nonsense"])
        capsys.readouterr()
        assert code == 1


class TestCosets:
    def test_classes_and_dimensions(self, capsys):
        code, report = run_json(capsys, "cosets", "--n", "4", "--comp", "2,2")
        assert code == 0
        results = report["results"]
        assert results["count"] == 10
        assert results["representatives_verified"] is True
        assert len(results["classes"]) == 3
        assert results["class_dimensions"] == [28, 31, 32]
        assert results["open_classes"] == 1

    def test_borel_compositions_of_seven_and_eight(self, capsys):
        code, report = run_json(capsys, "cosets", "--n", "7", "--comp", "1,1,1,1,1,1,1")
        assert code == 0
        dims = report["results"]["class_dimensions"]
        assert len(report["results"]["classes"]) == 232
        assert report["results"]["open_classes"] == 1 and dims.count(98) == 1
        code, report = run_json(capsys, "cosets", "--n", "8", "--comp", "1,1,1,1,1,1,1,1")
        assert code == 0 and report["results"]["open_classes"] == 1

    def test_borel_composition_of_ten(self, capsys):
        code, report = run_json(capsys, "cosets", "--n", "10", "--comp", ",".join(["1"] * 10))
        assert code == 0
        assert len(report["results"]["classes"]) == 9496
        assert report["results"]["open_classes"] == 1
        assert report["results"]["representatives_verified"] is None

    def test_composition_mismatch(self, capsys):
        code = main(["cosets", "--n", "4", "--comp", "2,1"])
        capsys.readouterr()
        assert code == 1

    def test_text_report_with_composition(self, capsys):
        assert run(capsys, "cosets", "--n", "4", "--comp", "2,2") == (
            0,
            "10 involutions on 4 letters, representatives verified: True\n"
            "3 double-coset classes for composition (2, 2)\n"
            "  class of (1, 2, 3, 4): 4 involutions, orbit dimension 28\n"
            "  class of (1, 3, 2, 4): 4 involutions, orbit dimension 31\n"
            "  class of (3, 4, 1, 2): 2 involutions, orbit dimension 32 (open)\n",
        )

    def test_text_report_past_the_verification_cap(self, capsys):
        assert run(capsys, "cosets", "--n", "9") == (0, "2620 involutions on 9 letters, representatives verified: None\n")


class TestVerifyKernel:
    def test_single_sample(self, capsys):
        # 0.999 lies next to case 1's strip edge at Re s = 1.
        code, report = run_json(capsys, "verify-kernel", "--samples", "0,0.999")
        assert code == 0
        table = report["results"]["table"]
        assert len(table) == 4
        for row in table:
            assert row["rel_err"] < 1e-6
            got = complex(*row["normalization_ratio"])
            want = complex(*row["expected_normalization_ratio"])
            assert abs(got - want) < 1e-6

    def test_rows_are_the_kernel_rows(self, capsys):
        code, report = run_json(capsys, "verify-kernel", "--samples", "0.2")
        assert code == 0
        rows = [kernel_row(0.2 + 0j, case).to_json() for case in KERNEL_CASES]
        assert report["results"]["table"] == rows

    def test_rel_err_past_bound_exits_numeric(self, capsys, monkeypatch):
        # With the bound moved below both rows' errors at 0.2+30i, the report
        # is still emitted, and stderr names the worst row.
        monkeypatch.setattr(kernelnum, "KERNEL_MAX_REL_ERR", 1e-15)
        code = main(["verify-kernel", "--samples=0.2+30j", "--json"])
        captured = capsys.readouterr()
        assert code == 3
        table = json.loads(captured.out)["results"]["table"]
        worst = max(table, key=lambda row: row["rel_err"])
        assert worst["rel_err"] > kernelnum.KERNEL_MAX_REL_ERR
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and worst["case"] in err[0] and "(0.2+30j)" in err[0]

    def test_ratio_past_bound_exits_numeric(self, capsys, monkeypatch):
        # A row fails on its normalization ratio as well as on its relative
        # error: with the ratio bound at 0, every row misses it.
        monkeypatch.setattr(kernelnum, "KERNEL_MAX_RATIO_ERR", 0.0)
        code = main(["verify-kernel", "--samples=0.2", "--json"])
        captured = capsys.readouterr()
        assert code == 3
        assert all(row["rel_err"] <= KERNEL_MAX_REL_ERR for row in json.loads(captured.out)["results"]["table"])
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure: ")
        assert "s=(0.2+0j): normalization ratio error" in err[0] and err[0].endswith("exceeds 0")

    def test_rel_err_within_bound_exits_ok(self, capsys):
        code = main(["verify-kernel", "--samples=0.2+2j", "--json"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        for row in json.loads(captured.out)["results"]["table"]:
            assert row["rel_err"] <= KERNEL_MAX_REL_ERR

    def test_large_imaginary_parts_within_bound(self, capsys):
        # Where |Im s| is large the kernel moments are exponentially small;
        # each row still meets the bound, up to the cap |Im s| = 100.
        code = main(["verify-kernel", "--samples", "0.2+8j,0.2+30j,0.2+100j"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""

    def test_strip_violation_exit_code(self, capsys):
        code = main(["verify-kernel", "--samples", "5"])
        capsys.readouterr()
        assert code == 2

    def test_nonconvergence_exit_code(self, capsys):
        # Inside case 1's strip, 3.3e-13 from its edge at Re s = -1/3: the
        # radial quadrature cannot resolve it within the subdivision limit.
        code = main(["verify-kernel", "--samples=-0.333333333333"])
        capsys.readouterr()
        assert code == 3


class TestSelftest:
    # The criteria are stubbed: the real suite runs in test_acceptance.py.
    @pytest.mark.parametrize(
        "passed, elapsed, code",
        [(True, 0.5, 0), (False, 0.5, 1), (True, 31.0, 1)],
        ids=["all-pass", "one-fails", "one-over-budget"],
    )
    def test_exit_code(self, capsys, monkeypatch, passed, elapsed, code):
        results = [
            selftest.CriterionResult(1, "first", True, "", 0.1, 30.0),
            selftest.CriterionResult(2, "second", passed, "", elapsed, 30.0),
        ]
        monkeypatch.setattr(selftest, "run_all", lambda: results)
        assert main(["selftest"]) == code
        verdict = "all criteria passed" if code == 0 else "FAILURES above"
        assert capsys.readouterr().out == f"selftest: {verdict}\n"


class TestFailurePath:
    def test_error_types_carry_exit_codes_and_labels(self):
        assert [(e.exit_code, e.label) for e in (InputError, PreconditionError, QuadratureError)] == [
            (1, "parse error"),
            (2, "precondition violated"),
            (3, "numeric failure"),
        ]
        assert NotDistinguishedError.exit_code == 2
        assert NotDistinguishedError.label == "precondition violated (even-multiplicity hypothesis)"

    def test_estimate_is_optional(self):
        assert str(QuadratureError("off", 1.5e-3)) == "off (achieved error estimate 1.500e-03)"
        assert str(QuadratureError("off")) == "off" and QuadratureError("off").estimate is None

    # cosets --n 8 --json writes more than a pipe buffer holds; text-mode
    # cosets --n 3 writes one short line, which a buffered stdout would
    # otherwise only fail to write at exit.
    @pytest.mark.parametrize("argv", [["cosets", "--n", "8", "--json"], ["cosets", "--n", "3"]])
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout(self, argv, unbuffered):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the child writes
        env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": unbuffered}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "glcdist", *argv], stdout=write, stderr=subprocess.PIPE, text=True, env=env
            )
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr.startswith("parse error: cannot write stdout")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    def test_exact_input_at_the_digit_cap(self, capsys):
        # 4,000 digits are read; halving t gives a 4,001-digit denominator.
        block = '{"kind":"comp","m":1,"k":0,"u":{"re":"0","im":"%s"},"t":"1/%s"}' % ("9" * 4000, "7" * 4000)
        code, report = run_json(capsys, "classify", "--inline", '{"type":"unitary","blocks":[%s]}' % block)
        assert code == 0
        assert report["inputs"]["blocks"]["blocks"][0]["t"] == "1/" + "7" * 4000


class TestParsing:
    def test_missing_input(self, capsys):
        code = main(["classify"])
        capsys.readouterr()
        assert code == 1

    def test_bad_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["classify", "--input", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 1" in err

    def test_unknown_flag(self, capsys):
        code = main(["classify", "--unitary"])
        capsys.readouterr()
        assert code == 1

    def test_unknown_block_kind(self, capsys):
        code = main(
            ["classify", "--inline", '{"type":"unitary","blocks":[{"kind":"huh"}]}']
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "bad parameter file" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _ = run(
            capsys, "classify", "--input", fixture_path("pair_g2.json"),
            "--mode", "generic", "--output", str(target),
        )
        assert code == 0
        assert json.loads(target.read_text())["subcommand"] == "classify"

    def test_main_builds_no_parser(self, capsys, monkeypatch):
        # The parser is built on the first call and kept: later calls only parse.
        assert main(["cosets", "--n", "1"]) == 0
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("an ArgumentParser was built inside main")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        code, report = run_json(capsys, "classify", "--input", fixture_path("pair_g2.json"))
        assert code == 0 and report["subcommand"] == "classify"
        assert main(["cosets", "--n", "0"]) == 2
        assert capsys.readouterr().err.startswith("precondition violated")

    def test_cli_import_builds_no_parser(self):
        # A fresh import defines the parser but does not build it.
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import glcdist.cli\n"
            "assert not built, built\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})

    def test_cli_import_loads_only_what_requests_run(self):
        # numpy would be most of the CLI's start-up time, and no module needs
        # it; dataclasses pulls in inspect and ast.  selftest, kernelnum and
        # equivalence_scan load only for the subcommands that run them.
        code = (
            "import sys\n"
            "import glcdist.cli\n"
            "unwanted = ['numpy', 'dataclasses', 'glcdist.selftest', 'glcdist.kernelnum', 'glcdist.equivalence_scan']\n"
            "loaded = [name for name in unwanted if name in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})

    def test_text_mode_encodes_no_json(self, capsys, monkeypatch, tmp_path):
        # Text output never encodes the report; --json and --output do, once each.
        calls = []
        encode = cli._encode

        def counting(report):
            calls.append(1)
            return encode(report)

        monkeypatch.setattr(cli, "_encode", counting)
        for argv in (
            ["classify", "--input", fixture_path("sign_cube_g6.json")],
            ["ktype", "--input", fixture_path("pair_g2.json")],
            ["derive", "--input", fixture_path("sign_cube_monomial_g6.json")],
            ["eps", "--input", fixture_path("pair_g2.json")],
            ["cosets", "--n", "3", "--comp", "1,2"],
            ["verify-kernel", "--samples", "0.2"],
        ):
            assert main(argv) == 0
            assert capsys.readouterr().out
        assert calls == []
        assert main(["cosets", "--n", "3", "--json"]) == 0
        assert main(["cosets", "--n", "3", "--output", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 2


# Every kind of value json.dumps writes, with empty containers at any depth.
json_texts = st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600')
json_floats = st.floats() | st.sampled_from([-0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf])
json_trees = st.recursive(
    json_texts | st.integers() | st.integers(-(10**60), 10**60) | st.booleans() | st.none() | json_floats,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(json_texts, inner, max_size=4),
    max_leaves=25,
)


class TestReportWriter:
    @settings(max_examples=300)
    @example({"a": [-0.0, 1e300, math.nan, math.inf, -math.inf, {}, [], [[{}]]], 'q"\\\x01\u00e9': 10**30})
    @example([])
    @given(json_trees)
    def test_equals_indented_dumps(self, value):
        out = []
        cli._write_json(value, out, "\n")
        assert "".join(out) == json.dumps(value, indent=2)

    def test_non_json_value_raises(self):
        report = {"results": {"factor": [Fraction(1, 2)]}}
        with pytest.raises(TypeError):
            json.dumps(report, indent=2)
        with pytest.raises(TypeError, match="Fraction"):
            cli._encode(report)


def langlands(m="1", s='{"re":"0","im":"0"}'):
    return '{"type":"langlands","characters":[{"m":%s,"s":%s}]}' % (m, s)


def char_block(n):
    return '{"type":"unitary","blocks":[{"kind":"char","n":%s,"k":1,"u":"0"}]}' % n


def case_id(argv) -> str:
    """A test id read off the request itself, so that no id depends on its
    position: the argv joined, and past 60 characters its first 60 and a
    hash of the whole."""
    text = " ".join(argv)
    return text if len(text) <= 60 else f"{text[:60]}~{hashlib.sha256(text.encode()).hexdigest()[:8]}"


NINES = "9" * 4300  # 10^4300 - 1, the largest integer json.loads reads
# Past json.loads' and int()'s own 4,300-digit limit, the cap is still what refuses.
TOO_LONG = [
    ["classify", "--inline", '{"type":"unitary","blocks":[{"kind":"comp","m":1,"k":0,"u":"0","t":"1/%s"}]}' % ("9" * 5000)],
    ["classify", "--inline", langlands(m="9" * 5000)],
    ["cosets", "--n", "9" * 5000],
    ["eps", "--inline", langlands(m="2"), "--b=0,1/" + "9" * 5000],
]

BAD_INPUTS = [
    (["classify", "--inline", langlands(m="1.5")], 1),
    (["classify", "--inline", langlands(m="true")], 1),
    (["classify", "--inline", langlands(m='"1"')], 1),
    (["classify", "--inline", char_block("true")], 1),
    (["derive", "--inline", '{"type":"monomial","blocks":[{"k":1,"s":"0","size":2.7}]}'], 1),
    (["classify", "--inline", '{"type":"unitary","blocks":[{"kind":"comp","m":1,"k":0,"u":"0","t":0.1}]}'], 1),
    (["classify", "--inline", langlands(s='{"re":"1/0","im":"0"}')], 1),
    (["classify", "--inline", "[]"], 1),
    (["derive", "--inline", "[]"], 1),
    (["cosets", "--n", "0"], 2),
    (["cosets", "--n", "11"], 2),
    (["cosets", "--n", "4", "--comp", "0,4"], 2),
    (["cosets", "--n", "4", "--comp", "2,x"], 1),
    (["cosets", "--n", "4", "--comp", "2.0,2"], 1),
    (["cosets", "--n", "11", "--comp", "1,1,1,1,1,1,1,1,1,1,1"], 2),
    # --n and --radius are JSON integers, as the --comp parts are.
    (["cosets", "--n", "1_0"], 1),
    (["cosets", "--n", "\uff13"], 1),
    (["cosets", "--n", "7.0"], 1),
    (["ktype", "--inline", langlands(m="2"), "--radius", "1_0"], 1),
    (["eps", "--inline", langlands(m="2"), "--b=0,0"], 2),
    (["eps", "--inline", langlands(m="2"), "--b=0,1/0"], 1),
    (["classify", "--output", "/nonexistent/dir/r.json", "--inline", langlands()], 1),
    # An empty flag value is read like any other, not taken for a missing flag.
    (["cosets", "--n", "3", "--comp", ""], 2),
    (["classify", "--inline", ""], 1),
    (["classify", "--output", "", "--inline", langlands()], 1),
    # Work with no bound before MAX_RANK and EPS_MAX_BITS; each ends at once.
    (["classify", "--json", "--inline", '{"type":"unitary","blocks":[{"kind":"char","n":10000000,"k":0,"u":"0"}]}'], 2),
    (["derive", "--inline", '{"type":"monomial","blocks":[{"size":1000,"k":1,"s":"0"}]}'], 2),
    (["eps", "--inline", langlands(m="100000000", s='"0"')], 2),
    (["eps", "--inline", langlands(m="20000", s='"0"'), "--b=2,0"], 2),
    (["eps", "--inline", langlands(m="0", s='"100000000"'), "--b=2,0"], 2),
    (["eps", "--json", "--inline", '{"type":"langlands","characters":[{"m":0,"s":"1/%d"},{"m":0,"s":"1/%d"}]}'
      % (10**3999 + 1, 10**3999 + 3)], 2),
    # Kernel samples must be finite, with |Im s| <= KERNEL_MAX_IM.
    (["verify-kernel", "--samples=0.2+1e308j"], 2),
    (["verify-kernel", "--samples=0.2+nanj"], 2),
    (["verify-kernel", "--samples=0.5+infj"], 2),
    # complex() also reads "_" and non-ASCII digits; --samples does not.
    (["verify-kernel", "--samples=0.2_0"], 1),
    (["verify-kernel", "--samples=\uff10.\uff12"], 1),
    # Exact input is capped at MAX_INPUT_DIGITS = 4000 digits: past it, a
    # derived value (m + 1, t/2, a sum of sizes) would not convert to text.
    (["ktype", "--inline", '{"type":"langlands","characters":[%s,%s]}' % ((f'{{"m":{NINES},"s":"0"}}',) * 2)], 2),
    (["classify", "--inline", '{"type":"unitary","blocks":[{"kind":"comp","m":1,"k":0,"u":"0","t":"1/%s"}]}' % NINES], 2),
    (["derive", "--inline", '{"type":"monomial","blocks":[%s,%s]}' % ((f'{{"k":1,"s":"0","size":{NINES}}}',) * 2)], 2),
    *[(argv, 2) for argv in TOO_LONG],
    # Flag errors end in their one line too, without argparse's usage lines.
    (["classify", "--unitary"], 1),
    ([], 1),
    (["cosets"], 1),
    # Exactly one of --input and --inline is read.
    (["classify", "--input", "x", "--inline", langlands()], 1),
    # An error line echoes at most 60 characters of a long offending value.
    (["classify", "--inline", '{"type":"unitary","blocks":[{"kind":"comp","m":1,"k":0,"u":"0","t":"1/%s"}]}' % ("0" * 5000)], 1),
    (["eps", "--inline", langlands(m="2"), "--b=0," + "x" * 3000], 1),
    (["classify", "--inline", '{"type":"langlands","characters":{"%s":100}}' % ("c" * 4000)], 1),
    (["classify", "--inline", '{"type":"unitary","blocks":[{"kind":"%s"}]}' % ("k" * 4000)], 1),
    (["verify-kernel", "--samples=" + "q" * 4000], 1),
    (["cosets", "--n", "3", "--comp", ",".join(["1"] * 2000)], 1),
]


def test_bad_input_ids_are_unique():
    # TOO_LONG's requests are among BAD_INPUTS.
    assert len({case_id(argv) for argv, _ in BAD_INPUTS}) == len(BAD_INPUTS)


@pytest.mark.parametrize("argv, code", BAD_INPUTS, ids=[case_id(argv) for argv, _ in BAD_INPUTS])
def test_bad_input_exit_code(capsys, argv, code):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert len(err.encode("utf-8")) <= 300, err[:300]


@pytest.mark.parametrize("argv", TOO_LONG, ids=[case_id(argv) for argv in TOO_LONG])
def test_too_many_digits_names_the_cap(capsys, argv):
    assert main(argv) == 2
    assert "MAX_INPUT_DIGITS = 4000" in capsys.readouterr().err


def main_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
# Documents shaped like the input files, so that the readers see bad leaves,
# and blocks and exponents up to 10**9, past MAX_RANK and EPS_MAX_BITS.
leaves = (
    st.integers(-3, 3) | st.integers(-10**9, 10**9) | st.booleans() | st.floats() | st.none()
    | st.sampled_from(["0", "1/2", "-1/3", "1/0", "0.5", " 2 "]) | st.text(max_size=4)
)
slots = leaves | st.fixed_dictionaries({"re": leaves, "im": leaves})
entries = st.fixed_dictionaries(
    {"kind": st.sampled_from(["char", "comp", "other"]), "m": leaves, "n": leaves, "k": leaves,
     "s": slots, "u": slots, "t": leaves, "size": leaves}
)
documents = json_values | st.fixed_dictionaries(
    {"type": st.sampled_from(["langlands", "unitary", "monomial", "other"]),
     "characters": st.lists(entries, max_size=3) | leaves,
     "blocks": st.lists(entries, max_size=3) | leaves}
)
texts = st.text(max_size=8) | st.from_regex(
    r"-?[0-9]{1,4}(/-?[0-9]{1,3})?(,-?[0-9]{1,4}(/[0-9]{1,3}|\.[0-9])?)?", fullmatch=True
)
# Kernel samples: junk, and complex numbers near the strip edges with small,
# large and non-finite imaginary parts.
edges = st.sampled_from([-1 / 3, 1.0, -2 / 3, 2.0, 0.2])
imaginary = st.floats(-3, 3) | st.sampled_from([99.9, 100.0, 150.0, -1e308, math.inf, -math.inf, math.nan])
samples = texts | st.tuples(edges, st.floats(-1e-3, 1e-3), imaginary).map(
    lambda t: repr(complex(t[0] + t[1], t[2])))
requests = st.one_of(
    st.tuples(st.sampled_from(["classify", "derive"]), documents).map(
        lambda t: [t[0], "--inline", json.dumps(t[1])]),
    st.tuples(documents, st.sampled_from(["generic", "unitary"])).map(
        lambda t: ["classify", "--inline", json.dumps(t[0]), "--mode", t[1]]),
    st.tuples(documents, st.none() | st.integers(-1, 8)).map(
        lambda t: ["ktype", "--inline", json.dumps(t[0])] + ([] if t[1] is None else ["--radius", str(t[1])])),
    st.tuples(documents, texts).map(lambda t: ["eps", "--inline", json.dumps(t[0]), f"--b={t[1]}"]),
    texts.map(lambda b: ["eps", "--inline", langlands(m="2"), f"--b={b}"]),
    # n <= 5 keeps every cosets call well under a second.
    st.tuples(st.text(max_size=3) | st.integers(-1, 5).map(str), st.none() | texts).map(
        lambda t: ["cosets", f"--n={t[0]}"] + ([] if t[1] is None else [f"--comp={t[1]}"])),
    st.lists(samples, min_size=1, max_size=2).map(lambda t: ["verify-kernel", f"--samples={','.join(t)}"]),
)


@settings(max_examples=300)
@given(requests)
def test_main_never_raises(argv):
    assert main_quietly(argv) in (0, 1, 2, 3)


# SHA-256 of the --json report on stdout, one per command and fixture.  They
# pin the reports byte for byte: a change to the exact layer must leave them
# alone.  verify-kernel is left out, since its floats may differ by platform.
REPORT_DIGESTS = [
    ("classify --mode generic", "comp_series_k1_half_g4.json", "0cfe4f742bb5053df42e82f977ea21a732d23d84a933d534b8478d331d22b8b5"),
    ("classify --mode unitary", "comp_series_k1_half_g4.json", "85929d3cfe4edb56c7e64b0478715983fd69ddd02d8fd7b782a43324b3feb85c"),
    ("ktype", "comp_series_k1_half_g4.json", "078a61c4dc2db1b22ef6ba0a763891b6b6abd881cb5f35556f50989610e88aea"),
    ("eps --b=0,1", "comp_series_k1_half_g4.json", "6d3d21e4d3cbc530f2efc59c601a4769aa61462a194d4efa8015efcc9149d8b6"),
    ("classify --mode generic", "g4_mixed.json", "b7a1f969d1fc78a39b6b943785f36233fc307d2d467b828d5deb92f5a2fd8e17"),
    ("classify --mode unitary", "g4_mixed.json", "3631864313213616c2fd6892e32152f24589786cfee73872da567a14a5ed4f14"),
    ("ktype", "g4_mixed.json", "6c88c650f77363eb379cd3455708cd0a73db7429ce6bc1f92644cbbc220d9bf9"),
    ("ktype --radius 8", "g4_mixed.json", "34b4152c88e037da053f06cb2ddddca5813c379acbf7f409a63db632776bcbf0"),
    ("eps --b=0,1", "g4_mixed.json", "9f3b026f85ed1ca94f1199bc3832c453fbec27068c48f8a9d2c8e963919bec7a"),
    ("classify --mode generic", "pair_g2.json", "f387457574638b62e1124e2ba4ab8b02eca7c770cf4d28efa2ebc592fe1d0e7a"),
    ("classify --mode unitary", "pair_g2.json", "cdb273c590c3ed501b852fc15486bc7100fe1ccf88a87b6aaf002c4917f187c5"),
    ("ktype", "pair_g2.json", "cdb70b72fa425c2a4c64d656be42e632d5743bb803fc5c694925b829b0b73410"),
    ("eps --b=0,1", "pair_g2.json", "206ab161a9024a566ca5e652bab73082cc990cc1307b25218908e9b48ce39f5d"),
    ("classify --mode generic", "sign_cube_g6.json", "97748f5ad37580b1b23002eefc6ff48cb9bf3ab19bbab96474018f9392818686"),
    ("classify --mode unitary", "sign_cube_g6.json", "bc7fa04ebf3665ce6285d67699e3f06bb88b0cf8e46b98e34377ceeca65ebda1"),
    ("ktype", "sign_cube_g6.json", "6a5af3803590a50c723b5f903a09a3def3d5e05d54d2c89e969a8af89bf8ad24"),
    ("eps --b=0,1", "sign_cube_g6.json", "7f79389d9933719de5c072302e9372772540eededac9b0f750ca7291ac0ff0bd"),
    ("classify --mode generic", "sign_square_g4.json", "a5999325fde327726270ea572da28d4ee8dcda3834f9a7f4ae9b9b0dc8a16b7e"),
    ("classify --mode unitary", "sign_square_g4.json", "901d02ea4a6677716bc2b83bb85775cf5302d7a52b6c1040f19b40eeb0f5bade"),
    ("ktype", "sign_square_g4.json", "5b40eb241b1c52aa589da9303ba212c3bcc2361b6c643c0f31b9c66da71cd7ce"),
    ("eps --b=0,1", "sign_square_g4.json", "cee089528872b548138b0c438ea176e4c1fcfb0d3a267c8272bfff2599cfee82"),
    ("derive", "sign_cube_monomial_g6.json", "ac1882203f6c0fd07d33fbe655c7389410312093d288dc3bf775cdab5d03d8fc"),
    ("cosets --n 5 --comp 2,3", None, "135b0bafbe9a04b591be8011344c18750d209e9c201be427d53ea5ba9b95de9a"),
    ("cosets --n 7", None, "71f192f7e8c6ff1d915bf3b782c4d2952b745938b6860f89dcf33c868e4c6d37"),
    ("cosets --n 8", None, "a3d3e265534f6634b25993075c3d4832713405228d09e71b8581653347e59433"),
    ("cosets --n 7 --comp 3,4", None, "ce0bf89b322b5cc3e9bf0542d34f7211aa95cbe64bfcdc15766c9977e5040666"),
    ("cosets --n 8 --comp 1,1,1,1,1,1,1,1", None, "59ae22c687813a8fdab86fbfb2aa411b28bd859be0cf93aa5d53035d0b25c5cd"),
]


@pytest.mark.parametrize("command, fixture, digest", REPORT_DIGESTS)
def test_report_digest(capsys, command, fixture, digest):
    argv = command.split() + (["--input", fixture_path(fixture)] if fixture else []) + ["--json"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
