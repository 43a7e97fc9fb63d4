"""Batch command-line interface.

Subcommands:
    classify       distinction verdicts from a parameter file (generic or
                   unitary mode; unitary block input also reports the block
                   formulation, the agreement flag, and the exceptional flag)
    ktype          lowest and minimal even K-types, optional oracle search
    derive         highest-derivative stages and the necessity test
    eps            central-point factor of a parameter for a given twist
    cosets         involutions, double-coset classes, orbit dimensions
    verify-kernel  quadrature vs closed-form report for the kernel pairings
    selftest       run the acceptance suite

Exit codes: 0 success, 1 parse error (selftest also exits 1 when a
criterion fails or overruns its budget), 2 precondition violation, 3 numeric
failure (verify-kernel also exits 3, after its report, when a row's relative
error exceeds KERNEL_MAX_REL_ERR).  All machine output is JSON; the default
rendering is plain text.

Each subcommand loads only what it runs: ``selftest`` and ``kernelnum`` (and
with selftest ``equivalence_scan``) are imported inside cmd_selftest and
cmd_verify_kernel, which keeps them out of every other request's start-up.

Input files: {"type": "langlands", "characters": [{"m": 1, "s": {"re":
"1/2", "im": "0"}}, ...]} or {"type": "unitary", "blocks": [{"kind":
"char", "n": 2, "k": 1, "u": {...}} | {"kind": "comp", "m": 1, "k": 0,
"u": {...}, "t": "1/2"}, ...]}; the derive subcommand takes {"type":
"monomial", "blocks": [{"k": 1, "s": {...}, "size": 2}, ...]}.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .cosets import (
    Composition,
    class_dimensions,
    enumerate_involutions,
    parabolic_classes,
    representatives_verified,
)
from .derivatives import MonomialRep, derivative_stages, necessity_verdict
from .distinction import (
    has_exceptional_factor,
    is_distinguished_blocks,
    is_distinguished_generic,
    is_distinguished_unitary,
)
from .errors import InputError, PreconditionError, QuadratureError
from .exactnum import GaussianRational, read_int, read_rational
from .factors import AdditiveCharacterSpec, eps_rep
from .ktypes import (
    NotDistinguishedError,
    distinguished_minimal_ktype,
    is_o_distinguished,
    lowest_ktype,
    minimal_distinguished_ktype_oracle,
)
from .params import UnitaryRep, parse_parameter_file, to_langlands

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_NUMERIC = 3

_INF = float("inf")


def _decode(text: str, source: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past the digit limit, deep nesting
        raise InputError(f"invalid JSON in {source}: {exc}") from exc


def _parse_input(args, parse, what: str):
    """The --input file or --inline JSON, read by ``parse``."""
    if getattr(args, "inline", None):
        text = args.inline
        source = "<inline>"
    elif getattr(args, "input", None):
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from exc
        source = args.input
    else:
        raise InputError("one of --input PATH or --inline JSON is required")
    obj = _decode(text, source)
    try:
        return parse(obj)
    except InputError as exc:
        raise InputError(f"bad {what}: {exc}") from exc


def _read_parameter(args):
    """(the parameter file as given, its parameter) for classify, ktype, eps."""
    data = _parse_input(args, parse_parameter_file, "parameter file")
    return data, (to_langlands(data) if isinstance(data, UnitaryRep) else data)


def _report(subcommand: str, inputs: dict, results: dict, criteria: list) -> dict:
    return {
        "subcommand": subcommand,
        "inputs": inputs,
        "results": results,
        "criteria": criteria,
    }


def _write_json(value, out: list, newline: str) -> None:
    """Append to ``out`` the text json.dumps(value, indent=2) gives for
    ``value``, ``newline`` being the line break and indent of its closing
    bracket.

    json.dumps encodes with C only when ``indent`` is None; this writer uses
    json's C string escaper and its spellings of numbers.  Keys must be
    strings; a value other than a str, int, float, bool, None, list, tuple
    or dict raises TypeError.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep)
            out.append(_quote(key))
            out.append(": ")
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            out.append("NaN")
        elif value in (_INF, -_INF):
            out.append("Infinity" if value > 0 else "-Infinity")
        else:
            out.append(float.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _encode(report: dict) -> str:
    """The report as json.dumps(report, indent=2) writes it."""
    out: list = []
    _write_json(report, out, "\n")
    return "".join(out)


def _emit(report: dict, args, text_lines) -> None:
    """Print the report as JSON (--json) or as text, and write it to --output.

    The report is encoded only when --json or --output asks for it.
    """
    output = getattr(args, "output", None)
    as_json = getattr(args, "json", False)
    payload = _encode(report) if output or as_json else None
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc}") from exc
    if as_json:
        print(payload)
    else:
        for line in text_lines:
            print(line)


def _parse_twist(spec: str) -> GaussianRational:
    parts = spec.split(",")
    if len(parts) != 2:
        raise InputError(f'--b expects "re,im" with rational parts, e.g. "0,1" for i: got {spec!r}')
    return GaussianRational(
        read_rational(parts[0], "the real part of --b"),
        read_rational(parts[1], "the imaginary part of --b"),
    )


def _parse_composition(spec: str) -> tuple:
    """--comp read as the parts of a JSON array: "2,3" is [2, 3]."""
    parts = _decode(f"[{spec}]", f"--comp (read as [{spec}])")
    return tuple(read_int(part, "a --comp part") for part in parts)


def cmd_classify(args) -> int:
    data, param = _read_parameter(args)
    inputs = {"mode": args.mode, "parameter": param.to_json()}
    if isinstance(data, UnitaryRep):
        inputs["blocks"] = data.to_json()

    if args.mode == "generic":
        verdict = is_distinguished_generic(param)
        results = {
            "verdict": verdict.to_json(),
            "appears_in_induced_trivial_branching": verdict.distinguished,
        }
        criteria = ["pairing-criterion", "induced-trivial-branching-alias"]
        lines = [
            f"generic mode on a parameter of size {param.n}",
            f"distinguished: {verdict.distinguished}",
            f"pairing condition (i): {verdict.condition_i}",
        ]
        if verdict.witness:
            lines.append(
                f"witness pairs {list(verdict.witness.pairs)}, fixed {list(verdict.witness.fixed)}"
            )
    else:
        verdict = is_distinguished_unitary(param)
        results = {"verdict": verdict.to_json()}
        criteria = ["pairing-criterion", "even-multiplicity-criterion"]
        lines = [
            f"unitary mode on a parameter of size {param.n}",
            f"distinguished: {verdict.distinguished}",
            f"condition (i): {verdict.condition_i}, condition (ii): {verdict.condition_ii}",
        ]
        if isinstance(data, UnitaryRep):
            block_verdict = is_distinguished_blocks(data)
            agreement = block_verdict.distinguished == verdict.distinguished
            results["block_verdict"] = block_verdict.to_json()
            results["formulations_agree"] = agreement
            results["exceptional_factor"] = has_exceptional_factor(data)
            criteria += ["block-formulation-equivalence", "exceptional-family-flag"]
            lines.append(
                f"block formulation: {block_verdict.distinguished} (agreement: {agreement})"
            )
            lines.append(f"exceptional factor present: {results['exceptional_factor']}")
    _emit(_report("classify", inputs, results, criteria), args, lines)
    return EXIT_OK


def cmd_ktype(args) -> int:
    _, param = _read_parameter(args)
    inputs = {"parameter": param.to_json()}
    low = lowest_ktype(param)
    minimal = distinguished_minimal_ktype(param)
    results = {
        "lowest_ktype": low.to_json(),
        "distinguished_minimal_ktype": minimal.to_json(),
        "minimal_is_even": is_o_distinguished(minimal),
    }
    criteria = ["evenness-criterion", "minimal-even-ktype-construction"]
    lines = [
        f"lowest K-type: {tuple(low)}",
        f"distinguished minimal K-type: {tuple(minimal)}",
    ]
    if args.radius is not None:
        inputs["radius"] = args.radius
        oracle = minimal_distinguished_ktype_oracle(param, args.radius)
        results["oracle_minimizers"] = sorted(w.to_json() for w in oracle)
        results["oracle_agrees"] = oracle == {minimal}
        criteria.append("torus-weight-oracle")
        lines.append(
            f"oracle minimizers (radius {args.radius}): {sorted(tuple(w) for w in oracle)}"
        )
    _emit(_report("ktype", inputs, results, criteria), args, lines)
    return EXIT_OK


def cmd_derive(args) -> int:
    mono = _parse_input(args, MonomialRep.parse, "monomial file")
    if mono.is_empty():
        raise InputError("derive expects at least one block")
    inputs = {"monomial": mono.to_json()}
    walk = list(derivative_stages(mono))
    passes, failing = necessity_verdict(walk)
    stages = [
        {
            "blocks": [b.to_json() for b in stage.blocks],
            "total_size": stage.total_size,
            "condition_i": ok,
        }
        for stage, ok in walk
    ]
    results = {
        "depth": mono.depth,
        "stages": stages,
        "passes": passes,
        "failing_stage": failing,
    }
    lines = [f"depth {mono.depth}, {len(stages)} stages"]
    for i, st in enumerate(stages):
        lines.append(f"stage {i}: size {st['total_size']}, pairing condition {st['condition_i']}")
    lines.append(
        "necessity test passes" if passes else f"necessity test fails at stage {failing} (certifies non-distinction)"
    )
    _emit(
        _report("derive", inputs, results, ["highest-derivative-recursion", "derivative-necessity-test"]),
        args,
        lines,
    )
    return EXIT_OK


def cmd_eps(args) -> int:
    _, param = _read_parameter(args)
    psi = AdditiveCharacterSpec(_parse_twist(args.b))
    factor = eps_rep(param, psi)
    exact = factor.exact_value()
    results = {
        "factor": factor.to_json(),
        "exactly_one": factor.is_one(),
        "psi_trivial_on_r": psi.trivial_on_r,
    }
    inputs = {"parameter": param.to_json(), "b": args.b}
    lines = [
        f"central-point factor for b = {psi.b}: "
        + (f"exact {exact}" if exact is not None else f"numeric {factor.numeric():.12g}"),
        f"exactly 1: {factor.is_one()}",
    ]
    _emit(
        _report("eps", inputs, results, ["central-value-product-formula", "distinguished-triviality"]),
        args,
        lines,
    )
    return EXIT_OK


def cmd_cosets(args) -> int:
    involutions = enumerate_involutions(args.n)
    inputs = {"n": args.n}
    verified = representatives_verified(args.n)
    results = {
        "count": len(involutions),
        "involutions": [w.to_json() for w in involutions],
        "representatives_verified": verified,
    }
    criteria = ["involution-count-recurrence", "twisted-conjugation-check"]
    lines = [f"{len(involutions)} involutions on {args.n} letters, representatives verified: {verified}"]
    if args.comp:
        parts = _parse_composition(args.comp)
        comp = Composition(parts)
        if comp.n != args.n:
            raise InputError(f"--comp {args.comp} does not sum to n = {args.n}")
        classes = parabolic_classes(comp)
        dims = class_dimensions(classes)
        full = 2 * args.n * args.n
        results["composition"] = list(parts)
        results["classes"] = [[w.to_json() for w in cls] for cls in classes]
        results["class_dimensions"] = dims
        results["open_classes"] = sum(1 for d in dims if d == full)
        inputs["comp"] = list(parts)
        criteria += ["young-double-cosets", "open-orbit-dimension"]
        lines.append(f"{len(classes)} double-coset classes for composition {parts}")
        for cls, d in zip(classes, dims):
            tag = " (open)" if d == full else ""
            lines.append(f"  class of {cls[0].perm}: {len(cls)} involutions, orbit dimension {d}{tag}")
    _emit(_report("cosets", inputs, results, criteria), args, lines)
    return EXIT_OK


def _parse_samples(spec: str):
    out = []
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(complex(piece))
        except ValueError as exc:
            raise InputError(f"bad sample {piece!r}: {exc}") from exc
    if not out:
        raise InputError("--samples needs at least one complex number")
    return out


def cmd_verify_kernel(args) -> int:
    from .kernelnum import KERNEL_CASES, KERNEL_MAX_REL_ERR, kernel_row

    samples = _parse_samples(args.samples)
    rows = [kernel_row(s, case) for s in samples for case in KERNEL_CASES]
    lines = [
        f"{row.case} s={row.s}: rel err {row.rel_err:.2e}, normalization ratio "
        f"{row.normalization_ratio:.9g} (expected {row.expected_ratio:.9g})"
        for row in rows
    ]
    _emit(
        _report(
            "verify-kernel",
            {"samples": [str(s) for s in samples]},
            {"table": [row.to_json() for row in rows]},
            ["beta-substitution-reference", "normalization-ratio"],
        ),
        args,
        lines,
    )
    failing = [row for row in rows if not row.rel_err <= KERNEL_MAX_REL_ERR]  # NaN fails too
    if failing:
        worst = max(failing, key=lambda row: row.rel_err)
        print(
            f"numeric failure: {worst.case} s={worst.s}: rel err {worst.rel_err:.2e} "
            f"exceeds {KERNEL_MAX_REL_ERR:g}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all()
    ok = all(r.passed and r.within_budget for r in results)
    print("selftest:", "all criteria passed" if ok else "FAILURES above")
    return EXIT_OK if ok else 1


class _Parser(argparse.ArgumentParser):
    """Flag errors are parse errors (exit 1), not argparse's default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


# Built on the first call and then kept: constructing the subcommand tree
# costs more than most commands, and building it at import would slow every
# import of this module.
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="glcdist",
        description="Distinction toolkit: classification, K-types, factors, cosets, kernel checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p, with_mode=False):
        p.add_argument("--input", help="path to a JSON input file")
        p.add_argument("--inline", help="inline JSON input")
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        p.add_argument("--output", help="also write the JSON report to this path")
        if with_mode:
            p.add_argument(
                "--mode", choices=("generic", "unitary"), default="unitary",
                help="which classification applies (caller asserts the hypothesis)",
            )

    p = sub.add_parser("classify", help="distinction verdicts")
    add_io(p, with_mode=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("ktype", help="lowest and minimal even K-types")
    add_io(p)
    p.add_argument("--radius", type=int, help="run the brute-force oracle to this radius")
    p.set_defaults(fn=cmd_ktype)

    p = sub.add_parser("derive", help="highest-derivative stages and necessity test")
    add_io(p)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("eps", help="central-point factor of a parameter")
    add_io(p)
    p.add_argument("--b", default="0,1", help='twist b as "re,im" rationals (default "0,1" = i)')
    p.set_defaults(fn=cmd_eps)

    p = sub.add_parser("cosets", help="involutions, classes, orbit dimensions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--comp", help='composition, e.g. "2,2"')
    p.add_argument("--json", action="store_true")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_cosets)

    p = sub.add_parser("verify-kernel", help="kernel quadrature vs closed forms")
    p.add_argument("--samples", default="0,0.2,0.4,0.2+0.3j", help="comma-separated complex samples")
    p.add_argument("--json", action="store_true")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_verify_kernel)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except InputError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotDistinguishedError as exc:
        print(f"precondition violated (even-multiplicity hypothesis): {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except QuadratureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
