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

``_emit`` assembles, writes (--output) and prints (JSON with --json, else
text) every report.  A failed request, a flag error included, ends in
``main`` with one "label: message" line on stderr and its error type's exit
code: 1 parse error or an unwritable output (--output, or a closed stdout:
later writes go to os.devnull), 2 precondition violation (any exact input
past MAX_INPUT_DIGITS digits too), 3 numeric failure (verify-kernel too,
after its report, when a row misses KERNEL_MAX_REL_ERR or
KERNEL_MAX_RATIO_ERR).  selftest exits 1 when a criterion fails or overruns
its budget.

Each subcommand loads only what it runs: ``selftest`` and ``kernelnum`` (and
with selftest ``equivalence_scan``) are imported inside cmd_selftest and
cmd_verify_kernel, which keeps them out of every other request's start-up.

Input, read from exactly one of --input FILE and --inline JSON:
{"type": "langlands", "characters": [{"m": 1, "s": {"re": "1/2", "im":
"0"}}, ...]} or {"type": "unitary", "blocks": [{"kind": "char", "n": 2,
"k": 1, "u": {...}} | {"kind": "comp", "m": 1, "k": 0, "u": {...}, "t":
"1/2"}, ...]}; the derive subcommand takes {"type": "monomial", "blocks":
[{"k": 1, "s": {...}, "size": 2}, ...]}.
"""

from __future__ import annotations

import argparse
import json
import os
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
from .errors import InputError, PreconditionError, QuadratureError, shown
from .exactnum import MAX_INPUT_DIGITS, GaussianRational, read_int, read_rational
from .factors import AdditiveCharacterSpec, eps_rep
from .ktypes import (
    distinguished_minimal_ktype,
    is_o_distinguished,
    lowest_ktype,
    minimal_distinguished_ktype_oracle,
)
from .params import UnitaryRep, parse_parameter_file, to_langlands

EXIT_OK = 0

_INF = float("inf")


def _decode(text: str, source: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # also deep nesting
        raise InputError(f"invalid JSON in {source}: {exc}") from exc
    except ValueError as exc:  # an integer past int()'s own digit limit
        message = f"an integer in {source} has more than MAX_INPUT_DIGITS = {MAX_INPUT_DIGITS} digits"
        raise PreconditionError(message) from exc


def _parse_input(args, parse, what: str):
    """The --input file or --inline JSON, read by ``parse``."""
    if args.inline is not None and args.input is not None:
        raise InputError("give one of --input PATH or --inline JSON, not both")
    if args.inline is not None:
        text = args.inline
        source = "<inline>"
    elif args.input is not None:
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


def _emit(args, subcommand: str, inputs: dict, results: dict, criteria: list, text_lines: list) -> int:
    """Assemble the report, write it to --output, print it as JSON (--json)
    or as text, and return EXIT_OK.

    The report is encoded only when --json or --output asks for it.  The
    print is flushed, so that a closed stdout fails here and not at exit.
    """
    report = {"subcommand": subcommand, "inputs": inputs, "results": results, "criteria": criteria}
    output = args.output
    payload = _encode(report) if output is not None or args.json else None
    if output is not None:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc}") from exc
    print(payload if args.json else "\n".join(text_lines), flush=True)
    return EXIT_OK


def _parse_twist(spec: str) -> GaussianRational:
    parts = spec.split(",")
    if len(parts) != 2:
        raise InputError(f'--b expects "re,im" with rational parts, e.g. "0,1" for i: got {shown(repr(spec))}')
    return GaussianRational(
        read_rational(parts[0], "the real part of --b"),
        read_rational(parts[1], "the imaginary part of --b"),
    )


def _parse_integer(spec: str, flag: str) -> int:
    """A flag read as one JSON integer: "7", but not "7.0", "1_0" or "\uff13"."""
    return read_int(_decode(spec, flag), flag)


def _parse_composition(spec: str) -> tuple:
    """--comp read as the parts of a JSON array: "2,3" is [2, 3]."""
    text = f"[{spec}]"
    parts = _decode(text, f"--comp (read as {shown(text)})")
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
            lines.append(f"witness pairs {list(verdict.witness.pairs)}, fixed {list(verdict.witness.fixed)}")
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
            lines.append(f"block formulation: {block_verdict.distinguished} (agreement: {agreement})")
            lines.append(f"exceptional factor present: {results['exceptional_factor']}")
    return _emit(args, "classify", inputs, results, criteria, lines)


def cmd_ktype(args) -> int:
    radius = None if args.radius is None else _parse_integer(args.radius, "--radius")
    _, param = _read_parameter(args)
    inputs = {"parameter": param.to_json()}
    low = lowest_ktype(param)
    minimal = distinguished_minimal_ktype(param)
    results = {
        "lowest_ktype": list(low),
        "distinguished_minimal_ktype": list(minimal),
        "minimal_is_even": is_o_distinguished(minimal),
    }
    criteria = ["evenness-criterion", "minimal-even-ktype-construction"]
    lines = [f"lowest K-type: {low}", f"distinguished minimal K-type: {minimal}"]
    if radius is not None:
        inputs["radius"] = radius
        oracle = minimal_distinguished_ktype_oracle(param, radius)
        results["oracle_minimizers"] = [list(w) for w in sorted(oracle)]
        results["oracle_agrees"] = oracle == {minimal}
        criteria.append("torus-weight-oracle")
        lines.append(f"oracle minimizers (radius {radius}): {sorted(oracle)}")
    return _emit(args, "ktype", inputs, results, criteria, lines)


def cmd_derive(args) -> int:
    mono = _parse_input(args, MonomialRep.parse, "monomial file")
    if mono.is_empty():
        raise InputError("derive expects at least one block")
    inputs = {"monomial": mono.to_json()}
    walk = list(derivative_stages(mono))
    passes, failing = necessity_verdict(walk)
    stages = [
        {"blocks": [b.to_json() for b in stage.blocks], "total_size": stage.total_size, "condition_i": ok}
        for stage, ok in walk
    ]
    results = {"depth": mono.depth, "stages": stages, "passes": passes, "failing_stage": failing}
    lines = [f"depth {mono.depth}, {len(stages)} stages"]
    for i, st in enumerate(stages):
        lines.append(f"stage {i}: size {st['total_size']}, pairing condition {st['condition_i']}")
    lines.append(
        "necessity test passes" if passes else f"necessity test fails at stage {failing} (certifies non-distinction)"
    )
    criteria = ["highest-derivative-recursion", "derivative-necessity-test"]
    return _emit(args, "derive", inputs, results, criteria, lines)


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
    criteria = ["central-value-product-formula", "distinguished-triviality"]
    return _emit(args, "eps", inputs, results, criteria, lines)


def cmd_cosets(args) -> int:
    n = _parse_integer(args.n, "--n")
    involutions = enumerate_involutions(n)
    inputs = {"n": n}
    verified = representatives_verified(n)
    results = {
        "count": len(involutions),
        "involutions": involutions,
        "representatives_verified": verified,
    }
    criteria = ["involution-count-recurrence", "twisted-conjugation-check"]
    lines = [f"{len(involutions)} involutions on {n} letters, representatives verified: {verified}"]
    if args.comp is not None:
        parts = _parse_composition(args.comp)
        comp = Composition(parts)
        if comp.n != n:
            raise InputError(f"--comp {shown(args.comp)} does not sum to n = {n}")
        classes = parabolic_classes(comp)
        dims = class_dimensions(classes)
        full = 2 * n * n
        results["composition"] = list(parts)
        results["classes"] = classes
        results["class_dimensions"] = dims
        results["open_classes"] = sum(1 for d in dims if d == full)
        inputs["comp"] = list(parts)
        criteria += ["young-double-cosets", "open-orbit-dimension"]
        lines.append(f"{len(classes)} double-coset classes for composition {parts}")
        for cls, d in zip(classes, dims):
            tag = " (open)" if d == full else ""
            lines.append(f"  class of {cls[0]}: {len(cls)} involutions, orbit dimension {d}{tag}")
    return _emit(args, "cosets", inputs, results, criteria, lines)


def _parse_samples(spec: str):
    """--samples as comma-separated complex() literals, ASCII and without "_"."""
    out = []
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if not piece.isascii() or "_" in piece:
            raise InputError(f"bad sample {shown(repr(piece))}: only ASCII, without '_', is read")
        try:
            out.append(complex(piece))
        except ValueError as exc:
            raise InputError(f"bad sample {shown(repr(piece))}: {exc}") from exc
    if not out:
        raise InputError("--samples needs at least one complex number")
    return out


def cmd_verify_kernel(args) -> int:
    from .kernelnum import KERNEL_CASES, kernel_row

    samples = _parse_samples(args.samples)
    rows = [kernel_row(s, case) for s in samples for case in KERNEL_CASES]
    inputs = {"samples": [str(s) for s in samples]}
    results = {"table": [row.to_json() for row in rows]}
    criteria = ["beta-substitution-reference", "normalization-ratio"]
    lines = [
        f"{row.case} s={row.s}: rel err {row.rel_err:.2e}, normalization ratio "
        f"{row.normalization_ratio:.9g} (expected {row.expected_ratio:.9g})"
        for row in rows
    ]
    _emit(args, "verify-kernel", inputs, results, criteria, lines)
    worst = max((row for row in rows if row.failure), key=lambda row: row.rel_err, default=None)
    if worst is not None:
        raise QuadratureError(f"{worst.case} s={worst.s}: {worst.failure}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_all

    ok = all(r.ok for r in run_all())
    print("selftest:", "all criteria passed" if ok else "FAILURES above", flush=True)
    return EXIT_OK if ok else 1


class _Parser(argparse.ArgumentParser):
    """A flag error is a parse error: one stderr line and exit 1, without
    argparse's usage lines and exit 2."""

    def error(self, message):
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

    def add_input(p):
        p.add_argument("--input", help="path to a JSON input file")
        p.add_argument("--inline", help="inline JSON input")

    def add_output(p):
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        p.add_argument("--output", help="also write the JSON report to this path")

    p = sub.add_parser("classify", help="distinction verdicts")
    add_input(p)
    add_output(p)
    p.add_argument(
        "--mode", choices=("generic", "unitary"), default="unitary",
        help="which classification applies (caller asserts the hypothesis)",
    )
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("ktype", help="lowest and minimal even K-types")
    add_input(p)
    add_output(p)
    p.add_argument("--radius", help="run the brute-force oracle to this radius (a JSON integer)")
    p.set_defaults(fn=cmd_ktype)

    p = sub.add_parser("derive", help="highest-derivative stages and necessity test")
    add_input(p)
    add_output(p)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("eps", help="central-point factor of a parameter")
    add_input(p)
    add_output(p)
    p.add_argument(
        "--b", default="0,1", help='twist b as "re,im" rationals (default "0,1" = i); a leading minus needs --b=-1,0'
    )
    p.set_defaults(fn=cmd_eps)

    p = sub.add_parser("cosets", help="involutions, classes, orbit dimensions")
    p.add_argument("--n", required=True, help="number of letters (a JSON integer)")
    p.add_argument("--comp", help='composition, e.g. "2,2"')
    add_output(p)
    p.set_defaults(fn=cmd_cosets)

    p = sub.add_parser("verify-kernel", help="kernel quadrature vs closed forms")
    p.add_argument(
        "--samples", default="0,0.2,0.4,0.2+0.3j",
        help="comma-separated complex samples; a leading minus needs --samples=-0.3+1j",
    )
    add_output(p)
    p.set_defaults(fn=cmd_verify_kernel)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (InputError, PreconditionError, QuadratureError, BrokenPipeError) as exc:
        if isinstance(exc, BrokenPipeError):
            # stdout's reader has gone: the rest, flushed at exit, goes to devnull.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            exc = InputError(f"cannot write stdout: {exc}")
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
