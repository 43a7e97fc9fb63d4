"""cli-batch: a seeded stream of requests through ``glcdist.cli.main``, in
process and with stdout captured.

Every round draws fresh inputs.  The number of requests of each kind is
fixed (``MIX``); the seed draws the parameters, monomials and twists and the
order.  Cosets requests, the bundled fixtures and the fault requests are the
same in every round.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import List, Optional

import reference
from harness import Op

from glcdist import cli

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "glcdist" / "fixtures"

# Requests of each kind in one round.
MIX = {
    "classify-langlands-unitary": 150,
    "classify-langlands-generic": 150,
    "classify-blocks-unitary": 150,
    "classify-blocks-generic": 150,
    "ktype": 75,
    "ktype-oracle": 100,
    "derive-sign": 50,
    "derive": 50,
    "eps": 125,
}

# Every composition of n <= 4, every n <= 5 without one, and two of n = 5.
COSETS = [
    (n, None) for n in range(1, 6)
] + [
    (1, "1"), (2, "2"), (2, "1,1"), (3, "3"), (3, "1,2"), (3, "2,1"), (3, "1,1,1"),
    (4, "4"), (4, "1,3"), (4, "3,1"), (4, "2,2"), (4, "1,1,2"), (4, "1,2,1"),
    (4, "2,1,1"), (4, "1,1,1,1"), (5, "5"), (5, "2,3"),
]

# (subcommand arguments, kind of content) for the six bundled fixtures.
FIXTURE_REQUESTS = [
    (["classify", "--input", "sign_cube_g6.json", "--mode", "unitary"], "blocks"),
    (["classify", "--input", "sign_square_g4.json", "--mode", "unitary"], "blocks"),
    (["ktype", "--input", "g4_mixed.json", "--radius", "8"], "langlands"),
    (["eps", "--input", "pair_g2.json", "--b=0,2"], "langlands"),
    (["derive", "--input", "sign_cube_monomial_g6.json"], "monomial"),
    (["classify", "--input", "comp_series_k1_half_g4.json", "--mode", "generic"], "blocks"),
]

# Inputs that glcdist mishandles today: each should end in exit code 1 or
# 2 with a message.
FAULTS = [
    ["classify", "--inline", '{"type":"langlands","characters":[{"m":1.5,"s":{"re":"0","im":"0"}}]}'],
    ["classify", "--inline", '{"type":"langlands","characters":[{"m":1,"s":{"re":"1/0","im":"0"}}]}'],
    ["classify", "--inline", "[]"],
    ["cosets", "--n", "0"],
    ["cosets", "--n", "4", "--comp", "2,x"],
    ["eps", "--input", "pair_g2.json", "--b=0,0"],
]

TWISTS = ["0,1", "0,2", "0,-3/7", "0,5/2", "0,-1", "1,1", "2,0", "-1/2,5/3", "3/4,-1"]


def call_main(argv: List[str]):
    """(exit code or the name of the exception raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a fault of the program, counted by the check
            code = type(exc).__name__
    return code, out.getvalue(), err.getvalue()


# -- input generation ---------------------------------------------------------


def rational(rng: random.Random) -> Fraction:
    """p/q with q in 1..60 and |p/q| <= 2."""
    q = rng.randint(1, 60)
    return Fraction(rng.randint(-2 * q, 2 * q), q)


def nonzero_slot(rng: random.Random):
    while True:
        re, im = rational(rng), rational(rng)
        if re or im:
            return re, im


def random_characters(rng: random.Random, n: int) -> List[tuple]:
    """n characters (m, re s, im s): conjugate pairs, even-m and paired
    odd-m characters at s = 0, and half-integral real slots that bear on
    condition (ii); half the time one character is then altered."""
    chars: List[tuple] = []
    while len(chars) < n:
        room = n - len(chars)
        roll = rng.random()
        m = rng.randint(-3, 3)
        if room >= 2 and roll < 0.55:
            re, im = nonzero_slot(rng)
            chars += [(m, re, im), (m, -re, -im)]
        elif room >= 2 and roll < 0.7:
            h = Fraction(rng.randint(1, 4), 2)
            chars += [(m | 1, h, Fraction(0)), (m | 1, -h, Fraction(0))]
        elif room >= 2 and roll < 0.8:
            chars += [(m | 1, Fraction(0), Fraction(0))] * 2
        else:
            chars.append((2 * (m // 2), Fraction(0), Fraction(0)))
    if rng.random() < 0.5:
        i = rng.randrange(n)
        m, re, im = chars[i]
        chars[i] = (m + 1, re, im) if rng.random() < 0.5 else (m, rational(rng), im)
    rng.shuffle(chars)
    return chars


def random_blocks(rng: random.Random, total: int) -> List[tuple]:
    """Unitary blocks (kind, n or m, k, Im u, t) of total size <= total:
    mirrored pairs, u = 0 blocks, and complementary blocks; half the time
    one twist is then altered."""
    blocks: List[tuple] = []
    room = total
    while room > 0:
        k = rng.randint(-3, 3)
        comp = room >= 2 and rng.random() < 0.35
        size = rng.randint(1, min(3, room // 2)) if comp else rng.randint(1, min(4, room))
        kind, t = ("comp", Fraction(rng.randint(1, 59), 60)) if comp else ("char", Fraction(0))
        width = 2 * size if comp else size
        if 2 * width <= room and rng.random() < 0.6:
            u = rational(rng) or Fraction(1)
            blocks += [(kind, size, k, u, t), (kind, size, k, -u, t)]
            room -= 2 * width
        elif kind == "char" and k % 2 and 2 * width <= room:
            blocks += [(kind, size, k, Fraction(0), t)] * 2
            room -= 2 * width
        else:
            blocks.append((kind, size, 2 * (k // 2) if kind == "char" else k, Fraction(0), t))
            room -= width
        if rng.random() < 0.15:
            break
    if rng.random() < 0.5:
        i = rng.randrange(len(blocks))
        kind, size, k, u, t = blocks[i]
        blocks[i] = (kind, size, k, rational(rng), t)
    rng.shuffle(blocks)
    return blocks


def slot_json(re: Fraction, im: Fraction) -> dict:
    return {"re": str(re), "im": str(im)}


def langlands_json(chars: List[tuple]) -> str:
    return json.dumps(
        {"type": "langlands", "characters": [{"m": m, "s": slot_json(re, im)} for m, re, im in chars]}
    )


def blocks_json(blocks: List[tuple]) -> str:
    out = []
    for kind, size, k, u, t in blocks:
        if kind == "char":
            out.append({"kind": "char", "n": size, "k": k, "u": slot_json(Fraction(0), u)})
        else:
            out.append({"kind": "comp", "m": size, "k": k, "u": slot_json(Fraction(0), u), "t": str(t)})
    return json.dumps({"type": "unitary", "blocks": out})


def monomial_json(blocks: List[tuple]) -> str:
    return json.dumps(
        {
            "type": "monomial",
            "blocks": [{"k": k, "s": slot_json(re, im), "size": size} for k, re, im, size in blocks],
        }
    )


def oracle_characters(rng: random.Random) -> List[tuple]:
    """2 to 5 characters whose odd twist exponents come in pairs, so that
    the minimal even K-type exists."""
    n = rng.randint(2, 5)
    ms: List[int] = []
    while len(ms) < n:
        m = rng.randint(-3, 3)
        if m % 2 and len(ms) <= n - 2:
            ms += [m, m]
        elif m % 2 == 0:
            ms.append(m)
    return [(m, rational(rng), rational(rng)) for m in ms]


# -- checks -------------------------------------------------------------------


def parse_slot(obj: dict) -> tuple:
    return Fraction(obj["re"]), Fraction(obj["im"])


def reported_characters(parameter: dict) -> Counter:
    return Counter((c["m"],) + parse_slot(c["s"]) for c in parameter["characters"])


def witness_valid(witness: dict, parameter: dict) -> bool:
    """The involution pairs each character with its conjugate-inverse and
    fixes only even-m characters at s = 0."""
    chars = [(c["m"],) + parse_slot(c["s"]) for c in parameter["characters"]]
    seen = sorted([i for pair in witness["pairs"] for i in pair] + witness["fixed"])
    if seen != list(range(1, len(chars) + 1)):
        return False
    for i, j in witness["pairs"]:
        a, b = chars[i - 1], chars[j - 1]
        if a[0] != b[0] or a[1] != -b[1] or a[2] != -b[2]:
            return False
    return all(chars[i - 1][1:] == (0, 0) and chars[i - 1][0] % 2 == 0 for i in witness["fixed"])


def check_classify(outcome, chars: Counter, mode: str, blocks: Optional[List[tuple]]) -> bool:
    code, out, _ = outcome
    if code != 0:
        return False
    report = json.loads(out)
    results = report["results"]
    verdict = results["verdict"]
    parameter = report["inputs"]["parameter"]
    cond_i = reference.condition_i(chars)
    cond_ii = reference.condition_ii(chars)
    ok = (
        reported_characters(parameter) == chars
        and verdict["condition_i"] == cond_i
        and verdict["condition_ii"] == cond_ii
        and (verdict["witness"] is not None) == cond_i
        and (not cond_i or witness_valid(verdict["witness"], parameter))
    )
    if mode == "generic":
        return ok and verdict["distinguished"] == cond_i and results["appears_in_induced_trivial_branching"] == cond_i
    ok = ok and verdict["distinguished"] == (cond_i and cond_ii)
    if blocks is None:
        return ok
    exceptional = any(kind == "char" and size >= 2 and k % 2 and u == 0 for kind, size, k, u, _ in blocks)
    return (
        ok
        and results["block_verdict"]["distinguished"] == reference.blocks_distinguished(Counter(blocks))
        and results["formulations_agree"] is True
        and results["exceptional_factor"] == exceptional
    )


def check_ktype(outcome, ms: List[int], radius: Optional[int]) -> bool:
    code, out, _ = outcome
    minimal = reference.minimal_even_ktype(ms)
    if minimal is None:
        return code == 2
    if code != 0:
        return False
    results = json.loads(out)["results"]
    ok = (
        results["lowest_ktype"] == sorted(ms, reverse=True)
        and results["distinguished_minimal_ktype"] == minimal
        and all(x % 2 == 0 for x in results["distinguished_minimal_ktype"])
        and results["minimal_is_even"] is True
    )
    if radius is None:
        return ok
    return ok and results["oracle_agrees"] is True and results["oracle_minimizers"] == [minimal]


def check_derive(outcome, blocks: List[tuple]) -> bool:
    code, out, _ = outcome
    if code != 0:
        return False
    results = json.loads(out)["results"]
    stages = reference.monomial_stages(blocks)
    failing = next((i for i, st in enumerate(stages) if not st[1]), None)
    ok = (
        results["depth"] == len(blocks)
        and [(st["total_size"], st["condition_i"]) for st in results["stages"]]
        == [st[:2] for st in stages]
        and results["passes"] == (failing is None)
        and results["failing_stage"] == failing
    )
    sign_twisted = all(re == 0 and im == 0 for _, re, im, _ in blocks)
    if sign_twisted and stages[0][1]:
        # On sign-twisted monomials with (i), the test passes iff (ii) holds.
        ok = ok and results["passes"] == stages[0][2]
    return ok


def check_eps(outcome, chars: Counter, twist: str) -> bool:
    code, out, _ = outcome
    if code != 0:
        return False
    results = json.loads(out)["results"]
    b = tuple(Fraction(x) for x in twist.split(","))
    unit, abs_sq, half, value = reference.eps_factor(chars.elements(), b)
    factor = results["factor"]
    one = value == (1, 0)
    ok = (
        parse_slot(factor["unit"]) == unit
        and Fraction(factor["abs_b_sq"]) == abs_sq
        and parse_slot(factor["half_exponent"]) == half
        and results["exactly_one"] == one
        and results["psi_trivial_on_r"] == (b[0] == 0)
    )
    if b[0] == 0 and reference.condition_i(chars):
        # Distinguished parameter, purely imaginary twist: exactly 1.
        ok = ok and one
    return ok


def is_involution(perm: List[int]) -> bool:
    return all(perm[perm[i] - 1] == i + 1 for i in range(len(perm)))


def check_cosets(outcome, n: int, comp: Optional[str]) -> bool:
    code, out, _ = outcome
    if code != 0:
        return False
    results = json.loads(out)["results"]
    involutions = [tuple(w) for w in results["involutions"]]
    count = reference.involution_count(n)
    ok = (
        results["count"] == count
        and len(set(involutions)) == count
        and all(is_involution(list(w)) and sorted(w) == list(range(1, n + 1)) for w in involutions)
        and results["representatives_verified"] is True
    )
    if comp is None:
        return ok
    parts = [int(x) for x in comp.split(",")]
    classes = [[tuple(w) for w in cls] for cls in results["classes"]]
    dims = results["class_dimensions"]
    full = 2 * n * n
    ok = (
        ok
        and results["composition"] == parts
        and sorted(w for cls in classes for w in cls) == sorted(involutions)
        and len(dims) == len(classes)
        and all(0 < d <= full for d in dims)
        and dims.count(full) == 1
        and results["open_classes"] == 1
    )
    if len(parts) == 2 and parts[0] == parts[1]:
        ok = ok and len(classes) == parts[0] + 1
    return ok


def check_handled(outcome) -> bool:
    """A bad input ends in a parse or precondition exit code."""
    return outcome[0] in (1, 2)


# -- fixtures as the benchmark's own data -----------------------------------


def fixture_chars(obj: dict):
    """(character counter, blocks or None) of a langlands or unitary file."""
    if obj["type"] == "langlands":
        return reported_characters(obj), None
    blocks = []
    for b in obj["blocks"]:
        u = Fraction(b["u"]["im"])
        if b["kind"] == "char":
            blocks.append(("char", b["n"], b["k"], u, Fraction(0)))
        else:
            blocks.append(("comp", b["m"], b["k"], u, Fraction(b["t"])))
    return reference.unitary_chars(blocks), blocks


def fixture_request(args: List[str], kind: str):
    path = FIXTURES / args[2]
    obj = json.loads(path.read_text(encoding="utf-8"))
    argv = args[:2] + [str(path)] + args[3:] + ["--json"]
    if kind == "monomial":
        blocks = [(b["k"],) + parse_slot(b["s"]) + (b["size"],) for b in obj["blocks"]]
        return argv, partial(check_derive, blocks=blocks)
    chars, blocks = fixture_chars(obj)
    if args[0] == "classify":
        return argv, partial(check_classify, chars=chars, mode=args[-1], blocks=blocks)
    if args[0] == "ktype":
        return argv, partial(check_ktype, ms=[c[0] for c in chars.elements()], radius=int(args[-1]))
    return argv, partial(check_eps, chars=chars, twist=args[-1].split("=")[1])


class CliBatch:
    modules = ["glcdist.cli"]

    def __init__(self, seed: int):
        self.seed = seed
        self.fixed = [fixture_request(args, kind) for args, kind in FIXTURE_REQUESTS]

    def requests(self, rng: random.Random):
        """(kind, argv, check, fault) for one round."""
        out = []
        for mode in ("unitary", "generic"):
            for _ in range(MIX[f"classify-langlands-{mode}"]):
                chars = random_characters(rng, rng.randint(1, 16))
                argv = ["classify", "--inline", langlands_json(chars), "--mode", mode]
                out.append(("classify", argv, partial(check_classify, chars=Counter(chars), mode=mode, blocks=None)))
            for _ in range(MIX[f"classify-blocks-{mode}"]):
                blocks = random_blocks(rng, rng.randint(1, 16))
                argv = ["classify", "--inline", blocks_json(blocks), "--mode", mode]
                chars = reference.unitary_chars(blocks)
                out.append(("classify", argv, partial(check_classify, chars=chars, mode=mode, blocks=blocks)))
        for _ in range(MIX["ktype"]):
            chars = random_characters(rng, rng.randint(1, 16))
            argv = ["ktype", "--inline", langlands_json(chars)]
            out.append(("ktype", argv, partial(check_ktype, ms=[c[0] for c in chars], radius=None)))
        for _ in range(MIX["ktype-oracle"]):
            chars = oracle_characters(rng)
            ms = [c[0] for c in chars]
            norm_sq = sum(x * x for x in reference.minimal_even_ktype(ms))
            norm = math.isqrt(norm_sq) + (math.isqrt(norm_sq) ** 2 < norm_sq)
            radius = max(norm, max(abs(m) for m in ms)) + rng.randint(0, 2)
            argv = ["ktype", "--inline", langlands_json(chars), "--radius", str(radius)]
            out.append(("ktype-oracle", argv, partial(check_ktype, ms=ms, radius=radius)))
        for sign in (True, False):
            for _ in range(MIX["derive-sign" if sign else "derive"]):
                blocks = []
                for _ in range(rng.randint(1, 4)):
                    re, im = (Fraction(0), Fraction(0)) if sign else (rational(rng), rational(rng))
                    blocks.append((rng.randint(-2, 2), re, im, rng.randint(1, 4)))
                argv = ["derive", "--inline", monomial_json(blocks)]
                out.append(("derive", argv, partial(check_derive, blocks=blocks)))
        for _ in range(MIX["eps"]):
            chars = random_characters(rng, rng.randint(1, 16))
            twist = rng.choice(TWISTS)
            argv = ["eps", "--inline", langlands_json(chars), f"--b={twist}"]
            out.append(("eps", argv, partial(check_eps, chars=Counter(chars), twist=twist)))
        out = [(kind, argv + ["--json"], check, False) for kind, argv, check in out]
        for n, comp in COSETS:
            argv = ["cosets", "--n", str(n)] + (["--comp", comp] if comp else []) + ["--json"]
            out.append(("cosets", argv, partial(check_cosets, n=n, comp=comp), False))
        out += [("fixture", argv, check, False) for argv, check in self.fixed]
        for argv in FAULTS:
            argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
            out.append(("fault", argv, check_handled, True))
        rng.shuffle(out)
        return out

    def round_ops(self, rnd: int) -> List[Op]:
        rng = random.Random(f"cli-batch:{self.seed}:{rnd}")
        return [
            Op(kind, call_main, (argv,), check, fault)
            for kind, argv, check, fault in self.requests(rng)
        ]

    def layer_values(self, ops: List[Op], outputs: List) -> dict:
        return {}
