"""kernel-verify: numerical checks of glcdist's kernel closed forms against
mpmath.

One round holds seven nested kernel checks (``kernel_case1`` or
``kernel_case2`` with the displayed-form ratio, in the configuration of
``glcdist verify-kernel``) and 600 one-dimensional checks: ``complex_gamma``,
``angular_moment``, ``beta_P`` and ``radial_improper_quad`` on Beta-type
radial integrands.  Every round draws fresh samples: each kernel sample is
jittered by at most ``JITTER`` around a fixed base point, so the work per
round barely depends on the seed.  Three kernel checks at fixed points are
known faults (``FAULTS``).
"""

from __future__ import annotations

import random
from functools import partial
from typing import List

import numpy as np
import reference
from harness import Op

from glcdist import kernelnum, selftest

TOLERANCE = 1e-6
JITTER = 0.002

# Base points of the seeded kernel checks, in both convergence strips
# (case 1: -1/3 < Re s < 1, case 2: -2/3 < Re s < 2).  The faults below
# take 4.4 s of every round, so only the cheaper points are kept, and a
# round takes about 7 s.
KERNEL_BASES = [
    ("case1", 0.05),
    ("case2", 0.2),
    ("case2", -0.3),
    ("case2", 0.45 + 0.65j),
]

# Kernel checks glcdist fails today, at fixed points: the tail exponent
# takes the principal log (|Im s| > 1.51 in case 1), and a pure power-law
# tail with p - 1 small amplifies the next-order term.
FAULTS = [("case1", 0.1 - 2j), ("case1", -0.3), ("case2", -0.6)]

# One-dimensional checks of each kind in one round.
MIX = {"gamma": 150, "angular": 150, "beta": 160, "radial": 140}


def kernel_check(case: str, s: complex) -> tuple:
    """(numeric, reference, numeric / displayed form), as verify-kernel
    computes them, in the configuration it shares with the self-test."""
    cfg = selftest.KERNEL_CONFIG
    if case == "case1":
        numeric, ref = kernelnum.kernel_case1(s, cfg)
        displayed = kernelnum.case1_displayed_form(s, cfg)
    else:
        numeric, ref = kernelnum.kernel_case2(s, cfg)
        displayed = kernelnum.case2_displayed_form(s, cfg)
    return numeric, ref, numeric / displayed


def radial_integrand(a: complex, b: complex):
    """r^a (1 + r^2)^-b, vectorized."""

    def f(r):
        return np.exp(a * np.log(r) - b * np.log1p(r * r))

    return f


# Each call looks its function up in ``kernelnum`` when it runs, so that the
# traced run reaches the tracer's wrappers.
def gamma_check(z: complex) -> complex:
    return kernelnum.complex_gamma(z)


def angular_check(p: complex) -> complex:
    return kernelnum.angular_moment(p)


def radial_check(a: complex, b: complex) -> complex:
    return kernelnum.radial_improper_quad(radial_integrand(a, b))


def beta_check(a: complex, b: complex) -> tuple:
    pair = kernelnum.beta_P(a, b)
    return pair.numeric, pair.closed


def within(values, wants) -> bool:
    return all(reference.rel_err(complex(v), w) <= TOLERANCE for v, w in zip(values, wants))


def worst(values, wants) -> float:
    return max(reference.rel_err(complex(v), w) for v, w in zip(values, wants))


def uniform_c(rng: random.Random, re: tuple, im: tuple) -> complex:
    return complex(rng.uniform(*re), rng.uniform(*im))


class KernelVerify:
    modules = ["glcdist.kernelnum", "glcdist.selftest"]

    def __init__(self, seed: int):
        self.seed = seed
        self.forms = reference.closed_forms()

    def cases(self, rng: random.Random) -> List[tuple]:
        """(kind, call, args, expected values, fault) for one round."""
        forms = self.forms
        out = []
        kernel = [(case, s, False) for case, s in FAULTS]
        for case, base in KERNEL_BASES:
            s = complex(base) + rng.uniform(-JITTER, JITTER)
            if base.imag:
                s += 1j * rng.uniform(-JITTER, JITTER)
            kernel.append((case, s, False))
        for i, (case, s, _) in enumerate(kernel):
            ratio = forms["ratio1" if case == "case1" else "ratio2"](s)
            want = forms[case](s)
            out.append((f"kernel-{case}", kernel_check, (case, s), (want, want, ratio), i < len(FAULTS)))
        for _ in range(MIX["gamma"]):
            while True:
                z = uniform_c(rng, (-4.5, 6.0), (-3.0, 3.0))
                if z.real > 0.1 or abs(z.imag) > 0.1 or abs(z.real - round(z.real)) > 0.1:
                    break
            out.append(("gamma", gamma_check, (z,), (forms["gamma"](z),), False))
        for _ in range(MIX["angular"]):
            p = uniform_c(rng, (0.2, 3.0), (-1.0, 1.0))
            out.append(("angular", angular_check, (p,), (forms["angular"](p),), False))
        for _ in range(MIX["beta"]):
            a = uniform_c(rng, (0.5, 3.0), (-0.5, 0.5))
            b = uniform_c(rng, (0.5, 3.0), (-0.5, 0.5))
            want = forms["beta"](a, b)
            out.append(("beta", beta_check, (a, b), (want, want), False))
        for _ in range(MIX["radial"]):
            a = uniform_c(rng, (0.0, 1.5), (-0.3, 0.3))
            b = complex((a.real + rng.uniform(2.0, 3.5)) / 2, rng.uniform(-0.3, 0.3))
            out.append(("radial", radial_check, (a, b), (forms["radial"](a, b),), False))
        return out

    def round_ops(self, rnd: int) -> List[Op]:
        rng = random.Random(f"kernel-verify:{self.seed}:{rnd}")
        ops = [
            Op(kind, call, args, partial(self.check, wants=wants), fault)
            for kind, call, args, wants, fault in self.cases(rng)
        ]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def check(out, wants) -> bool:
        values = out if isinstance(out, tuple) else (out,)
        return within(values, wants)

    def layer_values(self, ops: List[Op], outputs: List) -> dict:
        errs = [
            worst(out if isinstance(out, tuple) else (out,), op.check.keywords["wants"])
            for op, out in zip(ops, outputs)
            if not op.fault
        ]
        return {"kernelnum.worst_rel_err": (max(errs), "ratio")}
