"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced function of glcdist by a wrapper in
every module that binds it (``cli``, ``selftest`` and ``equivalence_scan``
import many of them by name), and ``uninstall`` puts the originals back.
A wrapper records the call count and the self time: the time inside the
call minus the part covered by wrapped calls made inside it.
Spans are folded into these sums as they close, so memory stays flat.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Tuple

# (module, function) pairs timed as spans; each is a layer boundary.
SPANS: Tuple[Tuple[str, str], ...] = (
    ("exactnum", "real_rank"),
    ("params", "to_langlands"),
    ("params", "parse_parameter_file"),
    ("distinction", "is_distinguished_unitary"),
    ("distinction", "is_distinguished_blocks"),
    ("distinction", "is_distinguished_generic"),
    ("distinction", "check_condition_i"),
    ("derivatives", "derivative_necessity_test"),
    ("derivatives", "highest_derivative"),
    ("ktypes", "distinguished_minimal_ktype"),
    ("ktypes", "minimal_distinguished_ktype_oracle"),
    ("ktypes", "weight_multiplicity"),
    ("factors", "eps_rep"),
    ("factors", "eps_character"),
    ("cosets", "orbit_dimension"),
    ("cosets", "verify_representative"),
    ("cosets", "parabolic_classes"),
    ("kernelnum", "kernel_case1"),
    ("kernelnum", "kernel_case2"),
    ("kernelnum", "adaptive_quad"),
    ("kernelnum", "complex_gamma"),
    ("equivalence_scan", "run_equivalence_scan"),
    ("cli", "main"),
)


class Tracer:
    def __init__(self):
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, self_s]
        self.counts: Dict[str, int] = {"created": 0, "entries": 0, "panels": 0}
        self._stack: List[List[float]] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _span(self, name: str, fn: Callable, before: Callable = None) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _before(self, name: str):
        counts = self.counts
        if name == "exactnum.real_rank":

            def rank_entries(args):
                vectors, n = list(args[0]), args[1]
                counts["entries"] += len(vectors) * 2 * n * n
                return (vectors, n) + tuple(args[2:])

            return rank_entries
        if name == "kernelnum.adaptive_quad":

            def count_panels(args):
                f = args[0]

                def panel(x):
                    counts["panels"] += 1
                    return f(x)

                return (panel,) + tuple(args[1:])

            return count_panels
        return None

    def _rebind(self, original: object, replacement: object) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "glcdist" and not mod_name.startswith("glcdist."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for mod, fn in SPANS:
            module = sys.modules.get(f"glcdist.{mod}")
            if module is None:  # not imported, so not called by this workload
                continue
            original = getattr(module, fn)
            name = f"{mod}.{fn}"
            self._rebind(original, self._span(name, original, self._before(name)))
        gq = sys.modules["glcdist.exactnum"].GaussianRational
        init = gq.__init__
        counts = self.counts

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            counts["created"] += 1
            init(obj, *args, **kwargs)

        self._restore.append((gq, "__init__", init))
        gq.__init__ = counted_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, [0, 0.0])[0])

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]
