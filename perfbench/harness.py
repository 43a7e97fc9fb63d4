"""Operations, rounds and checks shared by the workloads."""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, List, NamedTuple, Tuple


class Op(NamedTuple):
    """One timed operation: ``call(*args)`` is timed, ``check(output)`` is
    not.  ``fault`` marks a known fault of the program, expected to fail its
    check."""

    kind: str
    call: Callable[..., Any]
    args: Tuple
    check: Callable[[Any], bool]
    fault: bool = False


class RoundResult(NamedTuple):
    wall: float
    times: List[float]
    outputs: List[Any]


def run_round(ops: List[Op]) -> RoundResult:
    """Run the ops in order, timing each; an exception an op raises is its
    output, and fails its check.  The benchmark's own objects are collected
    and frozen first, so the collector's passes during the round scan what
    the program allocates, not the benchmark's inputs."""
    clock = time.perf_counter
    times = []
    outputs = []
    gc.collect()
    gc.freeze()
    try:
        start = clock()
        for op in ops:
            t0 = clock()
            try:
                out = op.call(*op.args)
            except Exception as exc:  # a fault of the program, failed below
                out = exc
            times.append(clock() - t0)
            outputs.append(out)
        wall = clock() - start
    finally:
        gc.unfreeze()
    return RoundResult(wall, times, outputs)


def check_round(ops: List[Op], outputs: List[Any], log) -> tuple:
    """(failed, unexpected): ops that raised or whose check fails, and those
    among them that are not known faults."""
    failed = 0
    unexpected = 0
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            ok = False
        else:
            try:
                ok = op.check(out) is True
            except Exception as exc:  # a checker crash is a failed check
                ok = False
                log(f"check of {op.kind} raised {type(exc).__name__}: {exc}")
        if not ok:
            failed += 1
            if not op.fault:
                unexpected += 1
                log(f"unexpected failure: {op.kind}: {str(out)[:300]}")
    return failed, unexpected
