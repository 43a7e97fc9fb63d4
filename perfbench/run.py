"""glcdist benchmark: one workload per run, end to end or traced by layer.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; glcdist is imported from ``src/``.
The run repeats whole rounds of the workload's operations while the next
round still fits in ``--seconds`` (at least one round), checks every output
against the independent computations in ``reference.py``, and prints one
JSON object as its last line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one round with every layer wrapped and one without, and
reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

from harness import check_round, run_round

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One thread per process: numpy's BLAS pool would otherwise start threads
# that the workloads never use.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def measure_setup(modules: List[str], probes: int) -> List[float]:
    """Times from process start to the point where the workload's glcdist
    modules are imported, in ``probes`` fresh interpreters."""
    code = (
        "import importlib, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "for name in sys.argv[2:]:\n"
        "    importlib.import_module(name)\n"
        "sys.stdout.write('ready\\n')\n"
        "sys.stdout.flush()\n"
    )
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code, str(SRC), *modules],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return samples


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def import_program():
    if not (SRC / "glcdist" / "__init__.py").is_file():
        raise ImportError(f"no glcdist sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import glcdist

    if Path(glcdist.__file__).resolve().parent != SRC / "glcdist":
        raise ImportError(f"glcdist was imported from {glcdist.__file__}, not {SRC}")


WORKLOADS = {
    "grid-sweep": ("grid_sweep", "GridSweep"),
    "cli-batch": ("cli_batch", "CliBatch"),
    "kernel-verify": ("kernel_verify", "KernelVerify"),
}


def load_workload(name: str, seed: int):
    import importlib

    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)(seed)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_timed(workload, seconds: float, log) -> dict:
    """Whole rounds while the next one fits in ``seconds``.  ``wall_s`` is
    the median round, and the percentiles are taken over the operations of
    every round: on a shared host the processor's speed drifts by a quarter
    over tens of seconds, and a median over the run's rounds moves less
    between runs than the fastest round does."""
    setup: List[float] = []
    walls: List[float] = []
    times: List[float] = []
    attempted = failed = unexpected = 0
    log(f"peak RSS before the first round: {rss_mb():.1f} MB")
    while True:
        ops = workload.round_ops(len(walls))
        setup += measure_setup(workload.modules, 1)
        result = run_round(ops)
        f, u = check_round(ops, result.outputs, log)
        attempted += len(ops)
        failed += f
        unexpected += u
        walls.append(result.wall)
        times += result.times
        if len(walls) == 1:
            # After one round, so that the figure does not depend on how
            # many rounds fit in the run.
            peak_rss = rss_mb()
        log(f"round {len(walls)}: {len(ops)} ops in {result.wall:.3f} s, {f} failed")
        if sum(walls) + max(walls) > seconds:
            break
    setup += measure_setup(workload.modules, 4)
    return {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_s": metric(statistics.median(walls), "s"),
            "op_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
            "op_p90_ms": metric(percentile(times, 90) * 1e3, "ms"),
            "peak_rss_mb": metric(peak_rss, "MB"),
        },
    }


def run_traced(workload, log) -> dict:
    from tracer import Tracer

    from glcdist import params

    ops = workload.round_ops(0)
    tracer = Tracer()
    cache_before = params.block_characters.cache_info()
    tracer.install()
    try:
        traced = run_round(ops)
    finally:
        tracer.uninstall()
    cache_after = params.block_characters.cache_info()
    plain = run_round(ops)
    attempted = 2 * len(ops)
    failed = unexpected = 0
    for result in (traced, plain):
        f, u = check_round(ops, result.outputs, log)
        failed += f
        unexpected += u
    # repr is exact for the floats and arrays in the outputs.
    same = list(map(repr, traced.outputs)) == list(map(repr, plain.outputs))
    if not same:
        log("traced and untraced outputs differ")
    lookups = (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses)
    hit_ratio = (cache_after.hits - cache_before.hits) / lookups if lookups else 0.0
    log(
        f"traced round {traced.wall:.3f} s, untraced {plain.wall:.3f} s, "
        f"{len(ops)} ops each"
    )

    values = {
        "exactnum.GaussianRational.created": (tracer.counts["created"], "count"),
        "exactnum.real_rank.calls": (tracer.calls("exactnum.real_rank"), "count"),
        "exactnum.real_rank.self_s": (tracer.self_s("exactnum.real_rank"), "s"),
        "exactnum.real_rank.entries": (tracer.counts["entries"], "count"),
        "params.to_langlands.calls": (tracer.calls("params.to_langlands"), "count"),
        "params.to_langlands.self_s": (tracer.self_s("params.to_langlands"), "s"),
        "params.parse_parameter_file.self_s": (tracer.self_s("params.parse_parameter_file"), "s"),
        "params.block_characters.hit_ratio": (hit_ratio, "ratio"),
    }
    for name in (
        "distinction.is_distinguished_unitary",
        "distinction.is_distinguished_blocks",
        "distinction.is_distinguished_generic",
        "derivatives.derivative_necessity_test",
        "ktypes.distinguished_minimal_ktype",
        "ktypes.minimal_distinguished_ktype_oracle",
        "factors.eps_rep",
        "cosets.orbit_dimension",
        "cosets.verify_representative",
        "cosets.parabolic_classes",
        "kernelnum.kernel_case1",
        "kernelnum.kernel_case2",
        "kernelnum.adaptive_quad",
        "equivalence_scan.run_equivalence_scan",
        "cli.main",
    ):
        values[f"{name}.self_s"] = (tracer.self_s(name), "s")
    for name in (
        "distinction.check_condition_i",
        "derivatives.highest_derivative",
        "ktypes.weight_multiplicity",
        "factors.eps_character",
        "kernelnum.adaptive_quad",
        "kernelnum.complex_gamma",
    ):
        values[f"{name}.calls"] = (tracer.calls(name), "count")
    values["kernelnum.panels"] = (tracer.counts["panels"], "count")
    # Figures read from the outputs; 0 where the workload has none.
    values["equivalence_scan.multisets"] = (0, "count")
    values["equivalence_scan.components"] = (0, "count")
    values["kernelnum.worst_rel_err"] = (0.0, "ratio")
    values.update(workload.layer_values(ops, traced.outputs))
    values["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    return {
        "correct": unexpected == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric(v, unit) for name, (v, unit) in sorted(values.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(message: str) -> None:
        print(f"[{args.workload}] {message}", file=sys.stderr, flush=True)

    try:
        import_program()
    except ImportError as exc:
        log(f"cannot import the program: {exc}")
        return 2
    workload = load_workload(args.workload, args.seed)
    if args.trace:
        result = run_traced(workload, log)
    else:
        result = run_timed(workload, args.seconds, log)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {result['attempted']}, failed = {result['failed']}, correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
