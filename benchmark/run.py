"""Run one benchmark workload and print its result as the last output line.

    python3 benchmark/run.py --workload {train,generate,ablate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a pmrope checkout; the program is imported from its
``src/`` directory. With ``--trace 0`` the result carries the end-to-end
metrics; with ``--trace 1`` the run measures half its passes untraced and
half with the span recorder installed, and the result carries the per-layer
metrics. A JSON line of details (the metrics under their workload-specific
names, work counts, self-time table, provenance) precedes the result line
and is also written under ``.bench_out/``.

Exit status: 0 with a result line; 2, without one, when the sources or the
frozen reference checkpoint are missing or do not verify.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so every run measures the same
# configuration whatever the caller's environment. The matrices here are at
# most 64 wide; on two cores a second thread measured no faster and doubled
# the CPU time used.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference" / "reference.pmrt"
REFERENCE_DIGEST = HERE / "reference" / "reference.sha256"
OUT_DIR = ROOT / ".bench_out"

#: set-ups before the first pass; an untraced run also sets up again after
#: every pass, so the median of all of them samples the whole run
SETUP_REPEATS = 3


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import pmrope from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "pmrope" / "__init__.py").is_file():
        raise BenchError(f"no pmrope sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import pmrope
    if src.resolve() not in Path(pmrope.__file__).resolve().parents:
        raise BenchError(f"pmrope was imported from {pmrope.__file__}, not from {src}")
    return pmrope


def verify_reference() -> None:
    if not REFERENCE.is_file() or not REFERENCE_DIGEST.is_file():
        raise BenchError(f"reference checkpoint missing: {REFERENCE}")
    expected = REFERENCE_DIGEST.read_text(encoding="utf-8").split()[0]
    actual = hashlib.sha256(REFERENCE.read_bytes()).hexdigest()
    if actual != expected:
        raise BenchError(f"reference checkpoint sha256 {actual} != recorded {expected}")


def provenance(args) -> dict:
    import numpy as np
    from pmbench.blas import blas_info
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.machine(),
    }


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_passes(workload, seconds: float, tracer=None, warmup: int = 0, after_pass=None):
    """Whole passes while the next one is expected to end within the budget.

    Returns the timings of the passes after the first ``warmup`` ones and
    the outputs of all of them. ``after_pass`` runs, untimed, after each.
    """
    times, outputs = [], []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            outputs.append(workload.run_pass())
        else:
            with tracer.span("bench", "pass"):
                outputs.append(workload.run_pass())
        times.append(time.perf_counter() - t0)
        if after_pass is not None:
            after_pass()
        timed = times[warmup:]
        if timed and time.perf_counter() - started + statistics.median(timed) > seconds:
            return timed, outputs


def run(args, package) -> tuple:
    from pmbench import spec
    from pmbench.tracing import Tracer
    from pmbench.workloads import WORKLOADS

    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cls = WORKLOADS[args.workload]
        if cls.needs_reference:
            verify_reference()
            workload = cls(args.seed, workdir, REFERENCE)
        else:
            workload = cls(args.seed, workdir)

        setup_tracer = Tracer()
        setup_times = []

        def timed_setup():
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)

        for _ in range(SETUP_REPEATS):
            installed = setup_tracer.install(package) if args.trace else None
            timed_setup()
            if installed is not None:
                installed.uninstall()
        workload.prepare()

        warmup = workload.warmup_passes
        if not args.trace:
            times, outputs = run_passes(workload, args.seconds, warmup=warmup,
                                        after_pass=timed_setup)
            summary = untraced = workload.summarize(times, outputs)
            tracer = None
        else:
            times, outputs = run_passes(workload, args.seconds / 2, warmup=warmup)
            tracer = Tracer()
            installed = tracer.install(package)
            try:
                traced_times, traced_outputs = run_passes(workload, args.seconds / 2, tracer)
            finally:
                installed.uninstall()
            # every pass is checked; throughput and latency come from untraced ones
            summary = workload.summarize(times + traced_times, outputs + traced_outputs)
            untraced = workload.summarize(times, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {
        "workload": args.workload,
        "provenance": provenance(args),
        "metrics": {name: {"value": _finite(v), "unit": unit}
                    for name, (v, unit) in untraced["detail"].items()},
        "work": untraced["work"],
        "pass_seconds": times,
        "setup_seconds": setup_times,
    }
    if not args.trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "throughput_per_s": summary["throughput_per_s"],
            "ms_per_token_p50": summary["ms_per_token_p50"],
        }
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    else:
        overhead = statistics.median(traced_times) / statistics.median(times) - 1.0
        values = spec.per_layer_metrics(tracer, setup_tracer, len(traced_times), overhead)
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
        detail["traced_pass_seconds"] = traced_times
        detail["self_ms_per_pass"] = {
            layer: s * 1000.0 / len(traced_times) for layer, s in tracer.self_times().items()}
        detail["spans"] = len(tracer.spans)
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    if tracer is not None:
        write_json(OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-spans.json",
                   {"columns": ["id", "parent", "layer", "name", "start", "end", "ctx", "arm"],
                    "spans": tracer.spans})
    return detail, result


def _finite(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "generate", "ablate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        package = import_program()
        detail, result = run(args, package)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    write_json(OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
               {"detail": detail, "result": result})
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
