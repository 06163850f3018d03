"""blockfactor benchmark: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload fig1-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  Each invocation runs one workload in its
own process, because ``ru_maxrss`` is a per-process high-water mark.

With ``--trace 0`` the workload's inputs are set up five times and then
whole passes run until the next one would end after ``--seconds``, at
least two, so every pass can be checked against the first.  With ``--trace 1`` one untraced pass is followed by
one traced pass; the per-layer metrics are that pass's, and
``trace.overhead_s`` is the difference of the two pass times.

End-to-end metrics carry the same names on every workload:

    setup_s          median import time in a fresh interpreter plus the
                     median set-up (inputs, warm-up)
    pass_s           median wall time of one pass over the workload's jobs
    osntf_s, snmf_s  median per-pass time spent producing OSNTF/SNMF labels
    nmi_mean         mean NMI against the planted labels
    peak_rss_mb      high-water RSS of this process

Metrics only one workload has (``cells_per_s``, ``cell_s_p50``,
``reg_spectral_s``, ``solve_s``, ``exact_recovery_frac``) and
``failed_frac`` go on the record line.

The last line of standard output is the result object; the line before
it records the environment.  Both are also written, with the spans of a
traced run, to ``.bench_out/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# Set-ups are short, so one burst of host load can double a single one.
SETUP_REPEATS = 5
# Reported by every workload; the result line carries exactly these.
END_TO_END = ("setup_s", "pass_s", "osntf_s", "snmf_s", "nmi_mean", "peak_rss_mb")


def _pin_blas_threads() -> None:
    """Fix the BLAS thread count; BLAS reads it once, when numpy is imported."""
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(threads)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


_TIME_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import blockfactor.bench; print(time.perf_counter() - t)"
)


def _import_program() -> list[float]:
    """Import the program from the checkout's ``src/``.

    Returns the import times of ``SETUP_REPEATS`` fresh interpreters, since
    this process can import only once.
    """
    src = ROOT / "src"
    if not (src / "blockfactor" / "__init__.py").is_file():
        raise SystemExit(f"error: no blockfactor sources under {src}")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _TIME_IMPORT, str(src)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout))
    sys.path.insert(0, str(src))
    import blockfactor.bench  # noqa: F401  (loads every layer the workloads use)

    if not Path(blockfactor.bench.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: blockfactor imported from {blockfactor.bench.__file__}")
    return times


def _count_warnings(caught) -> dict:
    return {
        "blockmodels.clipped_cells": sum(1 for w in caught if "clipped" in str(w.message)),
        "numpy.runtime_warnings": sum(1 for w in caught if issubclass(w.category, RuntimeWarning)),
    }


def _traced_passes(workload, passes, caught) -> dict:
    """One untraced pass, then one traced pass; per-layer metrics of the latter."""
    from tracing import UNITS, Tracer

    start = time.perf_counter()
    workload.run_pass(0)
    passes.append(time.perf_counter() - start)
    tracer = Tracer()
    workload.tracer = tracer
    seen = len(caught)
    tracer.install()
    try:
        start = time.perf_counter()
        workload.run_pass(1)
        passes.append(time.perf_counter() - start)
    finally:
        tracer.uninstall()
        workload.tracer = None
    layer = tracer.layer_metrics()
    layer.update(_count_warnings(caught[seen:]))
    layer["trace.overhead_s"] = passes[1] - passes[0]
    tracer.dump(OUT_DIR / f"{workload.name}-seed{workload.seed}-spans.json")
    return {name: (value, UNITS[name]) for name, value in layer.items()}


def run(args) -> tuple[dict, dict]:
    imports = _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp, warnings.catch_warnings(
        record=True
    ) as caught:
        warnings.simplefilter("always")
        workload = WORKLOADS[args.workload](ROOT, Path(tmp), args.seed, args.smoke)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.set_up()
            setups.append(time.perf_counter() - start)

        passes = []
        extra = {}
        if args.trace:
            metrics = _traced_passes(workload, passes, caught)
        else:
            begin = time.perf_counter()
            while True:
                start = time.perf_counter()
                workload.run_pass(len(passes))
                passes.append(time.perf_counter() - start)
                elapsed = time.perf_counter() - begin
                if len(passes) >= 2 and elapsed + statistics.mean(passes) > args.seconds:
                    break
            measured = workload.metrics()
            measured["pass_s"] = (statistics.median(passes), "s")
            measured["setup_s"] = (statistics.median(imports) + statistics.median(setups), "s")
            measured["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            )
            metrics = {name: measured.pop(name) for name in END_TO_END}
            extra = measured
        workload.finish()
        warning_counts = _count_warnings(caught)
        warning_counts["total"] = len(caught)

    failed = len(workload.failed_jobs)
    result = {
        "correct": failed == 0,
        "attempted": workload.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())
        },
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "workload_metrics": {
            "failed_frac": {"value": failed / workload.attempted, "unit": "1"},
            **{name: {"value": value, "unit": unit} for name, (value, unit) in sorted(extra.items())},
        },
        "passes": len(passes),
        "pass_times_s": passes,
        "setup_runs_s": setups,
        "import_runs_s": imports,
        "warnings": warning_counts,
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--workload", required=True, choices=("fig1-sweep", "large-sbm", "population-recovery")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the benchmark's own test"
    )
    args = parser.parse_args(argv)

    _pin_blas_threads()
    record, result = run(args)
    for name, m in {**record["workload_metrics"], **result["metrics"]}.items():
        print(f"{name:36s} {m['value']!r} {m['unit']}")
    print(json.dumps(record))
    print(json.dumps(result))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
