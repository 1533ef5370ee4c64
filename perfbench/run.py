"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload devices-cold --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer metrics of a separately traced section.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the environment and sample counts.  A failed output check prints
``"correct": false`` and exits 1; a refused or impossible run prints
nothing on stdout and exits 2.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS")


class Refused(Exception):
    """The run cannot be a valid measurement; nothing is printed."""


def refuse_caller_env() -> None:
    """Refuse every ``REPRO_*`` variable: they select the cache dir,
    backend, solver kernels, tracing, remote tier and injected faults,
    so any of them would change what is measured."""
    present = sorted(name for name in os.environ
                     if name.startswith("REPRO_"))
    if present:
        raise Refused(f"unset {', '.join(present)}: the benchmark runs "
                      f"hermetic, on its own caches and defaults")


def pin_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable CPU count (before numpy)."""
    nproc = len(os.sched_getaffinity(0))
    for name in THREAD_ENV:
        try:
            current = int(os.environ.get(name, nproc))
        except ValueError:
            current = nproc
        os.environ[name] = str(max(1, min(current, nproc)))
    return nproc


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise Refused(f"{spec_path.name} not found next to {HERE.name}/")
    return json.loads(spec_path.read_text())


def import_program():
    """Put the checkout's ``src`` first and import the program from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise Refused(f"no program source at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise Refused(f"imported repro from {repro.__file__}, "
                      f"not from {SRC}")
    return repro


def p99(values):
    """Nearest-rank 99th percentile (the maximum below 100 samples)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def environment(repro, nproc: int) -> dict:
    import numpy
    import scipy
    return {
        "kernels": repro.resolve_kernels().spec(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "threads": {name: os.environ[name] for name in THREAD_ENV},
    }


def run_untraced(workload, seconds: float):
    """End-to-end metrics over sections repeated for ``seconds``."""
    workload.setup()
    setup_s = time.perf_counter() - _T0
    sections = []
    start = time.perf_counter()
    while not sections or time.perf_counter() - start < seconds:
        sections.append(workload.section())
    ops = [op for section in sections for op in section.op_s]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(s.wall_s for s in sections),
        "cpu_s": statistics.median(s.cpu_s for s in sections),
        "op_p50_s": statistics.median(ops),
        "rss_peak_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fit_error_max_pct": workload.fit_error_max_pct,
    }
    # unbounded: only warm-replay has ten samples beyond the p99
    info = {"sections": len(sections), "op_samples": len(ops),
            "op_p99_s": p99(ops)}
    return sections, metrics, info


def run_traced(workload, ledger: dict):
    """Per-layer metrics of one traced section, next to an untraced one."""
    from repro.observe import Tracer

    from probes import LAYER_WORK, LEDGER_COUNTERS, LayerProbes
    from workloads import CheckFailed, GOLDEN_SEED

    workload.setup()
    base = workload.section()
    tracer = Tracer()
    with LayerProbes() as probes:
        traced = workload.section(observe=tracer)
    if traced.artefacts != base.artefacts:
        raise CheckFailed("traced artefacts differ from untraced ones")
    counters = {name: data["value"]
                for name, data in tracer.metrics.snapshot().items()
                if data["type"] == "counter"}
    metrics = probes.metrics(counters)
    metrics["trace.overhead_ratio"] = traced.wall_s / base.wall_s - 1.0
    metrics["trace.unattributed_s"] = traced.wall_s - sum(
        metrics[name] for name in workload.attributed)
    leaks = {name: metrics[name] for layer in workload.bypassed
             for name in LAYER_WORK[layer] if metrics[name] != 0}
    if leaks:
        raise CheckFailed(f"bypassed layers did work in the timed "
                          f"section: {leaks}")
    expected = ledger["work_counts"].get(workload.name)
    if workload.seed == GOLDEN_SEED and expected is not None:
        for name in LEDGER_COUNTERS:
            if metrics[name] != expected[name]:
                print(f"ledger: {workload.name} {name} = {metrics[name]}, "
                      f"ledger {expected[name]}", file=sys.stderr)
    info = {"traced_wall_s": traced.wall_s, "untraced_wall_s": base.wall_s}
    return [base, traced], metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        refuse_caller_env()
        nproc = pin_threads()
        spec = load_spec()
        repro = import_program()
        from workloads import WORKLOADS, CheckFailed, GOLDEN_SEED
        if args.workload not in WORKLOADS:
            raise Refused(f"unknown workload {args.workload!r}; known: "
                          f"{', '.join(sorted(WORKLOADS))}")
        declared = spec["per_layer" if args.trace else "end_to_end"]
        units = {metric["name"]: metric["unit"] for metric in declared}
        ledger = json.loads((HERE / "ledger.json").read_text())
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    base_dir = ROOT / ".perfbench_work"
    base_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=base_dir))
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    sections, metrics, info = [], {}, {}
    correct = True
    try:
        if args.trace:
            sections, metrics, info = run_traced(workload, ledger)
        else:
            sections, metrics, info = run_untraced(workload, args.seconds)
        if sum(s.failed for s in sections):
            raise CheckFailed("engine tasks failed or were skipped")
        if args.seed == GOLDEN_SEED:
            workload.check_golden()
        if set(metrics) != set(units):
            raise CheckFailed(f"metrics {sorted(set(metrics) ^ set(units))} "
                              f"differ from BENCHMARK.json")
    except Exception:  # any failure invalidates the run; report it
        traceback.print_exc()
        correct = False
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            base_dir.rmdir()
        except OSError:
            pass

    failed = sum(s.failed for s in sections)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                environment=environment(repro, nproc))
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(s.attempted for s in sections)),
        "failed": failed if correct else max(1, failed),
        "metrics": ({name: {"value": value, "unit": units[name]}
                     for name, value in metrics.items()} if correct else {}),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
