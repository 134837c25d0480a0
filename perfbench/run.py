"""plaustraj benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a checkout; the package is imported from ./src. Each
invocation runs one workload in this single process with BLAS pinned to one
thread. With --trace 0 the last stdout line holds every end-to-end metric of
BENCHMARK.json; with --trace 1 it holds every per-layer metric, from a run
whose operations are repeated with tracing on. The line before it records the
environment and the run's details. --quick shrinks every size for the
benchmark's own schema test.
"""

import os
import sys
import time

IMPORT_START = time.perf_counter()
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None
RUNS_DIR = ROOT / ".perfbench_runs"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_info() -> dict:
    """BLAS vendor from numpy's build config and its live thread count."""
    import ctypes
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"vendor": blas.get("name"), "version": blas.get("version"),
            "threads": threads, "threads_requested": int(BLAS_THREADS)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="plaustraj benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if BENCH is None or not (src / "plaustraj" / "__init__.py").is_file():
        print(f"perfbench: no BENCHMARK.json or no package under {src}; "
              "run from the root of a plaustraj checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # noqa: E402  (imports plaustraj from src)

    if args.workload not in workloads.CLASSES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.CLASSES)}", file=sys.stderr)
        return 2
    import_end = time.perf_counter()
    import_segment = (IMPORT_START, import_end, import_end - IMPORT_START)

    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = run_dir / "work"
    work.mkdir(parents=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.quick, work, import_segment)
    except workloads.StageFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = result["checks"]
    values = result["metrics"]
    if not args.trace:
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # rule-of-succession estimate of the failure probability: it is never
        # 0, and any failed check raises it well past the metric's bound
        values["error_rate"] = (checks.failed + 1) / (checks.attempted + 2)
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared(kind)
    metrics_out = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "operations": result["ops"],
        "setup_runs_s": result["setup_runs_s"],
        "raw_setup_runs_s": result["raw_setup_runs_s"],
        "op_times_s": result["op_times_s"],
        "stage_times_s": result["stage_times_s"],
        "raw_stage_times_s": result["raw_stage_times_s"],
        "raw_serve_walls_s": result["raw_serve_walls_s"],
        "evaluate_walls_s": result["evaluate_walls_s"],
        "reference_kernel": result["reference_kernel"],
        "quality": result["quality"],
        "extra": {k: v for k, v in values.items() if k not in units},
        "failures": checks.failures,
        "env": environment(),
    }
    if args.trace:
        tracer, setup_tracer = result["tracers"]
        tracer.write(run_dir / "spans.tsv")
        setup_tracer.write(run_dir / "setup_spans.tsv")
        report = trace_report(values)
        (run_dir / "trace_report.txt").write_text(report)
        print(report)
    line = {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics_out}
    (run_dir / "result.json").write_text(json.dumps({"details": details, "result": line}, indent=1))
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


def trace_report(m: dict) -> str:
    """Self time per layer for the traced operations and the traced set-up,
    the tracing overhead with its base, and the main counts."""
    import spans

    lines = [f"{'layer':<10} {'run self s':>11} {'share':>7} {'setup self s':>13}"]
    total = m["trace.self_sum_s"]
    for layer in spans.LAYERS:
        run = m[f"layer.{layer}.self_s"]
        share = run / total if total else 0.0
        lines.append(f"{layer:<10} {run:>11.4f} {share:>7.1%} {m[f'setup.layer.{layer}.self_s']:>13.4f}")
    lines.append(f"{'sum':<10} {total:>11.4f}")
    lines.append(
        f"tracing overhead: traced {m['trace.traced_s']:.4f} s - untraced "
        f"{m['trace.untraced_s']:.4f} s = {m['trace.overhead_s']:.4f} s "
        f"({m['trace.overhead_ratio']:.1%} of the untraced base); "
        f"set-up {m['trace.setup.traced_s']:.3f} s traced vs {m['trace.setup.untraced_s']:.3f} s "
        f"untraced ({m['trace.setup.overhead_ratio']:.1%})"
    )
    lines.append(
        f"self-time sum minus untraced wall: {total - m['trace.untraced_s']:.4f} s "
        f"(tracing overhead {m['trace.overhead_s']:.4f} s)"
    )
    skip = {k for k in m if k.startswith(("layer.", "setup.layer.", "trace."))}
    for key in sorted(set(m) - skip):
        value = m[key]
        lines.append(f"  {key} = {value:.6g}" if isinstance(value, float) else f"  {key} = {value}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
