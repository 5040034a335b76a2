"""Benchmark of the split-manufacturing attack reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-attack --seed 1 --seconds 16 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``cold-attack``,
``warm-service``, ``train-epoch``.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation, over ``--seconds`` / (the workload's
nominal pass time) passes, at least one.
``--trace 1`` runs a warm-up pass, one untraced pass and one pass with
wrappers around every layer entry point, and reports the per-layer
metrics and the tracing overhead (traced minus untraced wall time).

Human-readable lines go to stdout first; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
result (environment, every figure, failures) and, when traced, the spans
are written under ``.perfbench_out/``.  Scratch caches live under
``.perfbench_work/`` and are removed at exit; no tracked file is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="a reduced slice of the workload (the self-test uses it)",
    )
    return parser.parse_args(argv)


def pin_environment(work: Path) -> None:
    """Thread pins and scratch locations, before numpy is imported."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(THREAD_PINS)
    os.environ["REPRO_RESULTS_DIR"] = str(work / "results")
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy without dict-mode build info
        pass
    return {
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "git_sha": git_sha(),
    }


def run_passes(workload, outcome, passes: int) -> float:
    """Run ``passes`` passes; returns their wall time."""
    started = time.perf_counter()
    for _ in range(passes):
        workload.run_pass(outcome)
        outcome.passes += 1
    return time.perf_counter() - started


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / ".repro_cache").is_dir():
        print(
            "perfbench: run from the root of a full checkout "
            "(src/repro and .repro_cache are missing)",
            file=sys.stderr,
        )
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    pin_environment(work)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        return measure(args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def measure(args, work: Path, out_dir: Path) -> int:
    import workloads
    from tracing import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    golden = json.loads((HERE / "golden.json").read_text())
    workload = workloads.WORKLOADS[args.workload](
        work, golden, args.seed, args.smoke
    )
    repeats = 1 if args.smoke else workload.setup_repeats
    setups = []
    for _ in range(repeats):
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    setup_s = statistics.median(setups)

    outcome = workloads.Outcome()
    checks = [outcome]
    if args.trace == 1:
        # A warm-up pass first, so the untraced and the traced pass
        # compared for the overhead both run in a warmed-up process.
        checks.append(workloads.Outcome())
        run_passes(workload, checks[-1], 1)
    # The pass count depends on --seconds alone, never on how fast this
    # machine is, so every run of a workload measures the same work.
    passes = max(1, round(args.seconds / workload.nominal_pass_s))
    wall = run_passes(workload, outcome, 1 if args.trace else passes)
    summary = workloads.summarize(outcome)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "setup_runs_s": setups,
        "passes": outcome.passes,
        "untraced_wall_s": wall,
        "summary": summary,
        "job_latencies_s": outcome.job_latencies,
    }
    if args.trace == 0:
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (summary["items_per_s"], "1/s"),
            "job_latency_p50_ms": (summary["job"]["p50_ms"], "ms"),
            "job_latency_tail_ms": (summary["job"]["tail_ms"], "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        traced = workloads.Outcome()
        checks.append(traced)
        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
        try:
            started = time.perf_counter()
            workload.run_pass(traced)
            ended = time.perf_counter()
        finally:
            tracer.uninstall()
        self_s, other_s = tracer.self_times(started, ended)
        layers = layer_metrics(tracer, self_s, other_s)
        queue_wait = workloads.summarize(traced)["queue_wait"]
        layers["service.queue_wait_ms"] = (
            queue_wait["p50_ms"] if queue_wait else 0.0
        )
        layers["trace.wall_s"] = ended - started
        layers["trace.overhead_s"] = (ended - started) - wall
        metrics = {
            name: (layers[name], unit) for name, unit in unit_table().items()
        }
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{args.workload}.spans.jsonl.gz")
        result.update(
            traced_wall_s=ended - started,
            self_s=dict(sorted(self_s.items())),
            other_self_s=other_s,
            counters=dict(tracer.counters),
            missing_entry_points=tracer.missing,
        )
    attempted = sum(o.attempted for o in checks)
    failed = sum(o.failed for o in checks)
    result.update(
        attempted=attempted,
        failed=failed,
        failures=[f for o in checks for f in o.failures],
    )
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n"
    )
    report(args, result, attempted, failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_table() -> dict[str, str]:
    """Per-layer metric units, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def report(args, result, attempted: int, failed: int) -> None:
    """Every figure by name and unit, for a human reader."""
    summary = result["summary"]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"passes={result['passes']} untraced_wall_s={result['untraced_wall_s']:.3f}"
    )
    rate_name = (
        "train_groups_per_s" if args.workload == "train-epoch"
        else "scenario_rate"
    )
    print(f"  {rate_name:<24} {summary['items_per_s']:.4f} 1/s (items_per_s)")
    for label, key in (("job_latency", "job"), ("query_latency", "query"),
                       ("queue_wait", "queue_wait")):
        stats = summary[key]
        if stats is None:
            print(f"  {label + '_*':<24} n/a on this workload")
            continue
        print(f"  {label + '_p50_ms':<24} {stats['p50_ms']:.3f} ms (n={stats['n']})")
        print(
            f"  {label + '_tail_ms':<24} {stats['tail_ms']:.3f} ms "
            f"(p{stats['tail_percentile']}, n={stats['n']})"
        )
    print(
        f"  {'fail_rate':<24} {failed / attempted:.4f} ratio "
        f"({failed}/{attempted})"
    )
    for failure in result["failures"][:20]:
        print(f"    failed: {failure}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    print(f"  environment: {json.dumps(result['environment'])}")


if __name__ == "__main__":
    sys.exit(main())
