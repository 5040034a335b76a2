#!/usr/bin/env python3
"""Latency/throughput benchmark of the attack service HTTP path.

Starts an :class:`repro.service.AttackService` on an ephemeral port
against a *pre-populated* results store, then replays grid submissions
at configurable client concurrency.  Every replayed job's scenarios are
already in the store, so each request exercises the full HTTP + queue
+ dedup path and is answered from the store — the "fully-cached grid
replay" of the service acceptance bar (>= 50 req/s sustained).

The store is populated one of two ways:

* default: synthetic records are minted for every scenario hash in the
  replayed grids (the benchmark measures the serving stack, not the
  attacks);
* ``--real``: the golden two-scenario proximity sweep is evaluated
  once against the committed warm ``.repro_cache`` and those records
  are replayed.

``--scenario deep-history`` benchmarks the *read path at depth*: it
seeds JSONL stores of increasing size (100 -> 10,000 records by
default), measures paginated ``GET /results?limit=N`` latency at each
depth, and asserts the p50 stays flat (within ``--tolerance``) as
history grows.  It finishes with a hundreds-of-clients stage:
``--clients`` concurrent client threads paging the deepest store at
once.

``--scenario all`` runs both and writes one combined report.

Writes the percentile report to ``results/bench_service.txt``
(atomically) and prints it.  ``--emit-json`` additionally writes the
versioned ``BENCH_service.json`` artifact (schema in
:mod:`repro.obs.bench`) that ``repro bench compare`` gates against
``results/baselines/``; ``--profile`` samples the run and prints the
hottest stacks.

    PYTHONPATH=src python scripts/bench_service.py
    PYTHONPATH=src python scripts/bench_service.py --requests 500 -c 8
    PYTHONPATH=src python scripts/bench_service.py --scenario deep-history
"""

from __future__ import annotations

import argparse
import os
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_GRIDS = [
    ("table3", {}),
    ("attack-matrix", {}),
]


def synthetic_store(store, grids) -> int:
    """Mint one plausible record per scenario in the replayed grids."""
    from repro.experiments import ScenarioRecord, build_grid

    n = 0
    for name, params in grids:
        for spec in build_grid(name, **params):
            if store.get(spec) is not None:
                continue
            store.add(
                ScenarioRecord(
                    scenario_hash=spec.scenario_hash,
                    scenario=spec.to_dict(),
                    status="ok",
                    ccr=50.0,
                    runtime_s=0.1,
                    extra={"synthetic": True},
                )
            )
            n += 1
    return n


def golden_store(store) -> int:
    """Evaluate the golden two-scenario sweep on the committed cache."""
    from repro.experiments import ScenarioSpec, run_sweep

    os.environ["REPRO_CACHE_DIR"] = str(REPO_ROOT / ".repro_cache")
    specs = [
        ScenarioSpec(design=d, split_layer=3, attack="proximity")
        for d in ("c432", "c880")
    ]
    result = run_sweep(specs, store=store)
    return result.executed


def scrape_snapshot(client) -> str:
    """A compact ``GET /metrics`` digest for the report: every counter
    sample plus each histogram's ``_count``/``_sum`` (buckets omitted)."""
    lines = ["metrics snapshot (GET /metrics):"]
    for line in client.metrics().splitlines():
        if line.startswith("#") or "_bucket{" in line or not line:
            continue
        lines.append("  " + line)
    return "\n".join(lines)


def deep_store(scratch: Path, depth: int):
    """A scratch store holding ``depth`` distinct synthetic scenario
    records."""
    from repro.experiments import (
        ResultsStore,
        ScenarioRecord,
        ScenarioSpec,
    )

    store = ResultsStore(scratch / f"deep_{depth}.jsonl")
    records = []
    for i in range(depth):
        spec = ScenarioSpec(
            design=f"synth{i:05d}", split_layer=3, attack="proximity"
        )
        records.append(ScenarioRecord(
            scenario_hash=spec.scenario_hash,
            scenario=spec.to_dict(),
            status="ok",
            ccr=50.0,
            runtime_s=0.1,
            extra={"synthetic": True},
        ))
    store.add_many(records)
    return store


def deep_history_scenario(
    args, scratch: Path
) -> tuple[list, list[str], list]:
    """Paginated read latency vs store depth, then a
    hundreds-of-clients stage on the deepest store.

    Returns the report sections, any acceptance failures, and the
    benchmark metrics for the JSON artifact.
    """
    from repro.obs.bench import BenchMetric
    from repro.service import AttackService, ServiceClient, run_load

    bench_metrics = []

    depths = [int(d) for d in args.depths.split(",")]
    # Rotate over pages that are full at *every* depth, so each request
    # serves identical work and depth is the only variable.  (Deep
    # offsets would measure the O(offset) skip; offsets past the end of
    # the shallow store would compare full pages against empty ones.)
    pages = max(1, min(depths) // args.page)
    sections, failures = [], []
    p50s = {}
    for depth in depths:
        store = deep_store(scratch, depth)
        service = AttackService(
            store=store, queue_path=scratch / f"q_{depth}.jsonl"
        )
        service.start()
        try:
            client = ServiceClient(service.url, timeout=30.0)

            def page(i: int) -> None:
                out = client.results_page(
                    limit=args.page,
                    offset=args.page * (i % pages),
                )
                if out["total"] != depth:
                    raise RuntimeError(
                        f"expected {depth} records, saw {out['total']}"
                    )

            run_load(page, 20, 1, "warmup")
            report = run_load(
                page,
                args.requests,
                args.concurrency,
                label=f"GET /results?limit={args.page} [{depth} records]",
            )
            sections.append(report)
            p50s[depth] = report.percentile(50)
            if report.errors:
                failures.append(f"@{depth}: {report.errors} errors")
        finally:
            service.stop()
    ratio = p50s[depths[-1]] / max(p50s[depths[0]], 1e-9)
    flat = ratio <= 1.0 + args.tolerance
    bench_metrics.append(BenchMetric(
        "deep_jsonl_p50_ms", 1e3 * p50s[depths[-1]], unit="ms",
    ))
    print(
        f"p50 {1e3 * p50s[depths[0]]:.2f} ms @ {depths[0]} -> "
        f"{1e3 * p50s[depths[-1]]:.2f} ms @ {depths[-1]} records "
        f"(x{ratio:.2f}) {'FLAT' if flat else 'NOT FLAT'}"
    )
    if not flat:
        failures.append(
            f"p50 grew x{ratio:.2f} from {depths[0]} to {depths[-1]} "
            f"records (tolerance x{1.0 + args.tolerance:.2f})"
        )
    # Hundreds of clients paging the deepest store at once.
    service = AttackService(
        store=store, queue_path=scratch / "q_clients.jsonl"
    )
    service.start()
    try:
        client = ServiceClient(service.url, timeout=60.0)
        swarm = run_load(
            lambda i: client.results_page(
                limit=args.page,
                offset=args.page * (i % pages),
            ),
            args.clients * 10,
            args.clients,
            label=(
                f"GET /results?limit={args.page} "
                f"[{depths[-1]} records, {args.clients} clients]"
            ),
        )
        sections.append(swarm)
        bench_metrics.append(BenchMetric(
            "swarm_throughput_rps", swarm.throughput_rps,
            unit="req/s", direction="higher",
        ))
        if swarm.errors:
            failures.append(f"client swarm: {swarm.errors} errors")
    finally:
        service.stop()
    return sections, failures, bench_metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=300)
    parser.add_argument("--concurrency", "-c", type=int, default=4)
    parser.add_argument(
        "--real", action="store_true",
        help="replay the golden warm-cache sweep instead of synthetic "
        "records",
    )
    parser.add_argument(
        "--scenario", choices=("replay", "deep-history", "all"),
        default="replay",
    )
    parser.add_argument(
        "--depths", default="100,10000",
        help="comma-separated store depths for --scenario deep-history",
    )
    parser.add_argument(
        "--page", type=int, default=20,
        help="page size for the deep-history paginated reads",
    )
    parser.add_argument(
        "--clients", type=int, default=200,
        help="client threads for the deep-history swarm stage",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional p50 growth across the depth range",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "results" / "bench_service.txt")
    )
    parser.add_argument("--label", default="run")
    parser.add_argument(
        "--emit-json", metavar="PATH", nargs="?",
        const=str(REPO_ROOT / "BENCH_service.json"), default=None,
        help="write the versioned benchmark artifact here (default path "
        "when the flag is given bare: BENCH_service.json at the repo "
        "root; gate it with `repro bench compare`)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="sample the run with the stdlib profiler and print the "
        "hottest stacks",
    )
    args = parser.parse_args()

    # The benchmark must not touch the repository's committed results;
    # the service gets a scratch store + journal of its own.
    scratch = Path(tempfile.mkdtemp(prefix="repro_bench_service_"))
    os.environ["REPRO_RESULTS_DIR"] = str(scratch)

    from repro.core.atomic import atomic_write_text
    from repro.experiments import ResultsStore
    from repro.obs.bench import BenchMetric, make_artifact, write_artifact
    from repro.obs.profile import SamplingProfiler
    from repro.service import AttackService, ServiceClient, run_load

    profiler = SamplingProfiler().start() if args.profile else None

    def finish(code: int, bench_metrics: list) -> int:
        if profiler is not None:
            profiler.stop()
            print(f"profile ({profiler.samples} samples, hottest stacks):")
            for line in profiler.render_collapsed().splitlines()[:10]:
                print(f"  {line}")
        if args.emit_json:
            artifact = make_artifact(
                suite="service",
                metrics=bench_metrics,
                label=args.label,
                context={
                    "scenario": args.scenario,
                    "requests": args.requests,
                    "concurrency": args.concurrency,
                    "real": args.real,
                },
                repo_root=REPO_ROOT,
            )
            path = write_artifact(args.emit_json, artifact)
            print(f"wrote {path}")
        return code

    sections: list = []
    failures: list[str] = []
    bench_metrics: list = []
    if args.scenario in ("deep-history", "all"):
        deep_sections, deep_failures, deep_metrics = (
            deep_history_scenario(args, scratch)
        )
        sections.extend(deep_sections)
        failures.extend(deep_failures)
        bench_metrics.extend(deep_metrics)
        if args.scenario == "deep-history":
            text = "\n\n".join(s.render() for s in sections) + "\n"
            print(text)
            out_path = Path(args.out)
            out_path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(out_path, text)
            print(f"wrote {out_path}")
            ok = not failures
            print(
                "acceptance (p50 flat across depths, 0 errors): "
                + ("PASS" if ok else "FAIL: " + "; ".join(failures))
            )
            return finish(0 if ok else 1, bench_metrics)

    store = ResultsStore(scratch / "experiments.jsonl")
    if args.real:
        seeded = golden_store(store)
        payloads = [{
            "specs": [
                {"design": d, "split_layer": 3, "attack": "proximity"}
                for d in ("c432", "c880")
            ]
        }]
    else:
        seeded = synthetic_store(store, DEFAULT_GRIDS)
        payloads = [
            {"grid": name, "params": params}
            for name, params in DEFAULT_GRIDS
        ]
    print(f"seeded {seeded} records into {store.path}")

    service = AttackService(store=store, queue_path=scratch / "queue.jsonl")
    service.start()
    try:
        client = ServiceClient(service.url, timeout=30.0)

        def submit_and_wait(i: int) -> None:
            payload = payloads[i % len(payloads)]
            out = client.submit(**payload)
            if out["outcome"] != "from_store":
                # Fully-cached replay must never schedule DAG work.
                raise RuntimeError(f"unexpected outcome {out['outcome']}")
            view = client.job(out["job"]["job_id"])
            if view["status"] != "done":
                raise RuntimeError(f"job not done: {view['status']}")

        # Warm-up (connection setup, grid expansion caches)
        run_load(submit_and_wait, min(10, args.requests), 1, "warmup")
        report = run_load(
            submit_and_wait,
            args.requests,
            args.concurrency,
            label="fully-cached grid replay (submit + status over HTTP)",
        )
        queries = run_load(
            lambda i: client.results(attack="dl"),
            args.requests,
            args.concurrency,
            label="GET /results?attack=dl",
        )
        metrics_snapshot = scrape_snapshot(client)
    finally:
        service.stop()

    sections.extend([report, queries])
    bench_metrics.extend([
        BenchMetric(
            "replay_throughput_rps", report.throughput_rps,
            unit="req/s", direction="higher",
        ),
        BenchMetric("replay_p50_ms", 1e3 * report.percentile(50), unit="ms"),
        BenchMetric("replay_p99_ms", 1e3 * report.percentile(99), unit="ms"),
        BenchMetric(
            "results_query_throughput_rps", queries.throughput_rps,
            unit="req/s", direction="higher",
        ),
    ])
    text = "\n\n".join(s.render() for s in sections) + "\n"
    text += "\n" + metrics_snapshot + "\n"
    print(text)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_path, text)
    print(f"wrote {out_path}")
    if report.throughput_rps < 50:
        failures.append(
            f"replay throughput {report.throughput_rps:.1f} req/s < 50"
        )
    if report.errors:
        failures.append(f"replay: {report.errors} errors")
    ok = not failures
    print(
        "acceptance (>=50 req/s replay, flat deep-history p50, 0 errors): "
        + ("PASS" if ok else "FAIL: " + "; ".join(failures))
    )
    return finish(0 if ok else 1, bench_metrics)


if __name__ == "__main__":
    raise SystemExit(main())
