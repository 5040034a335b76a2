"""Command-line interface: ``python -m repro <command>``.

Commands
--------
info        package, library and benchmark-suite overview
quickstart  minutes-scale end-to-end demo (tiny designs, M3 split)
build       place & route one named design, print stats, optionally
            write the DEF-like layout
attack      run one or more attacks on a named design at a split layer
table3      regenerate (a subset of) Table 3
figure5     regenerate the Figure 5 ablation
defense     sweep the placement/lifting defenses on one design
scenarios   list registered scenario grids, or expand one into specs
sweep       run a registered scenario grid through the DAG engine
serve       run the attack service (job queue + scheduler + HTTP API)
submit      submit a grid or spec file to a running service (or cancel
            a submitted job with ``--cancel JOB_ID``)
trace       render one job's span tree (or ``--flame`` view) from a
            running service's trace buffer
health      evaluate a running service's SLO rules; exit 0 ok /
            1 degraded / 2 critical (CI- and cron-usable)
profile     sample a running service's threads for N seconds and
            print flamegraph-compatible collapsed stacks
bench       compare a BENCH_*.json benchmark artifact against a
            committed baseline; non-zero exit on regression
report      summarise the results store (slowest nodes, cache hits);
            ``--limit`` / ``--offset`` page through deep histories
check       run the stdlib-ast invariant checker over the tree; exit
            0 clean / 1 new findings / 2 analyzer error (the CI
            static-analysis gate)

Every execution command is a thin argument parser over
:class:`repro.api.Client`: ``attack``, ``table3``, ``figure5``,
``defense`` and ``sweep`` drive the local backend (``--workers N`` /
``REPRO_WORKERS`` fans the DAG out over worker processes coordinated
by the ``.repro_cache`` disk cache), ``submit`` drives the service
backend against ``--url``.  ``table3``, ``figure5`` and ``defense``
run their registry grid (``client.run(grid, params).report()``); an
option left unset takes the grid's default.  Results append to the
queryable store (``results/experiments.jsonl`` by default; relocate
with ``REPRO_RESULTS_DIR`` or ``--store``), and scenarios already in
the store are resumed, not recomputed — pass ``--fresh`` to force
re-evaluation, or ``--no-store`` (``table3``/``figure5``/``defense``)
to skip recording entirely.
"""

from __future__ import annotations

import argparse
import json
import sys


def _open_client(args, backend: str = "local", events: bool = True):
    from repro.api import Client, message_printer

    store = getattr(args, "store", None) or None
    if getattr(args, "no_store", False):
        store = False
    return Client(
        backend=backend,
        store=store,
        workers=getattr(args, "workers", None),
        url=getattr(args, "url", None),
        on_event=message_printer() if events else None,
    )


def cmd_info(_args) -> int:
    import repro
    from repro.cells import default_library
    from repro.netlist import TABLE3_SPECS, TRAINING_DESIGNS, VALIDATION_DESIGNS

    lib = default_library()
    print(f"repro {repro.__version__} — DAC'19 split-manufacturing DL attack")
    print(f"cell library: {lib.name} ({len(lib)} cells)")
    print(
        f"design suites: {len(TABLE3_SPECS)} attack designs, "
        f"{len(TRAINING_DESIGNS)} training, {len(VALIDATION_DESIGNS)} validation"
    )
    print("attack designs (scaled gate targets):")
    for spec in TABLE3_SPECS:
        print(
            f"  {spec.name:8s} {spec.flavor:6s} target={spec.target_gates:5d} "
            f"(paper M1 #Sk={spec.m1.sinks})"
        )
    return 0


def cmd_quickstart(_args) -> int:
    from repro import quick_attack_demo

    print(quick_attack_demo())
    return 0


def cmd_build(args) -> int:
    from repro.core.atomic import atomic_write_text
    from repro.layout import write_def
    from repro.pipeline import get_defended_layout

    design = get_defended_layout(args.design)
    for key, value in design.stats().items():
        print(f"  {key}: {value}")
    if args.out:
        from pathlib import Path

        atomic_write_text(Path(args.out), write_def(design))
        print(f"wrote {args.out}")
    return 0


def _open_store(args):
    from repro.experiments import ResultsStore

    return ResultsStore(getattr(args, "store", None) or None)


def cmd_attack(args) -> int:
    # Single-design runs go through the same facade as the big
    # harnesses, so they share the layout/feature/weight caches, the
    # --workers fan-out and the results store.
    with _open_client(args, events=False) as client:
        result = client.attack(
            args.design,
            split_layer=args.layer,
            attacks=tuple(
                a for a in ("proximity", "flow", "dl") if a in args.attacks
            ),
            resume=not args.fresh,
        )
    # Fragment counts come from the records, so a fully store-resumed
    # invocation never has to build the layout just for this banner.
    sizes = result.records[0]
    print(
        f"{args.design} M{args.layer}: {sizes.n_sink_fragments} sink / "
        f"{sizes.n_source_fragments} source fragments"
    )
    shown = {"proximity": "proximity", "flow": "networkflow", "dl": "dl"}
    for spec, record in zip(result.specs, result.records):
        name = shown[spec.attack]
        if record.status != "ok":
            print(f"  {name:11s} {record.status}")
            continue
        print(f"  {name:11s} CCR={record.ccr:6.2f}% "
              f"({record.runtime_s:.2f}s)")
    return 0


def _run_report(args, grid: str, **params) -> int:
    """Run a paper grid and print its report.  Only the options the
    user gave become grid params; the grid holds every default."""
    params = {k: v for k, v in params.items() if v is not None}
    with _open_client(args) as client:
        result = client.run(grid, params, resume=not args.fresh)
    print(result.report().render())
    return 0


def cmd_table3(args) -> int:
    return _run_report(
        args,
        "table3",
        designs=args.designs or None,
        split_layers=args.layers and tuple(args.layers),
        flow_timeout_s=args.flow_timeout,
    )


def cmd_figure5(args) -> int:
    return _run_report(args, "figure5", designs=args.designs)


def cmd_defense(args) -> int:
    return _run_report(
        args,
        "defense-sweep",
        design=args.design,
        split_layer=args.layer,
        with_flow=False if args.no_flow else None,
    )


def _parse_grid_params(pairs) -> dict:
    """``--param key=value`` pairs; values are JSON, else comma lists,
    else raw strings."""
    params = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = tuple(raw.split(",")) if "," in raw else raw
        params[key.replace("-", "_")] = value
    return params


def cmd_scenarios(args) -> int:
    from repro.experiments import build_grid, list_grids

    if not args.grid:
        print("registered scenario grids:")
        for grid in list_grids():
            print(f"  {grid.name:15s} {grid.description}")
            defaults = ", ".join(
                f"{k}={v!r}" for k, v in grid.parameters().items()
            )
            print(f"  {'':15s} params: {defaults}")
        return 0
    specs = build_grid(args.grid, **_parse_grid_params(args.param))
    for spec in specs:
        print(spec.describe())
    print(f"{len(specs)} scenarios ({len({s.scenario_hash for s in specs})} "
          "distinct)")
    return 0


def cmd_sweep(args) -> int:
    from repro.api import EmptySubmission

    params = _parse_grid_params(args.param)
    with _open_client(args) as client:
        try:
            job = client.submit(args.grid, params, resume=not args.fresh)
        except EmptySubmission:
            print(f"grid {args.grid!r} expanded to 0 scenarios")
            return 0
        result = job.wait()
    print(result.render())
    print(
        f"{result.executed} evaluated, {result.reused} from store "
        f"-> {client.store.path}"
    )
    return 0


def cmd_serve(args) -> int:
    from repro.service import DEFAULT_COMPACT_TTL_S, AttackService

    service = AttackService(
        host=args.host,
        port=args.port,
        store=_open_store(args),
        queue_path=args.queue or None,
        workers=args.workers,
        log_json=args.log_json,
        progress=lambda m: print(f"  .. {m}"),
        # --compact drops every terminal job from the journal at
        # startup; the default keeps a week of history; --no-compact
        # leaves the journal alone (secondary process on a shared
        # --queue).
        compact_ttl_s=(
            None if args.no_compact
            else 0.0 if args.compact
            else DEFAULT_COMPACT_TTL_S
        ),
        schedulers=args.schedulers,
    )
    service.start()
    print(f"repro attack service listening on {service.url}")
    print(f"  results store: {service.store.path}")
    print(f"  job journal:   {service.queue.path}")
    print(
        f"  schedulers:    "
        + ", ".join(s.worker_id for s in service.schedulers)
    )
    if service.compaction_skipped:
        print("  journal compaction skipped: live leases present "
              "(another serve process is working this journal)")
    if service.compacted_jobs:
        print(f"  journal compacted: {service.compacted_jobs} "
              "terminal jobs dropped")
    print("  POST /jobs | GET|DELETE /jobs/<id> | GET /results | /healthz")
    print("  GET /metrics (Prometheus text) | GET /debug/traces?job=ID")
    print("  GET /slo (SLO verdicts) | GET /debug/profile?seconds=N")
    try:
        import threading

        threading.Event().wait()  # serve until interrupted
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        service.stop()
    return 0


def cmd_submit(args) -> int:
    from repro.api import BackendError, JobCancelled

    client = _open_client(args, backend="service", events=False)
    if args.cancel:
        from repro.service.client import ServiceClientError

        try:
            cancelled = client.cancel(args.cancel)
        except ServiceClientError as err:
            print(f"cancel {args.cancel}: {err}")
            return 1
        print(
            f"{'cancelled' if cancelled else 'not cancelled (terminal)'}"
            f": {args.cancel}"
        )
        return 0 if cancelled else 1
    if not args.grid and not args.spec_file:
        raise SystemExit("submit needs a grid name, --spec-file or --cancel")
    if args.spec_file:
        with open(args.spec_file) as handle:
            specs = json.load(handle)
        if isinstance(specs, dict):
            specs = [specs]
        job = client.submit(specs, priority=args.priority)
    else:
        job = client.submit(
            args.grid, _parse_grid_params(args.param),
            priority=args.priority,
        )
    print(
        f"{job.outcome}: {job.job_id} "
        f"({len(job.specs)} scenarios, priority {job.priority})"
    )
    if not args.wait:
        return 0
    try:
        result = job.wait(timeout=args.timeout)
    except (BackendError, JobCancelled) as err:
        print(f"job {job.status}: {err}")
        return 1
    print(result.render(title=f"job {job.job_id}"))
    return 0


def cmd_trace(args) -> int:
    from repro.service.client import ServiceClient, ServiceClientError

    client = ServiceClient(args.url, timeout=10.0)
    try:
        if args.job_id is None:
            listing = client.traces()
            traces = listing.get("traces", [])
            print(
                f"{len(traces)} traces resident "
                f"({listing.get('spans_resident', 0)} spans, "
                f"capacity {listing.get('capacity', 0)})"
            )
            for trace_id in traces:
                print(f"  {trace_id}")
            return 0
        view = client.traces(
            trace_id=args.job_id if args.trace else None,
            job_id=None if args.trace else args.job_id,
        )
    except ServiceClientError as err:
        print(f"trace {args.job_id or ''}: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"cannot reach {args.url}: {err}", file=sys.stderr)
        return 1
    if not view.get("spans"):
        # Known trace id but every span already evicted from the ring
        # buffer (or none recorded yet): nothing to render is a
        # failure for scripts polling a trace, not a silent success.
        print(
            f"trace {args.job_id}: no spans found (evicted from the "
            f"ring buffer, or the job has not started)",
            file=sys.stderr,
        )
        return 1
    label = view.get("job_id") or view["trace_id"]
    print(f"trace {view['trace_id']} ({len(view['spans'])} spans)"
          + (f" for job {label}" if view.get("job_id") else ""))
    print(view["flame" if args.flame else "tree"])
    return 0


def cmd_health(args) -> int:
    from repro.obs.health import EXIT_CODES
    from repro.service.client import ServiceClient, ServiceClientError

    client = ServiceClient(args.url, timeout=10.0)
    try:
        report = client.slo()
    except ServiceClientError as err:
        print(f"health: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"cannot reach {args.url}: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"slo verdict: {report['verdict'].upper()}")
        for reason in report["reasons"]:
            print(f"  !! {reason}")
        for rule in report["rules"]:
            value = rule["value"]
            shown = "no data" if value is None else f"{value:g}{rule['unit']}"
            print(
                f"  [{rule['verdict']:8s}] {rule['rule']:24s} {shown:>12s}"
                f"  (degraded {rule['degraded']:g}{rule['unit']}, "
                f"critical {rule['critical']:g}{rule['unit']})"
            )
    return EXIT_CODES.get(report["verdict"], 2)


def cmd_profile(args) -> int:
    from repro.service.client import ServiceClient, ServiceClientError

    client = ServiceClient(args.url, timeout=10.0)
    try:
        view = client.profile(seconds=args.seconds, hz=args.hz)
    except ServiceClientError as err:
        print(f"profile: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"cannot reach {args.url}: {err}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(view, indent=2))
        return 0
    print(
        f"# {view['samples']} samples at {view['hz']:g} Hz over "
        f"{view['seconds']:g}s ({len(view['stacks'])} distinct stacks)"
    )
    if args.top:
        for entry in view["top"][:args.top]:
            print(f"  {entry['count']:6d}  {entry['function']}")
        return 0
    # flamegraph.pl interchange: "stack count" lines on stdout.
    for entry in view["stacks"]:
        print(f"{entry['stack']} {entry['count']}")
    return 0


def cmd_bench_compare(args) -> int:
    from repro.obs.bench import compare_artifacts, load_artifact

    try:
        current = load_artifact(args.current)
        baseline = load_artifact(args.baseline)
    except (OSError, ValueError) as err:
        print(f"bench compare: {err}", file=sys.stderr)
        return 2
    try:
        comparison = compare_artifacts(
            current, baseline, tolerance=args.tolerance
        )
    except ValueError as err:
        print(f"bench compare: {err}", file=sys.stderr)
        return 2
    print(comparison.render())
    return 1 if comparison.regressions else 0


def cmd_report(args) -> int:
    from repro.experiments import store_summary

    store = _open_store(args)
    records = store.query(
        design=args.design,
        attack=args.attack,
        tag=args.tag,
        status=args.status,
        limit=args.limit,
        offset=args.offset,
    )
    title = str(store.path)
    if args.limit is not None or args.offset:
        total = store.count(
            design=args.design,
            attack=args.attack,
            tag=args.tag,
            status=args.status,
        )
        title += (
            f" (records {args.offset + 1}-"
            f"{args.offset + len(records)} of {total})"
        )
    print(store_summary(records, top=args.top, title=title))
    return 0


def cmd_check(args) -> int:
    from repro.analysis.cli import run_check

    return run_check(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DAC'19 split-manufacturing DL-attack reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package overview").set_defaults(fn=cmd_info)
    sub.add_parser("quickstart", help="minutes-scale demo").set_defaults(
        fn=cmd_quickstart
    )

    p_build = sub.add_parser("build", help="place & route a design")
    p_build.add_argument("design")
    p_build.add_argument("--out", help="write DEF-like layout here")
    p_build.set_defaults(fn=cmd_build)

    workers_help = (
        "worker processes (default: $REPRO_WORKERS or serial; 0 = all cores)"
    )
    grid_default = "default: the grid's (list them with `repro scenarios`)"
    store_help = (
        "results store JSONL (default: $REPRO_RESULTS_DIR or "
        "results/experiments.jsonl)"
    )

    p_attack = sub.add_parser("attack", help="attack a design")
    p_attack.add_argument("design")
    p_attack.add_argument("--layer", type=int, default=3)
    p_attack.add_argument(
        "--attacks", nargs="+", default=["proximity", "flow"],
        choices=["proximity", "flow", "dl"],
        help="dl trains/loads the benchmark-config model (slow cold)",
    )
    p_attack.add_argument(
        "--workers", type=int, default=None, help=workers_help
    )
    p_attack.add_argument("--store", default=None, help=store_help)
    p_attack.add_argument(
        "--fresh", action="store_true",
        help="re-evaluate even if the results store has these scenarios",
    )
    p_attack.set_defaults(fn=cmd_attack)

    p_t3 = sub.add_parser("table3", help="regenerate Table 3")
    p_t3.add_argument(
        "--designs", nargs="*", default=None, help=grid_default
    )
    p_t3.add_argument(
        "--layers", type=int, nargs="+", default=None, help=grid_default
    )
    p_t3.add_argument(
        "--flow-timeout", type=float, default=None,
        help=f"flow-attack budget per cell, seconds; {grid_default}",
    )
    p_t3.add_argument("--workers", type=int, default=None, help=workers_help)
    p_t3.add_argument("--store", default=None, help=store_help)
    p_t3.add_argument(
        "--no-store", action="store_true",
        help="run without recording to (or resuming from) the results store",
    )
    p_t3.add_argument(
        "--fresh", action="store_true",
        help="re-evaluate even if the results store has these scenarios",
    )
    p_t3.set_defaults(fn=cmd_table3)

    p_f5 = sub.add_parser("figure5", help="regenerate Figure 5")
    p_f5.add_argument(
        "--designs", nargs="+", default=None, help=grid_default
    )
    p_f5.add_argument("--workers", type=int, default=None, help=workers_help)
    p_f5.add_argument("--store", default=None, help=store_help)
    p_f5.add_argument(
        "--no-store", action="store_true",
        help="run without recording to (or resuming from) the results store",
    )
    p_f5.add_argument(
        "--fresh", action="store_true",
        help="re-evaluate even if the results store has these scenarios",
    )
    p_f5.set_defaults(fn=cmd_figure5)

    p_def = sub.add_parser("defense", help="defense sweep on one design")
    p_def.add_argument("design")
    p_def.add_argument(
        "--layer", type=int, default=None, help=grid_default
    )
    p_def.add_argument(
        "--no-flow", action="store_true",
        help="skip the (slow) network-flow attack",
    )
    p_def.add_argument("--workers", type=int, default=None, help=workers_help)
    p_def.add_argument("--store", default=None, help=store_help)
    p_def.add_argument(
        "--no-store", action="store_true",
        help="run without recording to (or resuming from) the results store",
    )
    p_def.add_argument(
        "--fresh", action="store_true",
        help="re-evaluate even if the results store has these scenarios",
    )
    p_def.set_defaults(fn=cmd_defense)

    p_sc = sub.add_parser(
        "scenarios", help="list scenario grids / expand one into specs"
    )
    p_sc.add_argument("grid", nargs="?", default=None)
    p_sc.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="grid parameter (JSON value, comma list, or raw string); "
        "repeatable",
    )
    p_sc.set_defaults(fn=cmd_scenarios)

    p_sw = sub.add_parser(
        "sweep", help="run a registered scenario grid through the DAG engine"
    )
    p_sw.add_argument("grid")
    p_sw.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="grid parameter (JSON value, comma list, or raw string); "
        "repeatable",
    )
    p_sw.add_argument("--workers", type=int, default=None, help=workers_help)
    p_sw.add_argument("--store", default=None, help=store_help)
    p_sw.add_argument(
        "--fresh", action="store_true",
        help="re-evaluate even if the results store has these scenarios",
    )
    p_sw.set_defaults(fn=cmd_sweep)

    p_srv = sub.add_parser(
        "serve", help="run the attack service (queue + scheduler + HTTP)"
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=8732, help="0 = ephemeral port"
    )
    p_srv.add_argument("--workers", type=int, default=None, help=workers_help)
    p_srv.add_argument("--store", default=None, help=store_help)
    p_srv.add_argument(
        "--queue", default=None,
        help="job journal JSONL (default: results/service_queue.jsonl)",
    )
    p_srv.add_argument(
        "--compact", action="store_true",
        help="drop ALL terminal jobs from the journal at startup "
        "(default: terminal jobs older than 7 days)",
    )
    p_srv.add_argument(
        "--schedulers", type=int, default=1,
        help="scheduler threads sharing the journal via leased claims; "
        "a second serve process on the same --queue cooperates the "
        "same way (default: 1)",
    )
    p_srv.add_argument(
        "--no-compact", action="store_true",
        help="never compact the journal at startup (use for secondary "
        "serve processes sharing a --queue; compaction is also skipped "
        "automatically when live leases are present)",
    )
    p_srv.add_argument(
        "--log-json", action="store_true",
        help="emit one JSON line per request/node/lease event on stdout "
        "(with trace ids, for log aggregation)",
    )
    p_srv.set_defaults(fn=cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="submit a sweep to a running attack service"
    )
    p_sub.add_argument(
        "grid", nargs="?", default=None,
        help="registered grid name (or use --spec-file)",
    )
    p_sub.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="grid parameter (JSON value, comma list, or raw string); "
        "repeatable",
    )
    p_sub.add_argument(
        "--spec-file", default=None,
        help="JSON file with one spec dict or a list of them",
    )
    p_sub.add_argument("--url", default="http://127.0.0.1:8732")
    p_sub.add_argument("--priority", type=int, default=0)
    p_sub.add_argument(
        "--cancel", metavar="JOB_ID", default=None,
        help="cancel a submitted job instead of submitting",
    )
    p_sub.add_argument(
        "--wait", action="store_true",
        help="stream the job's events until it finishes, then print "
        "its records",
    )
    p_sub.add_argument("--timeout", type=float, default=3600.0)
    p_sub.set_defaults(fn=cmd_submit)

    p_tr = sub.add_parser(
        "trace",
        help="render a job's span tree from a running service "
        "(GET /debug/traces)",
    )
    p_tr.add_argument(
        "job_id", nargs="?", default=None,
        help="job id (default: list resident trace ids)",
    )
    p_tr.add_argument("--url", default="http://127.0.0.1:8732")
    p_tr.add_argument(
        "--trace", action="store_true",
        help="treat the positional argument as a trace id, not a job id",
    )
    p_tr.add_argument(
        "--flame", action="store_true",
        help="render a flame view (time-scaled bars) instead of the tree",
    )
    p_tr.set_defaults(fn=cmd_trace)

    p_h = sub.add_parser(
        "health",
        help="evaluate a running service's SLO rules (GET /slo); exit "
        "0 ok / 1 degraded / 2 critical",
    )
    p_h.add_argument("--url", default="http://127.0.0.1:8732")
    p_h.add_argument(
        "--json", action="store_true", help="print the raw /slo payload"
    )
    p_h.set_defaults(fn=cmd_health)

    p_prof = sub.add_parser(
        "profile",
        help="sample a running service's threads (GET /debug/profile) "
        "and print collapsed stacks",
    )
    p_prof.add_argument("--url", default="http://127.0.0.1:8732")
    p_prof.add_argument(
        "--seconds", type=float, default=1.0,
        help="sampling window (server caps at 30s)",
    )
    p_prof.add_argument(
        "--hz", type=float, default=None,
        help="sampling rate (default: server's 67 Hz)",
    )
    p_prof.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="print the N hottest leaf functions instead of stacks",
    )
    p_prof.add_argument(
        "--json", action="store_true",
        help="print the raw /debug/profile payload",
    )
    p_prof.set_defaults(fn=cmd_profile)

    p_bench = sub.add_parser(
        "bench", help="benchmark-artifact tooling (BENCH_*.json)"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_cmp = bench_sub.add_parser(
        "compare",
        help="compare a benchmark artifact against a baseline; exit 1 "
        "on regression (the CI perf gate)",
    )
    p_cmp.add_argument(
        "current", help="freshly emitted BENCH_*.json artifact"
    )
    p_cmp.add_argument(
        "--baseline", required=True,
        help="committed baseline artifact (results/baselines/...)",
    )
    p_cmp.add_argument(
        "--tolerance", type=float, default=0.2,
        help="allowed worsening fraction before a metric counts as a "
        "regression (0.2 = 20%% worse; default 0.2)",
    )
    p_cmp.set_defaults(fn=cmd_bench_compare)

    p_rep = sub.add_parser(
        "report", help="summarise the results store (telemetry, cache hits)"
    )
    p_rep.add_argument("--store", default=None, help=store_help)
    p_rep.add_argument("--design", default=None)
    p_rep.add_argument("--attack", default=None)
    p_rep.add_argument("--tag", default=None)
    p_rep.add_argument("--status", default=None)
    p_rep.add_argument(
        "--top", type=int, default=10, help="slowest nodes to list"
    )
    p_rep.add_argument(
        "--limit", type=int, default=None,
        help="cap the records summarised (page size)",
    )
    p_rep.add_argument(
        "--offset", type=int, default=0,
        help="records to skip before the page starts",
    )
    p_rep.set_defaults(fn=cmd_report)

    p_chk = sub.add_parser(
        "check",
        help="run the stdlib-ast invariant checker (lock discipline, "
        "atomic writes, journal exhaustiveness, ...); exit 0 clean / "
        "1 new findings / 2 analyzer error",
    )
    from repro.analysis.cli import add_check_arguments

    add_check_arguments(p_chk)
    p_chk.set_defaults(fn=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
