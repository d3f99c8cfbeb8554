"""Command-line interface for the figure reproductions.

Usage::

    repro-sync list
    repro-sync fig04 [--fast]
    repro-sync all --fast
    repro-sync fig10 --jobs 4          # fan seed runs over 4 processes
    repro-sync fig10 --no-cache        # force recomputation
    repro-sync fig10 --resume          # journal + resume interrupted runs
    repro-sync fig10 --engine batch    # one kernel per ensemble (same numbers)
    repro-sync bench                   # parallel-layer perf snapshot
    repro-sync bench --obs             # obs-overhead snapshot (BENCH_obs.json)
    repro-sync bench --serve           # loopback serving snapshot (BENCH_serve.json)
    repro-sync bench --batch           # batched-kernel snapshot (BENCH_batch.json)
    repro-sync serve --port 8793       # run the simulation-serving API
    repro-sync loadgen --clients 8     # seeded load against a running server
    repro-sync cache verify            # audit results/cache/ entries
    repro-sync cache repair            # quarantine corrupt, sweep stale tmp
    repro-sync cache clear             # drop every cached result
    repro-sync claims list             # inventory single-flight claim files
    repro-sync claims gc               # prune stale claims + tombstones
    repro-sync campaign run study.toml           # run a parameter study
    repro-sync campaign run study.toml --shard 0/4   # one shard of it
    repro-sync campaign run study.toml --dispatch serve --endpoints host:8793
    repro-sync campaign status study.toml --shard 0/4    # progress per shard
    repro-sync campaign report study.toml -o report.json # tables from cache
    repro-sync campaign shard study.toml --shard 0/4     # shard manifest
    repro-sync campaign report study.toml --plot         # ASCII curves
    repro-sync bench --campaign        # dispatch-overhead snapshot (BENCH_campaign.json)
    repro-sync predict build table-spec.toml     # campaign -> prediction table
    repro-sync predict eval TABLE --point 10,20,0.3,0.1  # one surrogate answer
    repro-sync predict verify TABLE    # audit bounds on fresh seeds
    repro-sync serve --predict-table TABLE       # enable POST /v1/predict
    repro-sync bench --predict         # surrogate-vs-simulate snapshot (BENCH_predict.json)
    repro-sync fig10 --trace results/trace.jsonl   # record a trace
    repro-sync obs summary results/trace.jsonl     # aggregate it
    repro-sync obs export-trace results/trace.jsonl  # -> Perfetto JSON
    repro-sync fig10 --profile         # merged cProfile top-N

(``python -m repro`` is equivalent.)  Simulation-backed figures cache
completed runs under ``results/cache/`` keyed by job content, so
re-running a figure is nearly free; ``--no-cache`` opts out and
``--jobs`` sets the process-pool width (results are identical either
way).  ``--resume`` additionally journals every completed simulation
to ``results/checkpoints/<run-id>.jsonl`` as it finishes, so a run
killed mid-way (Ctrl-C, OOM, power loss) restarts from where it
stopped — pass it from the start on long runs.

Observability (``repro.obs``) is strictly inert — every figure and
table is byte-identical with it on or off.  ``--trace PATH`` records
spans/events/metrics to a JSONL log (the ``obs`` target reads it);
``--metrics`` prints the metric snapshot to stderr after the run;
``--profile`` merges cProfile across every worker process;
``--verbose``/``--quiet`` raise/lower which structured events reach
the terminal.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .registry import figure_ids, run_figure

__all__ = ["main", "build_parser"]


def _render_plots(result) -> str:
    """ASCII-plot every series of a figure result (metrics first)."""
    from ..analysis.asciiplot import scatter

    lines = [f"== {result.figure_id}: {result.title} =="]
    for key, value in result.metrics.items():
        lines.append(f"  {key}: {value}")
    for name, points in result.series.items():
        numeric = [
            (x, y) for x, y in points
            if isinstance(x, (int, float)) and isinstance(y, (int, float))
        ]
        lines.append("")
        try:
            lines.append(scatter(numeric, title=name))
        except ValueError as error:
            lines.append(f"  [series {name!r} not plottable: {error}]")
    for note in result.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-sync",
        description=(
            "Reproduce figures from Floyd & Jacobson, 'The Synchronization "
            "of Periodic Routing Messages' (SIGCOMM 1993)."
        ),
    )
    parser.add_argument(
        "target",
        help=(
            "a figure id (fig01..fig18), 'all', 'list', 'bench', 'cache', "
            "'claims', 'campaign', 'predict', 'obs', 'serve', or 'loadgen'"
        ),
    )
    parser.add_argument(
        "action",
        nargs="?",
        default=None,
        help=(
            "for 'cache': verify (default) | repair | clear; "
            "for 'claims': list (default) | gc; "
            "for 'campaign': run (default) | status | report | shard; "
            "for 'predict': build (default) | eval | verify; "
            "for 'obs': summary (default) | export-trace | top"
        ),
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help=(
            "for the 'obs' target: the JSONL trace log to read "
            "(default results/trace.jsonl); for 'campaign': the "
            "campaign spec file (.toml or .json); for 'predict': the "
            "spec file (build) or a table path / 16-hex table id "
            "(eval, verify)"
        ),
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="use reduced-scale parameters (seconds instead of minutes)",
    )
    parser.add_argument(
        "--max-points",
        type=int,
        default=25,
        help="series points to print per figure (default 25)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render each series as an ASCII plot instead of a table",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for simulation fan-out (default: 1 for "
            "figures, the CPU count for 'bench'); results do not "
            "depend on this"
        ),
    )
    parser.add_argument(
        "--engine",
        default=None,
        metavar="NAME",
        help=(
            "simulation engine for figures, sweeps, and serving: des, "
            "cascade (default), or batch; every engine produces "
            "bit-identical results for the same seed"
        ),
    )
    parser.add_argument(
        "--topology",
        default=None,
        metavar="SPEC",
        help=(
            "coupling graph for figures that accept one (fig10/fig11): "
            "clique (default), ring, star, tree(b=B), "
            "erdos_renyi(p=P,seed=S), or switching(a|b,period=T); "
            "non-clique couplings are an off-paper what-if"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk result cache (results/cache/)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "journal completed simulations under results/checkpoints/ and "
            "resume any interrupted run of the same figure; pass it from "
            "the start on long runs (results do not depend on this)"
        ),
    )
    parser.add_argument(
        "--cache-root",
        default=None,
        metavar="DIR",
        help="cache directory for the 'cache' target (default results/cache)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "record spans/events/metrics and write a JSONL trace log to "
            "PATH after the run (read it back with the 'obs' target); "
            "results do not depend on this"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect metrics and print the snapshot to stderr after the run",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "profile the run under cProfile (merged across worker "
            "processes) and print the top functions to stderr"
        ),
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print info-level structured events (resumes, retries) as they happen",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="silence warning-level events (errors still print)",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help=(
            "for the 'bench' target: measure observability on/off overhead "
            "and write BENCH_obs.json instead of the parallel benchmark"
        ),
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help=(
            "for the 'bench' target: run the loopback serving benchmark "
            "and write BENCH_serve.json instead of the parallel benchmark"
        ),
    )
    parser.add_argument(
        "--batch",
        action="store_true",
        help=(
            "for the 'bench' target: benchmark the batched kernel "
            "(engine=batch, both backends) against the serial cascade "
            "engine and write BENCH_batch.json"
        ),
    )
    parser.add_argument(
        "--campaign",
        action="store_true",
        help=(
            "for the 'bench' target: benchmark campaign dispatch (local "
            "pool vs loopback serve fleet, warm-cache row) and write "
            "BENCH_campaign.json"
        ),
    )
    parser.add_argument(
        "--predict",
        action="store_true",
        help=(
            "for the 'bench' target: benchmark the prediction tier "
            "(surrogate vs warm-cache /v1/simulate, bound audit, "
            "fallback byte-identity) and write BENCH_predict.json"
        ),
    )
    predict = parser.add_argument_group(
        "prediction options (the 'predict' target)"
    )
    predict.add_argument(
        "--holdout",
        type=int,
        default=None,
        metavar="N",
        help=(
            "predict build: seeds per grid point held out of "
            "calibration to measure each cell's bound (default: a "
            "quarter of the spec's seeds, at least 1)"
        ),
    )
    predict.add_argument(
        "--point",
        default=None,
        metavar="N,TP,TC,TR",
        help="predict eval: the query point, comma-separated",
    )
    predict.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="X",
        help=(
            "predict eval: maximum acceptable relative error bound; "
            "an answer whose bound exceeds it reports fallback"
        ),
    )
    predict.add_argument(
        "--fresh-seeds",
        type=int,
        default=4,
        metavar="N",
        help=(
            "predict verify: fresh seeds per valid cell to audit the "
            "bounds against (default 4)"
        ),
    )
    campaign = parser.add_argument_group(
        "campaign options (the 'campaign' target)"
    )
    campaign.add_argument(
        "--shard",
        default=None,
        metavar="K/M",
        help=(
            "campaign: run/inspect shard K of M (0-based; default 0/1, "
            "the whole campaign); the shard map is a pure function of "
            "the spec, so any host can claim any shard"
        ),
    )
    campaign.add_argument(
        "--dispatch",
        choices=("local", "serve"),
        default="local",
        help=(
            "campaign run: execute on the local process pool (default) "
            "or fan out to serve endpoints (see --endpoints)"
        ),
    )
    campaign.add_argument(
        "--endpoints",
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help=(
            "campaign run --dispatch serve: the serve endpoints to fan "
            "out to (default 127.0.0.1:8793)"
        ),
    )
    campaign.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help=(
            "campaign run: jobs per commit chunk — the most compute a "
            "kill can lose (default 256)"
        ),
    )
    campaign.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "claims gc: prune claim files/tombstones older than this "
            "(default: the claim TTL)"
        ),
    )
    serving = parser.add_argument_group(
        "serving options (the 'serve' and 'loadgen' targets)"
    )
    serving.add_argument(
        "--host",
        default="127.0.0.1",
        help="listen/connect address (default 127.0.0.1)",
    )
    serving.add_argument(
        "--port",
        type=int,
        default=8793,
        help="listen/connect port; 0 asks the OS for a free port (default 8793)",
    )
    serving.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help=(
            "serve: admission limit — requests beyond N in flight shed "
            "with 429 Retry-After (default 64)"
        ),
    )
    serving.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "serve: per-request deadline; computations that outlive it "
            "answer 504 (default: none)"
        ),
    )
    serving.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "serve: worker processes; >= 2 runs the prefork supervisor "
            "(bind once, crash-respawn, cross-process single-flight; "
            "default 1)"
        ),
    )
    serving.add_argument(
        "--predict-table",
        default=None,
        metavar="TABLE",
        help=(
            "serve: load a prediction table (file path or 16-hex id "
            "under the cache root) and answer POST /v1/predict from "
            "it; without this every predict request falls back to "
            "simulation"
        ),
    )
    serving.add_argument(
        "--clients",
        type=int,
        default=4,
        metavar="N",
        help="loadgen: concurrent periodic clients (default 4)",
    )
    serving.add_argument(
        "--period",
        type=float,
        default=1.0,
        metavar="TP",
        help="loadgen: mean request period per client in seconds (default 1)",
    )
    serving.add_argument(
        "--load-jitter",
        type=float,
        default=0.5,
        metavar="TR",
        help=(
            "loadgen: timer jitter half-width — intervals are uniform in "
            "[TP-TR, TP+TR], the paper's own randomization (default 0.5)"
        ),
    )
    serving.add_argument(
        "--duration",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="loadgen: length of the generated schedule (default 10)",
    )
    serving.add_argument(
        "--seed",
        type=int,
        default=1,
        help="loadgen: seed for the schedule and spec rotation (default 1)",
    )
    serving.add_argument(
        "--real-time",
        action="store_true",
        help=(
            "loadgen: actually sleep between ticks (threads + wall "
            "clock) instead of replaying the schedule as fast as possible"
        ),
    )
    serving.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "loadgen: honor 429/503 Retry-After hints with up to N "
            "deterministic retries per request (default 0: surface "
            "backpressure)"
        ),
    )
    serving.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "loadgen: self-host a prefork fleet (--workers >= 2), kill and "
            "respawn workers mid-load, inject claim-orphan/crash faults, "
            "and audit the exactly-once claim ledger"
        ),
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help=(
            "for 'obs export-trace': the Chrome/Perfetto JSON destination "
            "(default: the trace path with a .chrome.json suffix)"
        ),
    )
    return parser


def _run_cache(args) -> int:
    """The 'cache' target: verify / repair / clear the result cache."""
    from ..parallel import ResultCache

    cache = ResultCache(args.cache_root)
    action = args.action or "verify"
    if action == "verify":
        report = cache.verify()
        print(
            f"cache {cache.root}: {report['entries']} entries, "
            f"{report['valid']} valid, {len(report['corrupt'])} corrupt, "
            f"{len(report['stale_tmp'])} stale tmp, "
            f"{report['quarantined']} quarantined"
        )
        for name, why in report["corrupt"].items():
            print(f"  corrupt: {name}: {why}")
        for name in report["stale_tmp"]:
            print(f"  stale tmp: {name}")
        claims = report["claims"]
        if any(claims.values()):
            print(
                f"  claims/: {claims['records']} record(s), "
                f"{claims['tombstones']} tombstone(s), "
                f"{claims['beats']} beat temp(s) "
                "(prune with 'claims gc')"
            )
        if report["corrupt"] or report["stale_tmp"]:
            print("run 'cache repair' to quarantine/sweep")
            return 1
        return 0
    if action == "repair":
        done = cache.repair()
        print(
            f"cache {cache.root}: quarantined {len(done['quarantined'])} "
            f"corrupt entr{'y' if len(done['quarantined']) == 1 else 'ies'}, "
            f"removed {len(done['removed_tmp'])} stale tmp file(s)"
        )
        return 0
    if action == "clear":
        removed = cache.clear()
        print(f"cache {cache.root}: removed {removed} entries")
        return 0
    print(
        f"error: unknown cache action {action!r} (use verify, repair, or clear)",
        file=sys.stderr,
    )
    return 2


def _run_claims(args) -> int:
    """The 'claims' target: inventory / gc single-flight claim files."""
    from pathlib import Path

    from ..parallel import ClaimRegistry

    root = Path(args.cache_root or "results/cache") / "claims"
    registry = ClaimRegistry(root)
    action = args.action or "list"
    if action == "list":
        inv = registry.inventory()
        print(
            f"claims {registry.root}: {len(inv['claims'])} record(s), "
            f"{len(inv['tombstones'])} tombstone(s), "
            f"{len(inv['beats'])} beat temp(s), "
            f"{inv['publishes']} publish(es)"
        )
        for record in inv["claims"]:
            age = record["heartbeat_age"]
            age_text = f"{age:.1f}s" if age is not None else "?"
            print(
                f"  {record['status']:>5}: {record['key'][:16]} "
                f"pid={record['pid']} heartbeat_age={age_text}"
            )
        return 0
    if action == "gc":
        done = registry.gc(max_age=args.max_age)
        print(
            f"claims {registry.root}: removed {len(done['removed_claims'])} "
            f"stale claim(s), {len(done['removed_tombstones'])} "
            f"tombstone(s), {len(done['removed_beats'])} beat temp(s)"
        )
        return 0
    print(
        f"error: unknown claims action {action!r} (use list or gc)",
        file=sys.stderr,
    )
    return 2


def _run_campaign(args) -> int:
    """The 'campaign' target: run / status / report / shard a study."""
    from ..campaign import (
        LocalDispatcher,
        ServeDispatcher,
        build_report,
        campaign_status,
        format_report,
        format_status,
        load_spec,
        parse_endpoints,
        parse_shard,
        run_campaign,
        shard_manifest,
        write_report,
    )
    from ..parallel import ResultCache

    action = args.action or "run"
    if action not in ("run", "status", "report", "shard"):
        print(
            f"error: unknown campaign action {action!r} "
            "(use run, status, report, or shard)",
            file=sys.stderr,
        )
        return 2
    if args.path is None:
        print(
            "error: the campaign target needs a spec file path "
            "(e.g. campaign run study.toml)",
            file=sys.stderr,
        )
        return 2
    try:
        spec = load_spec(args.path)
    except (OSError, ValueError) as error:
        print(f"error: cannot load campaign spec {args.path}: {error}", file=sys.stderr)
        return 2
    try:
        shard, num_shards = parse_shard(args.shard or "0/1")
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_root)

    if action == "shard":
        counts = shard_manifest(spec, num_shards)
        print(
            f"campaign {spec.campaign_id()} name={spec.name} "
            f"total={spec.total_jobs} shards={num_shards}"
        )
        for k, count in enumerate(counts):
            marker = " <- selected" if (k == shard and num_shards > 1) else ""
            print(f"  shard {k}/{num_shards}: {count} job(s){marker}")
        return 0

    if action == "status":
        status = campaign_status(spec, num_shards=num_shards, cache=cache)
        print(format_status(status))
        return 0 if status["complete"] else 1

    if action == "report":
        report = build_report(spec, cache)
        if args.output:
            target = write_report(report, args.output)
            print(f"report written to {target}")
        elif args.plot:
            from ..campaign.report import plot_report

            print(plot_report(report))
        else:
            print(format_report(report))
        if not report["complete"]:
            print(
                f"warning: {report['missing']} job(s) missing from the "
                "cache; statistics are provisional (run the campaign to "
                "completion)",
                file=sys.stderr,
            )
            return 1
        return 0

    # action == "run"
    if args.dispatch == "serve":
        try:
            endpoints = parse_endpoints(args.endpoints or "127.0.0.1:8793")
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        dispatcher = ServeDispatcher(endpoints=endpoints)
    else:
        dispatcher = LocalDispatcher(jobs=args.jobs or 1)

    def console(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    kwargs = {}
    if args.chunk_size is not None:
        kwargs["chunk_size"] = args.chunk_size
    try:
        summary = run_campaign(
            spec,
            shard=shard,
            num_shards=num_shards,
            dispatcher=dispatcher,
            cache=cache,
            console=console,
            **kwargs,
        )
    except (OSError, RuntimeError, ValueError) as error:
        print(f"error: campaign run failed: {error}", file=sys.stderr)
        return 1
    print(summary.summary_line())
    return 0 if summary.complete else 1


def _run_serve(args) -> int:
    """The 'serve' target: run the simulation-serving API until SIGTERM."""
    from ..serve import ServeConfig, serve_forever

    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs or 1,
        queue_depth=args.queue_depth,
        deadline=args.deadline,
        cache_root=None if args.no_cache else (args.cache_root or "results/cache"),
        checkpoint=bool(args.resume),
        engine=args.engine or "cascade",
        workers=args.workers,
        predict_table=args.predict_table,
    )

    def announce(line: str) -> None:
        print(line, flush=True)

    return serve_forever(config, announce=announce)


def _run_loadgen(args) -> int:
    """The 'loadgen' target: seeded load against a running server.

    ``--chaos`` self-hosts a prefork fleet instead and runs the load
    while killing/respawning workers and injecting claim-protocol
    faults — the CLI spelling of the chaos-under-load suite.
    """
    from ..serve import LoadPlan, format_report, run_load

    plan = LoadPlan(
        clients=args.clients,
        period=args.period,
        jitter=args.load_jitter,
        duration=args.duration,
        seed=args.seed,
        real_time=args.real_time or args.chaos,
        retries=args.retries if not args.chaos else max(args.retries, 3),
    )
    if args.chaos:
        return _run_chaos_loadgen(args, plan)
    try:
        report = run_load(plan, args.host, args.port)
    except (ConnectionError, OSError) as error:
        print(
            f"error: cannot reach server at {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 2
    print(format_report(report))
    return 0 if report["identical_payloads_per_key"] else 1


def _run_chaos_loadgen(args, plan) -> int:
    from ..parallel import FaultPlan
    from ..serve import ServeConfig, format_report, run_chaos_load

    seeds = tuple(
        spec["seed"] for spec in plan.specs[: max(1, len(plan.specs) // 2)]
    )
    config = ServeConfig(
        host=args.host,
        port=0,  # the fleet is self-hosted; never squat the real port
        jobs=args.jobs or 1,
        queue_depth=args.queue_depth,
        deadline=args.deadline or 60.0,
        cache_root=args.cache_root or "results/chaos_cache",
        engine=args.engine or "cascade",
        workers=max(2, args.workers),
        claim_ttl=2.0,
        faults=FaultPlan.of(
            FaultPlan.serve_crash(seeds=seeds[:1]),
            FaultPlan.claim_orphan(seeds=seeds[-1:]),
        ),
    )
    report = run_chaos_load(plan, config)
    print(format_report(report))
    chaos = report["chaos"]
    healthy = (
        report["identical_payloads_per_key"]
        and chaos["exactly_once_per_key"]
        and chaos["no_request_lost"]
        and chaos["drain_exit_code"] == 0
    )
    return 0 if healthy else 1


def _run_predict(args) -> int:
    """The 'predict' target: build / eval / verify prediction tables."""
    import json as _json

    from ..campaign import load_spec
    from ..parallel import ResultCache
    from ..predict import (
        SurrogateEvaluator,
        build_table,
        resolve_table,
        save_table,
        verify_table,
    )

    action = args.action or "build"
    if action not in ("build", "eval", "verify"):
        print(
            f"error: unknown predict action {action!r} "
            "(use build, eval, or verify)",
            file=sys.stderr,
        )
        return 2
    if args.path is None:
        print(
            "error: the predict target needs a path — a campaign spec "
            "file (build) or a table path / 16-hex id (eval, verify)",
            file=sys.stderr,
        )
        return 2
    cache = ResultCache(args.cache_root)

    if action == "build":
        try:
            spec = load_spec(args.path)
        except (OSError, ValueError) as error:
            print(
                f"error: cannot load campaign spec {args.path}: {error}",
                file=sys.stderr,
            )
            return 2

        def console(line: str) -> None:
            print(line, file=sys.stderr, flush=True)

        try:
            table = build_table(
                spec, cache, holdout_count=args.holdout, console=console
            )
        except (OSError, ValueError) as error:
            print(f"error: predict build failed: {error}", file=sys.stderr)
            return 1
        target = save_table(table, args.cache_root)
        valid = sum(1 for cell in table["cells"] if cell["valid"])
        print(
            f"table {table['table_id']} cells={len(table['cells'])} "
            f"valid={valid} holdout={table['holdout_count']} -> {target}"
        )
        return 0

    try:
        table = resolve_table(args.path, args.cache_root)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if action == "eval":
        if args.point is None:
            print(
                "error: predict eval needs --point N,TP,TC,TR",
                file=sys.stderr,
            )
            return 2
        parts = args.point.split(",")
        if len(parts) != 4:
            print(
                f"error: --point must be N,TP,TC,TR; got {args.point!r}",
                file=sys.stderr,
            )
            return 2
        try:
            n_nodes = int(parts[0])
            tp, tc, tr = (float(part) for part in parts[1:])
        except ValueError as error:
            print(f"error: bad --point value: {error}", file=sys.stderr)
            return 2
        answer = SurrogateEvaluator(table).predict(n_nodes, tp, tc, tr)
        if (
            args.tolerance is not None
            and answer["status"] == "ok"
            and answer["bound_rel"] > args.tolerance
        ):
            answer["status"] = "tolerance_exceeded"
        print(_json.dumps(answer, sort_keys=True, indent=1))
        return 0 if answer["status"] == "ok" else 1

    # action == "verify"
    audit = verify_table(
        table, cache, seed_count=args.fresh_seeds, jobs=args.jobs
    )
    print(
        f"table {audit['table_id']} checked={audit['cells_checked']} "
        f"skipped={audit['cells_skipped']} fresh_seeds="
        f"{audit['seed_start']}..{audit['seed_start'] + audit['seed_count'] - 1} "
        f"all_in_bound={str(audit['all_in_bound']).lower()}"
    )
    for row in audit["rows"]:
        rel = (
            f"{row['rel_error']:.3f}" if row["rel_error"] is not None else "-"
        )
        print(
            f"  n={row['n_nodes']} tp={row['tp']:g} tc={row['tc']:g} "
            f"tr={row['tr']:g}: rel_error={rel} "
            f"bound={row['bound_rel']:.3f} "
            f"in_bound={str(row['in_bound']).lower()}"
        )
    return 0 if audit["all_in_bound"] else 1


def _run_bench(args) -> int:
    """The 'bench' target: emit and print the parallel perf snapshot."""
    if args.predict:
        from ..predict.bench import format_predict_table, run_predict_benchmark

        output = "BENCH_predict.json"
        snapshot = run_predict_benchmark(jobs=args.jobs, output=output)
        print(format_predict_table(snapshot))
        print(f"snapshot written to {output}")
        ok = (
            snapshot["verify"]["all_in_bound"]
            and snapshot["fallback"]["byte_identical"]
            and snapshot["fallback"]["out_of_range_falls_back"]
        )
        return 0 if ok else 1
    if args.campaign:
        from ..campaign.bench import format_campaign_table, run_campaign_benchmark

        output = "BENCH_campaign.json"
        snapshot = run_campaign_benchmark(jobs=args.jobs, output=output)
        print(format_campaign_table(snapshot))
        print(f"snapshot written to {output}")
        ok = (
            snapshot["reports_identical_local_vs_serve"]
            and snapshot["warm_served_entirely_from_cache"]
        )
        return 0 if ok else 1
    if args.batch:
        from ..parallel import format_batch_table, run_batch_benchmark

        output = "BENCH_batch.json"
        snapshot = run_batch_benchmark(jobs=args.jobs, output=output)
        print(format_batch_table(snapshot))
        print(f"snapshot written to {output}")
        return 0 if snapshot["results_identical_across_configs"] else 1
    if args.serve:
        from ..serve.bench import format_serve_table, run_serve_benchmark

        output = "BENCH_serve.json"
        snapshot = run_serve_benchmark(jobs=args.jobs, output=output)
        print(format_serve_table(snapshot))
        print(f"snapshot written to {output}")
        fleet = snapshot.get("fleet") or {}
        ok = (
            snapshot["payloads_identical_cold_vs_warm"]
            and snapshot["warm_served_entirely_from_cache"]
            and all(
                row["payloads_identical_cold_vs_warm"]
                for row in fleet.get("sweep", ())
            )
            and (
                not fleet
                or (
                    fleet["restart"]["exactly_once_per_key"]
                    and fleet["restart"]["drain_exit_code"] == 0
                )
            )
        )
        return 0 if ok else 1
    if args.obs:
        from ..obs.bench import format_obs_table, run_obs_benchmark

        output = "BENCH_obs.json"
        snapshot = run_obs_benchmark(output=output)
        print(format_obs_table(snapshot))
        print(f"snapshot written to {output}")
        ok = snapshot["within_budget"] and snapshot["results_identical_with_obs"]
        return 0 if ok else 1
    from ..parallel import format_table, run_benchmark

    output = "BENCH_parallel.json"
    snapshot = run_benchmark(jobs=args.jobs, output=output)
    print(format_table(snapshot))
    print(f"snapshot written to {output}")
    return 0 if snapshot["results_identical_across_configs"] else 1


def _run_obs(args) -> int:
    """The 'obs' target: read a JSONL trace log back."""
    from ..obs.export import read_trace, summarize_trace, write_chrome_trace

    action = args.action or "summary"
    path = args.path or "results/trace.jsonl"
    if action not in ("summary", "export-trace", "top"):
        print(
            f"error: unknown obs action {action!r} "
            "(use summary, export-trace, or top)",
            file=sys.stderr,
        )
        return 2
    try:
        if action == "export-trace":
            dest = write_chrome_trace(path, args.output)
            print(
                f"chrome trace written to {dest} "
                "(open in chrome://tracing or https://ui.perfetto.dev)"
            )
            return 0
        records = read_trace(path)
    except OSError as error:
        print(f"error: cannot read trace {path}: {error}", file=sys.stderr)
        return 2
    if action == "summary":
        print(summarize_trace(records))
        return 0
    from ..obs.profile import format_top

    print(format_top(records.get("profile", [])))
    return 0


def _configure_obs(args) -> bool:
    """Turn the global obs runtime on per the flags; True if configured."""
    wants = (
        args.trace or args.metrics or args.profile or args.quiet or args.verbose
    )
    if not wants:
        return False
    from ..obs import ERROR, INFO, configure

    console = INFO if args.verbose else (ERROR if args.quiet else None)
    configure(
        enabled=bool(args.trace or args.metrics),
        profile=args.profile,
        console_level=console,
    )
    return True


def _finalize_obs(args) -> None:
    """Write/print the collected observability artifacts, then reset.

    Everything lands on stderr so stdout — the experiment's actual
    output — stays byte-identical with observability off.
    """
    from ..obs import obs, reset

    o = obs()
    try:
        if args.trace:
            from ..obs.export import write_trace

            path = write_trace(
                args.trace,
                spans=o.tracer.records,
                events=o.events.events,
                metrics=o.metrics.snapshot(),
                profile=o.profile_rows,
                meta={"trace_id": o.tracer.trace_id},
            )
            print(f"trace written to {path}", file=sys.stderr)
        if args.metrics:
            print("metrics:", file=sys.stderr)
            for name, state in sorted(o.metrics.snapshot().items()):
                if state.get("kind") == "histogram":
                    print(
                        f"  {name}: n={state['count']} "
                        f"mean={state['mean']:.6f}s sum={state['sum']:.6f}s",
                        file=sys.stderr,
                    )
                else:
                    print(f"  {name}: {state.get('value', 0):g}", file=sys.stderr)
        if args.profile:
            from ..obs.profile import format_top

            print(format_top(o.profile_rows), file=sys.stderr)
    finally:
        reset()


def _dispatch(args) -> int:
    """Route one parsed invocation to its target handler."""
    if args.target == "cache":
        return _run_cache(args)
    if args.target == "claims":
        return _run_claims(args)
    if args.target == "campaign":
        return _run_campaign(args)
    if args.target == "predict":
        return _run_predict(args)
    if args.target == "obs":
        return _run_obs(args)
    if args.target == "list":
        for figure_id in figure_ids():
            print(figure_id)
        return 0
    if args.target == "bench":
        return _run_bench(args)
    if args.target == "serve":
        return _run_serve(args)
    if args.target == "loadgen":
        return _run_loadgen(args)
    cache = None
    if not args.no_cache:
        from ..parallel import ResultCache

        cache = ResultCache()
    checkpoint = True if args.resume else None
    targets = figure_ids() if args.target == "all" else [args.target]
    try:
        for figure_id in targets:
            result = run_figure(
                figure_id,
                fast=args.fast,
                jobs=args.jobs,
                cache=cache,
                checkpoint=checkpoint,
                engine=args.engine,
                topology=args.topology,
            )
            if args.plot:
                print(_render_plots(result))
            else:
                print(result.format_text(max_points=args.max_points))
            print()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.quiet and args.verbose:
        print("error: --quiet and --verbose are mutually exclusive", file=sys.stderr)
        return 2
    if sum((args.obs, args.serve, args.batch, args.campaign, args.predict)) > 1:
        print(
            "error: --obs, --serve, --batch, --campaign, and --predict "
            "are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.engine is not None:
        from ..core.engines import resolve_engine

        try:
            resolve_engine(args.engine)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.topology is not None:
        from ..topo import parse_topology

        try:
            parse_topology(args.topology)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.action is not None and args.target not in (
        "cache", "claims", "campaign", "predict", "obs"
    ):
        print(
            "error: an action argument is only valid with the "
            "'cache', 'claims', 'campaign', 'predict', or 'obs' targets",
            file=sys.stderr,
        )
        return 2
    if args.path is not None and args.target not in (
        "obs", "campaign", "predict"
    ):
        print(
            "error: a path argument is only valid with the 'obs', "
            "'campaign', or 'predict' targets",
            file=sys.stderr,
        )
        return 2
    if not _configure_obs(args):
        return _dispatch(args)
    try:
        if args.profile:
            from ..obs import obs
            from ..obs.profile import profiled

            # Profile the in-process side too (jobs=1 runs, cache and
            # aggregation work); pool workers ship their own rows.
            with profiled(obs().profile_rows):
                return _dispatch(args)
        return _dispatch(args)
    finally:
        _finalize_obs(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
