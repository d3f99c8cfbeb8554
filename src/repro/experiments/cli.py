"""Command-line interface for the figure reproductions.

Usage::

    repro-sync list
    repro-sync fig04 [--fast]
    repro-sync all --fast
    repro-sync fig10 --jobs 4          # fan seed runs over 4 processes
    repro-sync fig10 --no-cache        # force recomputation
    repro-sync fig10 --resume          # journal + resume interrupted runs
    repro-sync fig10 --engine batch    # one kernel per ensemble (same numbers)
    repro-sync fig16 --cache-root results/topo-cache   # a second result cache
    repro-sync bench --obs             # obs-overhead snapshot (BENCH_obs.json)
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
    repro-sync predict build table-spec.toml     # campaign -> prediction table
    repro-sync predict eval TABLE --point 10,20,0.3,0.1  # one surrogate answer
    repro-sync predict verify TABLE    # audit bounds on fresh seeds
    repro-sync serve --predict-table TABLE       # enable POST /v1/predict
    repro-sync bench --predict         # surrogate-vs-simulate snapshot (BENCH_predict.json)
    repro-sync fig10 --trace results/trace.jsonl   # record a trace
    repro-sync obs summary results/trace.jsonl     # aggregate it
    repro-sync obs export-trace results/trace.jsonl  # -> Perfetto JSON
    repro-sync fig10 --profile         # merged cProfile top-N

(``python -m repro`` is equivalent.)  Each target is a subcommand that
accepts only the flags its handler reads; ``repro-sync TARGET --help``
lists them, and any other flag is a usage error (exit 2).
Simulation-backed figures cache completed runs under ``results/cache/``
(or ``--cache-root``) keyed by job content, so re-running a figure is
nearly free; ``--no-cache`` opts out and ``--jobs`` sets the
process-pool width (results are identical either way).  ``--resume``
additionally journals every completed simulation to
``results/checkpoints/<run-id>.jsonl`` as it finishes, so a run killed
mid-way (Ctrl-C, OOM, power loss) restarts from where it stopped —
pass it from the start on long runs.

Observability (``repro.obs``) is strictly inert — every figure and
table is byte-identical with it on or off.  Every target takes these
flags: ``--trace PATH`` records spans/events/metrics to a JSONL log
(the ``obs`` target reads it); ``--metrics`` prints the metric
snapshot to stderr after the run; ``--profile`` merges cProfile across
every worker process; ``--verbose``/``--quiet`` raise/lower which
structured events reach the terminal.
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


def _jobs(text: str) -> int:
    """``--jobs``: a worker-process count of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return jobs


def _checked(parse, text: str) -> str:
    """Keep *text* once *parse* accepts it; its ValueError is a usage error."""
    try:
        parse(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


def _engine(name: str) -> str:
    from ..core.engines import resolve_engine

    return _checked(resolve_engine, name)


def _topology(spec: str) -> str:
    from ..topo import parse_topology

    return _checked(parse_topology, spec)


#: Every option, spelled once: flag -> ``add_argument`` keywords.  Each
#: target adds only the flags its handler reads (see build_parser).
_OPTIONS: dict[str, dict] = {
    # Figure runs ('fig01'..'fig18', 'all', 'list').
    "--fast": dict(
        action="store_true",
        help="use reduced-scale parameters (seconds instead of minutes)",
    ),
    "--max-points": dict(
        type=int, default=25, help="series points to print per figure (default 25)"
    ),
    "--plot": dict(
        action="store_true",
        help="render ASCII plots (figures: each series instead of a table; "
        "campaign report: curves after the table)",
    ),
    "--jobs": dict(
        type=_jobs,
        metavar="N",
        help="worker processes for simulation fan-out (default: 1, or the "
        "CPU count for 'bench --predict'); results do not depend on this",
    ),
    "--engine": dict(
        type=_engine,
        metavar="NAME",
        help="simulation engine: des, cascade (default), or batch; every "
        "engine produces bit-identical results for the same seed",
    ),
    "--topology": dict(
        type=_topology,
        metavar="SPEC",
        help="coupling graph for figures that accept one (fig10/fig11): "
        "clique (default), ring, star, tree(b=B), erdos_renyi(p=P,seed=S), "
        "or switching(a|b,period=T); non-clique couplings are an "
        "off-paper what-if",
    ),
    "--no-cache": dict(
        action="store_true",
        help="do not read or write the on-disk result cache",
    ),
    "--resume": dict(
        action="store_true",
        help="journal completed simulations under results/checkpoints/ and "
        "resume any interrupted run of the same work; pass it from the "
        "start on long runs (results do not depend on this)",
    ),
    "--cache-root": dict(
        metavar="DIR", help="result cache directory (default results/cache)"
    ),
    # Observability (every target).
    "--trace": dict(
        metavar="PATH",
        help="record spans/events/metrics and write a JSONL trace log to "
        "PATH after the run (read it back with the 'obs' target); results "
        "do not depend on this",
    ),
    "--metrics": dict(
        action="store_true",
        help="collect metrics and print the snapshot to stderr after the run",
    ),
    "--profile": dict(
        action="store_true",
        help="profile the run under cProfile (merged across worker "
        "processes) and print the top functions to stderr",
    ),
    "--verbose": dict(
        action="store_true",
        help="print info-level structured events (resumes, retries) as they happen",
    ),
    "--quiet": dict(
        action="store_true",
        help="silence warning-level events (errors still print)",
    ),
    # 'bench': which snapshot to take (one is required).
    "--obs": dict(
        action="store_true",
        help="measure observability on/off overhead -> BENCH_obs.json",
    ),
    "--predict": dict(
        action="store_true",
        help="benchmark the prediction tier (surrogate vs warm-cache "
        "/v1/simulate, bound audit, fallback byte-identity) -> "
        "BENCH_predict.json",
    ),
    # 'predict'.
    "--holdout": dict(
        type=int,
        metavar="N",
        help="build: seeds per grid point held out of calibration to "
        "measure each cell's bound (default: a quarter of the spec's "
        "seeds, at least 1)",
    ),
    "--point": dict(
        metavar="N,TP,TC,TR", help="eval: the query point, comma-separated"
    ),
    "--tolerance": dict(
        type=float,
        metavar="X",
        help="eval: maximum acceptable relative error bound; an answer "
        "whose bound exceeds it reports fallback",
    ),
    "--fresh-seeds": dict(
        type=int,
        default=4,
        metavar="N",
        help="verify: fresh seeds per valid cell to audit the bounds "
        "against (default 4)",
    ),
    # 'campaign' and 'claims'.
    "--shard": dict(
        metavar="K/M",
        help="run/inspect shard K of M (0-based; default 0/1, the whole "
        "campaign); the shard map is a pure function of the spec, so any "
        "host can claim any shard",
    ),
    "--dispatch": dict(
        choices=("local", "serve"),
        default="local",
        help="run: execute on the local process pool (default) or fan out "
        "to serve endpoints (see --endpoints)",
    ),
    "--endpoints": dict(
        metavar="HOST:PORT[,HOST:PORT...]",
        help="run --dispatch serve: the serve endpoints to fan out to "
        "(default 127.0.0.1:8793)",
    ),
    "--chunk-size": dict(
        type=int,
        metavar="N",
        help="run: jobs per commit chunk — the most compute a kill can "
        "lose (default 256)",
    ),
    "--max-age": dict(
        type=float,
        metavar="SECONDS",
        help="gc: prune claim files/tombstones older than this (default: "
        "the claim TTL)",
    ),
    "--output": dict(
        metavar="PATH",
        help="campaign report: write the JSON report here; obs "
        "export-trace: the Chrome/Perfetto JSON destination (default: the "
        "trace path with a .chrome.json suffix)",
    ),
    # 'serve' and 'loadgen'.
    "--host": dict(
        default="127.0.0.1", help="listen/connect address (default 127.0.0.1)"
    ),
    "--port": dict(
        type=int,
        default=8793,
        help="listen/connect port; 0 asks the OS for a free port (default 8793)",
    ),
    "--queue-depth": dict(
        type=int,
        default=64,
        metavar="N",
        help="admission limit — requests beyond N in flight shed with 429 "
        "Retry-After (default 64)",
    ),
    "--deadline": dict(
        type=float,
        metavar="SECONDS",
        help="per-request deadline; computations that outlive it answer "
        "504 (default: none)",
    ),
    "--workers": dict(
        type=int,
        default=1,
        metavar="N",
        help="worker processes; >= 2 runs the prefork supervisor (bind "
        "once, crash-respawn, cross-process single-flight; default 1)",
    ),
    "--predict-table": dict(
        metavar="TABLE",
        help="load a prediction table (file path or 16-hex id under the "
        "cache root) and answer POST /v1/predict from it; without this "
        "every predict request falls back to simulation",
    ),
    "--clients": dict(
        type=int, default=4, metavar="N", help="concurrent periodic clients (default 4)"
    ),
    "--period": dict(
        type=float,
        default=1.0,
        metavar="TP",
        help="mean request period per client in seconds (default 1)",
    ),
    "--load-jitter": dict(
        type=float,
        default=0.5,
        metavar="TR",
        help="timer jitter half-width — intervals are uniform in "
        "[TP-TR, TP+TR], the paper's own randomization (default 0.5)",
    ),
    "--duration": dict(
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="length of the generated schedule (default 10)",
    ),
    "--seed": dict(
        type=int,
        default=1,
        help="seed for the schedule and spec rotation (default 1)",
    ),
    "--real-time": dict(
        action="store_true",
        help="actually sleep between ticks (threads + wall clock) instead "
        "of replaying the schedule as fast as possible",
    ),
    "--retries": dict(
        type=int,
        default=0,
        metavar="N",
        help="honor 429/503 Retry-After hints with up to N deterministic "
        "retries per request (default 0: surface backpressure)",
    ),
    "--chaos": dict(
        action="store_true",
        help="self-host a prefork fleet (--workers >= 2), kill and respawn "
        "workers mid-load, inject claim-orphan/crash faults, and audit the "
        "exactly-once claim ledger (cache root default results/chaos_cache)",
    ),
}


def _add(parser, *flags: str) -> None:
    """Add each named option from :data:`_OPTIONS` to *parser*."""
    for flag in flags:
        names = ("-o", flag) if flag == "--output" else (flag,)
        parser.add_argument(*names, **_OPTIONS[flag])


class _TargetParser(argparse.ArgumentParser):
    """One target's parser; fills in the default action after parsing.

    argparse fills a required positional before an optional one, so in
    ``campaign run`` the lone word lands in SPEC and the action stays
    unset.  An unset action whose path is an action word therefore
    means the path is missing, and that is a usage error.  So is a
    flag given with a mode flag whose handler does not read it.
    """

    actions: tuple[str, ...] = ()
    path_name: str | None = None  # metavar of a required path positional
    excludes: tuple[tuple[str, str], ...] = ()  # (mode flag, unread flag)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for mode, flag in self.excludes:
            if getattr(namespace, mode[2:]) and getattr(namespace, flag[2:]):
                self.error(f"argument {flag}: not allowed with argument {mode}")
        if self.actions and namespace.action is None:
            if self.path_name and namespace.path in self.actions:
                self.error(f"the following arguments are required: {self.path_name}")
            namespace.action = self.actions[0]
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser: one subcommand per target."""
    observed = argparse.ArgumentParser(add_help=False)
    _add(observed, "--trace", "--metrics", "--profile")
    _add(observed.add_mutually_exclusive_group(), "--verbose", "--quiet")
    figure_run = argparse.ArgumentParser(add_help=False)
    _add(
        figure_run, "--fast", "--max-points", "--plot", "--jobs", "--engine",
        "--topology", "--no-cache", "--resume", "--cache-root",
    )
    parser = argparse.ArgumentParser(
        prog="repro-sync",
        description=(
            "Reproduce figures from Floyd & Jacobson, 'The Synchronization "
            "of Periodic Routing Messages' (SIGCOMM 1993)."
        ),
    )
    targets = parser.add_subparsers(
        dest="target",
        required=True,
        metavar="target",
        help="a figure id (fig01..fig18), 'all', or one of:",
        parser_class=_TargetParser,
    )

    def target(name, run, *flags, parents=(), actions=(), path=None, **kwargs):
        sub = targets.add_parser(name, parents=[observed, *parents], **kwargs)
        sub.set_defaults(run=run)
        if actions:
            # The default (actions[0]) is filled in after parsing.
            sub.add_argument("action", nargs="?", choices=actions)
            sub.actions = actions
        _add(sub, *flags)
        if path is not None:
            sub.add_argument("path", **path)
            sub.path_name = path["metavar"]
        return sub

    for figure_id in (*figure_ids(), "all"):
        target(figure_id, _run_figures, parents=[figure_run])
    target("list", _run_list, parents=[figure_run], help="print every figure id")
    target(
        "cache", _run_cache, "--cache-root",
        actions=("verify", "repair", "clear"),
        help="audit, repair or clear the result cache",
    )
    target(
        "claims", _run_claims, "--cache-root", "--max-age",
        actions=("list", "gc"),
        help="inventory or prune single-flight claim files",
    )
    target(
        "campaign", _run_campaign, "--shard", "--dispatch", "--endpoints",
        "--chunk-size", "--jobs", "--cache-root", "--output", "--plot",
        actions=("run", "status", "report", "shard"),
        path=dict(metavar="SPEC", help="the campaign spec file (.toml or .json)"),
        help="run, inspect or report a parameter study",
    )
    target(
        "predict", _run_predict, "--holdout", "--point", "--tolerance",
        "--fresh-seeds", "--jobs", "--cache-root",
        actions=("build", "eval", "verify"),
        path=dict(
            metavar="SPEC|TABLE",
            help="the campaign spec file (build) or a table path / 16-hex "
            "table id (eval, verify)",
        ),
        help="build, query or audit a prediction table",
    )
    obs = target(
        "obs", _run_obs, "--output",
        actions=("summary", "export-trace", "top"),
        help="read a JSONL trace log back",
    )
    obs.add_argument(
        "path",
        nargs="?",
        default="results/trace.jsonl",
        help="the trace log (default results/trace.jsonl)",
    )
    bench = target("bench", _run_bench, "--jobs", help="write a perf snapshot")
    _add(bench.add_mutually_exclusive_group(required=True), "--obs", "--predict")
    bench.excludes = (("--obs", "--jobs"),)  # the obs bench runs jobs=1
    target(
        "serve", _run_serve, "--host", "--port", "--jobs", "--queue-depth",
        "--deadline", "--workers", "--engine", "--no-cache", "--cache-root",
        "--predict-table",
        help="run the simulation-serving API until SIGTERM",
    )
    target(
        "loadgen", _run_loadgen, "--host", "--port", "--clients", "--period",
        "--load-jitter", "--duration", "--seed", "--real-time", "--retries",
        "--chaos", "--jobs", "--queue-depth", "--deadline", "--workers",
        "--engine", "--cache-root",
        help="seeded load against a running server (or a chaos fleet)",
    )
    return parser


def _run_list(args) -> int:
    """The 'list' target: print every figure id."""
    for figure_id in figure_ids():
        print(figure_id)
    return 0


def _run_figures(args) -> int:
    """A figure id or 'all': run each figure and print its result."""
    from ..parallel import ResultCache

    cache = None if args.no_cache else ResultCache(args.cache_root)
    targets = figure_ids() if args.target == "all" else [args.target]
    try:
        for figure_id in targets:
            result = run_figure(
                figure_id,
                fast=args.fast,
                jobs=args.jobs,
                cache=cache,
                checkpoint=args.resume,
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


def _run_cache(args) -> int:
    """The 'cache' target: verify / repair / clear the result cache."""
    from ..parallel import ResultCache

    cache = ResultCache(args.cache_root)
    if args.action == "verify":
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
    if args.action == "repair":
        done = cache.repair()
        print(
            f"cache {cache.root}: quarantined {len(done['quarantined'])} "
            f"corrupt entr{'y' if len(done['quarantined']) == 1 else 'ies'}, "
            f"removed {len(done['removed_tmp'])} stale tmp file(s)"
        )
        return 0
    removed = cache.clear()
    print(f"cache {cache.root}: removed {removed} entries")
    return 0


def _run_claims(args) -> int:
    """The 'claims' target: inventory / gc single-flight claim files."""
    from pathlib import Path

    from ..parallel import ClaimRegistry

    root = Path(args.cache_root or "results/cache") / "claims"
    registry = ClaimRegistry(root)
    if args.action == "list":
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
    done = registry.gc(max_age=args.max_age)
    print(
        f"claims {registry.root}: removed {len(done['removed_claims'])} "
        f"stale claim(s), {len(done['removed_tombstones'])} "
        f"tombstone(s), {len(done['removed_beats'])} beat temp(s)"
    )
    return 0


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

    if args.action == "shard":
        counts = shard_manifest(spec, num_shards)
        print(
            f"campaign {spec.campaign_id()} name={spec.name} "
            f"total={spec.total_jobs} shards={num_shards}"
        )
        for k, count in enumerate(counts):
            marker = " <- selected" if (k == shard and num_shards > 1) else ""
            print(f"  shard {k}/{num_shards}: {count} job(s){marker}")
        return 0

    if args.action == "status":
        status = campaign_status(spec, num_shards=num_shards, cache=cache)
        print(format_status(status))
        return 0 if status["complete"] else 1

    if args.action == "report":
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

    # args.action == "run"
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

    cache = ResultCache(args.cache_root)

    if args.action == "build":
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

    if args.action == "eval":
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

    # args.action == "verify"
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
    """The 'bench' target: emit and print the obs or predict snapshot."""
    if args.obs:
        from ..obs.bench import format_obs_table, run_obs_benchmark

        output = "BENCH_obs.json"
        snapshot = run_obs_benchmark(output=output)
        print(format_obs_table(snapshot))
        print(f"snapshot written to {output}")
        ok = snapshot["within_budget"] and snapshot["results_identical_with_obs"]
        return 0 if ok else 1
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


def _run_obs(args) -> int:
    """The 'obs' target: read a JSONL trace log back."""
    from ..obs.export import read_trace, summarize_trace, write_chrome_trace

    action, path = args.action, args.path
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


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code (2 on a usage error)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_:  # argparse: 2 on a usage error, 0 after --help
        return exit_.code
    if not _configure_obs(args):
        return args.run(args)
    try:
        if args.profile:
            from ..obs import obs
            from ..obs.profile import profiled

            # Profile the in-process side too (jobs=1 runs, cache and
            # aggregation work); pool workers ship their own rows.
            with profiled(obs().profile_rows):
                return args.run(args)
        return args.run(args)
    finally:
        _finalize_obs(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
