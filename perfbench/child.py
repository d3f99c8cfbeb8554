"""One fresh interpreter: set a workload up, then (optionally) measure it.

Started by ``run.py``, which times set-up from process start to the
``READY`` line.  Control lines (``READY``, ``RESULT <json>``) go to the
original standard output; everything else this process and its fleet
workers print goes to a log file in the run directory.

    python3 perfbench/child.py --workload fig10-dense --seed 1 --seconds 10 \
        --trace 0 --dir .bench_work/<run>/setup0 [--measure]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading

from common import (
    WORKLOADS, median, now, percentile, process_cpu, self_peak_rss_mb, use_sources,
)
from reference import reference_work


def make_workload(name: str, seed: int, workdir: str):
    if name == "serve-mixed":
        from serve_mixed import ServeMixed

        return ServeMixed(seed, workdir)
    from ensembles import Fig10Dense, Fig16Sparse

    return {"fig10-dense": Fig10Dense, "fig16-sparse": Fig16Sparse}[name](seed, workdir)


def run_rounds(workload, seconds: float, tracing=None) -> dict:
    """Back-to-back ensemble requests until ``seconds`` have passed.

    With ``tracing``, every other round runs with the layer wrappers
    installed, so traced and untraced rounds interleave and share any
    drift in machine speed.
    """
    tracer = tracing.Tracer() if tracing is not None else None
    # traced? -> [(latency, cpu, reference cpu, attempted, failed)]
    rows = {False: [], True: []}
    rnd = 0
    t0 = now()
    while True:
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracing.install(tracer)
        try:
            start, cpu = now(), process_cpu()
            jobs, bad = workload.round(rnd)
            latency, cpu = now() - start, process_cpu() - cpu
        finally:
            if traced:
                tracer.uninstall()
        ref = process_cpu()
        reference_work()
        ref = process_cpu() - ref
        rows[traced].append((latency, cpu, ref, jobs, bad))
        rnd += 1
        if now() - t0 >= seconds and (tracer is None or rnd >= 2):
            break

    def summary(part):
        latencies = [row[0] for row in part]
        attempted = sum(row[3] for row in part)
        failed = sum(row[4] for row in part)
        wall = sum(latencies)
        return {
            "rounds": len(part), "wall": wall, "attempted": attempted, "failed": failed,
            "jobs_per_s": (attempted - failed) / wall,
            # Rounds are equal in size, so the median round's rate is
            # robust to a burst of host trouble in part of the run.
            "jobs_per_cpu_s": median([(jobs - bad) / cpu for _, cpu, _, jobs, bad in part]),
            "jobs_per_ref": median([(jobs - bad) * ref / cpu for _, cpu, ref, jobs, bad in part]),
            "p50_ms": median(latencies) * 1000.0,
            "p99_ms": percentile(latencies, 99.0) * 1000.0,
        }

    return {"untraced": summary(rows[False]),
            "traced": summary(rows[True]) if rows[True] else None,
            "tracer": tracer}


def measure_ensemble(workload, seconds: float) -> dict:
    m = run_rounds(workload, seconds)["untraced"]
    ok, gate_failed, gate_info = workload.gate()
    metrics = {
        "jobs_per_ref": (m["jobs_per_ref"], "1/ref"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
    }
    # Raw rates, for people: they move with other guests' load.
    raw = {key: m[key] for key in ("rounds", "jobs_per_cpu_s", "jobs_per_s", "p50_ms", "p99_ms")}
    return {"correct": ok, "attempted": m["attempted"], "failed": m["failed"] + gate_failed,
            "metrics": metrics, "info": {"raw": raw, "gate": gate_info}}


def trace_ensemble(workload, seconds: float, tracing) -> dict:
    """Interleaved untraced and traced rounds; layers from the traced ones."""
    m = run_rounds(workload, seconds, tracing)
    untraced, traced, tracer = m["untraced"], m["traced"], m["tracer"]
    ok, gate_failed, gate_info = workload.gate()
    balance = tracing.reconcile(tracer, {threading.get_ident(): traced["wall"]})
    values = tracing.layer_metrics(tracer)
    values.update({
        "server.request_s": 0.0,
        "loadgen.late_ms": 0.0,
        "loadgen.sent": 0.0,
        "trace.wall_s": balance["wall_s"],
        "trace.unattributed_s": balance["unattributed_s"],
        "trace.traced_jobs_per_s": traced["jobs_per_s"],
        "trace.untraced_jobs_per_s": untraced["jobs_per_s"],
        "trace.traced_p50_ms": traced["p50_ms"],
        "trace.untraced_p50_ms": untraced["p50_ms"],
    })
    return {
        "correct": ok,
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"] + gate_failed,
        "values": values,
        "tracer": tracer,
        "artifact": {
            "host": "the benchmark process (one thread, jobs=1)",
            "reconcile": balance,
            "reconcile_unit": "wall seconds of the traced rounds",
            "untraced": untraced, "traced": traced, "gate": gate_info,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--measure", action="store_true")
    args = parser.parse_args(argv)

    control = os.fdopen(os.dup(1), "w", buffering=1)
    log = open(os.path.join(args.dir, "child.log"), "ab")
    os.dup2(log.fileno(), 1)
    use_sources()
    workload = make_workload(args.workload, args.seed, args.dir)
    traced_serve = args.trace == 1 and args.workload == "serve-mixed"
    try:
        info = workload.setup(in_process=True) if traced_serve else workload.setup()
        control.write("READY\n")
        if not args.measure:
            return 0
        if args.trace == 0:
            if args.workload == "serve-mixed":
                result = workload.measure(args.seconds)
            else:
                result = measure_ensemble(workload, args.seconds)
            result["info"].update(info)
        else:
            import tracing

            if traced_serve:
                out = workload.trace(args.seconds, tracing)
            else:
                out = trace_ensemble(workload, args.seconds, tracing)
            artifact = {"workload": args.workload, "seed": args.seed, **info,
                        "layer_metrics": out["values"], **out["artifact"]}
            path = tracing.write_artifact(args.workload, args.seed, artifact, out["tracer"])
            result = {
                "correct": out["correct"], "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {
                    name: (out["values"][name], unit)
                    for name, unit in tracing.LAYER_METRICS.items()
                },
                "info": {**info, "artifact": path,
                         "reconciled": out["artifact"]["reconcile"]["reconciled"],
                         "gate": out["artifact"]["gate"]},
            }
        control.write("RESULT " + json.dumps(result, default=str) + "\n")
    finally:
        if hasattr(workload, "teardown"):
            workload.teardown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
