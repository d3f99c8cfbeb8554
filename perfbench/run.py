"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fig10-dense --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each set-up happens in a fresh
interpreter (``child.py``) with an empty result cache and an empty
C-kernel build directory; set-up time runs from process start to the
moment the workload is ready.  With ``--trace 0`` set-up is repeated
and its median reported, and the last child goes on to measure the
end-to-end metrics.  With ``--trace 1`` one child sets up, then runs
untraced and traced halves and reports the per-layer metrics.

The last line of standard output is the result object; a human
summary goes to standard error.  Exits non-zero, printing no result,
when the sources are missing, a child fails, or it overruns its time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading

from common import SRC_DIR, WORK_DIR, WORKLOADS, cpu_ticks, median, metric, now

HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-ups per ``--trace 0`` run (the median is reported).
SETUP_REPEATS = 5

#: Whole-run budget, seconds; children still running are killed.
BUDGET = 175.0


class ChildError(RuntimeError):
    pass


def start_child(args, workdir: str, measure: bool):
    os.makedirs(os.path.join(workdir, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    env["REPRO_CKERNEL_CACHE"] = os.path.join(workdir, "ckernel")
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", workdir,
    ]
    if measure:
        command.append("--measure")
    # A session of its own, so a timeout can stop the child's fleet too.
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)


def run_child(args, workdir: str, measure: bool, deadline: float):
    """Returns (set-up seconds, result or None)."""
    start = now()
    proc = start_child(args, workdir, measure)

    def kill() -> None:
        # The whole process group: a child that died mid-set-up may
        # leave fleet workers behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(1.0, deadline - now()), kill)
    timer.start()
    setup = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup is None:
                setup = now() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        kill()
    if code != 0 or setup is None or (measure and result is None):
        raise ChildError(f"{args.workload} child exited {code}")
    return setup, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"run.py: no {SRC_DIR}/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2

    deadline = now() + BUDGET
    steal0, total0 = cpu_ticks()
    os.makedirs(WORK_DIR, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=WORK_DIR)
    repeats = SETUP_REPEATS if args.trace == 0 else 1
    setups = []
    try:
        for i in range(repeats):
            workdir = os.path.join(rundir, f"setup{i}")
            os.makedirs(workdir)
            setup, result = run_child(args, workdir, i == repeats - 1, deadline)
            setups.append(setup)
    except ChildError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    metrics = {name: metric(value, unit) for name, (value, unit) in result["metrics"].items()}
    if args.trace == 0:
        metrics["setup_s"] = metric(median(setups), "s")
    steal1, total1 = cpu_ticks()
    # CPU time the hypervisor gave to other guests: a noisy-host warning.
    steal = (steal1 - steal0) / max(1, total1 - total0)
    info = {**result.get("info", {}), "setup_s_all": setups, "host_steal_frac": steal}
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}, default=str),
          file=sys.stderr)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": dict(sorted(metrics.items())),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
