"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py            # from the root of a checkout

Runs every workload briefly, untraced and traced, and checks the
result line against ``BENCHMARK.json``: metric names, units, numbers,
the correctness gate and the failure counts.  Then it checks that the
gates can fail (a run whose reference answers are deliberately
perturbed must report ``correct: false`` and failed operations), and
that a directory holding only the benchmark exits non-zero without a
result.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from common import CORRUPT_ENV, WORK_DIR, WORKLOADS, load_manifest

SECONDS = "2"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, env=None, cwd=None):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=200)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def check_result(workload: str, trace: int, manifest: dict) -> None:
    code, result, stderr = run(workload, trace)
    label = f"{workload} --trace {trace}"
    ok = code == 0 and result is not None
    check(ok, f"{label} exits 0 with a result" + ("" if ok else f"\n{stderr[-600:]}"))
    check(set(result) == RESULT_KEYS, f"{label} result has exactly {sorted(RESULT_KEYS)}")
    check(result["correct"] is True, f"{label} passes its correctness gate")
    check(result["attempted"] >= 1 and result["failed"] == 0,
          f"{label} attempted {result['attempted']}, failed {result['failed']}")
    expected = manifest["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    check(set(got) == set(units), f"{label} reports exactly the manifest's metrics")
    wrong = [
        name for name, unit in units.items()
        if got[name]["unit"] != unit or isinstance(got[name]["value"], bool)
        or not isinstance(got[name]["value"], (int, float))
        or (not trace and got[name]["value"] <= 0)
    ]
    check(not wrong, f"{label} every metric is a number in its unit"
          + ("" if trace else " and positive") + (f" (wrong: {wrong})" if wrong else ""))


def check_gate_fails(workload: str) -> None:
    env = {**os.environ, CORRUPT_ENV: "1"}
    code, result, stderr = run(workload, 0, env=env)
    check(code == 0 and result is not None and result["correct"] is False
          and result["failed"] > 0,
          f"{workload} gate reports perturbed references as failures")


def check_no_sources() -> None:
    os.makedirs(WORK_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=WORK_DIR)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run(WORKLOADS[0], 0, cwd=bare)
        check(code != 0 and result is None, "without the sources: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    manifest = load_manifest()
    check([w["name"] for w in manifest["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json names the benchmark's workloads")
    check_no_sources()
    for workload in WORKLOADS:
        check_result(workload, 0, manifest)
        check_result(workload, 1, manifest)
        check_gate_fails(workload)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
