"""Fast self-test of the benchmark harness (about a minute).

    python3 bench/selftest.py

Checks, each at a one-second measuring time:
- every workload, untraced at the default seed and traced at another seed,
  exits 0 and ends stdout with a correct result line that carries exactly
  the metrics and units BENCHMARK.json names;
- a deliberately wrong golden hash is reported as a failed operation;
- without the package sources next to it the benchmark exits non-zero and
  prints no result.
Exits 0 when all pass, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run_bench

SPEC = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def bench(cwd: Path, workload: str, seed: int, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def check_result_line(workload: str, seed: int, trace: int) -> list[str]:
    code, stdout = bench(run_bench.ROOT, workload, seed, trace)
    where = f"{workload} seed {seed} trace {trace}"
    result = last_json(stdout)
    if code != 0 or result is None:
        return [f"{where}: exit {code}, last line {stdout.strip().splitlines()[-1:]}"]
    fails = []
    if set(result) != RESULT_KEYS:
        fails.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        fails.append(f"{where}: not correct: {stdout}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fails.append(f"{where}: metrics {got} != {want}")
    return fails


def check_wrong_golden() -> list[str]:
    golden = json.loads(run_bench.GOLDEN_PATH.read_text())
    golden["telemetry_sha256"]["noiseless"] = "0" * 64
    run_bench.ps = run_bench.import_package()
    work = run_bench.OUT_DIR / "selftest-work"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run_bench.run("station_record", 0, 1.0, False, golden, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result["failed"] != 1 or not any("golden" in f for f in result["failures"]):
        return [f"wrong golden hash not reported: failed={result['failed']} "
                f"failures={result['failures']}"]
    return []


def check_without_sources() -> list[str]:
    bare = run_bench.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run_bench.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", bare)
    try:
        code, stdout = bench(bare, SPEC["workloads"][0]["name"], 0, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or last_json(stdout) is not None:
        return [f"without sources: exit {code}, stdout {stdout!r}"]
    return []


def main() -> int:
    fails = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        fails += check_result_line(workload, 0, 0)
        fails += check_result_line(workload, 1, 1)
    fails += check_wrong_golden()
    fails += check_without_sources()
    for f in fails:
        print(f"FAIL {f}")
    print("selftest:", "FAIL" if fails else "OK")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
