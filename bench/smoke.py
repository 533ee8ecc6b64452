"""Smoke test of the benchmark itself; run from the repository root:

    python3 bench/smoke.py

Runs every workload at its smallest size (``--seconds 0``: one deck pass,
or one per phase when traced), untraced and traced twice, and checks that

* each run exits 0 and ends with a result line holding exactly ``correct``,
  ``attempted``, ``failed`` and ``metrics``, with every job passing;
* the metrics are exactly the ``end_to_end`` (untraced) or ``per_layer``
  (traced) metrics of ``BENCHMARK.json``, with their units;
* the count metrics of the two traced runs of a workload are identical;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's files,
  the benchmark exits non-zero without printing a result.

Takes about three minutes on a two-core machine.  Exits 1 on the first
problem found.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 11
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(SEED), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=180)


def result_of(proc, what):
    if proc.returncode != 0:
        fail(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != RESULT_KEYS:
        fail(f"{what}: result keys {sorted(res)}")
    if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
        fail(f"{what}: {res['attempted']} attempted, {res['failed']} failed")
    return res


def fail(message):
    print(f"FAIL {message}")
    sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for wl in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            what = f"{wl} --trace {trace}"
            res = result_of(run(wl, trace), what)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                fail(f"{what}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(got) ^ set(want[trace]))}")
            if trace:
                counts.append({k: v["value"] for k, v in res["metrics"].items()
                               if v["unit"] in ("count", "ratio")
                               and k != "trace.overhead_frac"})
        if counts[0] != counts[1]:
            diff = [k for k in counts[0] if counts[0][k] != counts[1][k]]
            fail(f"{wl}: count metrics differ between traced runs: {diff}")
        print(f"ok   {wl}")

    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 or last.startswith("{"):
            fail("benchmark ran without the cpfsim sources")
    print("ok   refuses to run without the cpfsim sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
