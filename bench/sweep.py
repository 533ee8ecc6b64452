"""Repeat the benchmark over seeds and summarise each metric's spread.

Run from the repository root, for example ten seeds of every workload:

    python3 bench/sweep.py --runs 10 --first-seed 1

Runs are made one after another, each as its own untraced process, with
the ``run_seconds`` of ``BENCHMARK.json``.  For every workload and end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the inter-quartile distance as a share of the median next to the
metric's bound.  ``--json FILE`` also writes the runs and the summary.
Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable); default all")
    ap.add_argument("--json", type=Path, help="write runs and summary here")
    args = ap.parse_args(argv)

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    report = {}
    for wl in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [*spec["command"], "--workload", wl, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{wl} seed {seed}: FAILED (exit {proc.returncode})\n"
                      f"{proc.stderr[-1500:]}")
                continue
            runs.append({"seed": seed, **{k: v["value"]
                                          for k, v in result["metrics"].items()}})
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        summary = {}
        if len(runs) >= 2:
            for name in runs[0]:
                if name != "seed":
                    summary[name] = summarise([r[name] for r in runs])
        report[wl] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:g}"
            print(f"  {name:24s} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                  f"q3 {s['q3']:.5g}  iqr/median {s['iqr_share']:.3f}{flag}")
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
