"""Paired benchmark comparison of two commits, written as a BENCH_<n>.json.

Run from the repository root:

    python3 tools/compare.py PARENT CHANGE --claim circuit_netlists:jobs_per_s \\
        --out BENCH_28.json

Each commit is exported with ``git archive`` into a fresh temporary
directory, and ``bench/run.py`` runs there unchanged, one run at a time,
each in a fresh process, for the ``run_seconds`` that ``BENCHMARK.json``
sets.  A pair is one run of each side on one seed; the side that runs first
alternates (parent first on odd seeds, change first on even seeds).  The
claimed workload gets ten pairs on seeds 1-10 and two more on the held-out
seed 7919, one in each order, reported apart as ``<workload>@held_out``.
Every other workload of ``BENCHMARK.json`` gets five no-regression pairs.
Three traced runs per side and workload on seed 1 give the per-layer counts
and times.  A full comparison takes about half an hour.

The summary of each end-to-end metric holds each side's median and
inclusive quartiles, the number of pairs the change won (a tie is no win),
the median's relative change and whether it is within the metric's bound
in ``BENCHMARK.json``.  The claim holds when the change wins at least 9 in
10 of the pairs and both held-out pairs, and its median lies beyond the
parent's by more than the parent's interquartile range.  The verdict is
printed and written out; the exit status is 0 when the claim holds.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 7919      # bench/run.py reserves it for checking claims
PAIRS = 10                # alternated pairs on the claimed workload
OTHER_PAIRS = 5           # alternated no-regression pairs on every other workload
TRACE_RUNS = 3            # traced runs per side and workload, on seed 1
TRACE_SECONDS = 10
WIN_SHARE = 0.9           # a claim needs the change to win 9 pairs in 10
DIGITS = 5                # decimals kept of every number written
CAVEAT = ("single shared machine; process-level timers only, calibrated by "
          "bench/reference.py as bench/README.md describes; no machine tuning; "
          "other tenants may have shared the machine")


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(commit: str, dest: Path) -> str:
    """Extract ``commit``'s tree into ``dest``; return its full hash."""
    sha = _git("rev-parse", "--verify", f"{commit}^{{commit}}").decode().strip()
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", sha))) as tar:
        tar.extractall(dest, filter="data")
    return sha


def end_to_end_metrics() -> list[dict]:
    """The end-to-end metrics of ``BENCHMARK.json``: name, better, bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in ``root``: its correctness, job tallies and
    every metric, rounded to ``DIGITS`` decimals."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"bench/run.py failed in {root}: {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    return {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
            **{k: round(v["value"], DIGITS) for k, v in out["metrics"].items()}}


def run_pair(roots: dict, workload: str, seed: int, seconds: float,
             parent_first: bool, trace: int = 0) -> dict:
    order = ["parent", "change"] if parent_first else ["change", "parent"]
    pair = {"seed": seed, "order": order}
    for side in order:
        pair[side] = bench(roots[side], workload, seed, seconds, trace)
        print(f"  {workload} seed {seed} {side}: "
              + ", ".join(f"{k} {pair[side][k]}" for k in ("correct", "jobs_per_s")
                          if k in pair[side]), file=sys.stderr, flush=True)
    return pair


def _spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), DIGITS),
            "q1": round(q1, DIGITS), "q3": round(q3, DIGITS)}


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and inclusive quartiles over the pairs,
    the pairs the change won, the median's relative change and whether it
    is within the metric's bound.  Needs at least two pairs."""
    summary = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        rel = statistics.median(change) / statistics.median(parent) - 1.0
        worse = rel if lower else -rel
        summary[name] = {"parent": _spread(parent), "change": _spread(change),
                         "change_wins": wins, "pairs": len(pairs),
                         "median_change_rel": round(rel, 4), "bound": m["bound"],
                         "within_bound": worse <= m["bound"]}
    return summary


def claim_holds(entry: dict, better: str) -> tuple[bool, float, float]:
    """(verdict, median gain in the better direction, parent's interquartile
    range) for one metric's summary entry."""
    gap = entry["change"]["median"] - entry["parent"]["median"]
    gain = -gap if better == "lower" else gap
    iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
    wins = entry["change_wins"] >= math.ceil(WIN_SHARE * entry["pairs"])
    return wins and gain > iqr, gain, iqr


def workload_entry(pairs: list[dict], metrics: list[dict]) -> dict:
    return {"failed_jobs": {side: sum(p[side]["failed"] for p in pairs)
                            for side in ("parent", "change")},
            "summary": summarise(pairs, metrics), "pairs": pairs}


def traced(roots: dict, workload: str) -> dict:
    """``TRACE_RUNS`` traced runs per side on seed 1, alternated: each side's
    correctness and the median of every per-layer metric, and the call
    counts per deck pass that differ between the sides."""
    per_side = {"parent": [], "change": []}
    for k in range(TRACE_RUNS):
        pair = run_pair(roots, workload, 1, TRACE_SECONDS, k % 2 == 0, trace=1)
        for side in per_side:
            per_side[side].append(pair[side])
    out = {}
    for side, results in per_side.items():
        names = [k for k in results[0] if k not in ("correct", "attempted", "failed")]
        out[side] = {"correct": all(r["correct"] for r in results), "runs": len(results),
                     "median": {n: round(statistics.median(r[n] for r in results), DIGITS)
                                for n in names}}
    parent, change = out["parent"]["median"], out["change"]["median"]
    out["calls_changed"] = {n: {"parent": v, "change": change.get(n)}
                            for n, v in parent.items()
                            if n.endswith(".calls") and change.get(n) != v}
    return out


def _note(workloads: dict, metrics: list[dict]) -> str:
    """Every metric's medians, relative change and wins, and whether every
    metric is within its bound and no job failed."""
    parts, within, failed = [], True, 0
    for name, entry in workloads.items():
        failed += sum(entry["failed_jobs"].values())
        cells = []
        for m in metrics:
            s = entry["summary"][m["name"]]
            within &= s["within_bound"]
            cells.append(f"{m['name']} {s['parent']['median']:.4g} -> "
                         f"{s['change']['median']:.4g} ({100 * s['median_change_rel']:+.1f} %, "
                         f"{s['change_wins']} of {s['pairs']})")
        parts.append(f"{name}: " + ", ".join(cells))
    head = ("Every end-to-end metric of every workload is within its bound"
            if within else "Some end-to-end metric is outside its bound")
    head += " and no job failed on either side." if not failed else f"; {failed} jobs failed."
    return head + " " + "; ".join(parts) + "."


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--claim", required=True, metavar="WORKLOAD:METRIC",
                    help="the claimed workload and end-to-end metric")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    workload, metric = args.claim.split(":")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    others = [w["name"] for w in declared["workloads"] if w["name"] != workload]
    metrics = end_to_end_metrics()
    better = next(m["better"] for m in metrics if m["name"] == metric)

    with tempfile.TemporaryDirectory() as work:
        roots = {side: Path(work) / side for side in ("parent", "change")}
        shas = {side: export(commit, roots[side])
                for side, commit in (("parent", args.parent), ("change", args.change))}
        results = {workload: [run_pair(roots, workload, s, seconds, s % 2 == 1)
                              for s in range(1, PAIRS + 1)]}
        for name in others:
            results[name] = [run_pair(roots, name, s, seconds, s % 2 == 1)
                             for s in range(1, OTHER_PAIRS + 1)]
        results[f"{workload}@held_out"] = [
            run_pair(roots, workload, HELD_OUT_SEED, seconds, first) for first in (True, False)]
        trace = {name: traced(roots, name) for name in [workload, *others]}

    workloads = {name: workload_entry(pairs, metrics) for name, pairs in results.items()}
    s = workloads[workload]["summary"][metric]
    held = workloads[f"{workload}@held_out"]["summary"][metric]
    main_ok, gain, iqr = claim_holds(s, better)
    result = (f"{s['parent']['median']:.4g} -> {s['change']['median']:.4g} median "
              f"({100 * s['median_change_rel']:+.1f} %), change better in "
              f"{s['change_wins']} of {s['pairs']} pairs; the median gain ({gain:.4g}) "
              f"{'exceeds' if gain > iqr else 'does not exceed'} the parent's quartile "
              f"spread ({iqr:.4g}); held-out seed {HELD_OUT_SEED}: "
              f"{held['parent']['median']:.4g} -> {held['change']['median']:.4g} in "
              f"{held['change_wins']} of {held['pairs']} pairs")
    met = main_ok and held["change_wins"] == held["pairs"]  # every held-out pair too
    import numpy as np

    doc = {
        "change": _git("log", "-1", "--format=%s", shas["change"]).decode().strip(),
        "parent": shas["parent"],
        "change_commit": shas["change"],
        "command": (f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} "
                    "--trace 0, run in a fresh git-archive export of each side by "
                    "tools/compare.py"),
        "design": (f"{PAIRS} alternated parent/change pairs on {workload}, seeds 1-{PAIRS}, "
                   f"and two on the held-out seed {HELD_OUT_SEED} (one in each order, "
                   f"reported as {workload}@held_out); {OTHER_PAIRS} alternated "
                   f"no-regression pairs (seeds 1-{OTHER_PAIRS}) on {', '.join(others)}; "
                   "parent first on odd seeds, change first on even seeds; one run at a "
                   "time, each a fresh process; quartiles by "
                   "statistics.quantiles(method='inclusive'); a tie counts as no win"),
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "OPENBLAS_NUM_THREADS": "1 (set by bench/run.py)",
                        "cpus": os.cpu_count()},
        "caveat": CAVEAT,
        "claim": {"workload": workload, "metric": metric,
                  "rule": (f"better in at least {WIN_SHARE:.0%} of the pairs and in every "
                           "held-out pair, the median gain above the parent's "
                           "interquartile range"),
                  "result": result, "met": met},
        "trace": {"command": (f"python3 bench/run.py --workload W --seed 1 --seconds "
                              f"{TRACE_SECONDS:g} --trace 1; {TRACE_RUNS} alternated runs per "
                              "side (parent first in odd runs); counts and span times are "
                              "per deck pass; 'median' is over the runs"),
                  **trace},
        "workloads": workloads,
        "note": ("The claim is met. " if met else "The claim is not met. ")
                + _note(workloads, metrics),
    }
    args.out.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n")
    print(f"claim {metric} on {workload}: {'met' if met else 'NOT met'}; {result}")
    return 0 if met else 1


if __name__ == "__main__":
    sys.exit(main())
