"""Paired benchmark comparison of two commits, written as a BENCH_<n>.json.

Run from the repository root:

    python3 tools/compare.py PARENT CHANGE --claim circuit_netlists:jobs_per_s \\
        --out BENCH_28.json
    python3 tools/compare.py PARENT CHANGE --out BENCH_30.json   # no claim

Each commit is exported with ``git archive`` into a fresh temporary
directory, and ``bench/run.py`` runs there unchanged, one run at a time,
each in a fresh process, for the ``run_seconds`` that ``BENCHMARK.json``
sets.  A pair is one run of each side on one seed; the side that runs first
alternates (parent first on odd seeds, change first on even seeds).  Every
workload of ``BENCHMARK.json`` gets ten pairs on seeds 1-10 (five could not
resolve a few percent).  A claimed workload gets two more on the held-out
seed 7919, one in each order, reported apart as ``<workload>@held_out``.
Three traced runs per side and workload on seed 1 give the per-layer counts
and times.  A full comparison takes about forty minutes.

The summary of each end-to-end metric holds each side's median and
inclusive quartiles, the number of pairs the change won (a tie is no win),
the median's relative change and whether it is within the metric's bound
in ``BENCHMARK.json``.  Beside it, ``by_order`` splits the pairs by the
side that ran first and gives each split's median per-pair relative
change, which shows a bias of run order.  The claim holds when the change wins at least 9 in
10 of the pairs and both held-out pairs, and its median lies beyond the
parent's by more than the parent's interquartile range.  The verdict is
printed and written out; the exit status is 0 when the claim holds.
Without a claim, ``"claim"`` is null, and the comparison prints "no
regression" and exits 0 only when every end-to-end metric of every workload
is within its bound and no job failed.
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
PAIRS = 10                # alternated pairs on every workload (five could not
                          # resolve a few percent)
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


def by_order(pairs: list[dict], metrics: list[dict]) -> dict:
    """The pairs split by which side ran first: per split, the number of
    pairs and per metric the median of the change's relative change
    against its parent in the same pair.  A bias of run order shows as a
    gap between the two splits."""
    out = {}
    for first in ("parent", "change"):
        group = [p for p in pairs if p["order"][0] == first]
        out[f"{first}_first"] = {"pairs": len(group), **{
            m["name"]: round(statistics.median(
                p["change"][m["name"]] / p["parent"][m["name"]] - 1.0 for p in group), 4)
            for m in metrics if group}}
    return out


def workload_entry(pairs: list[dict], metrics: list[dict]) -> dict:
    return {"failed_jobs": {side: sum(p[side]["failed"] for p in pairs)
                            for side in ("parent", "change")},
            "summary": summarise(pairs, metrics), "by_order": by_order(pairs, metrics),
            "pairs": pairs}


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


def within_bounds(workloads: dict, metrics: list[dict]) -> bool:
    """Whether every end-to-end metric of every workload is within its
    bound and no job failed on either side."""
    return all(not sum(entry["failed_jobs"].values())
               and all(entry["summary"][m["name"]]["within_bound"] for m in metrics)
               for entry in workloads.values())


def _note(workloads: dict, metrics: list[dict]) -> str:
    """Every metric's medians, relative change and wins, and whether every
    metric is within its bound and no job failed."""
    parts = []
    failed = sum(sum(entry["failed_jobs"].values()) for entry in workloads.values())
    within = all(entry["summary"][m["name"]]["within_bound"]
                 for entry in workloads.values() for m in metrics)
    for name, entry in workloads.items():
        cells = []
        for m in metrics:
            s = entry["summary"][m["name"]]
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
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC",
                    help="the claimed workload and end-to-end metric; without it, "
                         "a no-regression comparison")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    names = [w["name"] for w in declared["workloads"]]
    metrics = end_to_end_metrics()
    workload = metric = None
    if args.claim:
        workload, metric = args.claim.split(":")
        names.remove(workload)
        names.insert(0, workload)
        better = next(m["better"] for m in metrics if m["name"] == metric)

    with tempfile.TemporaryDirectory() as work:
        roots = {side: Path(work) / side for side in ("parent", "change")}
        shas = {side: export(commit, roots[side])
                for side, commit in (("parent", args.parent), ("change", args.change))}
        results = {name: [run_pair(roots, name, s, seconds, s % 2 == 1)
                          for s in range(1, PAIRS + 1)] for name in names}
        if workload:
            results[f"{workload}@held_out"] = [
                run_pair(roots, workload, HELD_OUT_SEED, seconds, first)
                for first in (True, False)]
        trace = {name: traced(roots, name) for name in names}

    workloads = {name: workload_entry(pairs, metrics) for name, pairs in results.items()}
    import numpy as np

    doc = {
        "change": _git("log", "-1", "--format=%s", shas["change"]).decode().strip(),
        "parent": shas["parent"],
        "change_commit": shas["change"],
        "command": (f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} "
                    "--trace 0, run in a fresh git-archive export of each side by "
                    "tools/compare.py"),
        "design": (f"{PAIRS} alternated parent/change pairs (seeds 1-{PAIRS}) on "
                   f"{', '.join(names)}"
                   + (f", and two on {workload} at the held-out seed {HELD_OUT_SEED} (one "
                      f"in each order, reported as {workload}@held_out)" if workload else
                      ", no claim and no held-out pairs")
                   + "; parent first on odd seeds, change first on even seeds; one run "
                   "at a time, each a fresh process; quartiles by "
                   "statistics.quantiles(method='inclusive'); a tie counts as no win"),
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "OPENBLAS_NUM_THREADS": "1 (set by bench/run.py)",
                        "cpus": os.cpu_count()},
        "caveat": CAVEAT,
        "claim": None,
        "trace": {"command": (f"python3 bench/run.py --workload W --seed 1 --seconds "
                              f"{TRACE_SECONDS:g} --trace 1; {TRACE_RUNS} alternated runs per "
                              "side (parent first in odd runs); counts and span times are "
                              "per deck pass; 'median' is over the runs"),
                  **trace},
        "workloads": workloads,
        "note": _note(workloads, metrics),
    }
    if workload:
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
        ok = main_ok and held["change_wins"] == held["pairs"]  # every held-out pair too
        doc["claim"] = {"workload": workload, "metric": metric,
                        "rule": (f"better in at least {WIN_SHARE:.0%} of the pairs and in "
                                 "every held-out pair, the median gain above the parent's "
                                 "interquartile range"),
                        "result": result, "met": ok}
        doc["note"] = ("The claim is met. " if ok else "The claim is not met. ") + doc["note"]
        verdict = f"claim {metric} on {workload}: {'met' if ok else 'NOT met'}; {result}"
    else:
        ok = within_bounds(workloads, metrics)
        verdict = "no regression" if ok else "REGRESSION: " + doc["note"]
    args.out.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n")
    print(verdict)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
