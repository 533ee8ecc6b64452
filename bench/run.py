"""cpfsim benchmark: closed-loop netlist jobs through the public Python API.

Run from the repository root:

    python3 bench/run.py --workload gate_netlists --seed 1 --seconds 12 --trace 0

One client in one process runs the workload's jobs back to back; the next
job starts when the previous one returns.  Every job output is checked.
End-to-end times are calibrated by a reference kernel run between jobs
(``reference.py``), which takes out the drift of a shared machine's speed.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Details (provenance, tail percentile, extra rates) go to
``bench/out/<workload>-seed<seed>-trace<t>.json``; a traced run also writes
its spans next to it.  Exit status: 0 when every job passed its checks,
1 when any failed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_PROBES = (5, 9)     # at least 5; more, up to 9, while under SETUP_PROBE_S
SETUP_PROBE_S = 4.0
SETUP_REFS = 30           # reference runs after each set-up probe
PROBE_TIMEOUT_S = 150
BLAS_THREADS = "1"        # OPENBLAS_NUM_THREADS of every run and probe
HELD_OUT_SEED = 7919      # reserved for checking claims; never used to tune
TAIL_BEYOND = 10
TAIL_MAX_PERCENTILE = 95.0
CAVEAT = ("single shared machine; process-level timers (time.perf_counter, "
          "getrusage) only; no machine tuning")


def _blas_threads() -> str:
    """Run OpenBLAS on one thread, whatever the environment says; must run
    before numpy is imported.

    The loop is one client in one process.  A second BLAS thread busy-waits
    for a CPU: on two CPUs with one other busy process, gate jobs took 24 ms
    with two BLAS threads against 15 ms with one, and 14 ms either way on an
    idle machine.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    return BLAS_THREADS


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cpfsim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _provenance(args, blas_threads, deck_size) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": blas_threads,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "deck_jobs": deck_size,
        "load": "closed loop, one client, one process",
        "caveat": CAVEAT,
    }


def _tail(latencies):
    """(percentile, value, samples beyond it) for the highest percentile, up
    to p95, with at least ten samples beyond it (nearest rank); never below
    the median, which is what it gives under twenty samples.

    Capped at p95 because on a shared machine the few slowest of a thousand
    short jobs are the ones the machine stalled, so p99 and above measure
    how often it stalls rather than the program.
    """
    lat = sorted(latencies)
    n = len(lat)
    if n < 2 * TAIL_BEYOND:
        return 50.0, statistics.median(lat), n // 2
    k = min(n - TAIL_BEYOND, math.ceil(TAIL_MAX_PERCENTILE / 100 * n))
    return 100.0 * k / n, lat[k - 1], n - k


class Runner:
    """Runs one workload's jobs, checks every output, keeps the tallies."""

    def __init__(self, wl, deck):
        self.wl, self.deck = wl, deck
        self.warmup_job = wl.warmup()
        self.tracer = None
        self.attempted = self.failed = 0
        self.errors: list = []

    def one(self, job, slot, job_id=None):
        """Run and check ``job``; return (latency in s, output or None).

        ``slot`` labels the job in error reports.  With a tracer installed
        and a ``job_id``, the job runs traced.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if job_id is not None:
                out = self.tracer.run_job(job_id, self.wl.job, job)
            else:
                out = self.wl.job(job)
            errors = None
        except Exception as e:  # a job that raises is a failed job
            out, errors = None, [f"raised {type(e).__name__}: {e}"]
        latency = time.perf_counter() - t0
        if errors is None:
            errors = self.wl.check(job, out)
        if errors:
            self.failed += 1
            self.errors.append({"slot": slot, "errors": errors[:5]})
        return latency, out

    def passes(self, seconds, traced=False, refs=None):
        """Whole deck passes within ``seconds``, at least one: no pass starts
        that the previous pass's duration says would end past the budget.

        Returns one entry per pass: its latencies and, when traced, the
        spans and counts it recorded.  With a ``refs`` list, the reference
        kernel runs once before every job and once after the last, and its
        times are appended to ``refs``.  Single runs, each right after a
        job: blocks of back-to-back runs tracked the jobs' speed less well.
        """
        import reference

        out = []
        start = time.perf_counter()
        while True:
            n, pass_start = len(out), time.perf_counter()
            lat = []
            for s, job in enumerate(self.deck):
                if refs is not None:
                    refs.append(reference.reference_s())
                lat.append(self.one(job, s, f"{n}:{s}" if traced else None)[0])
            out.append((lat, *self.tracer.take()) if traced else (lat,))
            now = time.perf_counter()
            if (now - start) + (now - pass_start) > seconds:
                if refs is not None:
                    refs.append(reference.reference_s())
                return out

    def warm_up(self):
        """Run the fixed warm-up job (lazy pipeline build); return its output."""
        return self.one(self.warmup_job, "warm-up")[1]

    def repeat_warmup(self, first):
        """Re-run the warm-up job and require byte-identical outputs."""
        again = self.warm_up()
        if first is None or again is None or (again.json_text, again.csv_text) \
                != (first.json_text, first.csv_text):
            self.failed += 1
            self.errors.append({"slot": "warm-up", "errors": [
                "re-run of the warm-up job is not byte-identical"]})


def _setup_probe(wl) -> int:
    """Import (done by the caller) and the fixed warm-up job; no deck.  Then,
    outside the set-up time, the median reference kernel time of this
    process."""
    import reference

    wl.job(wl.warmup())
    ready = time.monotonic()
    ref = statistics.median(reference.reference_s() for _ in range(SETUP_REFS))
    print(f"READY {ready!r} {ref!r}", flush=True)
    return 0


def _measure_setup(args) -> tuple[list, list]:
    """Interpreter start through import and the fixed warm-up job, each in a
    fresh process, one after another.  Cheap set-ups get more probes, since
    their median is the noisiest.  Returns the wall seconds of each probe
    and each probe calibrated by the reference kernel time the probe
    process measured right after its set-up."""
    import reference

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"]
    times, calibrated = [], []
    fewest, most = SETUP_PROBES
    while len(times) < fewest or (len(times) < most and sum(times) < SETUP_PROBE_S):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        ready = [ln for ln in proc.stdout.splitlines() if ln.startswith("READY ")]
        if proc.returncode != 0 or not ready:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        _, at, ref = ready[-1].split()
        times.append(float(at) - t0)
        calibrated.append(times[-1] * (reference.REF_MS / 1e3) / float(ref))
    return times, calibrated


def _end_to_end(args, wl, runner) -> tuple[dict, dict]:
    import reference

    setup_wall, setup = _measure_setup(args)
    first = runner.warm_up()
    refs: list = []
    start = time.perf_counter()
    passes = runner.passes(args.seconds, refs=refs)
    elapsed = time.perf_counter() - start
    wall = [lat for p in passes for lat in p[0]]
    latencies = reference.calibrate(wall, refs)
    runner.repeat_warmup(first)
    # Throughput over time spent inside jobs: the benchmark's own output
    # checks and reference runs between jobs are not the program's cost.
    busy = sum(latencies)
    jobs_per_s = len(latencies) / busy
    p, tail, beyond = _tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (jobs_per_s, "1/s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "job_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "setup_probes_s": setup,
        "setup_probes_wall_s": setup_wall,
        "reference_ms": {"nominal": reference.REF_MS,
                         "median": statistics.median(refs) * 1e3,
                         "min": min(refs) * 1e3, "max": max(refs) * 1e3},
        "wall": {"setup_s": statistics.median(setup_wall),
                 "jobs_per_s": len(wall) / sum(wall),
                 "job_p50_ms": statistics.median(wall) * 1e3},
        "timed_jobs": len(latencies),
        "timed_passes": len(passes),
        "timed_wall_s": elapsed,
        "busy_s": busy,
        "job_tail": {"percentile": p, "samples": len(latencies), "beyond": beyond},
        "failed_frac": runner.failed / runner.attempted,
    }
    if wl.work_unit is not None:
        name, unit, per_job = wl.work_unit
        details[name] = {"value": jobs_per_s * per_job, "unit": unit}
    return metrics, details


def _traced(args, wl, runner, run_errors) -> tuple[dict, dict]:
    import tracing
    from cpfsim import gate_d4

    first = runner.warm_up()
    plain = runner.passes(args.seconds / 2)
    tracer = tracing.Tracer()
    runner.tracer = tracer
    with tracer.installed():
        init_s = 0.0
        setup_spans = []
        if wl.uses_pipeline:
            tracer.run_job("setup", gate_d4.CpfPipeline)
            setup_spans, setup_counts = tracer.take()
            init_s = tracing.aggregate(setup_spans, setup_counts)["gate_d4.CpfPipeline.init.s"]
        traced = runner.passes(args.seconds / 2, traced=True)
    runner.tracer = None
    runner.repeat_warmup(first)

    per_pass = [tracing.pass_metrics(tracing.aggregate(spans, counts))
                for _, spans, counts in traced]
    counts = per_pass[0][0]
    if any(c != counts for c, _ in per_pass[1:]):
        run_errors.append("count metrics differ between traced passes")
    missing = set(wl.layers) - tracing.layers_seen(traced[0][1])
    if missing:
        run_errors.append(f"no spans recorded for layers {sorted(missing)}")

    def rate(phase):
        return sum(len(p[0]) for p in phase) / sum(sum(p[0]) for p in phase)

    overhead = 1.0 - rate(traced) / rate(plain)
    units = dict(tracing.LAYER_METRICS)
    metrics = {name: (value, units[name]) for name, value in counts.items()}
    for name, _ in tracing.TIME_METRICS:
        metrics[name] = (statistics.median(t[name] for _, t in per_pass), "s")
    metrics["gate_d4.CpfPipeline.init.s"] = (init_s, "s")
    metrics["trace.overhead_frac"] = (overhead, "ratio")

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    tracer.write(spans_file, [setup_spans, traced[0][1]])
    details = {
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "spans_first_pass": len(traced[0][1]),
        "layers_seen": sorted(tracing.layers_seen(traced[0][1])),
        "failed_frac": runner.failed / runner.attempted,
    }
    return metrics, details


def main(argv=None) -> int:
    args = _parse_args(argv)
    blas_threads = _blas_threads()
    if not (SRC / "cpfsim" / "__init__.py").is_file():
        print(f"bench: no cpfsim sources under {SRC}; run from the root of a "
              "cpfsim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        return _setup_probe(wl)
    deck = wl.deck(np.random.default_rng(args.seed % 2**64))

    runner = Runner(wl, deck)
    run_errors: list = []
    if args.trace:
        metrics, details = _traced(args, wl, runner, run_errors)
    else:
        metrics, details = _end_to_end(args, wl, runner)
    correct = runner.failed == 0 and not run_errors
    provenance = _provenance(args, blas_threads, len(deck))

    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    if "wall" in details:
        w, r = details["wall"], details["reference_ms"]
        print(f"times above are calibrated to a {r['nominal']:g} ms reference "
              f"kernel (median {r['median']:.4g} ms this run); wall clock: "
              + ", ".join(f"{k} {v:.6g}" for k, v in w.items()))
    if "job_tail" in details:
        t = details["job_tail"]
        print(f"job_tail_ms is p{t['percentile']:.4g}: {t['beyond']} of "
              f"{t['samples']} samples beyond it")
    for key in ("draws_per_s", "lock_sim_s_per_s"):
        if key in details:
            print(f"{key:48s} {details[key]['value']:.6g} {details[key]['unit']}")
    print(f"{'failed_frac':48s} {details['failed_frac']:.6g} ratio")
    for err in runner.errors[:10]:
        print(f"job {err['slot']} failed: {'; '.join(err['errors'])}", file=sys.stderr)
    for err in run_errors:
        print(f"run check failed: {err}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({
        "provenance": provenance, "details": details,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "job_errors": runner.errors, "run_errors": run_errors,
    }, indent=2, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed + len(run_errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
