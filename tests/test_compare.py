"""tools/compare.py's summariser against the committed paired comparisons:
from each file's ``pairs`` it gives the ``summary`` blocks written there
(medians and inclusive quartiles to 1e-4 relative, wins, bounds and
verdicts exactly), and its claim rule reads each file's claim as met.  The
split by run order and a comparison without a claim are checked on
synthetic pair lists."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare", ROOT / "tools" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

CLAIM_FILES = ["BENCH_15.json", "BENCH_18.json", "BENCH_20.json", "BENCH_22.json",
               "BENCH_25.json", "BENCH_28.json", "BENCH_29.json"]
BENCH_FILES = [*CLAIM_FILES, "BENCH_30.json", "BENCH_31.json"]   # these two claim nothing


def _load(name):
    return json.loads((ROOT / name).read_text())


@pytest.mark.parametrize("name", BENCH_FILES)
def test_summariser_reproduces_committed_summaries(name):
    metrics = compare.end_to_end_metrics()
    for workload, entry in _load(name)["workloads"].items():
        got = compare.workload_entry(entry["pairs"], metrics)
        assert got["failed_jobs"] == entry["failed_jobs"], workload
        assert got["summary"].keys() == entry["summary"].keys()
        for metric, want in entry["summary"].items():
            have = got["summary"][metric]
            for side in ("parent", "change"):
                for q in ("median", "q1", "q3"):
                    assert math.isclose(have[side][q], want[side][q], rel_tol=1e-4), (
                        workload, metric, side, q)
            for key in ("change_wins", "pairs", "bound", "within_bound"):
                assert have[key] == want[key], (workload, metric, key)
            assert abs(have["median_change_rel"] - want["median_change_rel"]) <= 1e-4


@pytest.mark.parametrize("name", CLAIM_FILES)
def test_claim_rule_reads_committed_claims(name):
    """Each file's claimed workload and metric pass the rule."""
    doc = _load(name)
    claim = doc["claim"]
    better = {m["name"]: m["better"] for m in compare.end_to_end_metrics()}[claim["metric"]]
    summary = compare.summarise(doc["workloads"][claim["workload"]]["pairs"],
                                compare.end_to_end_metrics())
    assert compare.claim_holds(summary[claim["metric"]], better)[0]


def test_claim_rule_refuses_a_gain_inside_the_spread():
    pairs = [{"parent": {"jobs_per_s": p, "failed": 0}, "change": {"jobs_per_s": c, "failed": 0}}
             for p, c in [(100, 101), (110, 111), (90, 91), (105, 106)]]
    metric = [{"name": "jobs_per_s", "better": "higher", "bound": 0.25}]
    entry = compare.summarise(pairs, metric)["jobs_per_s"]
    assert entry["change_wins"] == 4
    ok, gain, iqr = compare.claim_holds(entry, "higher")
    assert not ok and gain < iqr


def _pair(order, parent, change):
    return {"order": order, "parent": {"jobs_per_s": parent, "failed": 0},
            "change": {"jobs_per_s": change, "failed": 0}}


def test_by_order_splits_the_pairs_by_the_side_run_first():
    metric = [{"name": "jobs_per_s", "better": "higher", "bound": 0.25}]
    first, second = ["parent", "change"], ["change", "parent"]
    pairs = [_pair(first, 100, 110), _pair(second, 100, 90), _pair(first, 200, 230),
             _pair(second, 50, 50), _pair(first, 80, 60)]
    assert compare.by_order(pairs, metric) == {
        "parent_first": {"pairs": 3, "jobs_per_s": 0.1},
        "change_first": {"pairs": 2, "jobs_per_s": -0.05}}
    assert compare.workload_entry(pairs[::2], metric)["by_order"] == {
        "parent_first": {"pairs": 3, "jobs_per_s": 0.1}, "change_first": {"pairs": 0}}


def _fake_bench(failed_seed=None, slow=1.0):
    """A ``run_pair`` stand-in: both sides alike on every end-to-end metric,
    the change's ``jobs_per_s`` divided by ``slow``, and one failed change
    job at ``failed_seed``."""
    def run_pair(roots, workload, seed, seconds, parent_first, trace=0):
        side = {"correct": True, "attempted": 100, "failed": 0, "setup_s": 0.5,
                "jobs_per_s": 100.0 + seed, "job_p50_ms": 5.0, "job_tail_ms": 9.0,
                "peak_rss_mb": 44.0}
        change = {**side, "jobs_per_s": side["jobs_per_s"] / slow,
                  "failed": int(seed == failed_seed)}
        return {"seed": seed, "order": ["parent", "change"] if parent_first
                else ["change", "parent"], "parent": side, "change": change}
    return run_pair


@pytest.mark.parametrize("failed_seed,slow,verdict", [
    (None, 1.0, "no regression"), (3, 1.0, "REGRESSION"), (None, 1.5, "REGRESSION")])
def test_no_claim_runs_ten_pairs_everywhere(monkeypatch, tmp_path, capsys,
                                           failed_seed, slow, verdict):
    """Without ``--claim``: ten alternated pairs on every workload, no
    held-out pairs, traced runs of each, ``"claim": null``, and exit 0 with
    "no regression" only when every metric is within its bound and no job
    failed."""
    traced = []
    monkeypatch.setattr(compare, "export", lambda commit, dest: commit * 40)
    monkeypatch.setattr(compare, "_git", lambda *args: b"subject")
    monkeypatch.setattr(compare, "run_pair", _fake_bench(failed_seed, slow))
    monkeypatch.setattr(compare, "traced", lambda roots, name: traced.append(name) or {})
    out = tmp_path / "BENCH.json"
    code = compare.main(["a", "b", "--out", str(out)])
    assert capsys.readouterr().out.startswith(verdict)
    assert code == (verdict != "no regression")
    doc = json.loads(out.read_text())
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert doc["claim"] is None and list(doc["workloads"]) == names == traced
    for entry in doc["workloads"].values():
        assert [p["seed"] for p in entry["pairs"]] == list(range(1, 11))
        assert [p["order"][0] for p in entry["pairs"]] == ["parent", "change"] * 5
