"""tools/compare.py's summariser against the committed paired comparisons:
from each file's ``pairs`` it gives the ``summary`` blocks written there
(medians and inclusive quartiles to 1e-4 relative, wins, bounds and
verdicts exactly), and its claim rule reads each file's claim as met."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare", ROOT / "tools" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

BENCH_FILES = ["BENCH_15.json", "BENCH_18.json", "BENCH_20.json", "BENCH_22.json",
               "BENCH_25.json"]


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


@pytest.mark.parametrize("name", BENCH_FILES)
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
