"""Golden transcript checks.

The expected intermediate states are re-derived here from the literal
per-line expressions (an oracle independent of the element machinery) and
compared against the packaged fixture files; the element-chain splitter must
then reproduce every line amplitude-exactly.
"""

import math

import numpy as np
import pytest

import cpfsim.conventions as conv
from cpfsim import elements as el
from cpfsim.gate_d4 import (
    HdBeamSplitter,
    Stage,
    build_hd_beamsplitter,
    transcript_check,
    _load_transcript,
)
from cpfsim.modes import compose_transforms

A = np.array([1.0, 2.0, 3.0, 4.0]) / math.sqrt(30.0)   # a_{-2}, a_{-1}, a_0, a_{+1}
B = np.array([1.0, 2.0]) / math.sqrt(5.0)               # b_{-1}, b_{+1}
I = 1j


def port_a_lines():
    a = A
    return [
        ("input", {("A", "H", -2): a[0], ("A", "H", -1): a[1],
                   ("A", "H", 0): a[2], ("A", "H", 1): a[3]}),
        ("O1@A", {("A", "H", 2): -a[0], ("A", "H", 0): a[2],
                  ("A", "V", 1): I * a[1], ("A", "V", -1): -I * a[3]}),
        ("PBS1", {("P1", "H", 2): -a[0], ("P1", "H", 0): a[2],
                  ("P2", "V", -1): -a[1], ("P2", "V", 1): a[3]}),
        ("O2@P2", {("P1", "H", 2): -a[0], ("P1", "H", 0): a[2],
                   ("P2", "V", 1): -a[1], ("P2", "H", -1): -a[3]}),
        ("PBS2", {("P1", "H", 2): -a[0], ("P1", "H", 0): a[2],
                  ("P2", "V", -1): -I * a[1], ("D", "H", -1): -a[3]}),
        ("O2MP@P2", {("P1", "H", 2): -a[0], ("P1", "H", 0): a[2],
                     ("P2", "V", -1): -a[1], ("D", "H", -1): -a[3]}),
        ("PBS3", {("C", "H", 2): -a[0], ("C", "H", 0): a[2],
                  ("C", "V", 1): -I * a[1], ("D", "H", -1): -a[3]}),
        ("DTAIL@D", {("C", "H", -2): a[0], ("C", "H", 0): a[2],
                     ("C", "H", -1): a[1], ("D", "H", 1): a[3]}),
    ]


def port_b_lines():
    b = B
    return [
        ("input", {("B", "H", -1): b[0], ("B", "H", 1): b[1]}),
        ("BLEG@B", {("B", "V", -1): b[0], ("B", "H", 1): b[1]}),
        ("PBS2", {("P2", "H", 1): b[1], ("D", "V", 1): I * b[0]}),
        ("O2MP@P2", {("P2", "V", 1): b[1], ("D", "V", 1): I * b[0]}),
        ("PBS3", {("C", "V", -1): I * b[1], ("D", "V", 1): I * b[0]}),
        ("DTAIL@D", {("C", "H", 1): b[1], ("D", "H", -1): b[0]}),
    ]


@pytest.mark.parametrize("port,oracle", [("A", port_a_lines), ("B", port_b_lines)])
def test_fixture_files_match_literal_expressions(port, oracle):
    packaged = _load_transcript(port)
    expected = oracle()
    assert [label for label, _ in packaged] == [label for label, _ in expected]
    for (label, got), (_, want) in zip(packaged, expected):
        assert set(got) == {k for k, v in want.items() if abs(v) > 0}, label
        for key, amp in want.items():
            assert abs(got[key] - amp) < 1e-12, (label, key)


def test_transcripts_reproduced_by_element_chain(splitter_space):
    bs = build_hd_beamsplitter(splitter_space)
    report = transcript_check(bs)
    assert report.ok, report.lines()
    assert len(report.entries) == 12  # 7 port-A and 5 port-B checkpoints
    assert all(e.max_deviation <= 1e-10 for e in report.entries)


def test_wrong_pbs_phase_flagged_at_first_pbs(splitter_space, monkeypatch):
    monkeypatch.setattr(conv, "PBS_REFLECT_PHASE", -1j)
    bs = build_hd_beamsplitter(splitter_space)
    report = transcript_check(bs)
    first = next((e for e in report.entries if not e.ok), None)
    assert first is not None and (first.port, first.label) == ("A", "PBS1")


def test_missing_phase_plate_flagged_at_its_stage(splitter_space):
    bs = build_hd_beamsplitter(splitter_space)
    sp = splitter_space
    stages = list(bs.stages)
    (idx,) = [i for i, s in enumerate(stages) if s.label == "O2MP@P2"]
    without_pp = compose_transforms([el.o2_cnot(sp, "P2"), el.mirror(sp, "P2")])
    stages[idx] = Stage("O2MP@P2", without_pp)
    broken = HdBeamSplitter(sp, bs.paths, stages)
    report = transcript_check(broken)
    first = next((e for e in report.entries if not e.ok), None)
    assert first is not None and (first.port, first.label) == ("A", "O2MP@P2")
    # earlier checkpoints still match
    labels_ok = [e.label for e in report.entries if e.ok and e.port == "A"]
    assert "PBS2" in labels_ok


def test_report_lines_readable(splitter_space):
    bs = build_hd_beamsplitter(splitter_space)
    lines = transcript_check(bs).lines()
    assert any("ok" in line for line in lines)
