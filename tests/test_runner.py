import json
import subprocess
import sys
from pathlib import Path

import pytest

from cpfsim.cli import main as cli_main
from cpfsim.netlist import parse_netlist, serialize
from cpfsim.runner import NetlistError, emit, execute, load_netlist

FIXTURES = Path(__file__).resolve().parent.parent / "netlists"


@pytest.fixture(scope="module")
def cpf_netlist():
    res = load_netlist(FIXTURES / "cpf_d4.netlist")
    assert res.ok
    return res.netlist


@pytest.fixture(scope="module")
def lock_netlist():
    res = load_netlist(FIXTURES / "lock.netlist")
    assert res.ok
    return res.netlist


def test_execute_cpf_numbers(cpf_netlist, pipe):
    rr = execute(cpf_netlist)
    assert abs(rr.heralding_probability - 0.125) < 1e-10
    assert rr.summary["per_outcome_probability"]["PhiPlus"] == pytest.approx(1 / 16)
    # |3> x (|1>+|3>)/sqrt2 heralds the flipped superposition
    state = {(m, n): complex(re, im)
             for m, n, re, im in rr.states["PhiPlus"]}
    ratio = state[(3, 3)] / state[(3, 1)]
    assert abs(ratio + 1.0) < 1e-9


def test_execute_deterministic_json(cpf_netlist, pipe):
    a = execute(cpf_netlist).to_json()
    b = execute(cpf_netlist).to_json()
    assert a.encode() == b.encode()


def test_shots_mode_tallies(cpf_netlist, pipe):
    nl = parse_netlist(serialize(cpf_netlist)).netlist
    nl.mode = "shots"
    nl.shots = 5000
    rr = execute(nl)
    assert sum(rr.tallies.values()) == 5000
    nl2 = parse_netlist(serialize(nl)).netlist
    nl2.seed = nl.seed + 1
    rr2 = execute(nl2)
    assert rr2.tallies != rr.tallies
    assert rr2.heralding_probability == pytest.approx(rr.heralding_probability)


def test_execute_lock(lock_netlist):
    rr = execute(lock_netlist)
    assert rr.trace_csv is not None
    assert rr.summary["rms_closed"] < 0.05 < rr.summary["rms_open"]
    again = execute(lock_netlist)
    assert again.to_json() == rr.to_json()


def test_execute_circuit():
    text = """
version 1

[space]
paths A B
truncation 4

[source photon1]
path A
recipe z2

[elements]
HWP(angle=0.39269908169872414) @ A
PBS(in=[A,B],out=[A,B])

[detect]

[run]
task circuit
mode shots
shots 1000
seed 5
"""
    res = parse_netlist(text)
    assert res.ok, [str(d) for d in res.diagnostics]
    rr = execute(res.netlist)
    dist = rr.summary["distribution"]
    assert abs(dist["A:1"] - 0.5) < 1e-9
    assert abs(dist["B:1"] - 0.5) < 1e-9
    assert sum(rr.tallies.values()) == 1000


def test_lock_honours_pid_output_limits(lock_netlist):
    text = serialize(lock_netlist).replace("duration 4\n", "duration 1\n")
    free = execute(parse_netlist(text))
    clamped = execute(parse_netlist(text + "pid.out_min -0.05\npid.out_max 0.05\n"))

    def actuation(rr):
        return [float(row.split(",")[4]) for row in rr.trace_csv.splitlines()[1:]]

    assert max(map(abs, actuation(free))) > 0.05
    assert max(actuation(clamped)) == 0.05 and min(actuation(clamped)) >= -0.05


def test_execute_rejects_bad_netlist():
    res = parse_netlist("version 1\n[run]\ntask warp\n")
    with pytest.raises(NetlistError):
        execute(res)


def test_execute_rejects_aux_data_photon(cpf_netlist):
    nl = parse_netlist(serialize(cpf_netlist)).netlist
    nl.sources["photon1"].recipe = "aux"
    with pytest.raises(NetlistError):
        execute(nl)


def test_cpf_rejects_other_truncation(cpf_netlist):
    nl = parse_netlist(serialize(cpf_netlist)).netlist
    nl.truncation = 6
    with pytest.raises(NetlistError, match="truncation"):
        execute(nl)


def test_cpf_rejects_noise_draws(cpf_netlist):
    nl = parse_netlist(serialize(cpf_netlist)).netlist
    nl.noise["draws"] = 8
    with pytest.raises(NetlistError, match="draws"):
        execute(nl)


@pytest.mark.parametrize("mode,shots", [("analytic", 0), ("shots", 100)])
def test_fidelity_with_every_draw_lost(mode, shots):
    nl = parse_netlist(
        f"version 1\n[run]\ntask fidelity\nmode {mode}\nshots {shots}\nseed 3\n"
        "noise.loss 1\nnoise.draws 4\n"
    ).netlist
    rr = execute(nl)
    assert rr.heralding_probability == 0.0
    for name in ("matrix_zx", "matrix_xz"):
        assert rr.fidelity[name] == [[0.0] * 16] * 16
    assert rr.fidelity["bounds"] == {"lower": 0.0, "upper": 0.0}
    counts = [rec["count"] for rec in rr.fidelity["outcome_rows"]]
    assert counts == [0 if shots else None] * len(counts)


@pytest.mark.parametrize("task", ("cpf_d4", "fidelity", "lock"))
def test_elements_rejected_outside_circuit(task):
    res = parse_netlist(f"version 1\n[elements]\nMIRROR() @ A\n[run]\ntask {task}\n")
    assert res.ok
    with pytest.raises(NetlistError, match="elements"):
        execute(res)


def test_emit_files(tmp_path, cpf_netlist, pipe):
    rr = execute(cpf_netlist)
    paths = emit(rr, "both", tmp_path, "demo")
    names = sorted(p.name for p in paths)
    assert names == ["demo.json", "demo_tallies.csv"]
    data = json.loads((tmp_path / "demo.json").read_text())
    assert data["heralding_probability"] == pytest.approx(0.125)
    assert (tmp_path / "demo_tallies.csv").read_text().splitlines()[0] == "outcome,count"


def test_emit_fidelity_matrices(tmp_path):
    nl = parse_netlist(
        "version 1\n[run]\ntask fidelity\nmode analytic\nshots 0\nseed 1\n"
    ).netlist
    rr = execute(nl)
    assert rr.fidelity["bounds"]["lower"] <= rr.fidelity["bounds"]["upper"]
    paths = emit(rr, "csv", tmp_path, "fid")
    matrix = (tmp_path / "fid_matrix_zx.csv").read_text().splitlines()
    assert len(matrix) == 16 and len(matrix[0].split(",")) == 16


def test_cli_validate_and_exit_codes(tmp_path, capsys):
    good = FIXTURES / "cpf_d4.netlist"
    assert cli_main(["validate", "--netlist", str(good)]) == 0
    bad = tmp_path / "bad.netlist"
    bad.write_text("version 1\n[elements]\nHWP(angle=) @ A\n")
    assert cli_main(["validate", "--netlist", str(bad)]) == 1
    capsys.readouterr()


def test_cli_simulate_writes_files(tmp_path, capsys, pipe):
    code = cli_main([
        "simulate", "--netlist", str(FIXTURES / "cpf_d4.netlist"),
        "--out", str(tmp_path), "--format", "both",
    ])
    assert code == 0
    assert (tmp_path / "cpf_d4.json").exists()
    capsys.readouterr()


def test_cli_transcript(capsys):
    assert cli_main(["transcript"]) == 0
    out = capsys.readouterr().out
    assert "DIVERGED" not in out


def test_cli_lock(tmp_path, capsys):
    code = cli_main([
        "lock", "--netlist", str(FIXTURES / "lock.netlist"),
        "--out", str(tmp_path), "--format", "both",
    ])
    assert code == 0
    trace = tmp_path / "lock_trace.csv"
    assert trace.exists()
    assert trace.read_text().startswith("t,zeta_open")
    capsys.readouterr()


def test_console_script_entrypoint(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cpfsim.cli", "validate", "--netlist",
         str(FIXTURES / "lock.netlist")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_cross_process_byte_identical_json(tmp_path):
    script = (
        "from cpfsim.runner import load_netlist, execute;"
        f"r = load_netlist(r'{FIXTURES / 'cpf_d4.netlist'}');"
        "import sys; sys.stdout.write(execute(r).to_json())"
    )
    outs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
