import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfsim.analysis import DEFAULT_DRAWS, STATE_VECTORS, build_heralded_channel
from cpfsim.cli import main as cli_main
from cpfsim import elements, gate_d4, netlist, runner
from cpfsim.elements import parse_descriptor
from cpfsim.gate_d4 import heralded_run
from cpfsim.netlist import Netlist, parse_netlist, serialize
from cpfsim.noise import NoiseSpec
from cpfsim.protocol import BellOutcome
from cpfsim.runner import NetlistError, emit, execute, load_netlist

BOTH = frozenset({BellOutcome.PhiPlus, BellOutcome.PhiMinus})

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


# A circuit whose q-plate can reach past its window, so the task check also
# pushes the source's photon through the chain.
_CHECKED_CIRCUIT = ("version 1\n[space]\npaths A B\ntruncation 2\n[source p]\npath A\n"
                    "recipe z1\n[elements]\nQP(q=0.5) @ A\nHWP(angle=0.3) @ A\n"
                    "[run]\ntask circuit\n")


def test_task_rules_checked_once_per_parsed_run(monkeypatch):
    """Parsing checks the task's rules and execute trusts an ok ParseResult:
    one task_problems call per execute(parse_netlist(text)), and one for a
    bare Netlist, which execute checks itself."""
    real, calls = netlist.task_problems, []

    def counted(nl):
        calls.append(nl.task)
        return real(nl)

    monkeypatch.setattr(netlist, "task_problems", counted)
    monkeypatch.setattr(runner, "task_problems", counted)
    res = parse_netlist(_CHECKED_CIRCUIT)
    assert execute(res).task == "circuit" and calls == ["circuit"]
    execute(res.netlist)
    assert calls == ["circuit"] * 2


def test_netlist_changed_after_parsing_is_refused():
    """A netlist changed after parsing goes to execute bare and is checked
    again, as the run commands' overrides are."""
    nl = parse_netlist(_CHECKED_CIRCUIT).netlist
    nl.task = "lock"
    with pytest.raises(NetlistError, match=re.escape("task lock runs no [space] block")):
        execute(nl)
    nl = parse_netlist(_CHECKED_CIRCUIT).netlist
    nl.elements.append(parse_descriptor("SPP(dl=-1) @ A"))
    with pytest.raises(NetlistError, match="leaves the window"):
        execute(nl)


@pytest.mark.parametrize("key,value,needle", [
    ("truncation", 100000, "truncation: expects an integer in [0, 63], got 100000"),
    ("truncation", -1, "truncation: expects an integer in [0, 63]"),
    ("shots", 2**70, "shots: expects an integer in [0, 9223372036854775807]"),
    ("seed", -1, "seed: expects an integer in [0, 9223372036854775807]"),
    ("seed", 2**64 + 5, "seed: expects an integer in [0, 9223372036854775807]"),
])
def test_bare_netlist_values_are_read_again(monkeypatch, key, value, needle):
    """A value set on a parsed netlist goes through its schema reader before
    execute builds anything: a huge truncation is refused, not allocated."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a mode space was built")

    monkeypatch.setattr(runner, "ModeSpace", unreachable)
    monkeypatch.setattr(netlist, "ModeSpace", unreachable)
    nl = parse_netlist(_CHECKED_CIRCUIT).netlist
    setattr(nl, key, value)
    with pytest.raises(NetlistError, match=re.escape(needle)):
        execute(nl)


@pytest.mark.parametrize("task,part,value,needle", [
    ("fidelity", "noise", {"loss": 2.0}, "noise: loss must be a probability"),
    ("lock", "lock", {"mod_depth": -1.0}, "lock: mod_depth must be positive"),
    ("lock", "drift", {"kind": "bogus"}, "drift: unknown drift kind 'bogus'"),
    ("fidelity", "noise", {"draws": 0, "loss": 0.1},
     "noise.draws: expects an integer in [1, 4096], got 0"),
    ("fidelity", "noise", {"draws": 2.5, "loss": 0.1},
     "noise.draws: expects an integer in [1, 4096], got 2.5"),
    ("cpf_d4", "noise", {"draws": 10**9, "loss": 0.1}, "noise.draws: expects an integer"),
    ("lock", "pid", {"out_min": 1.0, "out_max": 0.0}, "pid: output limits must be ordered"),
    # parsing refuses nan and inf; a bare Netlist is checked for them too
    ("fidelity", "noise", {"sigma_zeta": math.nan, "draws": 2},
     "noise: noise magnitudes must be non-negative and finite"),
    ("fidelity", "noise", {"oam_dephasing": math.inf},
     "noise: noise magnitudes must be non-negative and finite"),
    ("lock", "drift", {"magnitude": math.nan}, "drift: drift magnitude must be non-negative and finite"),
    ("lock", "drift", {"kind": "step", "step_time": math.nan}, "drift: drift step_time must be finite"),
    ("lock", "lock", {"e0h": 0.0, "e0v": 0.0}, "lock: e0h and e0v must be finite and non-zero"),
    ("lock", "lock", {"e0v": math.nan}, "lock: e0h and e0v must be finite and non-zero"),
])
def test_bare_netlist_settings_are_checked(cpf_netlist, lock_netlist, task, part, value, needle):
    """A bare Netlist's noise, lock, drift and PID settings go through the
    checks parsing runs: each bad value is a NetlistError before the run."""
    base = {"cpf_d4": cpf_netlist, "fidelity": Netlist(task="fidelity"),
            "lock": lock_netlist}[task]
    nl = dataclasses.replace(base, **{part: value})
    with pytest.raises(NetlistError, match=re.escape(needle)):
        execute(nl)


def test_execute_rejects_aux_data_photon(cpf_netlist):
    nl = parse_netlist(serialize(cpf_netlist)).netlist
    nl.sources["photon1"].recipe = "aux"
    with pytest.raises(NetlistError):
        execute(nl)


@pytest.mark.parametrize("task", ("cpf_d4", "fidelity"))
def test_execute_rejects_empty_accept(cpf_netlist, task):
    """A netlist built in Python with no accepted outcome is refused: it would
    herald nothing, and its provenance text would name the default list."""
    nl = dataclasses.replace(cpf_netlist if task == "cpf_d4" else Netlist(task=task), accept=())
    with pytest.raises(NetlistError, match=f"task {task} needs at least one Bell outcome"):
        execute(nl)


def test_cpf_rejects_other_truncation(cpf_netlist):
    nl = parse_netlist(serialize(cpf_netlist)).netlist
    nl.truncation = 6
    with pytest.raises(NetlistError, match="truncation"):
        execute(nl)


@pytest.mark.parametrize("mode,shots", [("analytic", 0), ("shots", 500)])
def test_warm_gate_run_builds_no_constants(cpf_netlist, monkeypatch, mode, shots):
    """A warm cpf_d4 run makes no Kronecker product, parses no descriptor and
    builds no element: the corrections and the polarizer are broadcast
    products and the preparation rows keep their built transforms.  It still
    builds its corrections and runs each data photon's polarizer."""
    text = serialize(cpf_netlist).replace("mode analytic\nshots 0", f"mode {mode}\nshots {shots}")
    res = parse_netlist(text)
    assert res.ok and res.netlist.shots == shots
    warm = execute(res).to_json()
    calls = dict.fromkeys(("kron", "parse_descriptor", "correction_unitary",
                           "element_transform", "polarizer"), 0)
    for owner in (np, elements, netlist, gate_d4):
        for name in calls:
            fn = getattr(owner, name, None)
            if fn is None:
                continue

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
    assert execute(res).to_json() == warm
    assert calls["kron"] == 0 and calls["parse_descriptor"] == 0
    assert calls["correction_unitary"] > 0
    assert calls["element_transform"] == 0 and calls["polarizer"] == 2


def _noisy_cpf(cpf_netlist, spec: NoiseSpec, draws=None, accept="PhiPlus PhiMinus",
               mode="analytic", shots=0):
    """The shipped cpf_d4 netlist under ``spec`` (its seed included)."""
    lines = [line for line in serialize(cpf_netlist).splitlines()
             if not line.startswith("noise.")]
    text = "\n".join(lines).replace("seed 7", f"seed {spec.seed}").replace(
        "accept PhiPlus PhiMinus", f"accept {accept}").replace(
        "mode analytic\nshots 0", f"mode {mode}\nshots {shots}") + "\n"
    text += "".join(f"noise.{k} {getattr(spec, k)!r}\n"
                    for k in ("sigma_zeta", "oam_dephasing", "loss", "visibility"))
    if draws is not None:
        text += f"noise.draws {draws}\n"
    res = parse_netlist(text)
    assert res.ok, [str(d) for d in res.diagnostics]
    return execute(res)


def _density(entries) -> np.ndarray:
    rho = np.zeros((16, 16), dtype=complex)
    for i, j, real, imag in entries:
        rho[i, j] = complex(real, imag)
    return rho


def _cpf_input(cpf_netlist) -> np.ndarray:
    return np.kron(STATE_VECTORS[cpf_netlist.sources["photon1"].recipe],
                   STATE_VECTORS[cpf_netlist.sources["photon4"].recipe])


@pytest.mark.parametrize("seed", range(1, 11))
def test_noisy_cpf_reports_the_draw_average(cpf_netlist, seed):
    """z3 x x13+ under loss 0.3 and sigma_zeta 0.5, PhiPlus: each unlost
    draw heralds 1/16 (Kraus completeness), so the run heralds the unlost
    share of the default draws times 1/16, not one draw's 0 or 1/16."""
    spec = NoiseSpec(sigma_zeta=0.5, loss=0.3, seed=seed)
    rr = _noisy_cpf(cpf_netlist, spec, accept="PhiPlus")
    unlost = sum(not d.lost for d in spec.draws(DEFAULT_DRAWS))
    assert abs(rr.heralding_probability - unlost / DEFAULT_DRAWS / 16) < 1e-12
    assert rr.states is None
    assert set(rr.summary["density"]) == ({"PhiPlus"} if unlost else set())


def test_density_parts_are_python_floats(cpf_netlist, pipe):
    """Each density entry reaches the JSON writer as [int, int, float,
    float]: no numpy scalar, which the writer would spell value by value."""
    rr = _noisy_cpf(cpf_netlist, NoiseSpec(sigma_zeta=0.5, oam_dephasing=0.2, seed=3), 4)
    entries = [e for es in rr.summary["density"].values() for e in es]
    assert entries and {tuple(map(type, e)) for e in entries} == {(int, int, float, float)}


@settings(max_examples=4, deadline=None)
@given(spec=st.builds(NoiseSpec, sigma_zeta=st.floats(0.0, 2.0),
                      oam_dephasing=st.floats(0.0, 2.0), loss=st.floats(0.0, 0.5),
                      visibility=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1)),
       draws=st.integers(1, 6), both=st.booleans())
def test_noisy_cpf_ensemble_properties(cpf_netlist, pipe, spec, draws, both):
    """For any noise: herald = (unlost draws)/N x |accept|/16, and each
    outcome's density matrix is Hermitian, of unit trace and positive."""
    accept = "PhiPlus PhiMinus" if both else "PhiMinus"
    rr = _noisy_cpf(cpf_netlist, spec, draws, accept)
    unlost = sum(not d.lost for d in spec.draws(draws)) if not spec.trivial else draws
    assert abs(rr.heralding_probability - unlost / draws * len(accept.split()) / 16) < 1e-12
    for entries in rr.summary.get("density", {}).values():
        rho = _density(entries)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_noisy_cpf_one_draw_is_that_draw(cpf_netlist, pipe):
    """``noise.draws 1`` reproduces the draw's heralded run: herald,
    per-outcome and pattern probabilities from its transfer operators, and
    rho = |psi><psi| of its first-pattern state."""
    spec = NoiseSpec(sigma_zeta=0.7, oam_dephasing=0.4, visibility=0.8, loss=0.2, seed=4)
    draw = spec.draws(1)[0]
    assert not draw.lost
    c = _cpf_input(cpf_netlist)
    pattern_want: dict = {}
    outcome_want: dict = {}
    first: dict = {}
    for (outcome, pattern), k in pipe.transfer_operators(draw).items():
        amps = k @ c
        pattern_want[pattern] = np.vdot(amps, amps).real
        outcome_want[outcome] = outcome_want.get(outcome, 0.0) + pattern_want[pattern]
        first.setdefault(outcome, amps / np.linalg.norm(amps))
    channel = build_heralded_channel(spec, 1)
    pattern_probs = heralded_run(channel.kraus, channel.labels, c, BOTH).pattern_probs
    assert set(pattern_probs) == set(pattern_want)
    for pattern, p in pattern_want.items():
        assert abs(pattern_probs[pattern] - p) < 1e-12
    rr = _noisy_cpf(cpf_netlist, spec, draws=1)
    assert abs(rr.heralding_probability - sum(outcome_want.values())) < 1e-12
    assert abs(rr.summary["port_pattern_probability"] - sum(pattern_want.values())) < 1e-12
    assert set(rr.summary["density"]) == {o.value for o in outcome_want}
    for outcome, p in outcome_want.items():
        assert abs(rr.summary["per_outcome_probability"][outcome.value] - p) < 1e-12
        psi = first[outcome]
        rho = _density(rr.summary["density"][outcome.value])
        assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) < 1e-11


def test_noisy_cpf_loss_only_keeps_the_ideal_state(cpf_netlist, pipe):
    """Loss deletes whole shots: every surviving draw heralds the noiseless
    state, so rho = |psi><psi| of the noise-free run."""
    ideal = execute(cpf_netlist)
    rr = _noisy_cpf(cpf_netlist, NoiseSpec(loss=0.2, seed=3), draws=8)
    assert rr.heralding_probability > 0
    assert set(rr.summary["density"]) == set(ideal.states)
    for outcome, entries in ideal.states.items():
        psi = np.zeros(16, dtype=complex)
        for m, n, re, im in entries:
            psi[4 * m + n] = complex(re, im)
        rho = _density(rr.summary["density"][outcome])
        assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) < 1e-11


@pytest.mark.parametrize("mode,shots", [("analytic", 0), ("shots", 100)])
def test_noisy_cpf_with_every_draw_lost(cpf_netlist, mode, shots):
    rr = _noisy_cpf(cpf_netlist, NoiseSpec(loss=1.0, seed=3), draws=4, mode=mode, shots=shots)
    assert rr.heralding_probability == 0.0
    assert rr.summary["density"] == {} and rr.summary["per_outcome_probability"] == {}
    assert rr.summary["port_pattern_probability"] == 0
    assert rr.tallies == ({"no-herald": shots} if shots else {})
    json.loads(rr.to_json())


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
    needle = f"task {task} runs no [elements] block"
    assert any(needle in d.message for d in res.diagnostics)
    with pytest.raises(NetlistError, match=re.escape(needle)):
        execute(res)


@pytest.mark.parametrize("task,body,needle", [
    *[(task, "[source p]\npath A\nrecipe z0", "[source] block") for task in ("fidelity", "lock")],
    *[(task, "[detect]\npattern A=1", "detection pattern") for task in ("fidelity", "lock")],
    *[(task, "[run]\nnoise.loss 0", "noise.* key") for task in ("circuit", "lock")],
])
def test_parts_a_task_does_not_read_are_rejected(task, body, needle):
    res = parse_netlist(f"version 1\n{body}\n[run]\ntask {task}\n")
    assert any(needle in d.message for d in res.diagnostics)
    with pytest.raises(NetlistError, match=re.escape(needle)):
        execute(res)


@pytest.mark.parametrize("pattern", ["E1=2", "C1=1 C2=1 E1=1", "C1=1 C2=1 E1=1 E2=1 X1=0"])
def test_cpf_rejects_other_patterns(cpf_netlist, pattern):
    text = serialize(cpf_netlist).replace("pattern C1=1 C2=1 E1=1 E2=1", f"pattern {pattern}")
    with pytest.raises(NetlistError, match="C1, C2, E1, E2 only"):
        execute(parse_netlist(text))


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


def test_cli_unwritable_out_is_a_runtime_error(tmp_path, capsys):
    """An --out that names an existing file is one runtime error line and
    exit code 2, not a traceback; the file is left as it was."""
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    code = cli_main(["simulate", "--netlist", str(FIXTURES / "cpf_d4.netlist"),
                     "--out", str(taken)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"runtime error: cannot write {taken}: File exists\n"
    assert taken.read_text() == "kept\n"


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


def test_console_script_entrypoint(tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "cpfsim.cli", "validate", "--netlist",
         str(FIXTURES / "lock.netlist")],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_cross_process_byte_identical_json(tmp_path, child_env):
    script = (
        "from cpfsim.runner import load_netlist, execute;"
        f"r = load_netlist(r'{FIXTURES / 'cpf_d4.netlist'}');"
        "import sys; sys.stdout.write(execute(r).to_json())"
    )
    outs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
