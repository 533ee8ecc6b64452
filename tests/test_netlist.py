import contextlib
import inspect
import io
import json
import math
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpfsim.analysis import build_heralded_channel
from cpfsim.cli import main as cli_main
from cpfsim.elements import CATALOGUE, REQUIRED, parse_descriptor
from cpfsim.locking import DriftModel, LockParams, PidGains, check_lock_run
from cpfsim import netlist, runner
from cpfsim.netlist import (KNOWN_RECIPES, KNOWN_TASKS, SCHEMA, TASK_TABLE, Netlist, SourceSpec,
                            parse_netlist, parse_netlist_json, serialize, task_problems)
from cpfsim.noise import NoiseSpec
from cpfsim.protocol import BellOutcome
from cpfsim.runner import NetlistError, execute

FIXTURES = Path(__file__).resolve().parent.parent / "netlists"

MINIMAL = """
version 1

[space]
paths A B
truncation 4

[source photon1]
path A
recipe z0

[elements]
HWP(angle=0.3927) @ A

[detect]
pattern A=1

[run]
task circuit
"""


def test_minimal_netlist_fills_defaults():
    res = parse_netlist(MINIMAL)
    assert res.ok, [str(d) for d in res.diagnostics]
    nl = res.netlist
    assert nl.task == "circuit" and nl.mode == "analytic" and nl.shots == 0
    assert nl.accept == (BellOutcome.PhiPlus, BellOutcome.PhiMinus)
    assert nl.pattern == {"A": 1}
    assert len(nl.elements) == 1


def test_missing_parameter_value_diagnostic_with_position():
    res = parse_netlist("version 1\n[elements]\nHWP(angle=) @ A\n")
    assert not res.ok
    (diag,) = res.diagnostics
    assert diag.line == 3
    assert "missing parameter value" in diag.message
    assert diag.col > 0


# The two data photons a cpf_d4 netlist needs.
_CPF_SOURCES = "[source photon1]\npath A1\nrecipe z3\n[source photon4]\npath A2\nrecipe x13+\n"

# [run], [space], [detect], [source] and [lock] keys and values that no run
# can honour, and parts that the netlist's task does not read.
_VALUE_DEFECTS = [
    ("[source p]\npath A", "source 'p' has no recipe"),
    ("[space]\npaths A\n[source p]\npath A\n[run]\ntask circuit", "source 'p' has no recipe"),
    ("[space]\npaths A\n[source p]\nrecipe z0\n[run]\ntask circuit", "source 'p' has no path"),
    ("[space]\npaths A\n[run]\ntask circuit", "needs [space] paths and at least one source"),
    ("[space]\npaths A\ntruncation 1\n[source p]\npath A\nrecipe z0\n[run]\ntask circuit",
     "source 'p' with recipe z0 needs truncation >= 2"),
    ("[run]\ntask fidelity\n[lock]\nmod_depth 0.2\ndrift.magnitude 0.5\npid.kp 0.3",
     "task fidelity runs no [lock] block"),
    ("[run]\ntask lock\n[lock]\nmod_depth 0", "lock: mod_depth must be positive"),
    ("[run]\ntask lock\nmode shots", "task lock runs no mode or shots"),
    ("[run]\ntask lock\nshots 100", "task lock runs no mode or shots"),
    ("[detect]\naccept PhiPlus\n[run]\ntask lock", "task lock runs no accept list"),
    ("[space]\ntruncation 2\n[run]\ntask fidelity", "task fidelity runs no [space] block"),
    ("[space]\npaths A\n[run]\ntask lock", "task lock runs no [space] block"),
    (_CPF_SOURCES + "[lock]\npid.kp 0.2", "task cpf_d4 runs no [lock] block"),
    (_CPF_SOURCES + "[run]\nduration 9", "task cpf_d4 runs no duration or setpoint"),
    (_CPF_SOURCES + "[source photon5]\nrecipe z0", "task cpf_d4 has no source 'photon5'"),
    (_CPF_SOURCES.replace("A1", "E2"), "source 'photon1' enters the gate at A1, not E2"),
    (_CPF_SOURCES + "[space]\npaths A1 A2", "task cpf_d4 runs on the paths"),
    (_CPF_SOURCES + "[detect]\naccept PsiPlus", "task cpf_d4 tells apart"),
    ("[detect]\naccept PsiPlus\n[run]\ntask fidelity", "task fidelity tells apart"),
    (_CPF_SOURCES + "[run]\nshots 100", "mode analytic with shots 100"),
    ("[run]\ntask fidelity\nmode shots", "mode shots with shots 0"),
    (_CPF_SOURCES.replace("z3", "aux"), "source 'photon1' must use a data-state recipe"),
    (_CPF_SOURCES + "[source photon2]\nrecipe z0", "source 'photon2' must use the auxiliary"),
    ("[source photon4]\nrecipe z0", "task cpf_d4 requires a [source photon1] block"),
    ("[run]\nseed abc", "seed: expects an integer in [0, 9223372036854775807]"),
    ("[space]\ntruncation x", "truncation: expects an integer in [0, 63]"),
    ("[run]\nshots 1.5", "shots: expects an integer"),
    ("[detect]\npattern C1=x", "pattern: expects an integer >= 0"),
    ("[run]\nnoise.loss abc", "noise.loss: expects a finite number"),
    ("[lock]\nmod_freq abc", "mod_freq: expects a finite number"),
    ("[lock]\ndrift.magnitude abc", "drift.magnitude: expects a finite number"),
    ("[lock]\nmod_freqq 1", "unknown key 'mod_freqq' in [lock]"),
    ("[lock]\ndrift.kindd step", "unknown drift key 'kindd'"),
    ("[lock]\npid.out_maxx 1", "unknown pid key 'out_maxx'"),
    ("[run]\nnoise.loss 2", "loss must be a probability"),
    ("[run]\nnoise.sigma_zeta -1", "noise magnitudes must be non-negative"),
    ("[run]\nnoise.visibility 3", "visibility must lie in [0, 1]"),
    ("[lock]\ndrift.kind bogus", "unknown drift kind 'bogus'"),
    ("[lock]\ndrift.magnitude -1", "drift magnitude must be non-negative"),
    ("[lock]\npid.kp nan", "pid.kp: expects a finite number"),
    ("[space]\ntruncation -1", "truncation: expects an integer in [0, 63]"),
    ("[space]\ntruncation 64", "truncation: expects an integer in [0, 63]"),
    # would validate and then die allocating its element block without the bound
    ("[space]\npaths A\ntruncation 100000\n[source p]\npath A\nrecipe z2\n"
     "[elements]\nHWP(angle=0.1) @ A\n[run]\ntask circuit",
     "truncation: expects an integer in [0, 63]"),
    ("[run]\nduration nan", "duration: expects a finite number"),
    ("[run]\nnoise.draws 0", "noise.draws: expects an integer in [1, 4096]"),
    ("[run]\nnoise.draws -3", "noise.draws: expects an integer in [1, 4096]"),
    ("[run]\nnoise.draws 2.5", "noise.draws: expects an integer in [1, 4096]"),
    # would keep up to four 16x16 operators per draw without the bound
    ("[run]\ntask fidelity\nnoise.sigma_zeta 0.1\nnoise.draws 4097",
     "noise.draws: expects an integer in [1, 4096]"),
    ("[run]\nmode shotz", "unknown mode 'shotz'"),
    ("[run]\nseed -1", "seed: expects an integer in [0, 9223372036854775807]"),
    ("[run]\nseed 9223372036854775808", "seed: expects an integer in [0, 9223372036854775807]"),
    ("[space]\npaths A A", "expects distinct path names"),
    ("[lock]\npid.out_min 60", "output limits must be ordered"),
    ("[lock]\ndt 0", "dt must be positive"),
    # 63.42 samples per period: no servo step would span one carrier period
    ("[run]\ntask lock\n[lock]\nmod_freq 7126.35\ndt 1.39014e-5",
     "lock: dt must divide the modulation period into whole samples (63.4241 per period);"
     " the nearest dt that does is 1.39949764"),
    ("[run]\ntask lock\n[lock]\ndrift.kind sinusoidal\ndrift.period 0",
     "drift: drift period must be positive"),
    ("[lock]\nlpf_cutoff 0", "cutoff must be positive"),
    ("[lock]\ndemod_phase 0", "demod_phase leaves no error signal"),
    # without both beams the error signal is 0 (a division by zero) or rounding
    ("[run]\ntask lock\n[lock]\ne0h 0\ne0v 0", "lock: e0h and e0v must be finite and non-zero"),
    ("[lock]\ne0h 0", "lock: e0h and e0v must be finite and non-zero"),
    ("[lock]\ne0v 1e-170\ne0h 1e-170", "lock: e0h and e0v must be finite and non-zero"),
    # e0h^2 overflows in the detected intensity
    ("[lock]\ne0h 1e200", "lock: e0h^2 + e0v^2 overflows"),
    # an error slope the calibration cannot tell from its rounding floor
    ("[run]\ntask lock\n[lock]\ndemod_phase 5e-324", "lock: the calibrated error slope is 0"),
    ("[run]\ntask lock\n[lock]\ne0h 1e-300", "lock: the calibrated error slope is 0"),
    # the floor 1e-8 x the DC level underflows to 0, which any slope would clear
    ("[run]\ntask lock\n[lock]\ne0h 1e-160\ne0v 1e-160", "lock: the calibrated error slope is 0"),
    ("[run]\ntask lock\n[lock]\nmod_depth 1e-15", "lock: the calibrated error slope is 0"),
    ("[run]\nduration -1", "lock: duration must be positive"),
    ("[run]\nduration 0", "lock: duration must be positive"),
    ("[run]\nduration 1e9", "lock: duration 1e+09 s spans 6.4e+13 samples"),
    ("[lock]\ndt 1e-9", "lock: duration 4 s spans 4e+09 samples"),
    # subnormal: period / dt overflows to inf, which no sample count rounds to
    ("[lock]\ndt 1e-320", "lock: dt 1e-320 s splits the modulation period into more"
     " samples than a float can count"),
]

_DIAGNOSTIC_ROWS = [
    ("[elements]\nFROBULATOR(x=1) @ A", "unknown element"),
    ("[space]\npaths A\n[elements]\nHWP(angle=0.1) @ Z", "undeclared path"),
    ("[source p1]\npath A\nrecipe z0\n[source p1]\npath B\nrecipe z1",
     "duplicate source id"),
    ("[source p1]\npath A\nrecipe nope", "unknown recipe"),
    ("[detect]\naccept PhiPlus Quux", "unknown Bell outcome"),
    ("[run]\ntask warp", "unknown task"),
    ("[run]\nnoise.chaos 1.0", "unknown noise key"),
    ("[space]\npaths A\n[detect]\npattern B=1", "undeclared path"),
    ("[elements]\nQP(q=0.25) @ A", "non-integer"),
    ("[elements]\nPOL(angle=0.3) @ A", "unknown element kind 'POL'"),
    ("[elements]\nHWP(angle=abc) @ A", "finite number"),
    ("[elements]\nHWP(angle=0.1,phase=3) @ A", "takes no parameter"),
    ("[elements]\nMIRROR(angle=3) @ A", "takes no parameter"),
    ("[elements]\nPBS(in=[A,B],out=[A,B]) @ A", "path binding"),
    ("[elements]\nSPP(dl=1.5) @ A", "non-integer"),
    ("[elements]\nHWP() @ A", "requires parameter"),
    ("[elements]\nHWP(angle=0.1) @ A,B", "path binding"),
    ("[elements]\nQP(q=1e308) @ A", "finite number"),
    ("[elements]\nHWP(angle=0.1,angle=0.2) @ A", "repeats parameter"),
    # a key, a path or an outcome given twice is refused, not overwritten
    ("version 1", "repeats key 'version'"),
    ("[run]\nseed 7\nseed 9", "repeats key 'seed'"),
    ("[run]\nseed 7\n[detect]\naccept PhiPlus\n[run]\nseed 9", "repeats key 'seed'"),
    ("[run]\nnoise.loss 0.1\nnoise.loss 0.2", "repeats key 'noise.loss'"),
    ("[lock]\ne0h 1\ne0h 0.5", "repeats key 'e0h'"),
    ("[source p1]\npath A\nrecipe z0\npath B", "repeats key 'path'"),
    ("[detect]\npattern A=1 A=0", "repeats path(s) ['A']"),
    ("[detect]\naccept PhiPlus PhiPlus", "repeats Bell outcome(s) ['PhiPlus']"),
    # only [source NAME] takes a name after the section
    ("[run extra words]\ntask lock", "section [run] takes no name"),
    ("[space junk]\npaths A", "section [space] takes no name"),
    ("[elements chain]\nMIRROR() @ A", "section [elements] takes no name"),
    *_VALUE_DEFECTS,
]


@pytest.mark.parametrize("body,needle", _DIAGNOSTIC_ROWS)
def test_validation_diagnostics(body, needle):
    res = parse_netlist("version 1\n" + body + "\n")
    assert not res.ok
    assert any(needle in d.message for d in res.diagnostics), [
        str(d) for d in res.diagnostics]


def _json_value(key: str, text: str, typed: bool):
    """The JSON value of a text line's value: lists and objects for the
    structured keys, a number where ``text`` reads as one (nan and inf
    included), else the text itself, which is all that ``typed=False`` gives."""
    if not typed:
        return text
    if key in ("paths", "accept"):
        return text.split()
    if key == "pattern":
        return {p: _json_value("", c, typed) for p, _, c in (t.partition("=") for t in text.split())}
    for read in (json.loads, float):
        try:
            value = read(text)
        except ValueError:
            continue
        if isinstance(value, (int, float)):
            return value
    return text


def _json_form(body: str, typed: bool = True) -> dict:
    """The JSON netlist holding the sections, keys and values of ``body``."""
    obj: dict = {}
    section, arg = "", None
    for line in body.splitlines():
        if line.startswith("["):
            section, _, arg = line[1:-1].partition(" ")
            continue
        if section == "elements":
            obj.setdefault("elements", []).append(line)
            continue
        key, _, text = line.partition(" ")
        value = _json_value(key, text, typed)
        group, dot, name = key.partition(".")
        if section == "":
            obj[key] = value
        elif section == "source":
            obj.setdefault("sources", {}).setdefault(arg, {})[key] = value
        elif section == "lock":
            obj.setdefault("lock", {}).setdefault(group if dot else "params", {})[
                name if dot else key] = value
        elif dot:
            obj.setdefault(section, {}).setdefault(group, {})[name] = value
        else:
            obj.setdefault(section, {})[key] = value
    return obj


# A dict cannot repeat a name, so the rows whose text repeats a source, a key
# or a pattern path have no dict form; _JSON_TEXT_ROWS repeat names in text.
# Nor can a JSON section carry a header name.
_JSON_ROWS = [
    *[(_json_form(body), needle) for body, needle in _DIAGNOSTIC_ROWS
      if not needle.startswith(("duplicate source id", "repeats key", "repeats path"))
      and not needle.endswith("takes no name")],
    ({"run": {"mode": "shotz"}}, "unknown mode 'shotz'"),
    ({"run": {"colour": 1}}, "unknown key 'colour' in [run]"),
    ({"flavour": {}}, "unknown section [flavour]"),
    ({"run": {"shots": True}}, "shots: expects an integer"),
    ({"lock": {"pid": {"kp": float("inf")}}}, "pid.kp: expects a finite number"),
    ({"run": {"noise": [1]}}, "run.noise must be a JSON object"),
    ({"elements": [3]}, "expects an element descriptor"),
    ({"detect": {"accept": []}}, "accept: expects at least one Bell outcome"),
    # an object where a list is expected is refused, not read for its names
    ({"space": {"paths": {"A": 1, "B": 2}}}, "paths: expects distinct path names"),
    ({"detect": {"accept": {"PhiPlus": "x"}}},
     "accept: expects at least one Bell outcome, in a list"),
]


@pytest.mark.parametrize("obj,needle", _JSON_ROWS,
                         ids=[json.dumps(obj) for obj, _ in _JSON_ROWS])
def test_validation_diagnostics_json(obj, needle):
    res = parse_netlist_json(json.dumps(obj))
    assert not res.ok
    assert any(needle in d.message for d in res.diagnostics), [
        str(d) for d in res.diagnostics]


_JSON_TEXT_ROWS = [
    ('{"version": 1, "version": 1}', "repeats name 'version'"),
    ('{"run": {"seed": 1, "seed": 2}}', "repeats name 'seed'"),
    ('{"sources": {"p1": {"recipe": "z0"}, "p1": {"recipe": "z1"}}}', "repeats name 'p1'"),
    ('{"lock": {"pid": {"kp": 0.2, "ki": 200, "kp": 0.3}}}', "repeats name 'kp'"),
    ('{"detect": {"pattern": {"A": 1, "A": 0}}}', "repeats name 'A'"),
]


@pytest.mark.parametrize("text,needle", _JSON_TEXT_ROWS)
def test_json_text_refuses_repeated_names(text, needle):
    """A name given twice in one object of JSON text, at any depth, is a
    diagnostic; the later value does not silently win."""
    res = parse_netlist_json(text)
    assert not res.ok
    assert needle in [d.message for d in res.diagnostics], [str(d) for d in res.diagnostics]


@pytest.mark.parametrize("version", ["2", "0"])
def test_only_version_1_is_read(version, tmp_path, capsys):
    """A format version other than 1 is refused by both front ends, by
    ``cpfsim validate`` and by ``execute`` on a bare netlist; none runs as
    version 1."""
    needle = f"version: expects 1, the only format version, got {version!r}"
    res = parse_netlist(f"version {version}\n[run]\ntask lock\n")
    assert not res.ok and [d.message for d in res.diagnostics] == [needle]
    res = parse_netlist_json({"version": int(version), "run": {"task": "lock"}})
    assert not res.ok and [d.message for d in res.diagnostics] == [needle.replace("'", "")]
    path = tmp_path / "v.netlist"
    path.write_text(f"version {version}\n[run]\ntask lock\n")
    assert cli_main(["validate", "--netlist", str(path)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    with pytest.raises(NetlistError, match="version: expects 1"):
        execute(Netlist(version=int(version), task="lock"))


@pytest.mark.parametrize("header", ["[run extra words]", "  [space junk]", "[LOCK stuff]",
                                    "[elements x]", "[detect PhiPlus]"])
def test_section_name_is_one_diagnostic_at_the_header(header):
    """A name after any section but [source NAME] is refused once, at the
    header's line and column; the block below still reads as its section."""
    section = header.strip()[1:].split()[0].lower()
    res = parse_netlist(f"version 1\n{header}\n[run]\ntask lock\n")
    assert [(d.line, d.col, d.message) for d in res.diagnostics] == [
        (2, len(header) - len(header.lstrip()), f"section [{section}] takes no name")]


def test_value_diagnostics_carry_positions():
    text = "version 1\n[run]\n  noise.loss abc\n[lock]\nmod_freqq 3\n"
    diags = {d.message: (d.line, d.col) for d in parse_netlist(text).diagnostics}
    assert diags == {
        "noise.loss: expects a finite number, got 'abc'": (3, 13),
        "unknown key 'mod_freqq' in [lock]": (5, 0),
    }


@pytest.mark.parametrize("body", [body for body, _ in _VALUE_DEFECTS])
def test_cli_rejects_defect_netlists(body, tmp_path, capsys):
    """Both front ends: validate and every run command exit 1, no traceback."""
    for name, text in (("bad.netlist", "version 1\n" + body + "\n"),
                       ("bad.json", json.dumps(_json_form(body)))):
        path = tmp_path / name
        path.write_text(text)
        assert cli_main(["validate", "--netlist", str(path)]) == 1
        for command in ("simulate", "lock", "fidelity"):
            assert cli_main([command, "--netlist", str(path), "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "bad.netlist"]


# Command lines that no run can honour: overrides outside the schema, shipped
# netlists handed to a task that does not read some of their parts, and a
# netlist that fails at run time.
_COMMAND_DEFECTS = [
    (["lock", "--seed", "-1"], "lock.netlist", None),
    (["lock", "--seed", str(2**63)], "lock.netlist", None),
    (["simulate", "--shots", "99999999999999999999"], "cpf_d4.netlist", None),
    (["simulate", "--shots", "-5"], "cpf_d4.netlist", None),
    (["fidelity"], "cpf_d4.netlist", None),
    (["lock"], "cpf_d4.netlist", None),
    (["simulate"], "cpf_d4.netlist", ("E1=1", "E1=2")),
    (["simulate"], "overflow.netlist", None),
]
# Netlists that are not shipped files.  overflow.netlist cannot run: its
# element shifts the photon out of a truncation-0 window, which validation
# reports.
_NETLIST_TEXTS = {"overflow.netlist": (
    "version 1\n[space]\npaths A\ntruncation 0\n[source p0]\npath A\n"
    "recipe z2\n[elements]\nQP(q=0.5) @ A\n[run]\ntask circuit\n")}


@pytest.mark.parametrize("argv,fixture,edit", _COMMAND_DEFECTS,
                         ids=[" ".join(argv) + " " + fixture + (" " + edit[1] if edit else "")
                              for argv, fixture, edit in _COMMAND_DEFECTS])
def test_cli_rejects_defect_commands(argv, fixture, edit, tmp_path, capsys):
    text = _NETLIST_TEXTS.get(fixture) or (FIXTURES / fixture).read_text()
    path = tmp_path / fixture
    path.write_text(text.replace(*edit) if edit else text)
    out = tmp_path / "out"
    assert cli_main([argv[0], "--netlist", str(path), "--out", str(out), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert "error" in captured.err and "Traceback" not in captured.out + captured.err
    assert not out.exists()


def test_cli_shots_zero_turns_a_shots_netlist_analytic(tmp_path, capsys):
    """``--shots 0`` runs a shots netlist in analytic mode: no tallies, and
    the result of the analytic netlist it was made from.  ``--analytic``,
    which said the same, is no option."""
    text = (FIXTURES / "cpf_d4.netlist").read_text()
    shots = tmp_path / "shots" / "cpf_d4.netlist"
    shots.parent.mkdir()
    shots.write_text(text.replace("mode analytic\nshots 0", "mode shots\nshots 50"))
    for path, extra in ((FIXTURES / "cpf_d4.netlist", []), (shots, ["--shots", "0"])):
        assert cli_main(["simulate", "--netlist", str(path), "--out",
                         str(tmp_path / path.parent.name), *extra]) == 0
    got = json.loads((tmp_path / "shots" / "cpf_d4.json").read_text())
    assert got["tallies"] == {}
    assert got == json.loads((tmp_path / "netlists" / "cpf_d4.json").read_text())
    with pytest.raises(SystemExit):
        cli_main(["simulate", "--netlist", str(shots), "--analytic"])
    assert "unrecognized arguments: --analytic" in capsys.readouterr().err


_PIPELINE_SPACE = ("[space]\npaths A1 B1 P11 P21 C1 D1 X1 A2 B2 P12 P22 C2 D2 X2 E1 E2\n"
                   "truncation 4\n")
# Netlist part -> (the name diagnostics give it, lines that set it to a value
# every task that reads the part can run).
_PARTS = {
    "space": ("[space] block", _PIPELINE_SPACE),
    "source": ("[source] block", "[source photon2]\npath B1\nrecipe aux"),
    "elements": ("[elements] block", "[elements]\nMIRROR() @ A1"),
    "pattern": ("detection pattern", "[detect]\npattern C1=1 C2=1 E1=1 E2=1"),
    "accept": ("accept list", "[detect]\naccept PhiPlus"),
    "mode/shots": ("mode or shots", "[run]\nmode shots\nshots 100"),
    "duration/setpoint": ("duration or setpoint", "[run]\nduration 0.5\nsetpoint 0.1"),
    "noise": ("noise.* key", "[run]\nnoise.loss 0.1\nnoise.draws 2"),
    "lock": ("[lock] block", "[lock]\npid.kp 0.2"),
    "seed/version": (None, "[run]\nseed 5"),
}
# Which task reads which part, written out by hand (1 reads, 0 refuses).
_READS = {  #  space source elements pattern accept mode duration noise lock seed
    "cpf_d4":   (1, 1, 0, 1, 1, 1, 0, 1, 0, 1),
    "circuit":  (1, 1, 1, 1, 0, 1, 0, 0, 0, 1),
    "fidelity": (0, 0, 0, 0, 1, 1, 0, 1, 0, 1),
    "lock":     (0, 0, 0, 0, 0, 0, 1, 0, 1, 1),
}
# What each task needs before any part is added.
_BASES = {"cpf_d4": _CPF_SOURCES,
          "circuit": _PIPELINE_SPACE + "[source photon1]\npath A1\nrecipe z3\n",
          "fidelity": "", "lock": ""}
_COMMANDS = {"cpf_d4": "simulate", "circuit": "simulate", "fidelity": "fidelity", "lock": "lock"}


def _task_netlist(task: str, part: str) -> str:
    # a part the base already sets (circuit's [space]) is not given twice
    base, lines = _BASES[task], _PARTS[part][1]
    text = f"{base}[run]\ntask {task}\n{'' if lines in base else lines}"
    return "".join(line + "\n" for line in text.splitlines() if line)


@pytest.mark.parametrize("task,part", [(t, p) for t in _READS for p in _PARTS])
def test_task_table(task, part, tmp_path, capsys):
    """Each task with one part added: both front ends, ``execute`` after the
    task is set on a parsed netlist, and the CLI accept exactly the parts the
    task reads, and name the part when they refuse."""
    reads = _READS[task][list(_PARTS).index(part)]
    noun = _PARTS[part][0]
    needle = f"task {task} runs no {noun}"
    body = _task_netlist(task, part)
    for res in (parse_netlist("version 1\n" + body), parse_netlist_json(_json_form(body))):
        assert res.ok == bool(reads), [str(d) for d in res.diagnostics]
        assert reads or any(needle in d.message for d in res.diagnostics)
    # The CLI override path: a netlist parsed under a task that reads the
    # part, handed to ``execute`` with its task changed.
    reader = task if reads else next(t for t in ("fidelity", "lock", "cpf_d4", "circuit")
                                     if _READS[t][list(_PARTS).index(part)])
    res = parse_netlist("version 1\n" + _task_netlist(reader, part))
    assert res.ok, [str(d) for d in res.diagnostics]
    res.netlist.task = task
    if reads:
        assert execute(res.netlist).task == task
        return
    with pytest.raises(NetlistError, match=re.escape(needle)):
        execute(res.netlist)
    out = tmp_path / "out"
    own, other = tmp_path / "own.netlist", tmp_path / "other.netlist"
    own.write_text("version 1\n" + body)
    other.write_text("version 1\n" + _task_netlist(reader, part))
    assert cli_main(["validate", "--netlist", str(own)]) == 1
    runs = [(_COMMANDS[task], own)]
    if task in ("fidelity", "lock"):
        runs.append((task, other))          # the command sets the task after parsing
    for command, path in runs:
        assert cli_main([command, "--netlist", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert needle in captured.out + captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


@pytest.mark.parametrize("recipe", netlist.KNOWN_RECIPES)
def test_circuit_sources_need_their_truncation(recipe):
    """A one-path circuit holding one source at truncation 0-4: validation
    refuses it exactly when execution, with the task's rules left out, raises."""
    for truncation in range(5):
        text = (f"version 1\n[space]\npaths A\ntruncation {truncation}\n"
                f"[source p]\npath A\nrecipe {recipe}\n[run]\ntask circuit\n")
        refused = not parse_netlist(text).ok
        with mock.patch.object(netlist, "task_problems", return_value=[]), \
                mock.patch.object(runner, "task_problems", return_value=[]):
            try:
                execute(parse_netlist(text))
                raised = False
            except NetlistError:
                raised = True
        assert refused == raised, (recipe, truncation)


def test_parsing_is_total_on_garbage():
    for text in ("", "[[[", "key", "[elements]\n)(", "version x\nstuff",
                 "[source]\npath A"):
        res = parse_netlist(text)  # must not raise
        assert res.diagnostics or res.netlist is not None


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=200))
def test_parser_never_raises(text):
    parse_netlist(text)


_PARAM_NAMES = sorted({k for _, params in CATALOGUE.values() for k, _ in params}
                      | {"x"})
_PATH_LIST = st.lists(st.sampled_from("ABZ"), max_size=3).map(
    lambda ps: "[" + ",".join(ps) + "]")
_VALUES = st.one_of(
    st.floats().map(repr), st.integers().map(str),
    st.sampled_from(["abc", "0.5", "1", "-2", "0"]), _PATH_LIST)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(CATALOGUE) + ["POL"]),
       params=st.lists(st.tuples(st.sampled_from(_PARAM_NAMES), _VALUES),
                       max_size=3),
       paths=st.lists(st.sampled_from("AB"), max_size=2))
def test_validated_elements_run(kind, params, paths):
    """A descriptor that validation accepts builds and runs: execution of a
    two-path circuit holding it succeeds."""
    desc = f"{kind}({','.join(f'{k}={v}' for k, v in params)})"
    if paths:
        desc += " @ " + ",".join(paths)
    res = parse_netlist(
        "version 1\n[space]\npaths A B\ntruncation 2\n"
        "[source photon1]\npath A\nrecipe x02+\n"
        f"[elements]\n{desc}\n[run]\ntask circuit\n")
    if res.ok:
        execute(res.netlist)


_WINDOW_CASE = ("version 1\n[space]\npaths A B\ntruncation 2\n"
                "[source p0]\npath A\nrecipe x02+\n"
                "[elements]\nQP(q=0.5) @ B\nSPP(dl=-1) @ A\n[run]\ntask circuit\n")


def test_chain_leaving_the_window_is_refused(tmp_path):
    """x02+ puts its photon at l = -2, and SPP(dl=-1) on its path shifts it
    past the truncation-2 window (the q-plate acts on the empty path B):
    validation refuses the chain, as the run would."""
    res = parse_netlist(_WINDOW_CASE)
    assert [d.message for d in res.diagnostics] == [
        "source 'p0' leaves the window at SPP(dl=-1) @ A: input has amplitude"
        " on A:H:-2 whose image leaves the window"]
    path = tmp_path / "window.netlist"
    path.write_text(_WINDOW_CASE)
    assert cli_main(["validate", "--netlist", str(path)]) == 1
    nl = parse_netlist(_WINDOW_CASE.replace("SPP(dl=-1) @ A\n", "")).netlist
    execute(nl)
    nl.elements.append(parse_descriptor("SPP(dl=-1) @ A"))
    with pytest.raises(NetlistError, match="leaves the window"):
        execute(nl)


_FOUR_PORTS = ("version 1\n[space]\npaths A B C D\ntruncation {}\n"
               "[source p]\npath A\nrecipe z2\n"
               "[elements]\nPBS(in=[A,B],out=[C,D])\n[run]\ntask circuit\n")


def test_truncation_bound(tmp_path, capsys, monkeypatch):
    """The schema caps the truncation: a huge one is a diagnostic of
    validate and of simulate, never a traceback, and the bound itself
    validates, with the four-port PBS, the largest block a circuit builds.
    The shipped netlists and the benchmark's circuit decks stay inside."""
    path = tmp_path / "huge.netlist"
    path.write_text(_FOUR_PORTS.format(100000))
    assert cli_main(["validate", "--netlist", str(path)]) == 1
    assert "truncation: expects an integer in [0, 63], got '100000'" in capsys.readouterr().out
    assert cli_main(["simulate", "--netlist", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "expects an integer in [0, 63]" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert netlist.MAX_TRUNCATION == 63
    assert parse_netlist(_FOUR_PORTS.format(63)).ok
    assert not parse_netlist(_FOUR_PORTS.format(64)).ok
    for name in ("cpf_d4.netlist", "lock.netlist"):
        assert parse_netlist((FIXTURES / name).read_text()).ok
    monkeypatch.syspath_prepend(str(FIXTURES.parent / "bench"))
    import workloads
    deck = workloads.circuit_deck(np.random.default_rng(1))
    assert max(job.meta["truncation"] for job in deck) <= netlist.MAX_TRUNCATION


def test_draws_bound_admits_max_draws():
    """MAX_DRAWS itself parses in both front ends; one more is a defect row."""
    body = f"[run]\ntask fidelity\nnoise.sigma_zeta 0.1\nnoise.draws {netlist.MAX_DRAWS}\n"
    assert netlist.MAX_DRAWS == 4096
    assert parse_netlist("version 1\n" + body).ok
    assert parse_netlist_json(json.dumps(_json_form(body))).ok


_CHAIN_ELEMENTS = st.one_of(
    st.integers(-3, 3).map(lambda k: f"QP(q={k / 2:g})"),
    st.integers(-3, 3).map(lambda k: f"SPP(dl={k})"),
    st.sampled_from(["HWP(angle=0.3)", "QWP(angle=0.7)", "DP(angle=0.4)", "MIRROR()",
                     "INTERF(angle=0.5)", "O1CNOT()", "O2CNOT()"]))


@settings(max_examples=150, deadline=None)
@given(truncation=st.integers(2, 3),
       sources=st.lists(st.tuples(st.sampled_from("AB"), st.sampled_from(KNOWN_RECIPES)),
                        min_size=1, max_size=3),
       chain=st.lists(st.one_of(st.tuples(_CHAIN_ELEMENTS, st.sampled_from("AB")),
                                st.just(("PBS(in=[A,B],out=[B,A])", None))), max_size=5))
def test_circuit_validates_exactly_when_it_runs(truncation, sources, chain):
    """Random circuits of one to three photons, with OAM shifts that may
    leave the window: task_problems refuses a circuit exactly when running
    it unchecked fails."""
    head = f"version 1\n[space]\npaths A B\ntruncation {truncation}\n[run]\ntask circuit\n"
    for i, (path, recipe) in enumerate(sources):
        head += f"[source p{i}]\npath {path}\nrecipe {recipe}\n"
    descs = [f"{desc} @ {at}" if at else desc for desc, at in chain]
    nl = parse_netlist(head).netlist
    nl.elements = [parse_descriptor(d) for d in descs]
    problems = task_problems(nl)
    assert parse_netlist(head + "[elements]\n" + "\n".join(descs)).ok == (not problems)
    with mock.patch.object(runner, "task_problems", return_value=[]):
        try:
            execute(nl)
            ran = True
        except NetlistError:
            ran = False
    assert ran == (not problems), problems


_SCHEMA_KEYS = [(section, key) for section, keys in SCHEMA.items() for key in keys]
_SCHEMA_VALUES = st.one_of(
    st.sampled_from(["abc", "nan", "-inf", "1e400", "-0", "0", "1", "-1", "-3", "2.5",
                     "1e-320", "A", "A B", "A A", "A=1 B=2", "C1=x", "C1=-1",
                     "PhiPlus", "Quux", "cpf_d4", "circuit", "fidelity", "lock",
                     "analytic", "shots",
                     "random-walk", "sinusoidal", "step", "z0", "aux"]),
    st.integers(-10**20, 10**20).map(str),
    st.floats().map(repr),
    st.fractions(max_denominator=8).map(lambda q: repr(float(q))),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_SCHEMA_KEYS + [("lock", "pid.gain")]),
                          _SCHEMA_VALUES),
                max_size=8, unique_by=lambda entry: entry[0]))
def test_schema_values_parse_or_diagnose(entries):
    """Keys from the schema with junk, negative, non-finite and fractional
    values: parsing never raises and the JSON front end agrees with the text
    one.  Reading a value or declaring a path that fails leaves the value
    checks as the only further diagnostics; else the task's problems are.  A
    netlist whose values all pass builds and validates its four dataclasses,
    with its lock run's work inside the bound (lock runs are not executed)."""
    sections: dict = {}
    for (section, key), value in entries:
        sections.setdefault(section, []).append(f"{key} {value}")
    text = "\n".join(sections.pop("", []) + [
        line for section, lines in sections.items()
        for line in ("[source p]" if section == "source" else f"[{section}]", *lines)])
    res = parse_netlist(text)
    js = parse_netlist_json(_json_form(text, typed=False))
    assert sorted(d.message for d in js.diagnostics) == sorted(
        d.message for d in res.diagnostics)
    assert js.netlist == res.netlist
    # The netlist both front ends build: every value read by _set, one that
    # fails keeping its default.
    nl = Netlist(sources={"p": SourceSpec("p", "", "")} if "source" in sections else {})
    for (section, key), value in entries:
        netlist._set(nl, section, "p", key, value)
    # Reading and path diagnostics come first: the text front end places the
    # first, every message of the second names an undeclared path.
    early = [d for d in res.diagnostics if d.line or "undeclared path" in d.message]
    assert res.diagnostics[:len(early)] == early
    later = [d.message for d in res.diagnostics[len(early):]]
    values = netlist._value_problems(nl)
    if early or values:
        assert later == values
        return
    assert later == task_problems(nl)
    assert res.netlist in (None, nl)
    NoiseSpec(**{k: v for k, v in nl.noise.items() if k != "draws"},
              seed=nl.seed).validate()
    check_lock_run(LockParams(**nl.lock), nl.duration)
    DriftModel(**nl.drift).validate()
    PidGains(**nl.pid).validate()


@pytest.mark.parametrize("body", [
    "[space]\npaths A B\n[source p]\npath A\nrecipe z0\n[run]\ntask circuit",
    "[run]\ntask lock\nduration 0.05", _CPF_SOURCES.rstrip(), "[run]\nseed abc",
    "[run]\ntask lock\n[lock]\nmod_depth 0"])
def test_value_checks_run_once_per_parse(body, monkeypatch):
    """Both front ends run the value checks once per parse: alone after a
    value that failed to read, else as the start of the task's rules."""
    real, calls = netlist._value_problems, []

    def counted(nl):
        calls.append(nl.task)
        return real(nl)

    monkeypatch.setattr(netlist, "_value_problems", counted)
    parse_netlist("version 1\n" + body)
    assert len(calls) == 1
    parse_netlist_json(_json_form(body))
    assert len(calls) == 2


def _log_uniform(low: int, high: int, signed: bool = True):
    """Floats 10^x, x uniform in [low, high], of either sign if ``signed``;
    from 1e-323, a subnormal, on."""
    sign = st.sampled_from([1.0, -1.0] if signed else [1.0])
    return st.builds(lambda s, x: s * 10.0 ** x, sign, st.floats(low, high))


@settings(max_examples=60, deadline=None)
@given(e0h=_log_uniform(-323, 160), e0v=_log_uniform(-323, 160),
       mod_depth=_log_uniform(-323, 1, signed=False), demod_phase=_log_uniform(-323, 1))
@example(e0h=1.0, e0v=1.0, mod_depth=0.2, demod_phase=5e-324)
@example(e0h=1e-300, e0v=1.0, mod_depth=0.2, demod_phase=math.pi / 2)
@example(e0h=1.0, e0v=1.0, mod_depth=1e-15, demod_phase=math.pi / 2)
@example(e0h=1e200, e0v=1.0, mod_depth=0.2, demod_phase=math.pi / 2)
@example(e0h=1e-157, e0v=1e-157, mod_depth=0.2, demod_phase=math.pi / 2)
def test_lock_netlist_that_validates_runs(e0h, e0v, mod_depth, demod_phase):
    """Lock settings down to subnormal amplitudes, depths and demodulation
    phases: validate and lock both exit 0 or both exit 1, and neither
    raises."""
    text = (f"version 1\n[run]\ntask lock\nduration 0.05\n[lock]\ne0h {e0h!r}\n"
            f"e0v {e0v!r}\nmod_depth {mod_depth!r}\ndemod_phase {demod_phase!r}\n")
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        path = Path(tmp) / "lock.netlist"
        path.write_text(text)
        validated = cli_main(["validate", "--netlist", str(path)])
        ran = cli_main(["lock", "--netlist", str(path), "--out", tmp])
    assert validated == ran and ran in (0, 1), text


def _field(section: str, key: str) -> str:
    """The Netlist field a schema key lands in."""
    group, dot, _ = key.partition(".")
    return ("sources" if section == "source" else group if dot
            else "lock" if section == "lock" else key)


def test_readme_key_table_matches_schema():
    """The README "Netlist format" table lists exactly the schema's keys, every
    numeric default it shows is the one the run uses, and its "read by"
    column is the task table's."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| (top level|`\[(\w+)[^\]]*\]`) \| `([\w.]+)` \| [^|]* \| ([^|]*) \|"
                      r" ([^|]*) \|$", readme, re.MULTILINE)
    listed = [("" if where == "top level" else section, key) for where, section, key, _, _ in rows]
    assert sorted(listed) == sorted(_SCHEMA_KEYS)
    readers = {name: tasks for _, names, tasks in TASK_TABLE for name in names}
    for (section, key), (*_, read_by) in zip(listed, rows):
        shown = KNOWN_TASKS if read_by == "every task" else re.findall(r"`(\w+)`", read_by)
        tasks = readers.get(_field(section, key), KNOWN_TASKS)    # unlisted: every task
        assert sorted(shown) == sorted(tasks), (key, read_by)
    defaults = {key: getattr(Netlist(), key) for key in SCHEMA[""] | SCHEMA["run"]
                | SCHEMA["space"] if "." not in key}
    for prefix, cls in (("noise.", NoiseSpec), ("", LockParams), ("drift.", DriftModel),
                        ("pid.", PidGains)):
        defaults.update({prefix + f.name: f.default for f in fields(cls)})
    defaults["noise.draws"] = inspect.signature(build_heralded_channel).parameters[
        "n_draws"].default
    for _, _, key, cell, _ in rows:
        try:
            shown = float(cell.strip().strip("`"))
        except ValueError:
            continue
        assert shown == defaults[key], (key, cell)


def test_readme_element_table_matches_catalogue():
    """The README element table lists exactly the catalogue's kinds, each with
    its parameters, their defaults and its binding."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| kind | parameters (default) | binding |\n")[1].split("\n\n")[0]
    listed = {}
    for kinds, params, binding in re.findall(r"^\| (`.*) \| (.*) \| (.*) \|$", table, re.M):
        default = re.search(r"\((required|[^;)]*)", params)
        value = default and {"required": REQUIRED, "π": math.pi}.get(default[1], default[1])
        row = (tuple((name, value) for name in re.findall(r"`(\w+)[^`]*`", params)),
               binding == "`@ path`")
        listed.update(dict.fromkeys(re.findall(r"`(\w+)`", kinds), row))
    assert listed == {kind: (params, "in" not in dict(params))
                      for kind, (_, params) in CATALOGUE.items()}


@pytest.mark.parametrize("name", ("cpf_d4.netlist", "lock.netlist"))
def test_shipped_fixtures_round_trip(name):
    text = (FIXTURES / name).read_text()
    first = parse_netlist(text)
    assert first.ok, [str(d) for d in first.diagnostics]
    normalized = serialize(first.netlist)
    second = parse_netlist(normalized)
    assert second.ok
    # serialize . parse is the identity on normalized text
    assert serialize(second.netlist) == normalized
    # and parse . serialize is the identity on normalized netlists
    third = parse_netlist(serialize(second.netlist))
    assert third.netlist == second.netlist


@settings(max_examples=200, deadline=None)
@given(setpoint=st.floats(allow_nan=False, allow_infinity=False),
       kp=st.floats(allow_nan=False, allow_infinity=False),
       angle=st.floats(-2.0**52, 2.0**52))      # the angles an element takes
def test_serialize_round_trips_every_float(setpoint, kp, angle):
    lock = Netlist(task="lock", setpoint=setpoint, pid={"kp": kp})
    circuit = parse_netlist(MINIMAL).netlist
    circuit.elements = [replace(circuit.elements[0], params=(("angle", angle),))]
    for nl in (lock, circuit):
        back = parse_netlist(serialize(nl))
        assert back.ok, [str(d) for d in back.diagnostics]
        assert back.netlist == nl


def test_netlist_hash_tells_close_floats_apart():
    """Two modulation frequencies that agree to 12 digits run differently,
    so their netlists hash differently."""
    text = (FIXTURES / "lock.netlist").read_text()
    close = text.replace("mod_freq 6283.185307179586", "mod_freq 6283.18530718")
    assert close != text
    a, b = (execute(parse_netlist(t)) for t in (text, close))
    assert a.trace_csv != b.trace_csv
    assert a.provenance["netlist_sha256"] != b.provenance["netlist_sha256"]


def test_seed_reads_within_the_rng_key(tmp_path, capsys):
    """The RNG keys take a seed's low 64 bits and the XZ run takes seed + 1,
    so a seed reads in [0, 2^63 - 1]: 5 + 2^64 would run as seed 5."""
    top = 2**63 - 1
    assert parse_netlist(f"version 1\n[run]\ntask lock\nseed {top}\n").netlist.seed == top
    res = parse_netlist(f"version 1\n[run]\ntask lock\nseed {5 + 2**64}\n")
    assert [d.message for d in res.diagnostics] == [
        f"seed: expects an integer in [0, {top}], got '{5 + 2**64}'"]
    argv = ["lock", "--netlist", str(FIXTURES / "lock.netlist"), "--out", str(tmp_path)]
    assert cli_main([*argv, "--seed", str(top)]) == 0
    assert json.loads((tmp_path / "lock.json").read_text())["provenance"]["seed"] == top
    assert cli_main([*argv, "--seed", str(5 + 2**64)]) == 1
    assert f"seed: expects an integer in [0, {top}]" in capsys.readouterr().err


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.netlist"
    path.write_bytes("# caf\xe9\nversion 1\n".encode("latin-1"))
    return path


@pytest.mark.parametrize("make,reason", [
    (lambda tmp: tmp / "missing.netlist", "No such file or directory"),
    (lambda tmp: tmp, "Is a directory"),
    (_not_utf8, "'utf-8' codec can't decode byte 0xe9"),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_netlist_is_a_diagnostic(make, reason, tmp_path, capsys):
    path = make(tmp_path)
    res = runner.load_netlist(path)
    assert not res.ok
    (diag,) = res.diagnostics
    assert diag.message.startswith(f"cannot read {path}: {reason}")
    out = tmp_path / "out"
    for argv in (["validate"], ["simulate", "--out", str(out)]):
        assert cli_main([*argv, "--netlist", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out + captured.err).splitlines() == [f"{path}:{diag}"]
    assert not out.exists()


def test_serialize_parse_identity_on_programmatic_netlist():
    nl = Netlist(task="lock", seed=9, duration=2.5,
                 lock={"mod_depth": 0.3}, pid={"kp": 0.4},
                 drift={"kind": "sinusoidal", "magnitude": 0.2})
    text = serialize(nl)
    back = parse_netlist(text)
    assert back.ok
    assert back.netlist == nl


def netlist_to_json_dict(nl: Netlist) -> dict:
    """Structured JSON form of a netlist, as ``parse_netlist_json`` reads it."""
    return {
        "version": nl.version,
        "space": {"paths": list(nl.paths), "truncation": nl.truncation},
        "sources": {
            name: {"path": src.path, "recipe": src.recipe}
            for name, src in sorted(nl.sources.items())
        },
        "elements": [spec.descriptor() for spec in nl.elements],
        "detect": {
            "pattern": dict(sorted(nl.pattern.items())),
            "accept": [o.value for o in nl.accept],
        },
        "run": {
            "task": nl.task, "mode": nl.mode, "shots": nl.shots,
            "seed": nl.seed, "duration": nl.duration,
            "setpoint": nl.setpoint, "noise": dict(sorted(nl.noise.items())),
        },
        "lock": {"params": dict(sorted(nl.lock.items())),
                 "drift": dict(sorted(nl.drift.items())),
                 "pid": dict(sorted(nl.pid.items()))},
    }


def test_json_front_end_round_trip():
    text = (FIXTURES / "cpf_d4.netlist").read_text()
    nl = parse_netlist(text).netlist
    payload = netlist_to_json_dict(nl)
    back = parse_netlist_json(json.dumps(payload))
    assert back.ok, [str(d) for d in back.diagnostics]
    assert back.netlist == nl


def test_json_front_end_diagnostics():
    from cpfsim.netlist import parse_netlist_json

    res = parse_netlist_json("{not json")
    assert not res.ok and res.diagnostics
    res = parse_netlist_json({"run": {"task": "warp"}})
    assert any("unknown task" in d.message for d in res.diagnostics)
    res = parse_netlist_json({"elements": ["FROB(x=1) @ A"]})
    assert any("unknown element" in d.message for d in res.diagnostics)
