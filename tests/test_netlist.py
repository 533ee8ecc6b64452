import inspect
import json
import re
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfsim.analysis import full_fidelity_report
from cpfsim.cli import main as cli_main
from cpfsim.elements import CATALOGUE
from cpfsim.locking import DriftModel, LockParams, PidGains, check_lock_run
from cpfsim import netlist, runner
from cpfsim.netlist import (KNOWN_TASKS, SCHEMA, TASK_TABLE, Diagnostic, Netlist,
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
    (diag,) = [d for d in res.diagnostics if d.severity == "error"]
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
    ("[run]\nseed abc", "seed: expects an integer >= 0"),
    ("[space]\ntruncation x", "truncation: expects an integer >= 0"),
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
    ("[space]\ntruncation -1", "truncation: expects an integer >= 0"),
    ("[run]\nduration nan", "duration: expects a finite number"),
    ("[run]\nnoise.draws 0", "noise.draws: expects an integer >= 1"),
    ("[run]\nnoise.draws -3", "noise.draws: expects an integer >= 1"),
    ("[run]\nnoise.draws 2.5", "noise.draws: expects an integer >= 1"),
    ("[run]\nmode shotz", "unknown mode 'shotz'"),
    ("[run]\nseed -1", "seed: expects an integer >= 0"),
    ("[space]\npaths A A", "expects distinct path names"),
    ("[lock]\npid.out_min 60", "output limits must be ordered"),
    ("[lock]\ndt 0", "dt must be positive"),
    ("[lock]\nlpf_cutoff 0", "cutoff must be positive"),
    ("[lock]\ndemod_phase 0", "demod_phase leaves no error signal"),
    ("[run]\nduration -1", "lock: duration must be positive"),
    ("[run]\nduration 0", "lock: duration must be positive"),
    ("[run]\nduration 1e9", "lock: duration 1e+09 s spans 6.4e+13 samples"),
    ("[lock]\ndt 1e-9", "lock: duration 4 s spans 4e+09 samples"),
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


_JSON_ROWS = [
    *[(_json_form(body), needle) for body, needle in _DIAGNOSTIC_ROWS
      if needle != "duplicate source id"],          # a JSON object cannot repeat a name
    ({"run": {"mode": "shotz"}}, "unknown mode 'shotz'"),
    ({"run": {"colour": 1}}, "unknown key 'colour' in [run]"),
    ({"flavour": {}}, "unknown section [flavour]"),
    ({"run": {"shots": True}}, "shots: expects an integer"),
    ({"lock": {"pid": {"kp": float("inf")}}}, "pid.kp: expects a finite number"),
    ({"run": {"noise": [1]}}, "run.noise must be a JSON object"),
    ({"elements": [3]}, "expects an element descriptor"),
    ({"detect": {"accept": []}}, "accept: expects at least one Bell outcome"),
]


@pytest.mark.parametrize("obj,needle", _JSON_ROWS,
                         ids=[json.dumps(obj) for obj, _ in _JSON_ROWS])
def test_validation_diagnostics_json(obj, needle):
    res = parse_netlist_json(json.dumps(obj))
    assert not res.ok
    assert any(needle in d.message for d in res.diagnostics), [
        str(d) for d in res.diagnostics]


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
    (["simulate", "--shots", "99999999999999999999"], "cpf_d4.netlist", None),
    (["simulate", "--shots", "-5"], "cpf_d4.netlist", None),
    (["fidelity"], "cpf_d4.netlist", None),
    (["lock"], "cpf_d4.netlist", None),
    (["simulate"], "cpf_d4.netlist", ("E1=1", "E1=2")),
    (["simulate"], "overflow.netlist", None),
]
# Netlists that are not shipped files.  overflow.netlist validates but cannot
# run: its element shifts the photon out of a truncation-0 window.
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
    text = f"{_BASES[task]}[run]\ntask {task}\n{_PARTS[part][1]}"
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
    two-path circuit holding it returns or raises NetlistError, nothing else."""
    desc = f"{kind}({','.join(f'{k}={v}' for k, v in params)})"
    if paths:
        desc += " @ " + ",".join(paths)
    res = parse_netlist(
        "version 1\n[space]\npaths A B\ntruncation 2\n"
        "[source photon1]\npath A\nrecipe x02+\n"
        f"[elements]\n{desc}\n[run]\ntask circuit\n")
    if not res.ok:
        return
    try:
        execute(res.netlist)
    except NetlistError:
        pass


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
    one.  A netlist whose values all read builds and validates its four
    dataclasses, with its lock run's work inside the bound (lock runs are not
    executed), and its task's problems are its only further diagnostics."""
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
    # Most generated netlists set parts their task does not read; the value
    # checks are reached with the task's left out.
    with mock.patch.object(netlist, "task_problems", return_value=[]):
        values = parse_netlist(text)
    if not values.ok:
        assert res.diagnostics == values.diagnostics
        return
    nl = values.netlist
    assert res.diagnostics == values.diagnostics + [
        Diagnostic(0, 0, problem) for problem in task_problems(nl)]
    NoiseSpec(**{k: v for k, v in nl.noise.items() if k != "draws"},
              seed=nl.seed).validate()
    check_lock_run(LockParams(**nl.lock), nl.duration)
    DriftModel(**nl.drift).validate()
    PidGains(**nl.pid).validate()


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
    defaults["noise.draws"] = inspect.signature(full_fidelity_report).parameters[
        "n_draws"].default
    for _, _, key, cell, _ in rows:
        try:
            shown = float(cell.strip().strip("`"))
        except ValueError:
            continue
        assert shown == defaults[key], (key, cell)


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


def test_serialize_parse_identity_on_programmatic_netlist():
    nl = Netlist(task="lock", seed=9, duration=2.5,
                 lock={"mod_depth": 0.3}, pid={"kp": 0.4},
                 drift={"kind": "sinusoidal", "magnitude": 0.2})
    text = serialize(nl)
    back = parse_netlist(text)
    assert back.ok
    assert back.netlist == nl


def test_json_front_end_round_trip():
    import json

    from cpfsim.netlist import netlist_to_json_dict, parse_netlist_json

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
