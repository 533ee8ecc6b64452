from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfsim.elements import CATALOGUE
from cpfsim.netlist import Netlist, parse_netlist, serialize
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
"""


def test_minimal_netlist_fills_defaults():
    res = parse_netlist(MINIMAL)
    assert res.ok, [str(d) for d in res.diagnostics]
    nl = res.netlist
    assert nl.task == "cpf_d4" and nl.mode == "analytic" and nl.shots == 0
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


@pytest.mark.parametrize("body,needle", [
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
])
def test_validation_diagnostics(body, needle):
    res = parse_netlist("version 1\n" + body + "\n")
    assert not res.ok
    assert any(needle in d.message for d in res.diagnostics), [
        str(d) for d in res.diagnostics]


def test_parsing_is_total_on_garbage():
    for text in ("", "[[[", "key", "[elements]\n)(", "version x\nstuff"):
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
