"""Byte-stable outputs: pinned result files, and the one-pass JSON writer
against the stdlib form it replaces."""

import gc
import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpfsim.netlist import parse_netlist
from cpfsim.runner import _dump_json, emit, execute

SHIPPED = Path(__file__).resolve().parent.parent / "netlists" / "cpf_d4.netlist"

NOISY_FIDELITY = """\
version 1

[detect]
accept PhiPlus PhiMinus

[run]
task fidelity
mode shots
shots 4000
seed 11
noise.sigma_zeta 0.4
noise.oam_dephasing 0.2
noise.visibility 0.85
noise.loss 0.05
noise.draws 8
"""


def _noisy_cpf() -> str:
    """The shipped cpf_d4 netlist with shots, four draws and every noise knob
    on; one of its four draws loses a photon."""
    return (SHIPPED.read_text()
            .replace("mode analytic\nshots 0", "mode shots\nshots 2000")
            .replace("noise.sigma_zeta 0", "noise.sigma_zeta 0.3")
            .replace("noise.oam_dephasing 0", "noise.oam_dephasing 0.25")
            .replace("noise.loss 0", "noise.loss 0.08")
            .replace("noise.visibility 1", "noise.visibility 0.9")
            + "noise.draws 4\n")


NETLISTS = {
    "noisy_fidelity": lambda: NOISY_FIDELITY,
    "noisy_cpf_d4": _noisy_cpf,
    "shipped_cpf_d4": SHIPPED.read_text,
}

_EMPTY_TALLIES = "dd7208c6347363b0a9c2e074297cded2d26b4c6ee8f24e4da763ae8c4888acb3"

#: sha256 of ``to_json()`` and of every file ``emit(..., "both", ...)``
#: writes, recorded before the per-draw Fock pass and the JSON writer were
#: last changed.
GOLDEN = {
    "noisy_fidelity": {
        "to_json": "e83a1a448746e85afccf4c5814ecb810d0c091d034732c39f61d61d34f62ae4b",
        "out.json": "e83a1a448746e85afccf4c5814ecb810d0c091d034732c39f61d61d34f62ae4b",
        "out_matrix_xz.csv": "e1d3e6e6113b3cec647cffb150a14a2c855936524219814894f00248be08e144",
        "out_matrix_zx.csv": "326ddf15dd2bd43025cc032e79b815f3a557495d9d34b9e591ef3a354370c297",
        "out_outcomes.csv": "de48762ddbaa8b145cf81e19d4388592fa38674333049909eccb6f9f932c5e11",
        "out_tallies.csv": _EMPTY_TALLIES,
    },
    "noisy_cpf_d4": {
        "to_json": "c9dce72793e14b460c862d639404b32f0054a6bf8e53408816c3aaa6c5b36a36",
        "out.json": "c9dce72793e14b460c862d639404b32f0054a6bf8e53408816c3aaa6c5b36a36",
        "out_tallies.csv": "2fdb499e301754034bfa105c5a202effdfda0c2b9de771d8fe9738656ccbdc82",
    },
    "shipped_cpf_d4": {
        "to_json": "5174c2039bfd37992d0d3e8fc6d06a1d1ecc0559249e9d892ee940934ad296af",
        "out.json": "5174c2039bfd37992d0d3e8fc6d06a1d1ecc0559249e9d892ee940934ad296af",
        "out_tallies.csv": _EMPTY_TALLIES,
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_result_files_are_byte_stable(tmp_path, name):
    res = parse_netlist(NETLISTS[name]())
    assert res.ok, [str(d) for d in res.diagnostics]
    result = execute(res)
    got = {p.name: _sha256(p.read_bytes()) for p in emit(result, "both", tmp_path, "out")}
    got["to_json"] = _sha256(result.to_json().encode())
    assert got == GOLDEN[name]


def _round_floats(obj):
    """Every float value at 12 significant digits; the copy ``json.dumps``
    used to walk."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _stdlib_form(obj) -> str:
    return json.dumps(_round_floats(obj), sort_keys=True, indent=2) + "\n"


_scalars = (st.none() | st.booleans() | st.integers() | st.text()
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                               1e-300, 5e-324, 0.1 + 0.2, 123456789012345.6]))
_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(obj=_values)
@example(obj={"é": ["ü☃\U0001f600", -0.0, math.nan], "": {}, "a": [[], (), {"b": ()}]})
@example(obj=[math.inf, -math.inf, True, False, None, 0, -1, 2**70])
@example(obj={"x": {"y": {"z": [1.0000000000004, 2.5e-16, -1e21]}}})
def test_json_writer_matches_stdlib_form(obj):
    assert _dump_json(obj) == _stdlib_form(obj)


def test_json_writer_refuses_what_json_refuses():
    for obj in ({(1, 2): 0}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            _stdlib_form(obj)
        with pytest.raises(TypeError):
            _dump_json(obj)


def test_json_writer_takes_only_str_keys():
    """Every key of a result is a string; any other key is refused, not
    spelled."""
    with pytest.raises(TypeError, match="keys must be str"):
        _dump_json({"a": {1: 0.5}})


def test_json_writer_leaves_no_cyclic_garbage():
    """Garbage that only the cyclic collector frees piles up between its
    runs: a self-referencing writer raised peak memory with run length."""
    gc.collect()
    gc.disable()
    try:
        _dump_json({"a": [1.0, {"b": [2.0, "c"]}], "d": ()})
        assert gc.collect() == 0
    finally:
        gc.enable()
