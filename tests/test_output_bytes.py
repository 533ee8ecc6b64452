"""Byte-stable outputs: pinned result files (gate, fidelity and lock runs),
and the one-pass JSON writer
(with its bulk spelling of float, string, int, null and record runs) against
the stdlib form it replaces."""

import gc
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpfsim.netlist import parse_netlist
from cpfsim.runner import _dump_json, emit, execute

NETLIST_DIR = Path(__file__).resolve().parent.parent / "netlists"
SHIPPED = NETLIST_DIR / "cpf_d4.netlist"

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


_LOCK = """\
version 1

[run]
task lock
seed {seed}
duration 2.0
setpoint {setpoint}

[lock]
{lock}"""

#: Lock runs beside the shipped random-walk one: a sinusoidal drift, a step
#: on a 40-sample period, and a loop with a derivative term whose tight,
#: unequal output limits both clamp.
LOCKS = {
    "lock_sinusoidal": _LOCK.format(seed=5, setpoint=0.1, lock="""\
mod_depth 0.25
drift.kind sinusoidal
drift.magnitude 0.8
drift.period 0.4
pid.kp 0.3
pid.ki 250
"""),
    "lock_step": _LOCK.format(seed=2, setpoint=-0.2, lock="""\
mod_freq 5026.548245743669
dt 2.5e-05
drift.kind step
drift.magnitude 0.6
drift.step_time 0.7
pid.kp 0.25
pid.ki 300
"""),
    "lock_clamped_pid": _LOCK.format(seed=9, setpoint=0.0, lock="""\
e0h 1.2
e0v 0.8
drift.kind sinusoidal
drift.magnitude 0.5
drift.period 0.5
pid.kp 0.3
pid.ki 250
pid.kd 0.0002
pid.out_min -0.15
pid.out_max 0.2
"""),
}

NETLISTS = {
    "noisy_fidelity": lambda: NOISY_FIDELITY,
    "noisy_cpf_d4": _noisy_cpf,
    "shipped_cpf_d4": SHIPPED.read_text,
    "shipped_lock": (NETLIST_DIR / "lock.netlist").read_text,
    **{name: (lambda text=text: text) for name, text in LOCKS.items()},
}

_EMPTY_TALLIES = "dd7208c6347363b0a9c2e074297cded2d26b4c6ee8f24e4da763ae8c4888acb3"

#: sha256 of ``to_json()`` and of every file ``emit(..., "both", ...)``
#: writes, recorded before the per-draw Fock pass and the JSON writer were
#: last changed; the lock runs', before the servo step was inlined.
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
    "shipped_lock": {
        "to_json": "65e1449fe5392971d78c00fc899e9c58ceeae3457c31d4d1e31d5df668145f20",
        "out.json": "65e1449fe5392971d78c00fc899e9c58ceeae3457c31d4d1e31d5df668145f20",
        "out_tallies.csv": _EMPTY_TALLIES,
        "out_trace.csv": "e877aa0a5dfc2a3020f0fa48bfb14033ac399cc6a8b1745dc98cc25a946b7d08",
    },
    "lock_sinusoidal": {
        "to_json": "b092b72802ba8cfbe849a91e80e88b6fba5751333a93e83b53e05261724a554e",
        "out.json": "b092b72802ba8cfbe849a91e80e88b6fba5751333a93e83b53e05261724a554e",
        "out_tallies.csv": _EMPTY_TALLIES,
        "out_trace.csv": "fd3c9d4f59ea7f4b906a67c567bd6769d5e9aa05e6be7a743448c91ab310ced4",
    },
    "lock_step": {
        "to_json": "5d404149c1c431fd1d5f24772899a585476ca374c7b988f4c754bf14f09d5c85",
        "out.json": "5d404149c1c431fd1d5f24772899a585476ca374c7b988f4c754bf14f09d5c85",
        "out_tallies.csv": _EMPTY_TALLIES,
        "out_trace.csv": "6ab2e39db1c2d47f5a27f0eaf3a990cf5918a650a0e6d092cfc0ff41201a2fd2",
    },
    "lock_clamped_pid": {
        "to_json": "7df34fd15ef147239cbe37c2597d9e9492327a004b08c85cbe0225e65831f61e",
        "out.json": "7df34fd15ef147239cbe37c2597d9e9492327a004b08c85cbe0225e65831f61e",
        "out_tallies.csv": _EMPTY_TALLIES,
        "out_trace.csv": "3e4d3be02166648726e538e81ae9e6f31ff30c16580bf3c945fc87774b467938",
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


def test_clamped_lock_pin_reaches_both_limits():
    """The pinned derivative run saturates at each output limit, so its
    bytes cover both clamps of the servo step."""
    result = execute(parse_netlist(LOCKS["lock_clamped_pid"]))
    actuation = [float(row.rsplit(",", 1)[1]) for row in result.trace_csv.splitlines()[1:]]
    assert min(actuation) == -0.15 and max(actuation) == 0.2
    assert not result.summary["diverged"]


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


# Floats where the bulk rounding could part from the per-value one: not
# finite, signed zero, the smallest subnormal, and [1e12, 1e16), where
# ``%.12g`` switches to an exponent and ``repr`` does not.
_edge_floats = (st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                                   1e12, 999999999999.5, 1e16 - 2.0, 0.1 + 0.2])
                | st.floats(min_value=1e12, max_value=1e16, exclude_max=True)
                | st.floats(min_value=-1e16, max_value=-1e12, exclude_min=True))


@st.composite
def _float_runs(draw):
    """A long all-float list, sometimes with one ``np.float64`` mixed in."""
    xs = draw(st.lists(_edge_floats, min_size=1, max_size=80))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(xs)))
        xs.insert(i, np.float64(draw(_edge_floats)))
    return xs


# Keys that the row template must spell literally: '%' sequences, quotes,
# escapes, non-ASCII text and the empty key.
_record_keys = (st.sampled_from(["%", "%s", "%%", "a%d", '"', 'q"%"', "\\", "é", "☃",
                                 "\U0001f600", "", "count", "probability"])
                | st.text(max_size=4))
_column_kinds = st.sampled_from([
    st.none(), st.integers(), st.booleans(), _edge_floats, st.text(max_size=5),
    _values, st.none() | st.integers()])


@st.composite
def _records(draw):
    """Dicts sharing one key set, each built in its own insertion order;
    most columns hold one kind of value, some mix kinds or nest."""
    keys = draw(st.lists(_record_keys, min_size=1, max_size=5, unique=True))
    kinds = {k: draw(_column_kinds) for k in keys}
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        rows.append({k: draw(kinds[k]) for k in draw(st.permutations(keys))})
    return rows


_bulk_documents = st.one_of(
    _float_runs(), _records(),
    _float_runs().map(lambda xs: {"m": [xs, xs[:1]], "n": (xs,)}),
    _records().map(lambda rows: {"rows": rows, "nested": [[rows]]}),
    st.lists(st.text(max_size=4) | st.none() | st.integers(), min_size=1, max_size=1),
    st.lists(st.none(), min_size=1, max_size=20),
    st.lists(st.integers(), min_size=1, max_size=20),
    st.lists(st.text(max_size=4), min_size=1, max_size=20))


@settings(max_examples=300, deadline=None)
@given(obj=_bulk_documents)
@example(obj=[0.5])
@example(obj=[{"%s": 1.5}])
@example(obj=[{"a": 1, "b": None}, {"b": 2, "a": None}])
@example(obj=[1e15, 123456789012.5, -0.0, 5e-324, math.nan])
@example(obj=[0.25, np.float64(0.1 + 0.2), 1e13])
@example(obj=[{}, {}])
def test_json_writer_bulk_runs_match_stdlib_form(obj):
    assert _dump_json(obj) == _stdlib_form(obj)


def test_json_writer_refuses_what_json_refuses():
    for obj in ({(1, 2): 0}, [object()], {"a": {1, 2}}, [0.5, object(), 1.5],
                [{"a": 0.5}, {"a": object()}]):
        with pytest.raises(TypeError):
            _stdlib_form(obj)
        with pytest.raises(TypeError):
            _dump_json(obj)


def test_json_writer_takes_only_str_keys():
    """Every key of a result is a string; any other key is refused, not
    spelled, in a lone dict and in a list of dicts sharing their keys."""
    for obj in ({"a": {1: 0.5}}, [{1: 0.5}, {1: 0.25}], {"rows": [{2: "x"}]}):
        with pytest.raises(TypeError, match="keys must be str"):
            _dump_json(obj)


def test_json_writer_leaves_no_cyclic_garbage():
    """Garbage that only the cyclic collector frees piles up between its
    runs: a self-referencing writer raised peak memory with run length."""
    doc = {"a": [1.0, {"b": [2.0, "c"]}], "d": (),
           "rows": [{"p": 0.5, "s": "x", "n": None}, {"n": 3, "s": "y", "p": math.nan}],
           "matrix": [[0.25 * i + j for j in range(4)] for i in range(4)]}
    gc.collect()
    gc.disable()
    try:
        _dump_json(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()
