"""Experiment orchestration: execute a parsed netlist, emit results.

``execute`` is a pure function of (netlist, seed): repeated runs produce
byte-identical JSON.  Floats are emitted at 12 significant digits with sorted
keys throughout.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (DEFAULT_DRAWS, build_heralded_channel, full_fidelity_report,
                       heralded_ensemble)
from .elements import element_transform
from .errors import CpfSimError, EmptyPostSelection
from .fock import (
    apply_transform,
    inject_product,
    path_count_distribution,
    post_select,
    sample_counts,
)
from .gate_d4 import (encode_qudit_vector, prepare_auxiliary, prepare_input,
                      qudit_amplitudes, run_cpf_d4)
from .locking import DriftModel, LockParams, PidGains, simulate_lock
from .modes import ModeSpace
from .netlist import (Diagnostic, Netlist, ParseResult, parse_netlist, parse_netlist_json,
                      serialize, task_problems)
from .noise import NoiseSpec


class NetlistError(CpfSimError):
    """Execution was handed an invalid netlist."""


@dataclass
class RunResult:
    task: str
    heralding_probability: float | None
    tallies: dict
    fidelity: dict | None
    states: dict | None
    trace_csv: str | None
    summary: dict
    provenance: dict

    def to_json(self) -> str:
        payload = {
            "task": self.task,
            "heralding_probability": self.heralding_probability,
            "tallies": {str(k): v for k, v in sorted(self.tallies.items(), key=lambda kv: str(kv[0]))},
            "fidelity": self.fidelity,
            "states": self.states,
            "summary": self.summary,
            "provenance": self.provenance,
        }
        return _dump_json(payload)


_encode_str = json.encoder.encode_basestring_ascii
_NONE = type(None)
_BULK_TYPES = frozenset((float, str, int, _NONE, dict))


def _rounded_float(x: float) -> str:
    """``x`` at 12 significant digits, spelled as ``json`` spells a float."""
    x = float(f"{x:.12g}")
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _dump_json(obj) -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` with
    every float value rounded to 12 significant digits, written in one pass
    (the stdlib's indenting encoder is pure Python and walks a rounded copy)."""
    return _text(obj, "\n") + "\n"


def _key_error(k) -> TypeError:
    """Every key of a result is a string; any other key is refused."""
    return TypeError(f"keys must be str, not {k.__class__.__name__}")


def _text(o, nl: str) -> str:
    """The JSON text of ``o``; ``nl`` is a newline and the indentation of the
    line ``o`` starts on.  Plain functions, not closures over themselves:
    such a closure is a reference cycle that keeps its pieces alive until the
    cyclic collector runs."""
    t = type(o)
    if t is float:
        return _rounded_float(o)
    if t is str:
        return _encode_str(o)
    if t is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if t is not dict and t is not list and t is not tuple:
        if isinstance(o, float):
            return _rounded_float(o)
        if isinstance(o, str):
            return _encode_str(o)
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, dict):
            t = dict
        elif not isinstance(o, (list, tuple)):
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    if not o:
        return "{}" if t is dict else "[]"
    inner = nl + "  "
    if t is dict:
        parts = []
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                raise _key_error(k)
            parts.append(f"{inner}{_encode_str(k)}: {_text(v, inner)}")
        return "{" + ",".join(parts) + nl + "}"
    return "[" + inner + ("," + inner).join(_items(o, inner)) + nl + "]"


def _items(xs, nl: str):
    """The texts of the values ``xs``, each starting a line indented as
    ``nl``.  A run of one exact type is spelled in bulk: floats rounded in one
    ``%`` format (value by value if one is not finite), strings, ints and
    nulls by one ``map``, and dicts that share one key set column by column,
    each record filling one row template.  Anything else (bools, subclasses
    such as ``np.float64``, mixed runs) goes value by value through
    :func:`_text`."""
    # First and last item first: most mixed runs (a state entry's int, int,
    # np.float64, np.float64) fail that test without building a set.
    t = type(xs[0])
    if type(xs[-1]) is t and t in _BULK_TYPES and len(set(map(type, xs))) == 1:
        if t is float:
            rounded = ("%.12g," * len(xs)) % tuple(xs)
            if "n" in rounded:      # nan or inf
                return map(_rounded_float, xs)
            return map(float.__repr__, map(float, rounded[:-1].split(",")))
        if t is str:
            return map(_encode_str, xs)
        if t is int:
            return map(int.__repr__, xs)
        if t is _NONE:
            return ["null"] * len(xs)
        if t is dict:
            keys = xs[0].keys()
            if keys and all(map(keys.__eq__, map(dict.keys, xs))):
                keys = sorted(keys)
                for k in keys:
                    if not isinstance(k, str):
                        raise _key_error(k)
                inner = nl + "  "
                # The keys are spelled into the template; a value is only
                # substituted, so only a key's '%' needs escaping.
                row = "{" + ",".join([f"{inner}{_encode_str(k).replace('%', '%%')}: %s"
                                      for k in keys]) + nl + "}"
                columns = [_items([d[k] for d in xs], inner) for k in keys]
                return map(row.__mod__, zip(*columns))
    # A loop, not a comprehension: in Python 3.11 a comprehension is one more
    # call, which costs the small documents more than it saves.
    out = []
    for v in xs:
        out.append(_text(v, nl))
    return out


def _provenance(nl: Netlist) -> dict:
    text = serialize(nl)
    return {
        "netlist_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "seed": nl.seed,
        "tool_version": __version__,
    }


def _noise_spec(nl: Netlist) -> NoiseSpec | None:
    spec = NoiseSpec(**{k: v for k, v in nl.noise.items() if k != "draws"}, seed=nl.seed)
    return None if spec.trivial else spec


def execute(netlist: Netlist | ParseResult) -> RunResult:
    """Dispatch one netlist to the matching engine.

    An ok :class:`ParseResult` passed the task's rules (:func:`task_problems`)
    when it was parsed and runs as parsed.  A bare :class:`Netlist` is checked
    here: the run commands change the seed, shots, mode or task after parsing,
    so a netlist changed after parsing is handed over bare."""
    nl = netlist
    if isinstance(nl, ParseResult):
        if not nl.ok:
            raise NetlistError("netlist has errors: " + "; ".join(str(d) for d in nl.diagnostics))
        nl = nl.netlist
    else:
        problems = task_problems(nl)
        if problems:
            raise NetlistError("; ".join(problems))
    run = {"cpf_d4": _run_cpf, "fidelity": _run_fidelity, "lock": _run_lock,
           "circuit": _run_circuit}[nl.task]
    try:
        return run(nl)
    except CpfSimError as e:
        raise NetlistError(f"{nl.task}: {e}") from e


def _input_vector(recipe: str) -> np.ndarray:
    state, _prob = prepare_input(recipe)
    return qudit_amplitudes(state)


def _run_cpf(nl: Netlist) -> RunResult:
    v1 = _input_vector(nl.sources["photon1"].recipe)
    v4 = _input_vector(nl.sources["photon4"].recipe)
    accepted = frozenset(nl.accept)
    noise = _noise_spec(nl)
    summary: dict = {"accepted": [o.value for o in nl.accept]}
    if noise is None:
        run = run_cpf_d4(v1, v4, accepted=accepted)
        pattern_probs, port_prob = run.pattern_probs, run.port_pattern_prob
        per_outcome = {o: p for o, (_s, p) in run.per_outcome.items()}
        states = {o.value: s.to_json_entries() for o, (s, _p) in run.per_outcome.items()}
    else:
        channel = build_heralded_channel(noise, nl.noise.get("draws", DEFAULT_DRAWS))
        pattern_probs, outputs = heralded_ensemble(channel, np.kron(v1, v4), accepted)
        port_prob = float(sum(pattern_probs.values()))
        per_outcome = {o: p for o, (_rho, p) in outputs.items()}
        states = None
        summary["density"] = {o.value: _density_entries(rho)
                              for o, (rho, _p) in outputs.items()}
    tallies: dict = {}
    if nl.shots:
        dist = dict(pattern_probs)
        dist[("no-herald",)] = max(1.0 - sum(dist.values()), 0.0)
        tallies = {
            "|".join(k): v
            for k, v in sample_counts(dist, nl.shots, nl.seed).items()
        }
    summary["per_outcome_probability"] = {o.value: p for o, p in per_outcome.items()}
    summary["port_pattern_probability"] = port_prob
    return RunResult(
        "cpf_d4", float(sum(per_outcome.values())), tallies, None, states, None,
        summary, _provenance(nl),
    )


def _density_entries(rho: np.ndarray) -> list:
    """[i, j, re, im] for each entry of a 16x16 density matrix above 1e-15,
    with i = 4 m + n indexing the qudit pair (m, n); parts are Python floats."""
    return [[i, j, z.real, z.imag]
            for i, row in enumerate(rho.tolist()) for j, z in enumerate(row) if abs(z) > 1e-15]


def _run_fidelity(nl: Netlist) -> RunResult:
    channel = build_heralded_channel(_noise_spec(nl), nl.noise.get("draws", DEFAULT_DRAWS),
                                     frozenset(nl.accept))
    report = full_fidelity_report(channel, nl.shots, nl.seed)
    fid = report.to_json_dict()
    summary = {"bounds": fid["bounds"], "f_zx": report.f_zx, "f_xz": report.f_xz}
    return RunResult(
        "fidelity", report.herald_probability, {}, fid, None, None,
        summary, _provenance(nl),
    )


def _run_lock(nl: Netlist) -> RunResult:
    trace = simulate_lock(LockParams(**nl.lock), DriftModel(**nl.drift), PidGains(**nl.pid),
                          duration=nl.duration, setpoint=nl.setpoint, seed=nl.seed)
    summary = {
        "rms_open": trace.rms_open(),
        "rms_closed": trace.rms_closed(),
        "diverged": trace.diverged,
        "setpoint": trace.setpoint,
    }
    return RunResult("lock", None, {}, None, None, trace.to_csv(),
                     summary, _provenance(nl))


def _run_circuit(nl: Netlist) -> RunResult:
    space = ModeSpace(nl.paths, nl.truncation)
    photons = []
    for name in sorted(nl.sources):
        src = nl.sources[name]
        if src.recipe == "aux":
            photons.append(prepare_auxiliary(space, src.path))
        else:
            photons.append(encode_qudit_vector(space, src.path, _input_vector(src.recipe)))
    state = inject_product(photons)
    for spec in nl.elements:
        state = apply_transform(element_transform(spec, space), state)
    herald = None
    if nl.pattern:
        try:
            state, herald = post_select(state, nl.pattern)
        except EmptyPostSelection:
            return RunResult("circuit", 0.0, {}, None, None, None,
                             {"note": "post-selection kept no amplitude"},
                             _provenance(nl))
    dist = path_count_distribution(state)
    readable = {
        "/".join(f"{p}:{c}" for p, c in key): prob for key, prob in dist.items()
    }
    tallies = {}
    if nl.shots:
        tallies = {
            "/".join(f"{p}:{c}" for p, c in key): v
            for key, v in sample_counts(dist, nl.shots, nl.seed).items()
        }
    return RunResult("circuit", herald, tallies, None, None, None,
                     {"distribution": readable}, _provenance(nl))


# ---------------------------------------------------------------------------
# Emission


def emit(result: RunResult, fmt: str, out_dir: str | Path, stem: str) -> list:
    """Write result files; returns the written paths.

    Output is bit-stable for fixed inputs: sorted keys and 12-significant-
    digit floats.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def write(name: str, text: str):
        path = out_dir / name
        path.write_text(text)
        written.append(path)

    if fmt in ("json", "both"):
        write(f"{stem}.json", result.to_json())
    if fmt in ("csv", "both"):
        lines = ["outcome,count"]
        for key in sorted(result.tallies, key=str):
            lines.append(f"{key},{result.tallies[key]}")
        write(f"{stem}_tallies.csv", "\n".join(lines) + "\n")
        if result.fidelity is not None:
            for name in ("matrix_zx", "matrix_xz"):
                rows = result.fidelity[name]
                text = "\n".join(
                    ",".join(f"{x:.12g}" for x in row) for row in rows
                )
                write(f"{stem}_{name}.csv", text + "\n")
            lines = ["basis,input,outcome,probability,count"]
            for rec in result.fidelity.get("outcome_rows", ()):
                count = "" if rec["count"] is None else rec["count"]
                lines.append(f"{rec['basis']},{rec['input']},{rec['outcome']},"
                             f"{rec['probability']:.12g},{count}")
            write(f"{stem}_outcomes.csv", "\n".join(lines) + "\n")
        if result.trace_csv is not None:
            write(f"{stem}_trace.csv", result.trace_csv)
    return written


def load_netlist(path: str | Path) -> ParseResult:
    """Parse a netlist file; ``.json`` files use the JSON front-end.  A file
    that cannot be read as UTF-8 text gives one diagnostic naming the path
    and the reason."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        reason = e.strerror if isinstance(e, OSError) and e.strerror else e
        return ParseResult(None, [Diagnostic(0, 0, f"cannot read {path}: {reason}")])
    if path.suffix.lower() == ".json":
        return parse_netlist_json(text)
    return parse_netlist(text)
