"""Line-oriented netlist format: parsing, validation, serialization.

A netlist is a sequence of ``[section]`` blocks holding ``key value`` lines;
element descriptors reuse the grammar of :mod:`cpfsim.elements`.  Parsing is
total: malformed input never raises, it accumulates diagnostics with line and
column positions, and a netlist object is produced whenever no error-level
diagnostic occurred (defaults filled in).

A JSON object with the same structure is accepted as an alternative
front-end for programmatic use (:func:`parse_netlist_json`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .elements import DescriptorError, parse_descriptor, spec_problem
from .gate_d4 import PREPARATION_TABLE
from .protocol import BellOutcome

KNOWN_TASKS = ("cpf_d4", "circuit", "fidelity", "lock")
KNOWN_RECIPES = (*PREPARATION_TABLE, "aux")
_BELL_NAMES = {o.value: o for o in BellOutcome}


@dataclass(frozen=True)
class Diagnostic:
    line: int            # 1-based
    col: int             # 0-based
    message: str
    severity: str = "error"

    def __str__(self):
        return f"{self.line}:{self.col}: {self.severity}: {self.message}"


@dataclass
class SourceSpec:
    name: str
    path: str
    recipe: str


@dataclass
class Netlist:
    version: int = 1
    paths: tuple = ()
    truncation: int = 4
    sources: dict = field(default_factory=dict)     # name -> SourceSpec
    elements: list = field(default_factory=list)    # ElementSpec, ordered
    pattern: dict = field(default_factory=dict)     # path -> photon count
    accept: tuple = (BellOutcome.PhiPlus, BellOutcome.PhiMinus)
    task: str = "cpf_d4"
    mode: str = "analytic"
    shots: int = 0
    seed: int = 0
    noise: dict = field(default_factory=dict)
    duration: float = 4.0
    setpoint: float = 0.0
    lock: dict = field(default_factory=dict)
    drift: dict = field(default_factory=dict)
    pid: dict = field(default_factory=dict)


@dataclass
class ParseResult:
    netlist: Netlist | None
    diagnostics: list

    @property
    def ok(self) -> bool:
        return self.netlist is not None and not any(
            d.severity == "error" for d in self.diagnostics
        )


def _num(raw: str):
    try:
        return int(raw)
    except ValueError:
        return float(raw)


def parse_netlist(text: str) -> ParseResult:
    diags: list[Diagnostic] = []
    nl = Netlist()
    section = None
    section_arg = None
    seen_sources: set[str] = set()

    def err(line_no, col, msg, severity="error"):
        diags.append(Diagnostic(line_no, col, msg, severity))

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                err(line_no, indent, "unterminated section header")
                continue
            inner = stripped[1:-1].strip()
            parts = inner.split(None, 1)
            section = parts[0].lower() if parts else ""
            section_arg = parts[1].strip() if len(parts) > 1 else None
            if section not in ("space", "source", "elements", "detect", "run", "lock"):
                err(line_no, indent, f"unknown section [{inner}]")
                section = None
            elif section == "source":
                if not section_arg:
                    err(line_no, indent, "source section needs a photon name")
                elif section_arg in seen_sources:
                    err(line_no, indent, f"duplicate source id {section_arg!r}")
                else:
                    seen_sources.add(section_arg)
                    nl.sources[section_arg] = SourceSpec(section_arg, "", "")
            continue
        if section is None:
            # top-level keys
            key, _, value = stripped.partition(" ")
            if key == "version":
                try:
                    nl.version = int(value)
                except ValueError:
                    err(line_no, indent + len(key) + 1, f"bad version {value!r}")
            else:
                err(line_no, indent, f"line outside any section: {stripped!r}")
            continue
        if section == "elements":
            try:
                spec = parse_descriptor(stripped)
            except DescriptorError as e:
                err(line_no, indent + e.col, str(e))
                continue
            problem = spec_problem(spec)
            if problem:
                err(line_no, indent, problem)
                continue
            nl.elements.append(spec)
            continue
        key, _, value = stripped.partition(" ")
        value = value.strip()
        if not value:
            err(line_no, indent + len(key), f"missing value for {key!r}")
            continue
        try:
            _parse_kv(nl, section, section_arg, key, value)
        except _KvError as e:
            err(line_no, indent + len(key) + 1, str(e))

    _validate(nl, diags)
    has_error = any(d.severity == "error" for d in diags)
    return ParseResult(None if has_error else nl, diags)


class _KvError(ValueError):
    pass


def _parse_kv(nl: Netlist, section: str, arg, key: str, value: str):
    if section == "space":
        if key == "paths":
            nl.paths = tuple(value.split())
        elif key == "truncation":
            nl.truncation = int(value)
        else:
            raise _KvError(f"unknown key {key!r} in [space]")
    elif section == "source":
        src = nl.sources[arg]
        if key == "path":
            src.path = value
        elif key == "recipe":
            src.recipe = value
        else:
            raise _KvError(f"unknown key {key!r} in [source]")
    elif section == "detect":
        if key == "pattern":
            pattern = {}
            for tok in value.split():
                if "=" not in tok:
                    raise _KvError(f"pattern entry {tok!r} is not path=count")
                path, _, count = tok.partition("=")
                pattern[path] = int(count)
            nl.pattern = pattern
        elif key == "accept":
            names = value.split()
            bad = [n for n in names if n not in _BELL_NAMES]
            if bad:
                raise _KvError(f"unknown Bell outcome(s) {bad}")
            nl.accept = tuple(_BELL_NAMES[n] for n in names)
        else:
            raise _KvError(f"unknown key {key!r} in [detect]")
    elif section == "run":
        if key == "task":
            if value not in KNOWN_TASKS:
                raise _KvError(f"unknown task {value!r}")
            nl.task = value
        elif key == "mode":
            if value not in ("analytic", "shots"):
                raise _KvError(f"unknown mode {value!r}")
            nl.mode = value
        elif key == "shots":
            nl.shots = int(value)
        elif key == "seed":
            nl.seed = int(value)
        elif key == "duration":
            nl.duration = float(value)
        elif key == "setpoint":
            nl.setpoint = float(value)
        elif key.startswith("noise."):
            nl.noise[key[6:]] = _num(value)
        else:
            raise _KvError(f"unknown key {key!r} in [run]")
    elif section == "lock":
        if key.startswith("drift."):
            nl.drift[key[6:]] = value if key == "drift.kind" else _num(value)
        elif key.startswith("pid."):
            nl.pid[key[4:]] = _num(value)
        else:
            nl.lock[key] = _num(value)


_NOISE_KEYS = {"sigma_zeta", "oam_dephasing", "loss", "visibility", "draws"}


def _validate(nl: Netlist, diags: list):
    def err(msg, severity="error"):
        diags.append(Diagnostic(0, 0, msg, severity))

    declared = set(nl.paths)
    for spec in nl.elements:
        for p in dict.fromkeys(spec.paths + spec.param("in", ()) + spec.param("out", ())):
            if declared and p not in declared:
                err(f"element {spec.descriptor()!r} uses undeclared path {p!r}")
    for name, src in nl.sources.items():
        if declared and src.path and src.path not in declared:
            err(f"source {name!r} placed on undeclared path {src.path!r}")
        if src.recipe and src.recipe not in KNOWN_RECIPES:
            err(f"source {name!r} uses unknown recipe {src.recipe!r}")
    for path, count in nl.pattern.items():
        if declared and path not in declared:
            err(f"detection pattern names undeclared path {path!r}")
        if count < 0:
            err(f"detection pattern count for {path!r} is negative")
    for k in nl.noise:
        if k not in _NOISE_KEYS:
            err(f"unknown noise key {k!r}")
    if nl.shots < 0:
        err("shots must be non-negative")


def netlist_to_json_dict(nl: Netlist) -> dict:
    """Structured JSON form of a netlist (the programmatic front-end)."""
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


def parse_netlist_json(text: str | dict) -> ParseResult:
    """Parse the JSON front-end; same validation and diagnostics."""
    diags: list[Diagnostic] = []
    if isinstance(text, str):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            return ParseResult(None, [Diagnostic(e.lineno, e.colno - 1, e.msg)])
    else:
        obj = text
    nl = Netlist()
    try:
        nl.version = int(obj.get("version", 1))
        space = obj.get("space", {})
        nl.paths = tuple(space.get("paths", ()))
        nl.truncation = int(space.get("truncation", 4))
        for name, src in obj.get("sources", {}).items():
            nl.sources[name] = SourceSpec(name, src.get("path", ""),
                                          src.get("recipe", ""))
        for i, desc in enumerate(obj.get("elements", ())):
            try:
                spec = parse_descriptor(desc)
            except DescriptorError as e:
                diags.append(Diagnostic(0, i, str(e)))
                continue
            problem = spec_problem(spec)
            if problem:
                diags.append(Diagnostic(0, i, problem))
                continue
            nl.elements.append(spec)
        detect = obj.get("detect", {})
        nl.pattern = {k: int(v) for k, v in detect.get("pattern", {}).items()}
        accept = detect.get("accept")
        if accept is not None:
            bad = [n for n in accept if n not in _BELL_NAMES]
            if bad:
                diags.append(Diagnostic(0, 0, f"unknown Bell outcome(s) {bad}"))
            else:
                nl.accept = tuple(_BELL_NAMES[n] for n in accept)
        run = obj.get("run", {})
        nl.task = run.get("task", nl.task)
        if nl.task not in KNOWN_TASKS:
            diags.append(Diagnostic(0, 0, f"unknown task {nl.task!r}"))
            nl.task = "cpf_d4"
        nl.mode = run.get("mode", nl.mode)
        nl.shots = int(run.get("shots", 0))
        nl.seed = int(run.get("seed", 0))
        nl.duration = float(run.get("duration", nl.duration))
        nl.setpoint = float(run.get("setpoint", nl.setpoint))
        nl.noise = dict(run.get("noise", {}))
        lock = obj.get("lock", {})
        nl.lock = dict(lock.get("params", {}))
        nl.drift = dict(lock.get("drift", {}))
        nl.pid = dict(lock.get("pid", {}))
    except (TypeError, ValueError) as e:
        diags.append(Diagnostic(0, 0, f"malformed JSON netlist: {e}"))
        return ParseResult(None, diags)
    _validate(nl, diags)
    has_error = any(d.severity == "error" for d in diags)
    return ParseResult(None if has_error else nl, diags)


def serialize(nl: Netlist) -> str:
    """Canonical text form; parse(serialize(n)) reproduces n."""
    out = [f"version {nl.version}"]
    if nl.paths:
        out += ["", "[space]", f"paths {' '.join(nl.paths)}",
                f"truncation {nl.truncation}"]
    for name in sorted(nl.sources):
        src = nl.sources[name]
        out += ["", f"[source {name}]"]
        if src.path:
            out.append(f"path {src.path}")
        if src.recipe:
            out.append(f"recipe {src.recipe}")
    if nl.elements:
        out += ["", "[elements]"]
        out += [spec.descriptor() for spec in nl.elements]
    if nl.pattern or nl.accept:
        out += ["", "[detect]"]
        if nl.pattern:
            out.append("pattern " + " ".join(
                f"{p}={c}" for p, c in sorted(nl.pattern.items())))
        out.append("accept " + " ".join(o.value for o in nl.accept))
    out += ["", "[run]", f"task {nl.task}", f"mode {nl.mode}",
            f"shots {nl.shots}", f"seed {nl.seed}"]
    if nl.task == "lock":
        out += [f"duration {nl.duration:.12g}", f"setpoint {nl.setpoint:.12g}"]
    for k in sorted(nl.noise):
        out.append(f"noise.{k} {nl.noise[k]:.12g}")
    if nl.lock or nl.drift or nl.pid:
        out += ["", "[lock]"]
        for k in sorted(nl.lock):
            out.append(f"{k} {nl.lock[k]:.12g}")
        for k in sorted(nl.drift):
            v = nl.drift[k]
            out.append(f"drift.{k} {v}" if isinstance(v, str)
                       else f"drift.{k} {v:.12g}")
        for k in sorted(nl.pid):
            out.append(f"pid.{k} {nl.pid[k]:.12g}")
    return "\n".join(out) + "\n"
