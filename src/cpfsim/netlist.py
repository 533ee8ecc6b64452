"""Line-oriented netlist format: parsing, validation, serialization.

A netlist is a sequence of ``[section]`` blocks holding ``key value`` lines;
element descriptors reuse the grammar of :mod:`cpfsim.elements`.  Parsing is
total: malformed input never raises, it accumulates diagnostics (all errors)
with line and column positions, and a netlist object is produced whenever no
diagnostic occurred (defaults filled in).  :data:`SCHEMA` lists every key.

A JSON object with the same structure is accepted as an alternative
front-end for programmatic use (:func:`parse_netlist_json`); both front ends
pass every value through :func:`_set`.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass, field, fields

from .analysis import DEFAULT_DRAWS, MAX_DRAWS
from .elements import (DescriptorError, element_transform, float_text, parse_descriptor,
                       spec_problem)
from .errors import CpfSimError, TruncationOverflow
from .gate_d4 import (AUX_TARGET_TERMS, DEFAULT_TRUNCATION, LEVEL_TO_OAM, PREPARATION_TABLE,
                      BsmStage, CpfPipeline, auxiliary_target, encode_qudit_vector)
from .locking import DriftModel, LockParams, PidGains, check_lock_run, lock_gain
from .modes import ModeSpace, apply_to_single_photon
from .noise import NoiseSpec
from .protocol import BellOutcome

KNOWN_TASKS = ("cpf_d4", "circuit", "fidelity", "lock")
KNOWN_RECIPES = (*PREPARATION_TABLE, "aux")
_BELL_NAMES = {o.value: o for o in BellOutcome}
# The largest truncation L a netlist may set.  The largest block a circuit
# builds is a PBS with four distinct ports, 8(2L+1) modes square; at L = 63
# that complex matrix takes 16.5 MB, within a 16 MiB budget (L = 64 would not).
MAX_TRUNCATION = 63
# The largest |l| a source recipe puts its photon in, the truncation a
# circuit needs to hold it: a data row's target levels, the auxiliary's terms.
_RECIPE_REACH = {
    **{name: max(abs(LEVEL_TO_OAM[i]) for i, a in enumerate(row.target) if a)
       for name, row in PREPARATION_TABLE.items()},
    "aux": max(abs(l) for _pol, l in AUX_TARGET_TERMS),
}


@dataclass(frozen=True)
class Diagnostic:
    line: int            # 1-based
    col: int             # 0-based
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: error: {self.message}"


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
        return self.netlist is not None     # parsing keeps no netlist that has an error


# Value readers take line text or a JSON value and raise ValueError or
# TypeError on anything the run could not honour.


def _integer(minimum=-math.inf, maximum=math.inf):
    """An integer in [minimum, maximum]; JSON may give it as an integral float."""
    bound = ("" if minimum == -math.inf else f" >= {minimum}" if maximum == math.inf
             else f" in [{minimum}, {maximum}]")

    def read(raw) -> int:
        if isinstance(raw, float) and raw.is_integer():
            raw = int(raw)
        try:
            value = None if isinstance(raw, (bool, float)) else int(raw)
        except (TypeError, ValueError):
            value = None
        if value is None or not minimum <= value <= maximum:
            raise ValueError(f"expects an integer{bound}, got {raw!r}")
        return value
    return read


def _version(raw) -> int:
    """The format version: 1, the only one there is."""
    if _integer()(raw) != 1:
        raise ValueError(f"expects 1, the only format version, got {raw!r}")
    return 1


def _number(raw) -> float:
    """A finite float."""
    try:
        value = math.nan if isinstance(raw, bool) else float(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"expects a finite number, got {raw!r}")
    if value == 0 and isinstance(raw, str):
        with suppress(ValueError):
            return float(int(raw))      # integer text reads as int did: "-0" is 0
    return value


def _text(raw) -> str:
    if not isinstance(raw, str):
        raise ValueError(f"expects a string, got {raw!r}")
    return raw


def _choice(noun: str, options: tuple):
    def read(raw):
        if raw not in options:
            raise ValueError(f"unknown {noun} {raw!r}")
        return raw
    return read


def _repeats(names) -> list:
    """The names given more than once, in order of first appearance."""
    return [n for n in dict.fromkeys(names) if names.count(n) > 1]


def _paths(raw) -> tuple:
    paths = raw.split() if isinstance(raw, str) else raw
    if (not isinstance(paths, (list, tuple)) or not all(isinstance(p, str) for p in paths)
            or len(set(paths)) < len(paths)):
        raise ValueError(f"expects distinct path names, got {raw!r}")
    return tuple(paths)


def _pattern(raw) -> dict:
    if isinstance(raw, str):
        entries = [tok.partition("=") for tok in raw.split()]
        for path, eq, count in entries:
            if not eq:
                raise ValueError(f"pattern entry {path!r} is not path=count")
        raw = {path: count for path, _, count in entries}
        if len(raw) < len(entries):
            raise ValueError(f"repeats path(s) {_repeats([path for path, _, _ in entries])}")
    if not isinstance(raw, dict):
        raise ValueError(f"expects path=count entries, got {raw!r}")
    count = _integer(0)
    return {path: count(c) for path, c in raw.items()}


def _accept(raw) -> tuple:
    names = raw.split() if isinstance(raw, str) else raw
    if not isinstance(names, (list, tuple)) or not names:
        raise ValueError(f"expects at least one Bell outcome, in a list, got {raw!r}")
    bad = [n for n in names if n not in _BELL_NAMES]
    if bad:
        raise ValueError(f"unknown Bell outcome(s) {bad}")
    if len(set(names)) < len(names):
        raise ValueError(f"repeats Bell outcome(s) {_repeats(names)}")
    return tuple(_BELL_NAMES[n] for n in names)


def _fields(prefix: str, cls, skip=()) -> dict:
    """Netlist keys of a dataclass: ``str`` fields read text, the rest numbers."""
    return {prefix + f.name: _text if f.type in ("str", str) else _number
            for f in fields(cls) if f.name not in skip}


# section -> key -> reader; "" is the top level.  The noise.*, [lock], drift.*
# and pid.* keys are the fields of NoiseSpec (less seed, plus draws),
# LockParams, DriftModel and PidGains, whose validate() checks their ranges.
# A dotted key ``group.name`` lands in the Netlist dict ``group``, a plain
# [lock] key in ``Netlist.lock``, a [source] key on its SourceSpec and every
# other key on the Netlist.
SCHEMA = {
    "": {"version": _version},
    "space": {"paths": _paths, "truncation": _integer(0, MAX_TRUNCATION)},
    # the JSON form writes an unset recipe as ""; text has no empty values
    "source": {"path": _text, "recipe": _choice("recipe", ("", *KNOWN_RECIPES))},
    "detect": {"pattern": _pattern, "accept": _accept},
    "run": {
        "task": _choice("task", KNOWN_TASKS),
        "mode": _choice("mode", ("analytic", "shots")),
        "shots": _integer(0, 2**63 - 1),        # numpy's multinomial takes a C long
        "seed": _integer(0, 2**63 - 1),         # the RNG keys take 64 bits; XZ runs seed + 1
        "duration": _number, "setpoint": _number,
        **_fields("noise.", NoiseSpec, skip=("seed",)), "noise.draws": _integer(1, MAX_DRAWS),
    },
    "lock": {**_fields("", LockParams), **_fields("drift.", DriftModel),
             **_fields("pid.", PidGains)},
}


# Netlist parts, their Netlist fields and the tasks that read them; every task
# reads the fields not listed (task, seed, version).  A part is set when one of
# its fields differs from the Netlist() default: a scalar set to its default
# value is not set, a noise.* or [lock] key is whatever its value.  A netlist
# that sets a part its task does not read is refused, never run without it.
TASK_TABLE = (
    ("[space] block", ("paths", "truncation"), ("circuit", "cpf_d4")),
    ("[source] block", ("sources",), ("circuit", "cpf_d4")),
    ("[elements] block", ("elements",), ("circuit",)),
    ("detection pattern", ("pattern",), ("circuit", "cpf_d4")),
    ("accept list", ("accept",), ("cpf_d4", "fidelity")),
    ("mode or shots", ("mode", "shots"), ("circuit", "cpf_d4", "fidelity")),
    ("duration or setpoint", ("duration", "setpoint"), ("lock",)),
    ("noise.* key", ("noise",), ("cpf_d4", "fidelity")),
    ("[lock] block", ("lock", "drift", "pid"), ("lock",)),
)
_DEFAULT = Netlist()


def _value_problems(nl: Netlist) -> list[str]:
    """The values that size the run, read again (a Netlist changed after
    parsing skipped their readers), and the ranges of the noise, lock, drift
    and PID settings, which their dataclasses check."""
    checks = [(key, SCHEMA[section][key], getattr(nl, key))
              for section, key in (("", "version"), ("space", "truncation"), ("run", "shots"),
                                   ("run", "seed"))]
    checks += [
        ("noise.draws", SCHEMA["run"]["noise.draws"], nl.noise.get("draws", DEFAULT_DRAWS)),
        ("noise", lambda d: NoiseSpec(**d).validate(),
         {k: v for k, v in nl.noise.items() if k != "draws"}),
        ("lock", lambda d: check_lock_run(LockParams(**d), nl.duration), nl.lock),
        ("drift", lambda d: DriftModel(**d).validate(), nl.drift),
        ("pid", lambda d: PidGains(**d).validate(), nl.pid),
    ]
    problems = []
    for name, check, value in checks:
        try:
            check(value)
        except (TypeError, ValueError) as e:
            problems.append(f"{name}: {e}")
    return problems


def task_problems(nl: Netlist) -> list[str]:
    """Why task ``nl.task`` cannot run ``nl``: its values out of range, else
    the parts it sets that the task does not read (:data:`TASK_TABLE`) and
    the task's rules on those it does: for cpf_d4 the gate's fixed wiring,
    for lock an error slope the calibration resolves (:func:`lock_gain`).
    Never raises."""
    if nl.task not in KNOWN_TASKS:
        return [f"unknown task {nl.task!r}"]
    problems = _value_problems(nl)
    if problems:
        return problems
    problems = [f"task {nl.task} runs no {part}; tasks that do: {', '.join(readers)}"
                for part, names, readers in TASK_TABLE if nl.task not in readers
                and any(getattr(nl, n) != getattr(_DEFAULT, n) for n in names)]
    for name, src in sorted(nl.sources.items()):
        if not src.recipe:
            problems.append(f"source {name!r} has no recipe")
        if nl.task == "circuit" and not src.path:
            problems.append(f"source {name!r} has no path")
        if nl.task == "circuit" and src.recipe and nl.truncation < _RECIPE_REACH[src.recipe]:
            problems.append(f"source {name!r} with recipe {src.recipe} needs truncation"
                            f" >= {_RECIPE_REACH[src.recipe]}")
    if nl.task == "circuit" and not (nl.paths and nl.sources):
        problems.append("task circuit needs [space] paths and at least one source")
    reads = {n for _part, names, readers in TASK_TABLE if nl.task in readers for n in names}
    if "accept" in reads and not nl.accept:
        problems.append(f"task {nl.task} needs at least one Bell outcome to accept")
    if "accept" in reads and set(nl.accept) - BsmStage.DISTINGUISHABLE:
        problems.append(f"task {nl.task} tells apart " + " and ".join(
            o.value for o in BellOutcome if o in BsmStage.DISTINGUISHABLE) + " only")
    if "shots" in reads and (nl.mode == "shots") != (nl.shots > 0):
        problems.append(f"mode {nl.mode} with shots {nl.shots}: mode shots needs"
                        " shots > 0, mode analytic shots 0")
    if nl.task == "circuit" and not problems:
        problems += _chain_problems(nl)
    if nl.task == "lock":
        try:
            lock_gain(LockParams(**nl.lock))
        except ValueError as e:
            problems.append(f"lock: {e}")
    if nl.task != "cpf_d4":
        return problems
    pipe = CpfPipeline
    if nl.truncation != DEFAULT_TRUNCATION:
        problems.append(f"task cpf_d4 runs at truncation {DEFAULT_TRUNCATION} only")
    if nl.paths and set(nl.paths) != set(pipe.PATHS):
        problems.append(f"task cpf_d4 runs on the paths {' '.join(pipe.PATHS)} only")
    if nl.pattern and nl.pattern != dict.fromkeys(pipe.PORTS, 1):
        problems.append(f"task cpf_d4 heralds one photon in each of {', '.join(pipe.PORTS)} only")
    problems += [f"task cpf_d4 has no source {name!r}; its sources are {', '.join(pipe.INPUTS)}"
                 for name in sorted(nl.sources.keys() - pipe.INPUTS.keys())]
    for name, path in pipe.INPUTS.items():
        src, aux = nl.sources.get(name), path.startswith("B")    # auxiliaries enter at B
        if src is None and not aux:
            problems.append(f"task cpf_d4 requires a [source {name}] block")
        if src and src.path not in ("", path):
            problems.append(f"source {name!r} enters the gate at {path}, not {src.path}")
        if src and src.recipe and (src.recipe == "aux") != aux:
            problems.append(f"source {name!r} must use "
                            + ("the auxiliary recipe" if aux else "a data-state recipe"))
    return problems


def _chain_problems(nl: Netlist) -> list[str]:
    """Circuit sources whose photon (the recipe's target) the chain shifts out
    of the window, and elements that cannot be built.  Photons evolve as
    independent linear forms, so a multi-photon term reaches a mode only
    where one photon does; a window holding every reachable |l| needs no pass."""
    problems = [p for p in map(spec_problem, nl.elements) if p]
    if problems:
        return problems
    reach = max(_RECIPE_REACH[src.recipe] for src in nl.sources.values())
    reach += sum(2 * abs(spec.param("q", 0)) + abs(spec.param("dl", 0)) for spec in nl.elements)
    if nl.truncation >= reach:
        return []
    space = ModeSpace(nl.paths, nl.truncation)
    try:
        chain = [element_transform(spec, space) for spec in nl.elements]
        for name, src in sorted(nl.sources.items()):
            state = (auxiliary_target(space, src.path) if src.recipe == "aux" else
                     encode_qudit_vector(space, src.path, PREPARATION_TABLE[src.recipe].target))
            for spec, t in zip(nl.elements, chain):
                try:
                    state = apply_to_single_photon(t, state)
                except TruncationOverflow as e:
                    problems.append(f"source {name!r} leaves the window at {spec.descriptor()}: {e}")
                    break
    except CpfSimError as e:
        problems.append(str(e))
    return problems


def _set(nl: Netlist, section: str, arg, key: str, raw) -> str | None:
    """Read, check and store one value; return the problem, if any."""
    read = SCHEMA[section].get(key)
    group, dot, name = str(key).partition(".")
    if read is None:
        if dot and any(k.startswith(group + ".") for k in SCHEMA[section]):
            return f"unknown {group} key {name!r}"
        return f"unknown key {key!r} " + (f"in [{section}]" if section else "outside any section")
    try:
        value = read(raw)
    except (TypeError, ValueError) as e:
        return f"{key}: {e}"
    if dot:
        getattr(nl, group)[name] = value
    elif section == "lock":
        nl.lock[key] = value
    else:
        setattr(nl.sources[arg] if section == "source" else nl, key, value)
    return None


def _add_element(nl: Netlist, text) -> tuple[int, str] | None:
    """Parse, check and append one descriptor; return (column, problem)."""
    if not isinstance(text, str):
        return 0, f"expects an element descriptor, got {text!r}"
    try:
        spec = parse_descriptor(text)
    except DescriptorError as e:
        return e.col, str(e)
    problem = spec_problem(spec)
    if problem:
        return 0, problem
    nl.elements.append(spec)
    return None


def parse_netlist(text: str) -> ParseResult:
    diags: list[Diagnostic] = []
    nl = Netlist()
    section = ""             # None: lines under a rejected header are skipped
    section_arg = None
    keys = set()             # the keys given in the current block
    blocks = {("", None): keys}     # (section, source name) -> keys; a header repeats a block

    def err(line_no, col, msg):
        diags.append(Diagnostic(line_no, col, msg))

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
            if not section or section not in SCHEMA and section != "elements":
                err(line_no, indent, f"unknown section [{inner}]")
                section = None
            elif section == "source":
                if not section_arg:
                    err(line_no, indent, "source section needs a photon name")
                    section = None
                elif section_arg in nl.sources:
                    err(line_no, indent, f"duplicate source id {section_arg!r}")
                else:
                    nl.sources[section_arg] = SourceSpec(section_arg, "", "")
            elif section_arg is not None:
                # refused, and the block still read as the section it names
                err(line_no, indent, f"section [{section}] takes no name")
            block = (section, section_arg if section == "source" else None)
            keys = blocks.setdefault(block, set())
            continue
        if section is None:
            continue
        if section == "elements":
            problem = _add_element(nl, stripped)
            if problem:
                err(line_no, indent + problem[0], problem[1])
            continue
        key, _, value = stripped.partition(" ")
        value = value.strip()
        known = key in SCHEMA[section]
        if known and not value:
            err(line_no, indent + len(key), f"missing value for {key!r}")
            continue
        if known and key in keys:
            err(line_no, indent, f"repeats key {key!r}")
            continue
        keys.add(key)
        problem = _set(nl, section, section_arg, key, value)
        if problem:
            err(line_no, indent + (len(key) + 1 if known else 0), problem)
    return _finish(nl, diags)


def _finish(nl: Netlist, diags: list) -> ParseResult:
    """Checks across values: declared paths, then, once every value has read
    and every path is declared, the task's (:func:`task_problems`, which
    starts with the value checks), else the value checks alone."""
    def err(msg):
        diags.append(Diagnostic(0, 0, msg))

    declared = set(nl.paths)
    for spec in nl.elements:
        for p in dict.fromkeys(spec.paths + spec.param("in", ()) + spec.param("out", ())):
            if declared and p not in declared:
                err(f"element {spec.descriptor()!r} uses undeclared path {p!r}")
    for name, src in nl.sources.items():
        if declared and src.path and src.path not in declared:
            err(f"source {name!r} placed on undeclared path {src.path!r}")
    for path in nl.pattern:
        if declared and path not in declared:
            err(f"detection pattern names undeclared path {path!r}")
    # a value that failed kept its default, which the task's rules would judge
    for problem in _value_problems(nl) if diags else task_problems(nl):
        err(problem)
    return ParseResult(None if diags else nl, diags)


# JSON objects nested in a section, and the key prefix their entries take.
_JSON_GROUPS = {("run", "noise"): "noise.", ("lock", "params"): "",
                ("lock", "drift"): "drift.", ("lock", "pid"): "pid."}


def parse_netlist_json(text: str | dict) -> ParseResult:
    """Parse the JSON front-end; same schema, validation and diagnostics.
    A name given twice in one object of the text is refused, at any depth."""
    diags: list[Diagnostic] = []

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            diags.extend(Diagnostic(0, 0, f"repeats name {name!r}")
                         for name in _repeats([name for name, _value in pairs]))
        return obj

    if isinstance(text, str):
        try:
            obj = json.loads(text, object_pairs_hook=unique)
        except json.JSONDecodeError as e:
            return ParseResult(None, [Diagnostic(e.lineno, e.colno - 1, e.msg)])
    else:
        obj = text
    nl = Netlist()

    def entries(value, where: str):
        if isinstance(value, dict):
            return value.items()
        diags.append(Diagnostic(0, 0, f"{where} must be a JSON object"))
        return ()

    def feed(section, key, raw, arg=None):
        problem = _set(nl, section, arg, key, raw)
        if problem:
            diags.append(Diagnostic(0, 0, problem))

    for name, body in entries(obj, "a JSON netlist"):
        if name == "version":
            feed("", name, body)
        elif name == "elements":
            for i, desc in enumerate(body if isinstance(body, list) else [body]):
                problem = _add_element(nl, desc)
                if problem:
                    diags.append(Diagnostic(0, i, problem[1]))
        elif name == "sources":
            for src, keys in entries(body, "sources"):
                nl.sources[src] = SourceSpec(src, "", "")
                for key, raw in entries(keys, f"source {src!r}"):
                    feed("source", key, raw, src)
        elif name in ("space", "detect", "run", "lock"):
            for key, raw in entries(body, name):
                prefix = _JSON_GROUPS.get((name, key))
                if prefix is None:
                    feed(name, key, raw)
                else:
                    for sub, value in entries(raw, f"{name}.{key}"):
                        feed(name, prefix + str(sub), value)
        else:
            diags.append(Diagnostic(0, 0, f"unknown section [{name}]"))
    return _finish(nl, diags)


def serialize(nl: Netlist) -> str:
    """Canonical text form; parse(serialize(n)) reproduces n, every float
    included (:func:`~cpfsim.elements.float_text`)."""
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
        out += [f"duration {float_text(nl.duration)}", f"setpoint {float_text(nl.setpoint)}"]
    out += [f"noise.{k} {float_text(v)}" for k, v in sorted(nl.noise.items())]
    if nl.lock or nl.drift or nl.pid:
        out += ["", "[lock]"] + [
            f"{prefix}{k} {v if isinstance(v, str) else float_text(v)}"
            for prefix, values in (("", nl.lock), ("drift.", nl.drift), ("pid.", nl.pid))
            for k, v in sorted(values.items())]
    return "\n".join(out) + "\n"
