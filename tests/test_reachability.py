"""Every function and method of the package is entered by a run.

A fresh interpreter installs ``sys.setprofile`` before it imports cpfsim, so
that the tables built at import count, and records every Python call whose
code lives in the package.  Then it runs a fixed seed set:

- the seven demos;
- the command line: ``simulate`` and ``validate`` on the shipped gate
  netlist, ``simulate`` on the shipped gate circuit, ``lock`` and
  ``validate`` on the shipped lock netlist, and ``transcript``;
- a noisy gate run, and a JSON netlist read through ``load_netlist``;
- every diagnostic row of ``test_netlist`` through both front ends, and a
  circuit whose auxiliary photon leaves its window;
- three jobs of each benchmark deck at seed 3, each with its check.

A fresh process matters: the session's cached pipeline and the package's
``functools`` caches would otherwise hide the first builds.

Each ``def`` in the package, nested ones included, must have been entered.
A call is matched to a definition on its ``def`` line or on a decorator
line, where a decorated function's code starts.  Exempt are dunders, the
names the benchmark's tracer wraps (``bench/tracing.py`` ``TARGETS``, its
element builders included), and the few entries of :data:`ALLOWED`.  An
entry of :data:`ALLOWED` that a run enters fails the guard too.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cpfsim"
BENCH = ROOT / "bench"

#: Definitions no run enters, each kept for a stated reason.
ALLOWED = {
    "fock._occupied_paths": "called only by fock.project_group, which the tracer wraps",
    "runner._key_error": "refuses a result key that is not a string; no run makes one",
}

_CHILD = r"""
import contextlib, io, json, os, runpy, sys, tempfile

cfg = json.load(sys.stdin)
package = cfg["package"] + os.sep
entered = set()


def probe(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(package):
            entered.add((code.co_filename, code.co_firstlineno))


sys.setprofile(probe)
import numpy as np
from cpfsim.cli import main
from cpfsim.netlist import parse_netlist, parse_netlist_json
from cpfsim.runner import execute, load_netlist

root = cfg["root"]
gate = os.path.join(root, "netlists", "cpf_d4.netlist")
circuit = os.path.join(root, "netlists", "cpf_d4_circuit.netlist")
lock = os.path.join(root, "netlists", "lock.netlist")
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
        tempfile.TemporaryDirectory() as out:
    for demo in sorted(os.listdir(os.path.join(root, "demos"))):
        runpy.run_path(os.path.join(root, "demos", demo), run_name="__main__")
    for argv in (["simulate", "--netlist", gate, "--out", out], ["validate", "--netlist", gate],
                 ["simulate", "--netlist", circuit, "--out", out],
                 ["lock", "--netlist", lock, "--out", out], ["validate", "--netlist", lock],
                 ["transcript"]):
        assert main(argv) == 0, argv
    with open(gate) as f:
        noisy = (f.read().replace("noise.sigma_zeta 0", "noise.sigma_zeta 0.2")
                 .replace("noise.loss 0", "noise.loss 0.05") + "noise.draws 4\n")
    execute(parse_netlist(noisy)).to_json()
    path = os.path.join(out, "cpf_d4.json")
    with open(path, "w") as f:
        json.dump(cfg["json_netlist"], f)
    execute(load_netlist(path)).to_json()
    for body in cfg["rows"]:
        assert not parse_netlist("version 1\n" + body + "\n").ok, body
    for obj in cfg["json_rows"]:
        assert not parse_netlist_json(json.dumps(obj)).ok, obj
    assert not parse_netlist("version 1\n[space]\npaths A B\ntruncation 1\n[source p]\n"
                             "path A\nrecipe aux\n[elements]\nQP(q=0.5) @ A\n"
                             "[run]\ntask circuit\n").ok
    sys.path.insert(0, os.path.join(root, "bench"))
    from workloads import WORKLOADS
    for wl in WORKLOADS.values():
        for job in wl.deck(np.random.default_rng(3))[:3]:
            problems = wl.check(job, wl.job(job))
            assert not problems, (wl.name, problems)
sys.setprofile(None)
json.dump(sorted(entered), sys.stdout)
"""


def _definitions(tree: ast.AST, prefix: str):
    """(qualified name, ``def`` line, lines a call of it may start on) of
    every function and method, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        name = prefix
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield name, node.lineno, {node.lineno, *(d.lineno for d in node.decorator_list)}
        yield from _definitions(node, name)


def _entered(child_env) -> set:
    """(file, first line) of every package code object the seed set enters."""
    import test_netlist
    from cpfsim.netlist import parse_netlist

    cfg = {
        "package": str(SRC), "root": str(ROOT),
        "rows": [body for body, _ in test_netlist._DIAGNOSTIC_ROWS],
        "json_rows": [obj for obj, _ in test_netlist._JSON_ROWS],
        "json_netlist": test_netlist.netlist_to_json_dict(
            parse_netlist((test_netlist.FIXTURES / "cpf_d4.netlist").read_text()).netlist),
    }
    proc = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(cfg),
                          capture_output=True, text=True, timeout=120,
                          env={**child_env, "OPENBLAS_NUM_THREADS": "1"}, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return {(file, line) for file, line in json.loads(proc.stdout)}


def test_every_function_is_entered_by_a_run(monkeypatch, child_env):
    entered = _entered(child_env)
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    bench_bound = {f"{module}.{attr}" for module, attr, *_ in tracing.TARGETS}
    defined, missed = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for name, line, lines in _definitions(ast.parse(path.read_text()), path.stem):
            defined[name] = f"{name} ({path.relative_to(ROOT)}:{line})"
            if not any((str(path), n) in entered for n in lines):
                missed.add(name)
    assert ALLOWED.keys() <= defined.keys(), sorted(ALLOWED.keys() - defined.keys())
    unentered = sorted(defined[name] for name in missed
                       if not re.fullmatch(r"__\w+__", name.rsplit(".", 1)[1])
                       and name not in bench_bound and name not in ALLOWED)
    stale = sorted(defined[name] for name in ALLOWED if name not in missed)
    assert not unentered and not stale, (
        f"entered by no run: {unentered}; allowed but entered: {stale}")
