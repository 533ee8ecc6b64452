"""Every function, method and class of the package has a caller outside the
tests.

A stand-in for a linter's dead-code rule, built on the standard library's
``ast`` like ``test_imports``.  A definition counts as called when its name
appears anywhere in ``src/``, ``demos/`` or ``bench/`` other than in the
definition itself: as a name, an attribute, an imported name, or, in
``bench/tracing.py``, a part of a dotted target string (the tracer wraps
functions by name).  Dunder methods are called by Python and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cpfsim"
TRACING = ROOT / "bench" / "tracing.py"

#: Definitions only the tests call, each kept for the tests' sake: a
#: reference distribution, a phase helper of the engine comparisons, the
#: transcript's first mismatch, the entangled output's target state and the
#: netlist JSON writer of the front-end round trip.
TEST_ONLY = {
    "fock.outcome_distribution",
    "modes.phase_align",
    "gate_d4.TranscriptReport.first_divergence",
    "analysis.entangled_target",
    "netlist.netlist_to_json_dict",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.AST, prefix: str):
    """(qualified name, name) of every definition, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _DEFS):
            qualified = f"{prefix}.{node.name}"
            yield qualified, node.name
            yield from _definitions(node, qualified)
        else:
            yield from _definitions(node, prefix)


def _names(path: Path) -> set:
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif (path == TRACING and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names.update(node.value.split("."))
    return names


def test_every_definition_has_a_caller():
    files = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    used = set().union(*map(_names, files))
    defined = {qualified: name
               for path in sorted(SRC.glob("*.py"))
               for qualified, name in _definitions(ast.parse(path.read_text()), path.stem)
               if not (name.startswith("__") and name.endswith("__"))}
    assert TEST_ONLY <= defined.keys(), sorted(TEST_ONLY - defined.keys())
    uncalled = sorted(q for q, name in defined.items() if name not in used)
    assert uncalled == sorted(TEST_ONLY), (
        f"uncalled outside the tests: {sorted(set(uncalled) - TEST_ONLY)};"
        f" allowed but called: {sorted(TEST_ONLY - set(uncalled))}")
