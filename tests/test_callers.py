"""Every function, method and class of the package has a caller outside the
tests.

A stand-in for a linter's dead-code rule, built on the standard library's
``ast`` like ``test_imports``.  A definition counts as called when its name
appears anywhere in ``src/``, ``demos/`` or ``bench/`` other than in the
definition itself: as a name, an attribute, an imported name, or, in
``bench/tracing.py``, a part of a dotted target string (the tracer wraps
functions by name).  Dunder methods are called by Python and are exempt.

The guard matches names, not definitions, so it cannot see a method whose
name another definition shares: one call of either name passes both.  A
``MultiPhotonState.overlap`` with no caller at all passed it, because
``QuditState.overlap`` has callers.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cpfsim"
TRACING = ROOT / "bench" / "tracing.py"

#: Definitions only the tests call, each kept for the tests' sake: the
#: netlist JSON writer of the front-end round trip.
TEST_ONLY = {"netlist.netlist_to_json_dict"}

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


#: Parameters only the tests set, each kept for the tests' sake: the
#: reference-loop tests start the servo off its setpoint, and the console
#: script calls ``main`` with no arguments, so that it reads ``sys.argv``.
TEST_ONLY_PARAMETERS = {
    "locking.simulate_lock.zeta0",
    "cli.main.argv",
}


def _optional_parameters(tree: ast.AST, prefix: str, in_class: str | None = None):
    """(qualified name, called name, position) of each defaulted or
    keyword-only parameter of every function, nested ones included.  The
    position counts a call's positional arguments, so a method's ``self`` or
    ``cls`` is not counted; a keyword-only parameter has none.  An
    ``__init__`` is called by its class's name; other dunders are exempt."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _optional_parameters(node, f"{prefix}.{node.name}", node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualified = f"{prefix}.{node.name}"
            yield from _optional_parameters(node, qualified)
            called = in_class if node.name == "__init__" else node.name
            if called is None or node.name != "__init__" and node.name.startswith("__"):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            skip = 1 if in_class and not static else 0
            for i, arg in enumerate(positional[len(positional) - len(a.defaults):],
                                    start=len(positional) - len(a.defaults)):
                yield f"{qualified}.{arg.arg}", called, i - skip
            for arg in a.kwonlyargs:
                yield f"{qualified}.{arg.arg}", called, None
        else:
            yield from _optional_parameters(node, prefix, in_class)


def _calls(path: Path) -> list:
    """(called name, positional count, keyword names, spreads) of each call;
    ``spreads`` holds ``*`` or ``**`` when the call unpacks arguments."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        spreads = {"*" for a in node.args if isinstance(a, ast.Starred)}
        spreads |= {"**" for k in node.keywords if k.arg is None}
        calls.append((name, len(node.args), {k.arg for k in node.keywords}, spreads))
    return calls


def _passes(call, parameter: str, position: int | None) -> bool:
    _name, count, keywords, spreads = call
    if parameter in keywords or "**" in spreads:
        return True
    return position is not None and (count > position or "*" in spreads)


def test_every_optional_parameter_is_passed():
    """Each defaulted or keyword-only parameter of the package is passed,
    positionally or by name, by some call outside the tests that names its
    function; one that no run, demo or benchmark sets is an option only the
    tests use."""
    files = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    calls: dict = {}
    for path in files:
        for call in _calls(path):
            calls.setdefault(call[0], []).append(call)
    parameters = [p for path in sorted(SRC.glob("*.py"))
                  for p in _optional_parameters(ast.parse(path.read_text()), path.stem)]
    assert TEST_ONLY_PARAMETERS <= {q for q, _, _ in parameters}
    unpassed = sorted(q for q, called, position in parameters
                      if not any(_passes(c, q.rsplit(".", 1)[1], position)
                                 for c in calls.get(called, ())))
    assert unpassed == sorted(TEST_ONLY_PARAMETERS), (
        f"never passed outside the tests: {sorted(set(unpassed) - TEST_ONLY_PARAMETERS)};"
        f" allowed but passed: {sorted(TEST_ONLY_PARAMETERS - set(unpassed))}")
