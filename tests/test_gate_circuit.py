"""The gate in the public netlist grammar.

``netlists/cpf_d4_circuit.netlist`` is the four-photon gate written as a
``circuit`` task: both splitters as the gate runs them (no B leg, no D
tail), the fold mirrors, the Bell stage and, on each E port, an analyzer
that sends the diagonal outcome "+" on to E and "-" to F.  It is built here
from the chains :mod:`cpfsim.gate_d4` builds its optics from, so a change to
a chain shows up as a changed file.

A circuit result reports path counts only, so the CPF phases stay with the
pipeline and the oracle-equality tests; here the circuit's herald of each
analyzer pattern must equal the pipeline's pattern probability.
"""

import math
from pathlib import Path

import pytest

from cpfsim.elements import parse_descriptor
from cpfsim.gate_d4 import (BSM_CHAIN, SPLITTER_CHAIN, CpfPipeline, SplitterPaths, prepare_input,
                            qudit_amplitudes, run_cpf_d4)
from cpfsim.netlist import Netlist, SourceSpec, parse_netlist, serialize
from cpfsim.protocol import BellOutcome
from cpfsim.runner import execute

CIRCUIT = Path(__file__).resolve().parent.parent / "netlists" / "cpf_d4_circuit.netlist"
ANALYZERS = (("E1", "F1"), ("E2", "F2"))      # (port "+", port "-") of each analyzer
PATTERNS = [(s1, s2) for s1 in "+-" for s2 in "+-"]


def splitter_elements(paths: SplitterPaths) -> list:
    """One splitter's descriptors on ``paths``, as the gate runs it."""
    roles = paths.as_dict()
    return [desc.format_map(roles) for label, group in SPLITTER_CHAIN
            if label not in ("BLEG@B", "DTAIL@D") for desc in group]


def gate_circuit(recipes=("z3", "x13+"), pattern=("+", "+")) -> Netlist:
    """The gate as a circuit on data recipes (photon 1, photon 4), heralding
    one photon on C1, C2 and the analyzer ports of ``pattern``."""
    elements = [desc for paths in CpfPipeline.SPLITTERS for desc in splitter_elements(paths)]
    elements += [*CpfPipeline.FOLDS, *(desc for group in BSM_CHAIN for desc in group)]
    for e, f in ANALYZERS:
        elements += [f"HWP(angle={math.pi / 8}) @ {e}", f"PBS(in=[{e},{f}],out=[{e},{f}])"]
    data = dict(zip(("photon1", "photon4"), recipes))
    return Netlist(
        paths=CpfPipeline.PATHS + tuple(f for _e, f in ANALYZERS),
        sources={name: SourceSpec(name, path, data.get(name, "aux"))
                 for name, path in CpfPipeline.INPUTS.items()},
        elements=[parse_descriptor(desc) for desc in elements],
        pattern={"C1": 1, "C2": 1,
                 **{(e if s == "+" else f): 1 for (e, f), s in zip(ANALYZERS, pattern)}},
        task="circuit")


def test_shipped_circuit_is_the_gate_chains():
    text = CIRCUIT.read_text()
    assert text == serialize(gate_circuit()), (
        "netlists/cpf_d4_circuit.netlist is not serialize(gate_circuit()); rewrite it from there")
    parsed = parse_netlist(text)
    assert parsed.ok, parsed.diagnostics
    assert len(parsed.netlist.paths) == 18


@pytest.mark.parametrize("recipes", [("z3", "x13+"), ("z0", "z2"), ("x02+", "s12"),
                                     ("x13-", "s23")])
def test_circuit_heralds_the_pipeline_patterns(recipes):
    v1, v4 = (qudit_amplitudes(prepare_input(r)[0]) for r in recipes)
    gate = run_cpf_d4(v1, v4, {BellOutcome.PhiPlus, BellOutcome.PhiMinus}).pattern_probs
    for pattern in PATTERNS:
        herald = execute(gate_circuit(recipes, pattern)).heralding_probability
        assert abs(herald - gate[pattern]) < 1e-12, (recipes, pattern)
        assert abs(herald - 1 / 32) < 1e-12, (recipes, pattern)


def test_one_splitter_heralds_one_half():
    paths = SplitterPaths()
    nl = Netlist(paths=tuple(paths.as_dict().values()),
                 sources={"data": SourceSpec("data", paths.a, "x02-"),
                          "aux": SourceSpec("aux", paths.b, "aux")},
                 elements=[parse_descriptor(desc) for desc in splitter_elements(paths)],
                 pattern={paths.c: 1, paths.d: 1}, task="circuit")
    assert abs(execute(nl).heralding_probability - 0.5) < 1e-12
