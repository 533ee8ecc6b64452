"""Reference for ``CpfPipeline._pattern_operators``: the per-draw form that
injects each basis input, builds the phase vectors and analyzer vectors and
looks every mode up again on each draw.  The pipeline builds those once;
tests compare its operators with this form bitwise."""

import numpy as np

from cpfsim.errors import EncodingError
from cpfsim.fock import MultiPhotonState, apply_transform
from cpfsim.gate_d4 import LEVEL_TO_OAM, OAM_TO_LEVEL
from cpfsim.modes import Mode


def _phased(state, phase):
    return MultiPhotonState(state.space, state.n,
                            {cfg: amp * phase[list(cfg)].prod() for cfg, amp in state.terms.items()},
                            normalized=state.normalized)


def reference_pattern_operators(pipe, draw) -> dict:
    """{analyzer pattern: R} of one draw, every input rebuilt for the draw."""
    sp = pipe.space
    in_phase = np.ones(sp.dim, dtype=complex)
    for path, phases in zip(("A1", "A2"), draw.dephasing):
        for l, phi in zip(LEVEL_TO_OAM, phases):
            in_phase[sp.index(Mode(path, "H", l))] = np.exp(1j * phi)
    for path, phi in zip(("B1", "B2"), draw.aux_phases):
        in_phase[sp.index(Mode(path, "H", 1))] = np.exp(1j * phi)
    arm_phase = np.ones(sp.dim, dtype=complex)
    for path, z in zip(pipe._jitter_paths, draw.zeta):
        arm_phase[sp.path_indices(path)] = np.exp(1j * z)
    (e1_base, e1), (e2_base, e2) = (
        (sp.path_indices(path)[0], [(s, v.conj()) for s, v in pipe.stage.analyzer_basis(path)])
        for path in ("E1", "E2"))
    ops = {(s1, s2): np.zeros((16, 16), dtype=complex) for s1, _ in e1 for s2, _ in e2}
    ports = set(pipe.PORTS)
    for col in range(16):
        c = np.zeros(16, dtype=complex)
        c[col] = 1.0
        state = _phased(pipe.inject(c.reshape(4, 4)), in_phase)
        state = _phased(apply_transform(pipe._pre, state), arm_phase)
        state = apply_transform(pipe._post, state)
        for cfg, amp in state.terms.items():
            at = {sp.mode(i).path: i for i in cfg}
            if at.keys() != ports:
                continue
            x, y = sp.mode(at["C1"]), sp.mode(at["C2"])
            for mode in (x, y):
                if mode.pol != "H" or mode.oam not in OAM_TO_LEVEL:
                    raise EncodingError(f"heralded photon left the alphabet: {mode}")
            row = 4 * OAM_TO_LEVEL[x.oam] + OAM_TO_LEVEL[y.oam]
            j1, j2 = at["E1"] - e1_base, at["E2"] - e2_base
            for s1, v1 in e1:
                for s2, v2 in e2:
                    ops[(s1, s2)][row, col] += amp * v1[j1] * v2[j2]
    return {p: k for p, k in ops.items() if k.any()}
