"""References for the gate's kept work, which tests compare with bitwise.

``reference_pattern_operators`` is the per-draw form of
``CpfPipeline._pattern_operators`` that injects each basis input, builds the
phase vectors and analyzer vectors and looks every mode up again on each
draw; the pipeline builds those once.  ``reference_auxiliary`` builds the
auxiliary photon's element chain on the photon's own space on every call;
``prepare_auxiliary`` runs kept transforms on the preparation space and
places the photon."""

import math

import numpy as np

from cpfsim import elements as el
from cpfsim.errors import EncodingError
from cpfsim.fock import MultiPhotonState, apply_transform
from cpfsim.gate_d4 import LEVEL_TO_OAM, OAM_TO_LEVEL
from cpfsim.modes import Mode, SinglePhotonState, apply_to_single_photon


def reference_auxiliary(space, path) -> SinglePhotonState:
    """|H, l=0> on ``path`` through the q-plate, quarter-wave plate and Dove
    prism pair, each built by its builder on ``space``."""
    state = SinglePhotonState.from_terms(space, {Mode(path, "H", 0): 1.0})
    for t in (el.qplate(space, path, 0.5), el.qwp(space, path, math.pi / 4),
              el.dove_prism(space, path, math.pi / 8), el.dove_prism(space, path, 0.0)):
        state = apply_to_single_photon(t, state)
    return state


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
