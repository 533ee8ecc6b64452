import ast
import collections
import dataclasses
import functools
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpfsim import conventions as conv
from cpfsim import elements as el
from cpfsim import fock, gate_d4
from cpfsim.analysis import build_heralded_channel
from cpfsim.errors import EmptyPostSelection, EncodingError, PatternMismatch, SpaceMismatch
from cpfsim.fock import (
    apply_transform,
    from_joint_amplitudes,
    post_select,
    project_group,
)
from cpfsim.gate_d4 import (
    AUX_TARGET_TERMS,
    DEFAULT_TRUNCATION,
    LEVEL_TO_OAM,
    HdBeamSplitter,
    PREPARATION_TABLE,
    PreparationRecipe,
    SplitterPaths,
    auxiliary_target,
    build_bsm_stage,
    build_hd_beamsplitter,
    encode_qudit_vector,
    heralded_run,
    prepare_auxiliary,
    prepare_input,
    qudit_amplitudes,
    run_cpf_d4,
)
from cpfsim.modes import Mode, ModeSpace, SinglePhotonState, apply_to_single_photon
from cpfsim.noise import IDEAL_DRAW, NoiseSpec
from cpfsim.protocol import (
    BellOutcome,
    QuditState,
    correction_factors,
    cpf_oracle,
    run_protocol,
)

import element_reference as ref
from element_reference import dense_matrix
from fock_reference import outcome_distribution
from gate_reference import reference_auxiliary, reference_pattern_operators

S2 = 1 / math.sqrt(2)
BOTH = frozenset({BellOutcome.PhiPlus, BellOutcome.PhiMinus})


def ket(sp, path, pol, oam):
    return SinglePhotonState.from_terms(sp, {Mode(path, pol, oam): 1.0})


# --------------------------------------------------------------------------
# Closed-form oracles for the two CNOT composites


def o1_expected(pol, l):
    """Order-1 composite: phase exp(-il pi/2); polarization flips on odd l."""
    phase = np.exp(-1j * l * math.pi / 2) * (1.0 if pol == "H" else -1.0)
    if l % 2 == 0:
        return {(pol, -l): phase}
    other = "V" if pol == "H" else "H"
    return {(other, -l): phase}


def o2_expected(pol, l):
    pre = np.exp(-1j * (l - 1) * math.pi / 4)
    e = np.exp(1j * (l - 1) * math.pi / 2)
    if pol == "H":
        return {("H", -l): pre * (1 - e) / 2, ("V", -l): pre * 1j * (1 + e) / 2}
    return {("H", -l): -pre * (1 + e) / 2, ("V", -l): -pre * 1j * (1 - e) / 2}


@pytest.mark.parametrize("k,oracle", [(1, o1_expected), (2, o2_expected)])
def test_ok_cnot_matches_closed_form(k, oracle, splitter_space):
    sp = splitter_space
    cnot = {1: el.o1_cnot, 2: el.o2_cnot}[k](sp, "A")
    assert np.allclose(dense_matrix(cnot).conj().T @ dense_matrix(cnot), np.eye(sp.dim), atol=1e-12)
    for l in range(-4, 5):
        for pol in ("H", "V"):
            out = apply_to_single_photon(cnot, ket(sp, "A", pol, l))
            ref = np.zeros(sp.dim, dtype=complex)
            for (pol2, l2), amp in oracle(pol, l).items():
                ref[sp.index(Mode("A", pol2, l2))] = amp
            assert np.max(np.abs(out.amps - ref)) < 1e-10, (k, pol, l)


def test_ok_cnot_spot_values(splitter_space):
    sp = splitter_space
    o1 = el.o1_cnot(sp, "A")
    out = apply_to_single_photon(o1, ket(sp, "A", "H", 1))
    assert abs(out.amps[sp.index(Mode("A", "V", -1))] + 1j) < 1e-12
    o2 = el.o2_cnot(sp, "A")
    out = apply_to_single_photon(o2, ket(sp, "A", "H", 1))
    assert abs(out.amps[sp.index(Mode("A", "V", -1))] - 1j) < 1e-12
    out = apply_to_single_photon(o2, ket(sp, "A", "V", 1))
    assert abs(out.amps[sp.index(Mode("A", "H", -1))] + 1.0) < 1e-12


# --------------------------------------------------------------------------
# Splitter port behavior


def test_splitter_port_a_general_input(splitter_space, rng):
    sp = splitter_space
    bs = build_hd_beamsplitter(sp)
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    a /= np.linalg.norm(a)
    state = SinglePhotonState.from_terms(sp, {
        Mode("A", "H", -2): a[0], Mode("A", "H", -1): a[1],
        Mode("A", "H", 0): a[2], Mode("A", "H", 1): a[3],
    })
    out = bs.apply(state)
    ref = np.zeros(sp.dim, dtype=complex)
    ref[sp.index(Mode("C", "H", -2))] = a[0]
    ref[sp.index(Mode("C", "H", -1))] = a[1]
    ref[sp.index(Mode("C", "H", 0))] = a[2]
    ref[sp.index(Mode("D", "H", 1))] = a[3]
    assert np.max(np.abs(out.amps - ref)) < 1e-10


def test_splitter_port_b_and_gaussian_special_case(splitter_space, rng):
    sp = splitter_space
    bs = build_hd_beamsplitter(sp)
    b = rng.normal(size=2) + 1j * rng.normal(size=2)
    b /= np.linalg.norm(b)
    state = SinglePhotonState.from_terms(sp, {
        Mode("B", "H", -1): b[0], Mode("B", "H", 1): b[1]})
    out = bs.apply(state)
    ref = np.zeros(sp.dim, dtype=complex)
    ref[sp.index(Mode("C", "H", 1))] = b[1]
    ref[sp.index(Mode("D", "H", -1))] = b[0]
    assert np.max(np.abs(out.amps - ref)) < 1e-10
    out = bs.apply(ket(sp, "A", "H", 0))
    ref = np.zeros(sp.dim, dtype=complex)
    ref[sp.index(Mode("C", "H", 0))] = 1.0
    assert np.max(np.abs(out.amps - ref)) < 1e-10


def test_splitter_needs_window(splitter_space):
    from cpfsim.errors import TruncationOverflow

    with pytest.raises(TruncationOverflow):
        build_hd_beamsplitter(ModeSpace(("A", "B", "P1", "P2", "C", "D", "X"), 1))


def test_gate_builds_its_optics_from_descriptors():
    """The gate names no element builder: every optic is a descriptor built
    through ``element_transform``, but the preparation polarizer, a
    projector with no descriptor."""
    tree = ast.parse(Path(gate_d4.__file__).read_text())
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "el"}
    assert used == {"element_transform", "parse_descriptor", "polarizer"}


# --------------------------------------------------------------------------
# Preparation


@pytest.mark.parametrize("key", sorted(PREPARATION_TABLE))
def test_preparation_rows_reach_targets(key):
    recipe = PREPARATION_TABLE[key]
    state, prob = prepare_input(key)
    got = qudit_amplitudes(state)
    overlap = abs(np.vdot(np.array(recipe.target), got))
    assert abs(overlap - 1.0) < 1e-10
    expected_prob = 1.0 if (recipe.direct or key.startswith("z")) else 0.5
    assert abs(prob - expected_prob) < 1e-10


def test_prepare_input_unknown_row():
    with pytest.raises(KeyError):
        prepare_input("z9")


_PI4, _PI8 = math.pi / 4, math.pi / 8
# The rows' descriptor strings, as the table held them before it kept specs.
_ROW_DESCRIPTORS = {
    "z0": (f"QWP(angle={-_PI4}) @ S", "QP(q=0.5) @ S", f"QWP(angle={-_PI4}) @ S",
           "SPP(dl=-1) @ S"),
    "z1": (f"QWP(angle={-_PI4}) @ S", "QP(q=0.5) @ S", f"QWP(angle={-_PI4}) @ S"),
    "z2": (f"QWP(angle={_PI4}) @ S", "QP(q=0.5) @ S", f"QWP(angle={_PI4}) @ S",
           "SPP(dl=-1) @ S"),
    "z3": (f"QWP(angle={_PI4}) @ S", "QP(q=0.5) @ S", f"QWP(angle={_PI4}) @ S"),
    "x02+": (f"HWP(angle={_PI8}) @ S", f"QWP(angle={_PI4}) @ S", "QP(q=0.5) @ S",
             f"QWP(angle={_PI4}) @ S", f"HWP(angle={-_PI8}) @ S", "SPP(dl=-1) @ S"),
    "x02-": (f"HWP(angle={-_PI8}) @ S", f"QWP(angle={_PI4}) @ S", "QP(q=0.5) @ S",
             f"QWP(angle={_PI4}) @ S", f"HWP(angle={-_PI8}) @ S", "SPP(dl=-1) @ S"),
    "x13+": (f"HWP(angle={_PI8}) @ S", f"QWP(angle={_PI4}) @ S", "QP(q=0.5) @ S",
             f"QWP(angle={_PI4}) @ S", f"HWP(angle={-_PI8}) @ S"),
    "x13-": (f"HWP(angle={-_PI8}) @ S", f"QWP(angle={_PI4}) @ S", "QP(q=0.5) @ S",
             f"QWP(angle={_PI4}) @ S", f"HWP(angle={-_PI8}) @ S"),
    "s12": (),
    "s23": (),
}


def test_preparation_rows_hold_parsed_specs():
    """Each row keeps the specs its descriptor strings parse to, and a recipe
    given as those strings prepares the same state bit for bit."""
    assert _ROW_DESCRIPTORS.keys() == PREPARATION_TABLE.keys()
    for key, texts in _ROW_DESCRIPTORS.items():
        recipe = PREPARATION_TABLE[key]
        assert recipe.elements == tuple(el.parse_descriptor(t) for t in texts)
        if recipe.direct:
            continue
        state, prob = prepare_input(recipe)
        again, again_prob = prepare_input(PreparationRecipe(recipe.target, texts))
        assert again.amps.tobytes() == state.amps.tobytes() and again_prob == prob


def test_fully_blocked_preparation_raises():
    """A chain that leaves only V light ahead of the H polarizer keeps
    nothing: no NaN state, no division warning."""
    recipe = PreparationRecipe((1, 0, 0, 0), (f"HWP(angle={_PI4}) @ S",))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyPostSelection):
            prepare_input(recipe)


def test_rows_keep_their_fresh_builds():
    """Each row's kept transforms are the builds ``element_transform`` gives
    now, bit for bit, on the preparation space."""
    space = ModeSpace(("S",), DEFAULT_TRUNCATION)
    for key, recipe in [*PREPARATION_TABLE.items(), ("aux", gate_d4._AUXILIARY)]:
        assert len(recipe.transforms) == len(recipe.elements), key
        for kept, spec in zip(recipe.transforms, recipe.elements):
            fresh = el.element_transform(spec, space)
            assert kept.block.tobytes() == fresh.block.tobytes(), (key, spec)
            assert (kept.space, kept.paths, kept.overflow, kept.provenance) == (
                fresh.space, fresh.paths, fresh.overflow, fresh.provenance)


def test_second_preparation_builds_nothing_but_the_polarizer(monkeypatch):
    """A second ``prepare_input`` of a row, and a second
    ``prepare_auxiliary``, call no element builder and no
    ``element_transform``; a prepared row calls the polarizer once.  Only
    the second call is counted, whatever ran before."""
    names = ["element_transform", "polarizer", *{b for b, _ in el.CATALOGUE.values()}]
    calls = collections.Counter()
    space = ModeSpace(("A", "B"), 3)
    for key in [*PREPARATION_TABLE, "aux"]:
        run = (lambda: prepare_auxiliary(space, "B")) if key == "aux" else (
            lambda: prepare_input(key))
        first = run()
        with monkeypatch.context() as m:
            for name in names:
                def counted(*args, _fn=getattr(el, name), _name=name):
                    calls[_name] += 1
                    return _fn(*args)
                m.setattr(el, name, counted)
            again = run()
        amps = (first, again) if key == "aux" else (first[0], again[0])
        assert amps[0].amps.tobytes() == amps[1].amps.tobytes()
        direct = key == "aux" or PREPARATION_TABLE[key].direct
        assert calls == collections.Counter({} if direct else {"polarizer": 1}), key
        calls.clear()


@settings(max_examples=120, deadline=None)
@given(truncation=st.integers(1, 7), n_paths=st.integers(1, 4), data=st.data())
def test_prepare_auxiliary_is_the_builder_chain(truncation, n_paths, data):
    """The auxiliary photon, prepared on the preparation space and placed,
    equals the builder chain run on the photon's own space bit for bit, on
    every path, ``normalized`` included; a path outside the space is a
    SpaceMismatch."""
    names = data.draw(st.permutations(["A", "B1", "C", "P2", "X"]))[:n_paths]
    space = ModeSpace(names, truncation)
    for path in names:
        got, want = prepare_auxiliary(space, path), reference_auxiliary(space, path)
        assert got.space == space
        assert got.amps.tobytes() == want.amps.tobytes()
        assert got.normalized is want.normalized
    with pytest.raises(SpaceMismatch):
        prepare_auxiliary(space, "Z")


def test_prepare_auxiliary_exact():
    aux = prepare_auxiliary(ModeSpace(("S",), DEFAULT_TRUNCATION), "S")
    assert abs(np.vdot(aux.amps, aux.amps) - 1.0) < 1e-12
    target = auxiliary_target(aux.space, "S")
    assert abs(abs(np.vdot(target.amps, aux.amps)) - 1.0) < 1e-12


# --------------------------------------------------------------------------
# Bell-measurement stage


@pytest.fixture(scope="module")
def stage_space():
    return ModeSpace(("D1", "D2", "E1", "E2"), 4)


@pytest.fixture(scope="module")
def stage(stage_space):
    return build_bsm_stage(stage_space)


def _reference_arms(sp):
    """The Bell stage's two conversion arms from the reference elements:
    photon 2's on D1, photon 3's on D2 with its folded Hadamard and trim."""
    arm2 = ref.compose([ref.qwp(sp, "D1", -math.pi / 4), ref.qplate(sp, "D1", 0.5),
                        ref.qwp(sp, "D1", math.pi / 4)])
    arm3 = ref.compose([ref.qwp(sp, "D2", -math.pi / 4), ref.qplate(sp, "D2", 0.5),
                        ref.qwp(sp, "D2", 0.0), ref.phase_plate(sp, "D2", conv.BSM_ARM3_TRIM)])
    return arm2, arm3


def test_stage_is_its_arms_between_dove_pairs_and_splitter(stage, stage_space):
    """The stage's transform is each arm behind its Dove-prism pair, then the
    measurement splitter, so the arm checks below hold for the built stage."""
    sp = stage_space
    arm2, arm3 = _reference_arms(sp)
    want = ref.compose([
        ref.dove_prism(sp, "D1", math.pi / 8), ref.dove_prism(sp, "D1", 0.0), arm2,
        ref.dove_prism(sp, "D2", math.pi / 4), ref.dove_prism(sp, "D2", 0.0), arm3,
        ref.pbs(sp, ("D1", "D2"), ("E1", "E2"))])
    assert np.max(np.abs(dense_matrix(stage.transform) - want.matrix)) < 1e-12


def test_photon2_arm_conversion(stage_space):
    sp = stage_space
    out = _reference_arms(sp)[0].matrix[:, sp.index(Mode("D1", "H", 1))]
    # |H,+1> -> |V,0> up to phase
    idx = sp.index(Mode("D1", "V", 0))
    assert abs(abs(out[idx]) - 1.0) < 1e-10
    assert abs(np.vdot(out, out) - 1.0) < 1e-10


def test_photon3_arm_hadamard(stage_space):
    sp = stage_space
    out = _reference_arms(sp)[1].matrix[:, sp.index(Mode("D2", "V", -1))]
    # |V,-1> -> i |A> |0> with |A> = (|H> - |V>)/sqrt(2), exact phases
    ih = out[sp.index(Mode("D2", "H", 0))]
    iv = out[sp.index(Mode("D2", "V", 0))]
    assert abs(ih - 1j * S2) < 1e-10
    assert abs(iv + 1j * S2) < 1e-10


def bell_tensor(name):
    s = S2
    return {
        "PhiPlus": np.array([[s, 0], [0, s]]),
        "PhiMinus": np.array([[s, 0], [0, -s]]),
        "PsiPlus": np.array([[0, s], [s, 0]]),
        "PsiMinus": np.array([[0, s], [-s, 0]]),
    }[name]


def stage_input(sp, tensor):
    slots = [[Mode("D1", "V", -1), Mode("D1", "H", 1)],
             [Mode("D2", "V", -1), Mode("D2", "H", 1)]]
    return from_joint_amplitudes(sp, slots, tensor)


def test_decoder_identifies_phi_states(stage, stage_space):
    sp = stage_space
    for name, expected in (("PhiPlus", BellOutcome.PhiPlus),
                           ("PhiMinus", BellOutcome.PhiMinus)):
        state = apply_transform(stage.transform, stage_input(sp, bell_tensor(name)))
        selected, p = post_select(state, {"E1": 1, "E2": 1})
        assert abs(p - 0.5) < 1e-10  # the other half bunches into one port
        dist = outcome_distribution(selected, {
            ("E1",): stage.analyzer_basis("E1"),
            ("E2",): stage.analyzer_basis("E2"),
        })
        for pattern, prob in dist.items():
            if prob > 1e-12:
                assert stage.decode(pattern) == expected
    assert stage.decode(("+", "?")) is None


# --------------------------------------------------------------------------
# Full pipeline


def test_cpf_flip_example(pipe):
    run = run_cpf_d4([0, 0, 0, 1], [0, S2, 0, S2], accepted=BOTH)
    ideal = QuditState(4, cpf_oracle(4)
                       @ np.kron([0, 0, 0, 1], [0, S2, 0, S2]))
    assert abs(run.heralding_probability - 0.125) < 1e-10
    for outcome, p in run.per_outcome.items():
        assert abs(p - 1 / 16) < 1e-10
        assert run.heralded_state(outcome).fidelity(ideal) > 1 - 1e-10


def test_entangled_output_state(pipe):
    v = np.array([0, S2, 0, S2])
    run = run_cpf_d4(v, v, accepted={BellOutcome.PhiPlus})
    state = run.heralded_state(BellOutcome.PhiPlus)
    target = 0.5 * np.array(
        [0, 0, 0, 0,
         0, 1, 0, 1,
         0, 0, 0, 0,
         0, 1, 0, -1], dtype=complex)
    assert abs(abs(np.vdot(target, state.amps)) - 1.0) < 1e-10


def test_heralding_input_independent(pipe, rng):
    probs = []
    for _ in range(4):
        c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        c /= np.linalg.norm(c)
        run = pipe.run(c, accepted=BOTH)
        probs.append(run.heralding_probability)
    assert np.max(np.abs(np.array(probs) - 0.125)) < 1e-10


def test_joint_input_matches_abstract_engine(pipe, rng):
    c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    c /= np.linalg.norm(c)
    run = pipe.run(c, accepted=BOTH)
    abstract = run_protocol(QuditState.from_matrix(c), 1)
    for outcome, p in run.per_outcome.items():
        ref, p_ref = abstract[outcome]
        assert abs(p - p_ref) < 1e-10
        assert abs(abs(run.heralded_state(outcome).overlap(ref)) - 1.0) < 1e-9


def test_prepared_states_drive_pipeline(pipe):
    state1, _ = prepare_input("z3")
    state4, _ = prepare_input("x13+")
    run = run_cpf_d4(qudit_amplitudes(state1), qudit_amplitudes(state4), accepted=BOTH)
    assert abs(run.heralding_probability - 0.125) < 1e-10


def test_encoding_errors(pipe):
    with pytest.raises(EncodingError):
        run_cpf_d4([1, 0, 0], [1, 0, 0, 0], accepted=BOTH)
    sp = ModeSpace(("S",), 4)
    bad = SinglePhotonState.from_terms(sp, {Mode("S", "V", 0): 1.0})
    with pytest.raises(EncodingError):
        qudit_amplitudes(bad)
    bad2 = SinglePhotonState.from_terms(sp, {Mode("S", "H", 3): 1.0})
    with pytest.raises(EncodingError):
        qudit_amplitudes(bad2)
    with pytest.raises(EncodingError):
        run_cpf_d4([1, 0, 0, 0], [1, 0, 0, 0],
                   accepted={BellOutcome.PsiPlus})


def test_accepted_subset_scales_probability(pipe):
    run = run_cpf_d4([1, 0, 0, 0], [1, 0, 0, 0],
                     accepted={BellOutcome.PhiPlus})
    assert abs(run.heralding_probability - 1 / 16) < 1e-10


@functools.cache
def _gate_stages(sp):
    """The gate's draw-independent stages, built here: both splitters'
    stage lists as the gate runs them (no B leg, no D tail), then the D1/D2
    fold mirrors and the Bell stage."""
    splitters = [HdBeamSplitter(sp, paths, [st for st in build_hd_beamsplitter(sp, paths).stages
                                            if st.label not in ("BLEG@B", "DTAIL@D")])
                 for paths in (SplitterPaths("A1", "B1", "P11", "P21", "C1", "D1", "X1"),
                               SplitterPaths("A2", "B2", "P12", "P22", "C2", "D2", "X2"))]
    return splitters, [el.mirror(sp, "D1"), el.mirror(sp, "D2"), build_bsm_stage(sp).transform]


def _noisy_chain(pipe, draw):
    """The draw's noisy gate, one element or stage at a time: dephasing and
    visibility phases on the input paths, then each splitter's stages with
    its arm jitter entering the loop arm P2 after O2MP@P2, then the fold
    mirrors and the Bell stage."""
    sp = pipe.space
    splitters, tail = _gate_stages(sp)
    chain = [el.oam_phase(sp, path, dict(zip(LEVEL_TO_OAM, phases)))
             for path, phases in zip(("A1", "A2"), draw.dephasing)]
    chain += [el.oam_phase(sp, path, {1: phi})
              for path, phi in zip(("B1", "B2"), draw.aux_phases)]
    for bs, z in zip(splitters, draw.zeta):
        for st in bs.stages:
            chain.append(st.transform)
            if st.label == "O2MP@P2":
                chain.append(el.path_phase(sp, bs.paths.p2, z))
    return chain + tail


def _fock_patterns(pipe, c, draw):
    """Direct Fock evolution of one joint input: {pattern: (probability,
    corrected heralded amplitudes, unnormalized)} for every analyzer pattern."""
    state = pipe.inject(c)
    for t in _noisy_chain(pipe, draw):
        state = apply_transform(t, state)
    selected, p_ports = post_select(state, {p: 1 for p in pipe.PORTS})
    out = {}
    for s1, v1 in pipe.stage.analyzer_basis("E1"):
        partial, p1 = project_group(selected, ("E1",), v1)
        for s2, v2 in pipe.stage.analyzer_basis("E2"):
            reduced, p2 = project_group(partial, ("E2",), v2)
            amps = np.zeros((4, 4), dtype=complex)
            for cfg, amp in reduced.terms.items():
                levels = {pipe.space.mode(i).path: LEVEL_TO_OAM.index(pipe.space.mode(i).oam)
                          for i in cfg}
                amps[levels["C1"], levels["C2"]] = amp
            u1, u4 = correction_factors(pipe.stage.decode((s1, s2)), 4)
            p = p_ports * p1 * p2
            out[(s1, s2)] = (p, (u1 @ amps @ u4.T).reshape(-1) * math.sqrt(p))
    return out


def test_run_matches_direct_fock_evolution(pipe):
    """``run`` is algebra on transfer operators built from basis inputs; on
    random joint inputs it must agree with evolving the input itself through
    the Fock engine."""
    rng = np.random.default_rng(2026)
    for _ in range(2):
        c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        c /= np.linalg.norm(c)
        run = pipe.run(c, accepted=BOTH)
        direct = _fock_patterns(pipe, c, IDEAL_DRAW)
        assert set(run.pattern_probs) == set(direct)
        assert abs(run.port_pattern_prob - sum(p for p, _ in direct.values())) < 1e-12
        for pattern, (p, amps) in direct.items():
            assert abs(run.pattern_probs[pattern] - p) < 1e-12
            state = run.heralded_state(pipe.stage.decode(pattern)).amps
            assert abs(abs(np.vdot(state, amps)) ** 2 / p - 1.0) < 1e-12
        for outcome, p in run.per_outcome.items():
            state = run.heralded_state(outcome)
            first = next(pt for pt in direct if pipe.stage.decode(pt) == outcome)
            p_first, amps = direct[first]
            assert np.max(np.abs(state.amps - amps / math.sqrt(p_first))) < 1e-12
            assert abs(p - sum(q for pt, (q, _) in direct.items()
                               if pipe.stage.decode(pt) == outcome)) < 1e-12


def test_ensemble_matches_direct_fock_evolution(pipe):
    """The draw-averaged run of a noisy ``cpf_d4`` netlist agrees with
    evolving each random joint input through every unlost draw's noisy chain
    on the Fock engine: pattern probabilities are the mean of the draws',
    and each outcome's density matrix the mean of its heralded projectors."""
    rng = np.random.default_rng(2026)
    spec = NoiseSpec(sigma_zeta=0.4, oam_dephasing=0.3, visibility=0.8, loss=0.1, seed=17)
    draws = spec.draws(4)
    assert 0 < sum(d.lost for d in draws) < len(draws)
    channel = build_heralded_channel(spec, 4)
    for _ in range(2):
        c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        c /= np.linalg.norm(c)
        run = heralded_run(channel.kraus, channel.labels, c.reshape(-1), BOTH)
        want_probs: dict = {}
        want_rho: dict = {}
        for draw in draws:
            if draw.lost:
                continue
            for pattern, (p, amps) in _fock_patterns(pipe, c, draw).items():
                want_probs[pattern] = want_probs.get(pattern, 0.0) + p / len(draws)
                outcome = pipe.stage.decode(pattern)
                want_rho[outcome] = (want_rho.get(outcome, 0.0)
                                     + np.outer(amps, amps.conj()) / len(draws))
        assert set(run.pattern_probs) == set(want_probs)
        for pattern, p in want_probs.items():
            assert abs(run.pattern_probs[pattern] - p) < 1e-12
        assert set(run.per_outcome) == set(want_rho)
        for outcome, p in run.per_outcome.items():
            assert abs(p - np.trace(want_rho[outcome]).real) < 1e-12
            assert np.max(np.abs(run.density(outcome) * p - want_rho[outcome])) < 1e-12


_noise_specs = st.builds(
    NoiseSpec,
    sigma_zeta=st.floats(0.0, 2.0), oam_dephasing=st.floats(0.0, 2.0),
    visibility=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=25, deadline=None)
@given(spec=_noise_specs, c=arrays(complex, (4, 4), elements=st.complex_numbers(
    max_magnitude=1.0, allow_nan=False, allow_infinity=False)))
def test_operators_match_element_built_fock_reference(pipe, spec, c):
    """Every heralded amplitude of the transfer operators equals direct Fock
    evolution of the input through the draw's element-built chain."""
    assume(np.linalg.norm(c) > 1e-3)
    c = c / np.linalg.norm(c)
    draw = spec.draws(1)[0]
    kraus = pipe.transfer_operators(draw)
    direct = _fock_patterns(pipe, c, draw)
    for (_outcome, pattern), k in kraus.items():
        _p, amps = direct[pattern]
        assert np.max(np.abs(k @ c.reshape(-1) - amps)) < 1e-12
    for pattern, (p, _amps) in direct.items():
        if pipe.stage.decode(pattern) is not None:
            assert p < 1e-24 or (pipe.stage.decode(pattern), pattern) in kraus


_PERMUTATIONS = np.array(list(itertools.permutations(range(4))))


def _permanent_operators(pipe, draw):
    """{analyzer pattern: R} from permanents of the draw's restricted transfer
    matrix W (12 x 10).  Rows: the C1 and C2 alphabet modes and the E1 and
    E2 analyzer vectors; columns: the A1 and A2 alphabet modes and the
    auxiliary vector on B1 and B2.  Inputs and kept outputs sit on distinct
    paths, one photon each, so R[(x, y), (m, n)] = perm W[[C1 x, C2 y, E1 s1,
    E2 s2], [A1 m, B1, B2, A2 n]] with no sqrt(k!) factors."""
    sp = pipe.space
    u = np.eye(sp.dim, dtype=complex)
    for t in _noisy_chain(pipe, draw):
        u = dense_matrix(t) @ u
    rows = [np.eye(sp.dim)[sp.index(Mode(path, "H", l))]
            for path in ("C1", "C2") for l in LEVEL_TO_OAM]
    for path in ("E1", "E2"):
        for _sign, v in pipe.stage.analyzer_basis(path):
            row = np.zeros(sp.dim, dtype=complex)
            row[sp.path_indices(path)] = v.conj()
            rows.append(row)
    cols = [np.eye(sp.dim)[:, sp.index(Mode("A1", "H", l))] for l in LEVEL_TO_OAM]
    cols += [sum(a * np.eye(sp.dim)[:, sp.index(Mode(b, pol, l))]
                 for (pol, l), a in AUX_TARGET_TERMS.items()) for b in ("B1", "B2")]
    cols += [np.eye(sp.dim)[:, sp.index(Mode("A2", "H", l))] for l in LEVEL_TO_OAM]
    w = np.array(rows) @ u @ np.array(cols).T
    out = {}
    for i, (s1, _) in enumerate(pipe.stage.analyzer_basis("E1")):
        for j, (s2, _) in enumerate(pipe.stage.analyzer_basis("E2")):
            sub = np.array([[w[np.ix_([x, 4 + y, 8 + i, 10 + j], [m, 4, 5, 6 + n])]
                             for m in range(4) for n in range(4)]
                            for x in range(4) for y in range(4)])
            out[(s1, s2)] = sub[..., np.arange(4), _PERMUTATIONS].prod(-1).sum(-1)
    return out


@settings(max_examples=10, deadline=None)
@given(spec=_noise_specs)
def test_heralded_amplitudes_are_permanents(pipe, spec):
    """The pipeline's uncorrected per-pattern operators, built by the Fock
    engine, equal the permanents of one restricted transfer matrix."""
    for draw in [IDEAL_DRAW] + spec.draws(1):
        fock_ops = pipe._pattern_operators(draw)
        for pattern, r in _permanent_operators(pipe, draw).items():
            expected = fock_ops.get(pattern, np.zeros((16, 16)))
            assert np.max(np.abs(r - expected)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(spec=_noise_specs, visibility=st.sampled_from([None, 0.0, 1.0]))
def test_pattern_operators_bitwise_match_per_draw_inject_form(pipe, spec, visibility):
    """The cached inputs, indices and analyzer vectors and the scalar phases
    give the very operators of the form that rebuilds them every draw."""
    if visibility is not None:
        spec = dataclasses.replace(spec, visibility=visibility)
    for draw in [IDEAL_DRAW] + spec.draws(1):
        got = pipe._pattern_operators(draw)
        want = reference_pattern_operators(pipe, draw)
        assert got.keys() == want.keys()
        for pattern, r in want.items():
            assert got[pattern].tobytes() == r.tobytes()


def test_noisy_draw_does_only_the_draws_work(pipe, monkeypatch):
    """One noisy draw runs the two fixed segments on each of the 16 cached
    basis inputs and rebuilds nothing else."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in [(gate_d4, "apply_transform"), (gate_d4, "from_joint_amplitudes"),
                         (fock, "from_joint_amplitudes"), (gate_d4, "group_basis_vector"),
                         (fock, "group_basis_vector"), (gate_d4.CpfPipeline, "inject"),
                         (ModeSpace, "index")]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    draw = NoiseSpec(sigma_zeta=0.5, oam_dephasing=0.3, visibility=0.8, seed=4).draws(1)[0]
    assert not draw.trivial
    pipe._pattern_operators(draw)
    assert calls == {"apply_transform": 32}


@settings(max_examples=50, deadline=None)
@given(spec=_noise_specs)
def test_kraus_completeness(pipe, spec):
    """Heralding is input independent: for every unlost draw, the operators
    of each outcome sum to K^dag K = I/16."""
    for draw in [IDEAL_DRAW] + spec.draws(2):
        by_outcome = {}
        for (outcome, _pattern), k in pipe.transfer_operators(draw).items():
            by_outcome[outcome] = by_outcome.get(outcome, 0) + k.conj().T @ k
        assert set(by_outcome) == {BellOutcome.PhiPlus, BellOutcome.PhiMinus}
        for gram in by_outcome.values():
            assert np.max(np.abs(gram - np.eye(16) / 16)) < 1e-12


def test_run_rejects_patterns_heralding_different_states(pipe, monkeypatch):
    kraus = pipe.transfer_operators()
    key = next(k for k in kraus if k[0] is BellOutcome.PhiPlus and k[1] != ("+", "+"))
    swap = np.eye(16)[[1, 0] + list(range(2, 16))]
    # Patched on the class: pytest's undo of an instance patch would leave the
    # original bound method on the shared pipeline, hiding later class patches.
    monkeypatch.setattr(gate_d4.CpfPipeline, "transfer_operators",
                        lambda self, draw: {**kraus, key: swap @ kraus[key]})
    with pytest.raises(PatternMismatch):
        pipe.run(np.eye(4) / 2, accepted=BOTH)


def test_encode_decode_round_trip(rng):
    sp = ModeSpace(("S",), 4)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    state = encode_qudit_vector(sp, "S", v)
    assert np.allclose(qudit_amplitudes(state), v, atol=1e-12)
