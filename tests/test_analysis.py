import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    stabilizer_settings,
    superposition_suite,
)
from cpfsim.errors import EncodingError
from cpfsim.gate_d4 import heralded_run
from cpfsim.noise import NoiseSpec
from cpfsim.protocol import BellOutcome, QuditState, cpf_oracle

BOTH = frozenset({BellOutcome.PhiPlus, BellOutcome.PhiMinus})


# --------------------------------------------------------------------------
# Bound arithmetic


def test_hofmann_reference_values():
    lower, upper = hofmann_bounds(0.82, 0.82)
    assert upper == 0.82
    assert abs(lower - 0.64) < 1e-15
    assert hofmann_bounds(1.0, 1.0) == (1.0, 1.0)
    lower, upper = hofmann_bounds(0.9, 0.7)
    assert abs(lower - 0.6) < 1e-15 and upper == 0.7


def test_hofmann_recompute_bit_for_bit():
    f_zx, f_xz = 0.8137, 0.7793
    lower, upper = hofmann_bounds(f_zx, f_xz)
    assert (lower, upper) == hofmann_bounds(f_zx, f_xz)
    assert lower == max(f_zx + f_xz - 1.0, 0.0)
    assert upper == min(f_zx, f_xz)


def test_hofmann_input_validation():
    with pytest.raises(ValueError):
        hofmann_bounds(1.2, 0.5)
    with pytest.raises(ValueError):
        hofmann_bounds(0.5, -0.1)


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1))
def test_hofmann_bounds_ordered(f1, f2):
    lower, upper = hofmann_bounds(f1, f2)
    assert 0.0 <= lower <= upper <= 1.0


# --------------------------------------------------------------------------
# Stabilizer fidelity


def _target_qubit_state():
    # (|00> + |01> + |10> - |11>)/2 in the {level1, level3} qubit encoding
    return np.array([1, 1, 1, -1], dtype=complex) / 2.0


def _paulis():
    eye = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return eye, sx, sy, sz


def test_stabilizer_fidelity_examples():
    assert stabilizer_fidelity(1, 1, 1) == 1.0
    assert stabilizer_fidelity(0, 0, 0) == 0.25
    assert stabilizer_fidelity(-1, -1, 1) == 0.0
    with pytest.raises(ValueError):
        stabilizer_fidelity(1.5, 0, 0)


def test_stabilizer_projector_expansion_oracle():
    """Brute-force Pauli expansion of the target projector: only I, sz sx,
    sx sz and sy sy contribute, each with weight 1/4."""
    eye, sx, sy, sz = _paulis()
    t = _target_qubit_state()
    proj = np.outer(t, t.conj())
    labels = {"i": eye, "x": sx, "y": sy, "z": sz}
    weights = {}
    for (n1, p1), (n2, p2) in itertools.product(labels.items(), repeat=2):
        op = np.kron(p1, p2)
        weights[n1 + n2] = np.trace(proj @ op).real / 4.0
    expected = {"ii": 0.25, "zx": 0.25, "xz": 0.25, "yy": 0.25}
    for key, w in weights.items():
        assert abs(w - expected.get(key, 0.0)) < 1e-12, key


def test_stabilizer_fidelity_equals_direct_overlap(rng):
    eye, sx, sy, sz = _paulis()
    t = _target_qubit_state()
    s1, s2, s3 = np.kron(sz, sx), np.kron(sx, sz), np.kron(sy, sy)
    for _ in range(100):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        e = [np.trace(rho @ s).real for s in (s1, s2, s3)]
        direct = float(np.real(t.conj() @ rho @ t))
        assert abs(stabilizer_fidelity(*e) - direct) < 1e-12


# --------------------------------------------------------------------------
# Basis tables and the flip pattern


def test_basis_tables_shapes():
    assert len(zx := basis_table("ZX").entries) == 16
    assert len(basis_table("XZ").entries) == 16
    assert len(basis_table("superpositions").entries) == 7
    assert zx[0] == ("z0", "x02+")


#: The paper's flip pattern: the top level |3> on one photon with
#: (|1> +- |3>)/sqrt2 on the other comes out with the sign flipped; the other
#: 14 rows of each table come out unchanged.
FLIPS = {
    "ZX": {("z3", "x13+"): ("z3", "x13-"), ("z3", "x13-"): ("z3", "x13+")},
    "XZ": {("x13+", "z3"): ("x13-", "z3"), ("x13-", "z3"): ("x13+", "z3")},
}


@pytest.mark.parametrize("name", ("ZX", "XZ"))
def test_expected_outputs_are_the_flip_pattern(name):
    """The expected outputs src derives from the CPF oracle are the pattern
    stated here."""
    table = basis_table(name)
    want = [table.entries.index(FLIPS[name].get(keys, keys)) for keys in table.entries]
    assert table.expected.tolist() == want
    assert sum(j != row for row, j in enumerate(want)) == 2


@pytest.mark.parametrize("name", ("superpositions", "ZF", "FZ"))
def test_tables_without_a_flip_pattern_are_refused(name):
    """A table where the gate takes some input out of the table has no
    expected output to score: the x13+ x x13+ superposition exits entangled,
    and |3> with a Fourier state leaves the Fourier basis."""
    assert (basis_table(name).expected == -1).any()
    with pytest.raises(ValueError, match="no flip pattern to score"):
        run_fidelity_experiment(name, build_heralded_channel())


def test_flip_pattern_matrices_noiseless():
    for name in ("ZX", "XZ"):
        run = run_fidelity_experiment(name, build_heralded_channel(accepted=BOTH))
        table = run.table
        for row in range(16):
            expect = np.zeros(16)
            expect[table.expected[row]] = 1.0
            assert np.max(np.abs(run.matrix[row] - expect)) < 1e-9, (name, row)
        assert abs(run.fidelity - 1.0) < 1e-9


def test_noiseless_report_bounds_are_unity():
    report = full_fidelity_report(build_heralded_channel())
    assert abs(report.f_zx - 1.0) < 1e-9
    assert abs(report.f_xz - 1.0) < 1e-9
    assert abs(report.lower - 1.0) < 1e-9 and abs(report.upper - 1.0) < 1e-9
    d = report.to_json_dict()
    assert d["bounds"]["lower"] <= d["bounds"]["upper"]


def test_shot_mode_statistics():
    run = run_fidelity_experiment("ZX", build_heralded_channel(accepted=BOTH), shots=2000,
                                  seed=11)
    assert run.counts is not None
    for row, counts in run.counts.items():
        assert sum(counts.values()) == 2000
    assert run.fidelity > 0.99  # noiseless sampling of a deterministic pattern


# --------------------------------------------------------------------------
# Superposition suite


def test_superposition_suite_noiseless():
    entries = superposition_suite(build_heralded_channel())
    for e in entries[:6]:
        assert abs(e.fidelity - 1.0) < 1e-9
    row7 = entries[6]
    assert abs(row7.fidelity - 1.0) < 1e-9
    for v in row7.expectations.values():
        assert abs(v - 1.0) < 1e-9
    assert abs(row7.stabilizer_estimate - 1.0) < 1e-9


def test_superposition_suite_numbers_rows_in_table_order():
    entries = superposition_suite(build_heralded_channel())
    assert [e.row for e in entries] == list(range(1, 8))
    assert [e.input_keys for e in entries] == list(basis_table("superpositions").entries)


def test_entangled_target_is_stabilized():
    v = STATE_VECTORS["x13+"]
    t = QuditState(4, cpf_oracle(4) @ np.kron(v, v))
    for op in stabilizer_settings().values():
        val = np.vdot(t.amps, op @ t.amps).real
        assert abs(val - 1.0) < 1e-12


# --------------------------------------------------------------------------
# Noise and the heralded channel


def test_noiseless_channel_is_the_gate():
    ch = build_heralded_channel()
    assert abs(ch.herald_probability - 0.125) < 1e-9
    assert abs(process_fidelity(ch, cpf_oracle(4)) - 1.0) < 1e-9


@pytest.mark.parametrize("outcome", [BellOutcome.PsiPlus, BellOutcome.PsiMinus])
def test_channel_refuses_outcomes_the_stage_cannot_tell_apart(outcome):
    """Both functions that take accepted outcomes, the channel builder and
    the readout, refuse a Psi outcome rather than reporting that it never
    heralds."""
    accepted = {BellOutcome.PhiPlus, outcome}
    channel = build_heralded_channel()
    v = np.kron(STATE_VECTORS["z1"], STATE_VECTORS["x13+"])
    for run in (lambda: build_heralded_channel(accepted=accepted),
                lambda: heralded_run(channel.kraus, channel.labels, v, accepted)):
        with pytest.raises(EncodingError, match="not unambiguously distinguished"):
            run()


def test_noise_reduces_fidelity_keeps_heralding(rng):
    spec = NoiseSpec(oam_dephasing=0.5, seed=3)
    ch = build_heralded_channel(spec, n_draws=10)
    assert abs(ch.herald_probability - 0.125) < 1e-9  # phases move no mass
    f = process_fidelity(ch, cpf_oracle(4))
    assert 0.3 < f < 0.999


def test_visibility_noise_dephases_top_level():
    spec = NoiseSpec(visibility=0.7, seed=5)
    ch = build_heralded_channel(spec, n_draws=24)
    f = process_fidelity(ch, cpf_oracle(4))
    assert f < 0.999
    report_like = channel_bounds(ch, "fourier")
    assert report_like[0] - 1e-9 <= f <= report_like[1] + 1e-9


def test_fourier_pair_containment_random_specs():
    """With the fully conjugate basis the bracket is a theorem; this pins the
    channel and process-fidelity machinery."""
    rng = np.random.default_rng(99)
    u = cpf_oracle(4)
    for _ in range(6):
        spec = NoiseSpec(
            sigma_zeta=float(rng.uniform(0, 0.5)),
            oam_dephasing=float(rng.uniform(0, 0.5)),
            visibility=float(rng.uniform(0.7, 1.0)),
            seed=int(rng.integers(0, 2 ** 31)),
        )
        ch = build_heralded_channel(spec, n_draws=6)
        f = process_fidelity(ch, u)
        lower, upper = channel_bounds(ch, "fourier")
        assert lower - 1e-9 <= f <= upper + 1e-9, (spec, f, lower, upper)


def test_pairwise_x_lower_bound_blind_to_arm_jitter():
    """Documented limitation: arm-phase jitter dephases only across the OAM
    parity split, which both pairwise-superposition bases cannot see, so the
    nominal lower bound exceeds the true process fidelity."""
    spec = NoiseSpec(sigma_zeta=0.5, seed=7)
    ch = build_heralded_channel(spec, n_draws=10)
    f = process_fidelity(ch, cpf_oracle(4))
    lower, upper = channel_bounds(ch, "zx")
    assert abs(lower - 1.0) < 1e-9 and abs(upper - 1.0) < 1e-9
    assert f < 1.0 - 1e-3
    # the Fourier pair does see it
    f_lower, f_upper = channel_bounds(ch, "fourier")
    assert f_lower - 1e-9 <= f <= f_upper + 1e-9


def test_loss_scales_heralding(rng):
    p = 0.15
    h = build_heralded_channel(NoiseSpec(loss=p, seed=21), n_draws=3000).herald_probability
    expect = (1 - p) ** 4 * 0.125
    sigma = math.sqrt(expect * 0.125 / 3000) + 0.125 * math.sqrt(
        (1 - p) ** 4 * (1 - (1 - p) ** 4) / 3000)
    assert abs(h - expect) < 5 * sigma


def test_shot_noise_scales_as_inverse_sqrt_shots():
    """Standard error of the sampled fidelity halves when shots quadruple."""
    # the single fixed-seed noise draw pins the outcome matrix, so only the
    # multinomial sampling varies with the seed
    channel = build_heralded_channel(NoiseSpec(oam_dephasing=0.4, seed=5), n_draws=1,
                                     accepted=BOTH)

    def estimate(shots, seed):
        return run_fidelity_experiment("ZX", channel, shots, seed).fidelity

    seeds = range(24)
    small = np.array([estimate(200, s) for s in seeds])
    large = np.array([estimate(3200, 1000 + s) for s in seeds])
    ratio = np.std(small, ddof=1) / np.std(large, ddof=1)
    # expect 4 with chi-distributed spread; 3 sigma of the ratio ~ 0.3 * 4
    assert 2.2 < ratio < 7.0


def test_uniform_phase_average_halves_interference():
    """With the arm phase uniform over the circle, the phase-sensitive part
    of the locking observable averages away, leaving the mean intensity at
    half its constructive maximum."""
    from cpfsim.locking import LockParams, intensity

    p = LockParams(mod_depth=0.0)
    zetas = np.linspace(0, 2 * math.pi, 720, endpoint=False)
    mean = float(np.mean([intensity(0.0, z, p) for z in zetas]))
    peak = float(intensity(0.0, 0.0, p))
    assert abs(mean / peak - 0.5) < 1e-12
