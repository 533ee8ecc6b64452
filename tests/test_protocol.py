import itertools
import math

import numpy as np
import pytest

from cpfsim.errors import InvalidDimension, InvalidSubspace, NotNormalized
from cpfsim.protocol import (
    BellOutcome,
    IdealHdBeamSplitter,
    QuditState,
    bell_vectors,
    correction_factors,
    correction_unitary,
    cpf_oracle,
    heralding_probability,
    run_protocol,
    subspace_hadamard,
)

S2 = 1 / math.sqrt(2)


def test_cpf_oracle_d2_is_controlled_z():
    assert np.allclose(cpf_oracle(2), np.diag([1, 1, 1, -1]))


def test_cpf_oracle_flip_example():
    u = cpf_oracle(4)
    psi = QuditState.product([0, 0, 0, 1], [0, S2, 0, S2])
    out = u @ psi.amps
    expect = QuditState.product([0, 0, 0, 1], [0, S2, 0, -S2]).amps
    assert np.allclose(out, expect)
    zero = np.zeros(16)
    zero[0] = 1.0
    assert np.allclose(u @ zero, zero)


def test_cpf_oracle_requires_d_at_least_2():
    with pytest.raises(InvalidDimension):
        cpf_oracle(1)


@pytest.mark.parametrize("d", (2, 3, 4, 6))
def test_cpf_oracle_properties(d):
    u = cpf_oracle(d)
    assert np.allclose(u, np.diag(np.diag(u)))           # diagonal
    assert np.allclose(u @ u, np.eye(d * d))             # involutory
    swap = np.zeros((d * d, d * d))
    for m in range(d):
        for n in range(d):
            swap[n * d + m, m * d + n] = 1.0
    assert np.allclose(swap @ u @ swap, u)               # exchange symmetric


def test_ideal_hd_bs_routing():
    bs = IdealHdBeamSplitter(4)
    assert bs.route("A", 3) == "D"
    assert bs.route("B", 1) == "D"
    assert bs.route("A", 1) == "C"
    assert bs.route("B", 3) == "C"
    # a permutation of the 2d (port, level) pairs, so a unitary
    images = {(bs.route(port, q), q) for port in ("A", "B") for q in range(4)}
    assert len(images) == 8
    with pytest.raises(InvalidDimension):
        IdealHdBeamSplitter(1)


def test_ideal_hd_bs_involution_under_relabel():
    d = 4
    bs = IdealHdBeamSplitter(d)
    # relabel outputs D -> A and C -> B, then route again: identity
    relabel = {"C": "B", "D": "A"}
    for port in ("A", "B"):
        for q in range(d):
            once = relabel[bs.route(port, q)]
            twice = relabel[bs.route(once, q)]
            assert twice == port


def test_subspace_hadamard():
    assert np.allclose(subspace_hadamard(0, 2),
                       np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    h = subspace_hadamard(1, 4)
    assert np.allclose(h @ h, np.eye(4), atol=1e-12)
    e1 = np.zeros(4)
    e1[1] = 1
    assert np.allclose(h @ e1, [0, S2, 0, S2])
    with pytest.raises(InvalidSubspace):
        subspace_hadamard(3, 4)


def test_correction_unitaries():
    d = 4
    assert np.allclose(correction_unitary(BellOutcome.PhiPlus, d), np.eye(16))
    flip = np.diag([1, 1, 1, -1])
    assert np.allclose(correction_unitary(BellOutcome.PhiMinus, d),
                       np.kron(flip, np.eye(4)))
    assert np.allclose(
        correction_unitary(BellOutcome.PsiMinus, d),
        correction_unitary(BellOutcome.PhiMinus, d)
        @ correction_unitary(BellOutcome.PsiPlus, d),
    )


def test_run_protocol_basis_input_d4():
    psi = QuditState.product([0, 0, 0, 1], [0, 0, 0, 1])
    res = run_protocol(psi, 1)
    state, prob = res[BellOutcome.PhiPlus]
    assert abs(prob - 1 / 16) < 1e-12
    assert abs(state.matrix()[3, 3] + 1.0) < 1e-12  # heralds -|3,3>


def test_run_protocol_probabilities_and_efficiency(rng):
    psi = QuditState.random(4, rng)
    res = run_protocol(psi, 1)
    total = sum(p for _s, p in res.values())
    assert abs(total - 0.25) < 1e-12
    for _s, p in res.values():
        assert abs(p - 1 / 16) < 1e-12
    # any two-outcome heralding set reaches efficiency 1/8
    for pair in itertools.combinations(BellOutcome, 2):
        assert abs(heralding_probability(res, pair) - 1 / 8) < 1e-12


def test_run_protocol_matches_oracle_all_branches(rng):
    for d in (2, 3, 5):
        u = cpf_oracle(d)
        for _ in range(5):
            psi = QuditState.random(d, rng)
            ideal = QuditState(d, u @ psi.amps)
            res = run_protocol(psi, 0)
            for state, _p in res.values():
                assert abs(state.overlap(ideal)) > 1 - 1e-12


def test_run_protocol_aux_choice_irrelevant(rng):
    d = 5
    psi = QuditState.random(d, rng)
    res_a = run_protocol(psi, 0)
    res_b = run_protocol(psi, 2)
    for outcome in BellOutcome:
        sa, pa = res_a[outcome]
        sb, pb = res_b[outcome]
        assert abs(pa - pb) < 1e-12
        assert abs(abs(sa.overlap(sb)) - 1.0) < 1e-12


def test_run_protocol_requires_normalized():
    bad = QuditState(4, np.ones(16))
    with pytest.raises(NotNormalized):
        run_protocol(bad, 1)
    with pytest.raises(InvalidSubspace):
        run_protocol(QuditState.product([0, 0, 0, 1], [0, 0, 0, 1]), 3)


@pytest.mark.parametrize("p", (-1, 4))
def test_run_protocol_refuses_auxiliary_index_out_of_range(p):
    """An index off {0, ..., d-2} is refused before the routing loop, whose
    tensor a negative or too large index would otherwise wrap or overrun."""
    with pytest.raises(InvalidSubspace):
        run_protocol(QuditState.product([0, 0, 0, 1], [0, 0, 0, 1]), p)


def test_bell_vectors_orthonormal():
    vs = bell_vectors(1, 4)
    mat = np.array([v for v in vs.values()])
    assert np.allclose(mat.conj() @ mat.T, np.eye(4), atol=1e-12)


def test_qudit_state_json_round_trip(rng):
    psi = QuditState.random(4, rng)
    entries = psi.to_json_entries()
    back = QuditState.from_json_entries(4, entries)
    assert np.allclose(back.amps, psi.amps, atol=1e-12)


def test_qudit_state_json_entries_are_python_numbers():
    """Levels are exact ints and parts exact floats, never numpy scalars,
    and only amplitudes above 1e-15 are listed, in row-major order."""
    amps = np.zeros(16, dtype=complex)
    amps[[1, 7, 14]] = [0.6, 0.8j, 1e-16]
    entries = QuditState(4, amps).to_json_entries()
    assert entries == [[0, 1, 0.6, 0.0], [1, 3, 0.0, 0.8]]
    for m, n, re, im in entries:
        assert (type(m), type(n), type(re), type(im)) == (int, int, float, float)


@pytest.mark.parametrize("d", range(2, 8))
@pytest.mark.parametrize("outcome", list(BellOutcome))
def test_correction_unitary_is_kron_of_factors(outcome, d):
    """The broadcast build is bitwise the Kronecker product of the factors."""
    want = np.kron(*correction_factors(outcome, d))
    got = correction_unitary(outcome, d)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("outcome", list(BellOutcome))
def test_correction_factors_are_shared_read_only(outcome):
    """The factors are built once per (outcome, d) and shared by every
    caller, so writing to one raises instead of changing later gates."""
    u1, u4 = correction_factors(outcome, 4)
    assert correction_factors(outcome, 4)[0] is u1
    for u in (u1, u4):
        with pytest.raises(ValueError):
            u[0, 0] = 2.0
    assert correction_unitary(outcome, 4).flags.writeable
