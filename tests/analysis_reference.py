"""Reference for the heralded-channel readout of ``cpfsim.analysis``: the form
that evaluates one input row at a time, one Kraus operator at a time, and
rebuilds every basis vector with ``np.kron`` on each call.  The channel keeps
its operators as one stack and reads every input of a run in one product;
tests compare its results with this form."""

import numpy as np

from cpfsim.analysis import (
    STATE_VECTORS,
    X_ORDER,
    Z_ORDER,
    fourier_states,
    hofmann_bounds,
)
from cpfsim.fock import sample_counts
from cpfsim.protocol import cpf_oracle


def reference_outcome_probs(kraus, v, outputs) -> tuple:
    """Heralded probability of each output vector w for input v,
    sum_k |<w|K v>|^2 / sum_k ||K v||^2, and the herald sum_k ||K v||^2
    (all zero when nothing heralds)."""
    kv = np.array([k @ v for k in kraus]).reshape(-1, len(v))
    herald = float(np.sum(np.abs(kv) ** 2))
    if herald == 0.0:
        return np.zeros(len(outputs)), 0.0
    amps = np.conj(np.asarray(outputs)) @ kv.T
    return np.sum(np.abs(amps) ** 2, axis=1) / herald, herald


def reference_basis_run(table, kraus, shots: int, seed: int) -> tuple:
    """(matrix, fidelity, herald probability, counts or None) of one table."""
    vectors = [np.kron(STATE_VECTORS[a], STATE_VECTORS[b]) for a, b in table.entries]
    n = len(vectors)
    matrix = np.zeros((n, n))
    herald_mass = 0.0
    counts: dict = {}
    for row, v in enumerate(vectors):
        matrix[row], herald = reference_outcome_probs(kraus, v, vectors)
        herald_mass += herald
        if shots:
            dist = {j: matrix[row, j] for j in range(n)}
            counts[row] = (sample_counts(dist, shots, seed, experiment_id=row)
                           if herald else dict.fromkeys(dist, 0))
    if shots:
        fidelity = float(np.mean([counts[row].get(table.expected[row], 0) / shots
                                  for row in range(n)]))
    else:
        fidelity = float(np.mean([matrix[row, table.expected[row]]
                                  for row in range(n)]))
    return matrix, fidelity, herald_mass / n, counts if shots else None


def reference_herald_probability(kraus) -> float:
    gram = sum(k.conj().T @ k for k in kraus)
    return float(np.trace(gram).real / 16.0) if len(kraus) else 0.0


def reference_process_fidelity(kraus, herald_probability: float, unitary) -> float:
    num = sum(abs(np.trace(unitary.conj().T @ k) / 16.0) ** 2 for k in kraus)
    return float(num / herald_probability)


def reference_channel_bounds(kraus, pair: str) -> tuple[float, float]:
    z = [STATE_VECTORS[k] for k in Z_ORDER]
    x = [STATE_VECTORS[k] for k in X_ORDER] if pair == "zx" else fourier_states()
    u = cpf_oracle(4)
    fidelities = []
    for first, second in ((z, x), (x, z)):
        inputs = [np.kron(a, b) for a in first for b in second]
        acc = sum(reference_outcome_probs(kraus, v, [u @ v])[0][0] for v in inputs)
        fidelities.append(float(acc / len(inputs)))
    return hofmann_bounds(*fidelities)


def reference_ensemble(kraus, labels, v, accepted) -> tuple[dict, dict]:
    """``heralded_run`` on a given channel: pattern probabilities and
    (rho, probability) per accepted outcome that heralds."""
    pattern_probs: dict = {}
    outputs: dict = {}
    for (outcome, pattern), k in zip(labels, kraus):
        out = k @ v
        pattern_probs[pattern] = pattern_probs.get(pattern, 0.0) + float(np.vdot(out, out).real)
        if outcome in accepted:
            outputs[outcome] = outputs.get(outcome, 0.0) + np.outer(out, out.conj())
    per_outcome = {}
    for outcome, rho in outputs.items():
        prob = float(np.trace(rho).real)
        if prob > 1e-30:
            per_outcome[outcome] = (rho / prob, prob)
    return {p: q for p, q in pattern_probs.items() if q > 1e-30}, per_outcome
