"""Fidelity estimation, measurement tables, and noise-ensemble analysis.

Classical fidelities are measured in two product bases: one photon in the
computational (OAM) basis Z, the other in the pairwise-superposition basis X.
The two averages bracket the process fidelity via
``[F_ZX + F_XZ - 1, min(F_ZX, F_XZ)]``.

Caveat, verified numerically in the test suite: the X states are unbiased to
Z only inside each OAM-parity block, so the lower bound is not a theorem for
arbitrary channels; dephasing-type noise can push the true process fidelity
below it.  :func:`channel_bounds` therefore also supports the fully conjugate
Fourier basis, for which the bound provably holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPostSelection
from .fock import sample_counts
from .gate_d4 import PREPARATION_TABLE, pipeline
from .noise import IDEAL_DRAW, NoiseDraw, NoiseSpec
from .protocol import BellOutcome, QuditState, cpf_oracle

#: Qudit-level vectors of every preparable input state, keyed like the
#: preparation table.
STATE_VECTORS = {key: np.array(recipe.target) for key, recipe in PREPARATION_TABLE.items()}

#: Noise draws averaged by default in the fidelity experiments and noisy
#: ``cpf_d4`` runs.
DEFAULT_DRAWS = 32

Z_ORDER = ("z0", "z1", "z2", "z3")
X_ORDER = ("x02+", "x02-", "x13+", "x13-")
_X_FLIP = {"x13+": "x13-", "x13-": "x13+", "x02+": "x02+", "x02-": "x02-"}


def fourier_states() -> list[np.ndarray]:
    """Conjugate (Fourier) basis of the four levels; unbiased to Z."""
    out = []
    for k in range(4):
        v = np.array([np.exp(2j * math.pi * k * l / 4) for l in range(4)]) / 2.0
        out.append(v)
    return out


@dataclass(frozen=True)
class BasisTable:
    """Ordered list of (photon-1 key, photon-4 key) product inputs."""

    name: str
    entries: tuple

    def vectors(self):
        return [(STATE_VECTORS[a], STATE_VECTORS[b]) for a, b in self.entries]


def zx_table() -> BasisTable:
    return BasisTable("ZX", tuple((a, b) for a in Z_ORDER for b in X_ORDER))


def xz_table() -> BasisTable:
    return BasisTable("XZ", tuple((a, b) for a in X_ORDER for b in Z_ORDER))


def superposition_table() -> BasisTable:
    """The seven superposition inputs; row 7 produces the entangled output."""
    return BasisTable("superpositions", (
        ("x02+", "s23"),
        ("x02+", "s12"),
        ("x02+", "x02+"),
        ("x02+", "x13+"),
        ("x13+", "s12"),
        ("x13+", "x02+"),
        ("x13+", "x13+"),
    ))


def basis_table(name: str) -> BasisTable:
    return {"ZX": zx_table, "XZ": xz_table, "superpositions": superposition_table}[name]()


def expected_output_index(table: BasisTable, row: int) -> int:
    """Index of the expected outcome for one input row (flip pattern).

    Only the inputs combining the top level |3> on one photon with a
    same-parity superposition of levels 1 and 3 on the other change: their
    superposition sign flips.  Everything else maps to itself.
    """
    a, b = table.entries[row]
    if table.name == "ZX" and a == "z3":
        b = _X_FLIP[b]
    elif table.name == "XZ" and b == "z3":
        a = _X_FLIP[a]
    return table.entries.index((a, b))


def hofmann_bounds(f_zx: float, f_xz: float) -> tuple[float, float]:
    """Process-fidelity interval from the two classical fidelities."""
    for f in (f_zx, f_xz):
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"classical fidelity {f} outside [0, 1]")
    upper = min(f_zx, f_xz)
    # the sum can exceed the minimum by one rounding ulp near f = 1
    lower = min(max(f_zx + f_xz - 1.0, 0.0), upper)
    return lower, upper


def stabilizer_fidelity(e1: float, e2: float, e3: float) -> float:
    """Fidelity to the two-qubit target from its three stabilizer averages.

    Valid because the target projector decomposes as
    (I + S1 + S2 + S1 S2)/4 with S1 = sz x sx, S2 = sx x sz, S1 S2 = sy x sy
    on the {level 1, level 3} subspace.
    """
    for e in (e1, e2, e3):
        if not -1.0 - 1e-12 <= e <= 1.0 + 1e-12:
            raise ValueError(f"expectation value {e} outside [-1, 1]")
    return (1.0 + e1 + e2 + e3) / 4.0


# ---------------------------------------------------------------------------
# Experiments on the heralded channel


def noise_draws(noise: NoiseSpec | None, n_draws: int) -> list[NoiseDraw]:
    if noise is None or noise.trivial:
        return [IDEAL_DRAW]
    noise.validate()
    return noise.draws(n_draws)


@dataclass
class BasisRun:
    """One measurement-basis experiment: per-input outcome probabilities."""

    table: BasisTable
    matrix: np.ndarray          # [input, outcome], conditioned on heralding
    fidelity: float             # mean probability of the expected outcome
    herald_probability: float
    counts: dict | None = None  # present in shot mode


def run_fidelity_experiment(
    basis: str | BasisTable,
    shots: int = 0,
    noise: NoiseSpec | None = None,
    accepted=frozenset({BellOutcome.PhiPlus, BellOutcome.PhiMinus}),
    n_draws: int = DEFAULT_DRAWS,
    seed: int = 0,
) -> BasisRun:
    """Measure the flip pattern of one basis table on the heralded channel.

    ``shots == 0`` is analytic mode (exact outcome distributions); otherwise
    each input row is sampled with a multinomial of the given size.
    """
    channel = _heralded_channel(noise, n_draws, accepted)
    return _basis_run(basis, channel, shots, seed)


def _basis_run(basis, channel: HeraldedChannel, shots: int, seed: int) -> BasisRun:
    table = basis_table(basis) if isinstance(basis, str) else basis
    vectors = [np.kron(v1, v4) for v1, v4 in table.vectors()]
    n = len(vectors)
    matrix = np.zeros((n, n))
    herald_mass = 0.0
    counts: dict = {}
    for row, v in enumerate(vectors):
        matrix[row], herald = _outcome_probs(channel, v, vectors)
        herald_mass += herald
        if shots:
            dist = {j: matrix[row, j] for j in range(n)}
            counts[row] = (sample_counts(dist, shots, seed, experiment_id=row)
                           if herald else dict.fromkeys(dist, 0))
    herald_probability = herald_mass / n
    if shots:
        est = [
            counts[row].get(expected_output_index(table, row), 0) / shots
            for row in range(n)
        ]
        fidelity = float(np.mean(est))
    else:
        fidelity = float(
            np.mean([matrix[row, expected_output_index(table, row)] for row in range(n)])
        )
    return BasisRun(table, matrix, fidelity, herald_probability,
                    counts if shots else None)


@dataclass
class FidelityReport:
    """Bundled ZX and XZ runs with the process-fidelity bracket."""

    f_zx: float
    f_xz: float
    lower: float
    upper: float
    matrix_zx: np.ndarray
    matrix_xz: np.ndarray
    herald_probability: float
    counts_zx: dict | None = None
    counts_xz: dict | None = None

    @classmethod
    def from_runs(cls, zx: BasisRun, xz: BasisRun) -> "FidelityReport":
        lower, upper = hofmann_bounds(zx.fidelity, xz.fidelity)
        return cls(zx.fidelity, xz.fidelity, lower, upper,
                   zx.matrix, xz.matrix,
                   0.5 * (zx.herald_probability + xz.herald_probability),
                   zx.counts, xz.counts)

    def to_json_dict(self) -> dict:
        return {
            "f_zx": self.f_zx,
            "f_xz": self.f_xz,
            "bounds": {"lower": self.lower, "upper": self.upper},
            "herald_probability": self.herald_probability,
            "matrix_zx": self.matrix_zx.tolist(),
            "matrix_xz": self.matrix_xz.tolist(),
        }

    def outcome_rows(self):
        """One record per input x outcome: probability plus sampled count."""
        rows = []
        for name, matrix, counts in (("ZX", self.matrix_zx, self.counts_zx),
                                     ("XZ", self.matrix_xz, self.counts_xz)):
            table = basis_table(name)
            labels = [f"{a}|{b}" for a, b in table.entries]
            for i, in_label in enumerate(labels):
                for j, out_label in enumerate(labels):
                    count = counts[i].get(j, 0) if counts else None
                    rows.append((name, in_label, out_label,
                                 float(matrix[i, j]), count))
        return rows


def full_fidelity_report(
    shots: int = 0,
    noise: NoiseSpec | None = None,
    accepted=frozenset({BellOutcome.PhiPlus, BellOutcome.PhiMinus}),
    n_draws: int = DEFAULT_DRAWS,
    seed: int = 0,
) -> FidelityReport:
    channel = _heralded_channel(noise, n_draws, accepted)
    zx = _basis_run("ZX", channel, shots, seed)
    xz = _basis_run("XZ", channel, shots, seed + 1)
    return FidelityReport.from_runs(zx, xz)


# ---------------------------------------------------------------------------
# Superposition suite


_PAULI = {
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def _qubit_operator_on_levels(op2: np.ndarray) -> np.ndarray:
    """Embed a {level 1, level 3} qubit operator into the 4-level space."""
    out = np.zeros((4, 4), dtype=complex)
    levels = (1, 3)
    for i, a in enumerate(levels):
        for j, b in enumerate(levels):
            out[a, b] = op2[i, j]
    return out


def stabilizer_settings() -> dict:
    return {
        "zx": np.kron(_qubit_operator_on_levels(_PAULI["z"]),
                      _qubit_operator_on_levels(_PAULI["x"])),
        "xz": np.kron(_qubit_operator_on_levels(_PAULI["x"]),
                      _qubit_operator_on_levels(_PAULI["z"])),
        "yy": np.kron(_qubit_operator_on_levels(_PAULI["y"]),
                      _qubit_operator_on_levels(_PAULI["y"])),
    }


def entangled_target() -> QuditState:
    """Output of the gate on the (|1>+|3>) x (|1>+|3>) / 2 input."""
    v = STATE_VECTORS["x13+"]
    return QuditState(4, cpf_oracle(4) @ np.kron(v, v))


@dataclass
class SuiteEntry:
    row: int
    input_keys: tuple
    fidelity: float
    expectations: dict | None = None       # stabilizer averages, row 7 only
    stabilizer_estimate: float | None = None


def superposition_suite(
    noise: NoiseSpec | None = None,
    accepted=frozenset({BellOutcome.PhiPlus, BellOutcome.PhiMinus}),
    n_draws: int = DEFAULT_DRAWS,
) -> list[SuiteEntry]:
    """Score the seven superposition inputs.

    Rows 1 to 6 are scored against their unchanged product outputs; row 7
    against the entangled target, both by direct overlap and through the
    three stabilizer averages.
    """
    table = superposition_table()
    channel = _heralded_channel(noise, n_draws, accepted)
    entries = []
    for row, (v1, v4) in enumerate(table.vectors()):
        v = np.kron(v1, v4)
        (fidelity,), herald = _outcome_probs(channel, v, [cpf_oracle(4) @ v])
        if row == 6 and herald:
            exps = {}
            for k, op in stabilizer_settings().items():
                eigvals, eigvecs = np.linalg.eigh(op)
                exps[k] = float(eigvals @ _outcome_probs(channel, v, eigvecs.T)[0])
            entries.append(SuiteEntry(
                row + 1, table.entries[row], fidelity, exps,
                stabilizer_fidelity(exps["zx"], exps["xz"], exps["yy"]),
            ))
        else:
            entries.append(SuiteEntry(row + 1, table.entries[row], fidelity))
    return entries


# ---------------------------------------------------------------------------
# Heralded channel, brute-force process fidelity, bound containment


@dataclass
class HeraldedChannel:
    """Kraus form of the noise-averaged heralded gate (unnormalized)."""

    kraus: list                # 16x16 operators, weights folded in
    labels: list               # (BellOutcome, analyzer pattern) of each operator
    herald_probability: float  # trace factor, input independent

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros((16, 16), dtype=complex)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out / self.herald_probability


def build_heralded_channel(
    noise: NoiseSpec | None = None,
    n_draws: int = DEFAULT_DRAWS,
    accepted=frozenset({BellOutcome.PhiPlus, BellOutcome.PhiMinus}),
) -> HeraldedChannel:
    """Average the per-draw heralded transfer operators into one channel."""
    channel = _heralded_channel(noise, n_draws, accepted)
    if not channel.kraus:
        raise EmptyPostSelection("every sampled shot lost a photon")
    return channel


def _heralded_channel(noise: NoiseSpec | None, n_draws: int, accepted) -> HeraldedChannel:
    """Kraus operators of the draw-averaged heralded gate, each weighted by
    its draw's share and labelled with its (outcome, pattern).  The draws
    without noise share one weighted operator set; lost draws herald nothing,
    so every draw lost gives no operators and herald probability 0.
    EncodingError if the Bell stage cannot tell an accepted outcome apart."""
    pipe = pipeline()
    accepted = pipe.stage.require_distinguishable(accepted)
    draws = noise_draws(noise, n_draws)
    w = 1.0 / len(draws)
    n_ideal = sum(d.trivial for d in draws)
    weighted = [(w * n_ideal, IDEAL_DRAW)] if n_ideal else []
    weighted += [(w, d) for d in draws if not (d.trivial or d.lost)]
    labelled = [(label, math.sqrt(weight) * k)
                for weight, draw in weighted
                for label, k in pipe.transfer_operators(draw).items()
                if label[0] in accepted]
    kraus = [k for _label, k in labelled]
    gram = sum(k.conj().T @ k for k in kraus)
    herald = float(np.trace(gram).real / 16.0) if kraus else 0.0
    return HeraldedChannel(kraus, [label for label, _k in labelled], herald)


def heralded_ensemble(noise: NoiseSpec, v: np.ndarray, accepted,
                      n_draws: int = DEFAULT_DRAWS) -> tuple[dict, dict]:
    """The gate on joint input ``v``, averaged over ``n_draws`` noise draws.

    Returns the analyzer-pattern probabilities sum ||K v||^2 over both
    distinguishable outcomes, and for each accepted outcome that heralds,
    (rho, probability) with rho = sum K v v^dag K^dag / probability over
    that outcome's operators.  Lost draws herald nothing.
    """
    stage = pipeline().stage
    accepted = stage.require_distinguishable(accepted)
    channel = _heralded_channel(noise, n_draws, stage.DISTINGUISHABLE)
    pattern_probs: dict = {}
    outputs: dict = {}
    for (outcome, pattern), k in zip(channel.labels, channel.kraus):
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


def _outcome_probs(channel: HeraldedChannel, v: np.ndarray, outputs) -> tuple:
    """Heralded probability of each output vector w for input v,
    sum_k |<w|K v>|^2 / sum_k ||K v||^2, and the herald sum_k ||K v||^2
    (all zero when nothing heralds)."""
    kv = np.array([k @ v for k in channel.kraus]).reshape(-1, len(v))
    herald = float(np.sum(np.abs(kv) ** 2))
    if herald == 0.0:
        return np.zeros(len(outputs)), 0.0
    amps = np.conj(np.asarray(outputs)) @ kv.T
    return np.sum(np.abs(amps) ** 2, axis=1) / herald, herald


def process_fidelity(channel: HeraldedChannel, unitary: np.ndarray) -> float:
    """Overlap of the conditional channel's process matrix with a unitary."""
    num = sum(abs(np.trace(unitary.conj().T @ k) / 16.0) ** 2 for k in channel.kraus)
    return float(num / channel.herald_probability)


def channel_classical_fidelity(
    channel: HeraldedChannel, inputs: list, targets: list
) -> float:
    """Mean probability of the target output over a set of input states."""
    acc = sum(_outcome_probs(channel, v, [t])[0][0] for v, t in zip(inputs, targets))
    return float(acc / len(inputs))


def _product_inputs(first: list, second: list) -> list:
    return [np.kron(a, b) for a in first for b in second]


def channel_bounds(channel: HeraldedChannel, pair: str = "zx") -> tuple[float, float]:
    """Hofmann bracket for a channel from two complementary basis runs.

    ``pair='zx'`` uses the pairwise-superposition X states (the bracket
    reported by the fidelity experiments); ``pair='fourier'`` uses the fully
    conjugate basis, for which the lower bound holds for every channel.
    """
    z = [STATE_VECTORS[k] for k in Z_ORDER]
    if pair == "zx":
        x = [STATE_VECTORS[k] for k in X_ORDER]
    elif pair == "fourier":
        x = fourier_states()
    else:
        raise ValueError(f"unknown basis pair {pair!r}")
    u = cpf_oracle(4)
    in1 = _product_inputs(z, x)
    in2 = _product_inputs(x, z)
    f1 = channel_classical_fidelity(channel, in1, [u @ v for v in in1])
    f2 = channel_classical_fidelity(channel, in2, [u @ v for v in in2])
    return hofmann_bounds(f1, f2)


def loss_scaled_heralding(noise: NoiseSpec, n_draws: int = 200) -> float:
    """Monte Carlo heralding probability including loss-failed shots."""
    both = frozenset({BellOutcome.PhiPlus, BellOutcome.PhiMinus})
    return _heralded_channel(noise, n_draws, both).herald_probability
