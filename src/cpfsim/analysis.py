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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyPostSelection
from .fock import sample_counts
from .gate_d4 import PREPARATION_TABLE, pipeline
from .noise import IDEAL_DRAW, NoiseSpec
from .protocol import BellOutcome, cpf_oracle


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


#: Qudit-level vectors of every preparable input state, keyed like the
#: preparation table.  Read-only: the cached readout inputs are built from
#: them once per process.
STATE_VECTORS = {key: _read_only(np.array(recipe.target))
                 for key, recipe in PREPARATION_TABLE.items()}

#: Noise draws averaged by default in the fidelity experiments and noisy
#: ``cpf_d4`` runs.
DEFAULT_DRAWS = 32
#: The most noise draws one channel averages.  The channel keeps up to four
#: 16x16 complex operators, 16 KiB, for each unlost draw; 4096 draws take
#: 64 MiB.
MAX_DRAWS = 4096

Z_ORDER = ("z0", "z1", "z2", "z3")
X_ORDER = ("x02+", "x02-", "x13+", "x13-")
F_ORDER = ("f0", "f1", "f2", "f3")


def fourier_states() -> list[np.ndarray]:
    """Conjugate (Fourier) basis of the four levels; unbiased to Z."""
    return [np.array([np.exp(2j * math.pi * k * l / 4) for l in range(4)]) / 2.0
            for k in range(4)]


#: Rows of each named table, (photon-1 key, photon-4 key) product inputs.
#: ZX/XZ give the fidelity experiments and the reported bracket, ZF/FZ the
#: fully conjugate bracket; the superposition row 7 exits entangled.
_TABLE_ENTRIES = {
    "ZX": tuple((a, b) for a in Z_ORDER for b in X_ORDER),
    "XZ": tuple((a, b) for a in X_ORDER for b in Z_ORDER),
    "ZF": tuple((a, b) for a in Z_ORDER for b in F_ORDER),
    "FZ": tuple((a, b) for a in F_ORDER for b in Z_ORDER),
    "superpositions": (("x02+", "s23"), ("x02+", "s12"), ("x02+", "x02+"), ("x02+", "x13+"),
                       ("x13+", "s12"), ("x13+", "x02+"), ("x13+", "x13+")),
}


@dataclass(frozen=True, eq=False)
class BasisTable:
    """A named table of product inputs and what the CPF oracle makes of them.

    ``inputs`` and ``outputs`` are the read-only (rows, 16) joint inputs and
    their ``cpf_oracle`` outputs; ``expected[row]`` is the row whose input
    the output equals up to a global phase (the oracle only flips signs), or
    -1 if the output is not a row of the table.
    """

    name: str
    entries: tuple
    inputs: np.ndarray
    outputs: np.ndarray
    expected: np.ndarray


@functools.cache
def basis_table(name: str) -> BasisTable:
    """The named table, built once per process."""
    entries = _TABLE_ENTRIES[name]
    vectors = {**STATE_VECTORS, **dict(zip(F_ORDER, fourier_states()))}
    inputs = np.array([np.kron(vectors[a], vectors[b]) for a, b in entries])
    u = cpf_oracle(4)
    outputs = np.array([u @ v for v in inputs])
    hits = np.isclose(np.abs(outputs @ inputs.conj().T), 1.0)
    expected = np.where(hits.any(axis=1), hits.argmax(axis=1), -1)
    return BasisTable(name, entries, _read_only(inputs), _read_only(outputs),
                      _read_only(expected))


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


@dataclass
class BasisRun:
    """One measurement-basis experiment: per-input outcome probabilities."""

    table: BasisTable
    matrix: np.ndarray          # [input, outcome], conditioned on heralding
    fidelity: float             # mean probability of the expected outcome
    herald_probability: float
    counts: dict | None = None  # present in shot mode


def run_fidelity_experiment(basis: str, channel: HeraldedChannel,
                            shots: int = 0, seed: int = 0) -> BasisRun:
    """Measure the flip pattern of the named basis table on ``channel``.

    ``shots == 0`` is analytic mode (exact outcome distributions); otherwise
    each input row is sampled with a multinomial of the given size.
    ValueError if the gate takes some row of the table out of the table, so
    the table has no flip pattern to score.
    """
    table = basis_table(basis)
    if (table.expected < 0).any():
        raise ValueError(f"the gate takes some {basis} inputs out of the table;"
                         " it has no flip pattern to score")
    inputs, expected = table.inputs, table.expected
    n = len(inputs)
    matrix, heralds = channel.readout(inputs, inputs)
    herald_probability = _running_sum(heralds) / n
    if shots:
        counts = {
            row: (sample_counts(dict(enumerate(matrix[row])), shots, seed, experiment_id=row)
                  if heralds[row] else dict.fromkeys(range(n), 0))
            for row in range(n)
        }
        est = [counts[row].get(j, 0) / shots for row, j in enumerate(expected.tolist())]
        fidelity = float(np.mean(est))
    else:
        fidelity = float(np.mean(matrix[np.arange(n), expected]))
    return BasisRun(table, matrix, fidelity, herald_probability,
                    counts if shots else None)


def _running_sum(values: np.ndarray) -> float:
    """Left to right sum of a non-empty 1-d array, rounded as a loop adding
    one value at a time; the byte-stable results keep that rounding."""
    return float(np.add.accumulate(values)[-1])


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
        """The result's ``fidelity`` object: both matrices and one outcome
        record per input x outcome, its probability and sampled count."""
        matrices = {"ZX": self.matrix_zx.tolist(), "XZ": self.matrix_xz.tolist()}
        rows = []
        for name, counts in (("ZX", self.counts_zx), ("XZ", self.counts_xz)):
            labels = [f"{a}|{b}" for a, b in basis_table(name).entries]
            for i, (label, probs) in enumerate(zip(labels, matrices[name])):
                rows += [{"basis": name, "input": label, "outcome": outcome, "probability": p,
                          "count": counts[i].get(j, 0) if counts else None}
                         for j, (outcome, p) in enumerate(zip(labels, probs))]
        return {
            "f_zx": self.f_zx,
            "f_xz": self.f_xz,
            "bounds": {"lower": self.lower, "upper": self.upper},
            "herald_probability": self.herald_probability,
            "matrix_zx": matrices["ZX"],
            "matrix_xz": matrices["XZ"],
            "outcome_rows": rows,
        }


def full_fidelity_report(channel: HeraldedChannel, shots: int = 0,
                         seed: int = 0) -> FidelityReport:
    zx = run_fidelity_experiment("ZX", channel, shots, seed)
    xz = run_fidelity_experiment("XZ", channel, shots, seed + 1)
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


@dataclass
class SuiteEntry:
    row: int
    input_keys: tuple
    fidelity: float
    expectations: dict | None = None       # stabilizer averages, row 7 only
    stabilizer_estimate: float | None = None


@functools.cache
def _suite_inputs() -> tuple:
    """The names of the three stabilizer settings with their read-only
    stacked eigenbases, (3, 16, 16), and eigenvalues, (3, 16)."""
    settings = stabilizer_settings()
    eigs = [np.linalg.eigh(op) for op in settings.values()]
    eigvecs = np.array([vecs.T for _vals, vecs in eigs])
    eigvals = np.array([vals for vals, _vecs in eigs])
    return tuple(settings), _read_only(eigvecs), _read_only(eigvals)


def superposition_suite(channel: HeraldedChannel) -> list[SuiteEntry]:
    """Score the seven superposition inputs on ``channel``.

    Rows 1 to 6 are scored against their unchanged product outputs; row 7
    against the entangled target, both by direct overlap and through the
    three stabilizer averages.
    """
    table = basis_table("superpositions")
    names, eigvecs, eigvals = _suite_inputs()
    probs, heralds = channel.readout(table.inputs, table.outputs[:, None, :])
    entries = [SuiteEntry(row + 1, keys, float(p))
               for row, (keys, p) in enumerate(zip(table.entries, probs[:, 0]))]
    if heralds[6]:
        # row 7 once per stabilizer setting, each against its eigenbasis
        stab, _heralds = channel.readout(np.repeat(table.inputs[6:7], len(eigvecs), axis=0),
                                         eigvecs)
        exps = {k: float(vals @ p)
                for k, vals, p in zip(names, eigvals, stab)}
        entries[6].expectations = exps
        entries[6].stabilizer_estimate = stabilizer_fidelity(exps["zx"], exps["xz"], exps["yy"])
    return entries


# ---------------------------------------------------------------------------
# Heralded channel, brute-force process fidelity, bound containment


@dataclass(frozen=True, eq=False)
class HeraldedChannel:
    """Kraus form of the noise-averaged heralded gate (unnormalized).

    The operators are kept as one read-only (n, 16, 16) stack, so that a
    readout evaluates every input against every operator in one product.
    A channel is a frozen, read-only value: every holder of a shared channel
    sees the same operators.
    """

    kraus: np.ndarray          # (n, 16, 16) operators, weights folded in
    labels: tuple              # (BellOutcome, analyzer pattern) of each operator
    herald_probability: float = field(init=False)  # trace(sum K^dag K) / 16, input independent

    def __post_init__(self):
        kraus = _read_only(np.array(self.kraus, dtype=complex).reshape(-1, 16, 16))
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "herald_probability", float(np.sum(np.abs(kraus) ** 2) / 16.0))

    def readout(self, inputs: np.ndarray, outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Heralded probabilities of output vectors for a batch of inputs.

        ``inputs`` is (r, 16); ``outputs`` is (m, 16), shared by every input,
        or (r, m, 16), one set per input.  Returns the (r, m) probabilities
        sum_k |<w|K v>|^2 / sum_k ||K v||^2 and the (r,) heralds
        sum_k ||K v||^2; an input that heralds nothing gets zero
        probabilities.  Every K v is the matrix-vector product ``K @ v``
        would give, so the results are bitwise those of one input and one
        operator at a time.
        """
        r, n = len(inputs), len(self.kraus)
        kv = self.kraus @ np.asarray(inputs)[:, None, :, None]    # (r, n, 16, 1)
        heralds = np.sum(np.abs(kv.reshape(r, n * 16)) ** 2, axis=1)
        amps = np.conj(outputs) @ kv.reshape(r, n, 16).transpose(0, 2, 1)
        overlap = np.sum(np.abs(amps) ** 2, axis=2)
        probs = np.zeros(overlap.shape)
        heralded = heralds != 0.0
        probs[heralded] = overlap[heralded] / heralds[heralded, None]
        return probs, heralds


def build_heralded_channel(
    noise: NoiseSpec | None = None,
    n_draws: int = DEFAULT_DRAWS,
    accepted=frozenset({BellOutcome.PhiPlus, BellOutcome.PhiMinus}),
) -> HeraldedChannel:
    """Average the per-draw heralded transfer operators into one channel.

    Each operator is weighted by its draw's share and labelled with its
    (outcome, pattern).  The draws without noise share one weighted operator
    set; a lost draw heralds nothing, so an ensemble whose every draw is lost
    gives the empty channel, herald probability 0.

    The builder keeps its last channel and returns it to the next call with
    the same settings, so a run followed by an analysis of those settings
    runs the Fock passes once.  Channels are shared, read-only values; the
    kept one holds at most 64 MiB (``MAX_DRAWS`` draws).  Every noise-free
    spec, whatever its seed or draw count, gives the one ideal channel.

    ValueError if ``n_draws`` is not an integer in [1, MAX_DRAWS] or the
    noise settings are invalid; EncodingError if the Bell stage cannot tell
    an accepted outcome apart.  A refused call leaves the kept channel as it
    was."""
    if type(n_draws) is not int or not 1 <= n_draws <= MAX_DRAWS:
        raise ValueError(f"n_draws must be an integer in [1, {MAX_DRAWS}], got {n_draws!r}")
    accepted = pipeline().stage.require_distinguishable(accepted)
    if noise is None or noise.trivial:
        return _build_channel(None, 1, accepted)
    noise.validate()
    return _build_channel(noise, n_draws, accepted)


@functools.lru_cache(maxsize=1)
def _build_channel(noise: NoiseSpec | None, n_draws: int, accepted: frozenset) -> HeraldedChannel:
    """The channel of checked settings, ``noise`` None for no noise.  One
    entry saves the rebuild of the settings just built; more would keep
    channels of settings that are not asked for again."""
    pipe = pipeline()
    draws = [IDEAL_DRAW] if noise is None else noise.draws(n_draws)
    w = 1.0 / len(draws)
    n_ideal = sum(d.trivial for d in draws)
    weighted = [(w * n_ideal, IDEAL_DRAW)] if n_ideal else []
    weighted += [(w, d) for d in draws if not (d.trivial or d.lost)]
    labelled = [(label, math.sqrt(weight) * k)
                for weight, draw in weighted
                for label, k in pipe.transfer_operators(draw).items()
                if label[0] in accepted]
    return HeraldedChannel([k for _label, k in labelled], [label for label, _k in labelled])


def process_fidelity(channel: HeraldedChannel, unitary: np.ndarray) -> float:
    """Overlap of the conditional channel's process matrix with a unitary.
    EmptyPostSelection if the channel heralds nothing, so has no conditional
    process to compare."""
    if channel.herald_probability == 0.0:
        raise EmptyPostSelection("the channel heralds nothing")
    traces = np.trace(unitary.conj().T @ channel.kraus, axis1=1, axis2=2)
    return float(np.sum(np.abs(traces / 16.0) ** 2)) / channel.herald_probability


def channel_bounds(channel: HeraldedChannel, pair: str = "zx") -> tuple[float, float]:
    """Hofmann bracket for a channel from two complementary basis runs, each
    the mean probability of the oracle output over its table's inputs.

    ``pair='zx'`` uses the pairwise-superposition X states (the bracket
    reported by the fidelity experiments); ``pair='fourier'`` uses the fully
    conjugate basis, for which the lower bound holds for every channel.
    """
    names = {"zx": ("ZX", "XZ"), "fourier": ("ZF", "FZ")}.get(pair)
    if names is None:
        raise ValueError(f"unknown basis pair {pair!r}")
    fidelities = []
    for table in map(basis_table, names):
        probs, _heralds = channel.readout(table.inputs, table.outputs[:, None, :])
        fidelities.append(_running_sum(probs[:, 0]) / len(probs))
    return hofmann_bounds(*fidelities)
