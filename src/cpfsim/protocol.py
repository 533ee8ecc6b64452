"""Abstract arbitrary-dimension heralded controlled phase-flip protocol.

Works with labelled photons and explicit post-selection bookkeeping: two data
qudits (systems 1 and 4) are paired with two auxiliary qudits (systems 2 and
3) on two routing beam splitters, one photon per output port is kept, a
two-level Hadamard acts on system 3, and a Bell measurement of systems 2 and
3 heralds the gate on systems 1 and 4 up to a local correction.

The exact controlled phase-flip unitary built by :func:`cpf_oracle` is the
ground truth used across the package.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, InvalidSubspace, NotNormalized

NORM_TOL = 1e-12


class BellOutcome(enum.Enum):
    PhiPlus = "PhiPlus"
    PhiMinus = "PhiMinus"
    PsiPlus = "PsiPlus"
    PsiMinus = "PsiMinus"


class QuditState:
    """Joint pure state of the two data qudits, amplitudes c[m, n]."""

    def __init__(self, d: int, amps):
        if d < 2:
            raise InvalidDimension(f"d={d} below 2")
        amps = np.asarray(amps, dtype=complex).reshape(d * d)
        self.d = d
        self.amps = amps

    @classmethod
    def from_matrix(cls, c: np.ndarray) -> "QuditState":
        c = np.asarray(c, dtype=complex)
        return cls(c.shape[0], c.reshape(-1))

    @classmethod
    def product(cls, v1, v4) -> "QuditState":
        v1 = np.asarray(v1, dtype=complex)
        v4 = np.asarray(v4, dtype=complex)
        return cls(len(v1), np.outer(v1, v4).reshape(-1))

    @classmethod
    def random(cls, d: int, rng: np.random.Generator) -> "QuditState":
        amps = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        return cls(d, amps / np.linalg.norm(amps))

    def matrix(self) -> np.ndarray:
        return self.amps.reshape(self.d, self.d)

    def norm2(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def require_normalized(self):
        if abs(self.norm2() - 1.0) > NORM_TOL:
            raise NotNormalized(f"norm^2 = {self.norm2():.3e}")

    def overlap(self, other: "QuditState") -> complex:
        return complex(np.vdot(other.amps, self.amps))

    def fidelity(self, other: "QuditState") -> float:
        """|<other|self>|^2, insensitive to global phase."""
        return abs(self.overlap(other)) ** 2

    def to_json_entries(self):
        """[m, n, re, im] of each amplitude above 1e-15, as Python numbers."""
        return [[*divmod(i, self.d), a.real, a.imag]
                for i, a in enumerate(self.amps.tolist()) if abs(a) > 1e-15]

    @classmethod
    def from_json_entries(cls, d: int, entries) -> "QuditState":
        amps = np.zeros(d * d, dtype=complex)
        for m, n, re, im in entries:
            amps[int(m) * d + int(n)] = complex(re, im)
        return cls(d, amps)


def cpf_oracle(d: int) -> np.ndarray:
    """Controlled phase-flip on two d-level systems.

    Diagonal unitary: identity except the |d-1, d-1> amplitude, which flips
    sign.  At d=2 this is the controlled-Z gate.
    """
    if d < 2:
        raise InvalidDimension(f"d={d} below 2")
    diag = np.ones(d * d, dtype=complex)
    diag[-1] = -1.0
    return np.diag(diag)


@dataclass(frozen=True)
class IdealHdBeamSplitter:
    """Two-port routing: |d-1> crosses (A->D, B->C), all else stays (A->C, B->D)."""

    d: int

    def __post_init__(self):
        if self.d < 2:
            raise InvalidDimension(f"d={self.d} below 2")

    def route(self, port: str, level: int) -> str:
        if port not in ("A", "B"):
            raise ValueError(f"input port {port!r}")
        top = level == self.d - 1
        if port == "A":
            return "D" if top else "C"
        return "C" if top else "D"


def subspace_hadamard(p: int, d: int) -> np.ndarray:
    """Hadamard on span{|p>, |d-1>}, identity elsewhere."""
    if d < 2:
        raise InvalidDimension(f"d={d} below 2")
    if not 0 <= p < d - 1:
        raise InvalidSubspace(f"p={p} not in [0, {d - 1})")
    h = np.eye(d, dtype=complex)
    s = 1.0 / math.sqrt(2.0)
    top = d - 1
    h[p, p] = s
    h[p, top] = s
    h[top, p] = s
    h[top, top] = -s
    return h


# Correction pairs correction_factors keeps, the least recently used dropped
# first: room for the four outcomes at several dimensions.
CORRECTION_CACHE_SIZE = 32


@functools.lru_cache(maxsize=CORRECTION_CACHE_SIZE)
def correction_factors(outcome: BellOutcome, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Local corrections (on system 1, on system 4) for one Bell outcome.

    Built once per (outcome, d), up to :data:`CORRECTION_CACHE_SIZE` pairs,
    and shared by later calls, so both factors are read-only.
    """
    flip = np.eye(d, dtype=complex)
    flip[d - 1, d - 1] = -1.0
    flip.setflags(write=False)
    eye = np.eye(d, dtype=complex)
    eye.setflags(write=False)
    return {
        BellOutcome.PhiPlus: (eye, eye),
        BellOutcome.PhiMinus: (flip, eye),
        BellOutcome.PsiPlus: (eye, flip),
        BellOutcome.PsiMinus: (flip, flip),
    }[outcome]


def correction_unitary(outcome: BellOutcome, d: int) -> np.ndarray:
    """Joint correction operator on systems 1 and 4, u1 (x) u4.

    The Kronecker product as one broadcast product: the elementwise products
    ``np.kron`` forms, so the same bits, without its per-call overhead.
    """
    u1, u4 = correction_factors(outcome, d)
    return (u1[:, None, :, None] * u4[None, :, None, :]).reshape(d * d, d * d)


def bell_vectors(p: int, d: int) -> dict:
    """Bell basis of the {|p>, |d-1>} subspace of two qudits."""
    e_p = np.zeros(d, dtype=complex)
    e_p[p] = 1.0
    e_t = np.zeros(d, dtype=complex)
    e_t[d - 1] = 1.0
    s = 1.0 / math.sqrt(2.0)
    return {
        BellOutcome.PhiPlus: s * (np.kron(e_p, e_p) + np.kron(e_t, e_t)),
        BellOutcome.PhiMinus: s * (np.kron(e_p, e_p) - np.kron(e_t, e_t)),
        BellOutcome.PsiPlus: s * (np.kron(e_p, e_t) + np.kron(e_t, e_p)),
        BellOutcome.PsiMinus: s * (np.kron(e_p, e_t) - np.kron(e_t, e_p)),
    }


def run_protocol(psi: QuditState, p: int) -> dict:
    """Run the heralded protocol; map each Bell outcome to its heralded state.

    The auxiliaries occupy the two-level subspace {|p>, |d-1>}, 0 <= p < d-1.
    Simulates routing of the four labelled photons through the two ideal
    beam splitters, post-selects one photon per output port (relabelling the
    swapped cases by exit port), applies the two-level Hadamard to system 3,
    projects systems 2 and 3 onto each Bell outcome, and applies the local
    correction.  Returns {outcome: (QuditState, joint probability)}.
    """
    psi.require_normalized()
    d = psi.d
    h3 = subspace_hadamard(p, d)        # refuses p outside [0, d - 1)
    top = d - 1
    c = psi.matrix()

    # Post-selected four-photon tensor, systems ordered (1, 2, 3, 4) and
    # relabelled by exit port.  Each kept branch carries the 1/2 amplitude of
    # the two auxiliary superpositions; discarded branches (two photons in
    # one port) account for the remaining 3/4 of the probability.
    out = np.zeros((d, d, d, d), dtype=complex)
    bs = IdealHdBeamSplitter(d)
    for m in range(d):
        for n in range(d):
            amp = c[m, n]
            if amp == 0:
                continue
            for a2 in (p, top):          # auxiliary 2 branch
                for a3 in (p, top):      # auxiliary 3 branch
                    val = amp * 0.5
                    # splitter 1 holds photons (1, 2); keep one per port
                    p1, p2 = bs.route("A", m), bs.route("B", a2)
                    if p1 == p2:
                        continue
                    s1, s2 = (m, a2) if p1 == "C" else (a2, m)
                    # splitter 2 holds photons (4, 3)
                    p4, p3 = bs.route("A", n), bs.route("B", a3)
                    if p4 == p3:
                        continue
                    s4, s3 = (n, a3) if p4 == "C" else (a3, n)
                    out[s1, s2, s3, s4] += val

    out = np.einsum("ab,mnbq->mnaq", h3, out)

    results = {}
    for outcome, vec in bell_vectors(p, d).items():
        bell = vec.reshape(d, d)
        heralded = np.einsum("ab,mabn->mn", bell.conj(), out)
        prob = float(np.sum(np.abs(heralded) ** 2))
        u1, u4 = correction_factors(outcome, d)
        corrected = u1 @ heralded @ u4.T
        if prob > 0:
            corrected = corrected / math.sqrt(prob)
        results[outcome] = (QuditState.from_matrix(corrected), prob)
    return results


def heralding_probability(results: dict, accepted) -> float:
    """Total success probability over an accepted set of Bell outcomes."""
    return float(sum(results[o][1] for o in accepted))
