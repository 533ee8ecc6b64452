"""Truncated optical mode space and single-photon states/transforms.

One optical mode is a (path, polarization, OAM index) triple.  A
:class:`ModeSpace` enumerates all modes for a fixed set of path labels and a
truncation bound L on the azimuthal index, and provides the dense index used
by every matrix and state vector in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .conventions import NORM_TOL, PRUNE_TOL, UNITARY_TOL
from .errors import ConventionError, SpaceMismatch, TruncationOverflow

POLS = ("H", "V")

KIND_UNITARY = "unitary"
KIND_PROJECTOR = "projector"


@dataclass(frozen=True, order=True)
class Mode:
    """One optical mode: (path label, polarization, azimuthal index)."""

    path: str
    pol: str
    oam: int

    def __str__(self):
        return f"{self.path}:{self.pol}:{self.oam:+d}"

    @classmethod
    def parse(cls, text: str) -> "Mode":
        path, pol, oam = text.split(":")
        return cls(path, pol, int(oam))


class ModeSpace:
    """Dense index over paths x {H, V} x [-L, L].

    The index is path-major, then polarization, then OAM from -L to +L.
    """

    def __init__(self, paths: Iterable[str], truncation: int):
        paths = tuple(paths)
        if len(set(paths)) != len(paths):
            raise ValueError("duplicate path labels")
        if truncation < 0:
            raise ValueError("truncation bound must be non-negative")
        self.paths = paths
        self.truncation = int(truncation)
        self._path_index = {p: i for i, p in enumerate(paths)}
        self._oam_count = 2 * self.truncation + 1
        self.dim = len(paths) * 2 * self._oam_count

    def __eq__(self, other):
        return (
            isinstance(other, ModeSpace)
            and self.paths == other.paths
            and self.truncation == other.truncation
        )

    def __hash__(self):
        return hash((self.paths, self.truncation))

    def __repr__(self):
        return f"ModeSpace(paths={self.paths!r}, truncation={self.truncation})"

    def index(self, mode: Mode) -> int:
        if abs(mode.oam) > self.truncation:
            raise TruncationOverflow(f"{mode} outside |l| <= {self.truncation}")
        try:
            p = self._path_index[mode.path]
        except KeyError:
            raise SpaceMismatch(f"unknown path {mode.path!r}") from None
        s = POLS.index(mode.pol)
        return (p * 2 + s) * self._oam_count + (mode.oam + self.truncation)

    def mode(self, idx: int) -> Mode:
        p, rest = divmod(idx, 2 * self._oam_count)
        s, o = divmod(rest, self._oam_count)
        return Mode(self.paths[p], POLS[s], o - self.truncation)

    def path_indices(self, path: str) -> np.ndarray:
        """All dense indices living on one path."""
        base = self._path_index[path] * 2 * self._oam_count
        return np.arange(base, base + 2 * self._oam_count)


class SinglePhotonState:
    """Complex amplitude vector over a ModeSpace."""

    def __init__(self, space: ModeSpace, amps, normalized: bool = True):
        amps = np.asarray(amps, dtype=complex)
        if amps.shape != (space.dim,):
            raise SpaceMismatch(
                f"amplitude vector of length {amps.shape} on space of dim {space.dim}"
            )
        if normalized and abs(np.vdot(amps, amps).real - 1.0) > NORM_TOL:
            raise ValueError("state flagged normalized but norm^2 != 1")
        self.space = space
        self.amps = amps
        self.normalized = normalized

    @classmethod
    def from_terms(
        cls,
        space: ModeSpace,
        terms: Mapping[Mode, complex],
        normalize: bool = False,
    ) -> "SinglePhotonState":
        amps = np.zeros(space.dim, dtype=complex)
        for mode, amp in terms.items():
            amps[space.index(mode)] += amp
        if normalize:
            amps = amps / np.linalg.norm(amps)
        norm_ok = abs(np.vdot(amps, amps).real - 1.0) <= NORM_TOL
        return cls(space, amps, normalized=norm_ok)

    def norm2(self) -> float:
        """Squared norm; after a projector this is the survival probability."""
        return float(np.vdot(self.amps, self.amps).real)

    def overlap(self, other: "SinglePhotonState") -> complex:
        if self.space != other.space:
            raise SpaceMismatch("overlap of states on different spaces")
        return complex(np.vdot(other.amps, self.amps))

    def terms(self, tol: float = PRUNE_TOL):
        """Nonzero (Mode, amplitude) pairs."""
        for i in np.flatnonzero(np.abs(self.amps) > tol):
            yield self.space.mode(int(i)), complex(self.amps[i])

    def __repr__(self):
        parts = ", ".join(f"{m}: {a:.4g}" for m, a in self.terms(1e-9))
        return f"SinglePhotonState({parts})"


def phase_align(candidate: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Multiply ``candidate`` by the unit phase that best matches ``reference``.

    The phase is taken from the overlap component of largest magnitude, so
    physically equal rays compare elementwise after alignment.
    """
    ov = np.vdot(candidate, reference)
    if abs(ov) < 1e-14:
        return candidate
    return candidate * (ov / abs(ov))


@dataclass
class ModeTransform:
    """Complex matrix on the single-photon mode space.

    ``overflow`` lists input mode indices whose image would leave the
    truncation window; applying the transform to a state with support there
    raises :class:`TruncationOverflow`.
    """

    space: ModeSpace
    matrix: np.ndarray
    kind: str
    provenance: str = ""
    overflow: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.space.dim, self.space.dim):
            raise SpaceMismatch("matrix shape does not match space")
        self._columns_cache = None
        self.check()

    def check(self):
        """Verify the declared kind on the non-overflow block.  The residual
        tests read ``not r <= tol`` so that a NaN entry fails them."""
        keep = np.array(
            [i for i in range(self.space.dim) if i not in self.overflow], dtype=int
        )
        m = self.matrix[:, keep]
        gram = m.conj().T @ m
        eye = np.eye(len(keep))
        if self.kind == KIND_UNITARY:
            # An empty kept block (every column overflows) has nothing to check.
            if keep.size and not np.max(np.abs(gram - eye)) <= UNITARY_TOL:
                raise ConventionError(
                    f"{self.provenance or 'transform'}: columns not orthonormal"
                )
            if not self.overflow:
                gram2 = self.matrix @ self.matrix.conj().T
                if not np.max(np.abs(gram2 - np.eye(self.space.dim))) <= UNITARY_TOL:
                    raise ConventionError(
                        f"{self.provenance or 'transform'}: not unitary"
                    )
        elif self.kind == KIND_PROJECTOR:
            m_full = self.matrix
            if (
                not np.max(np.abs(m_full @ m_full - m_full)) <= UNITARY_TOL
                or not np.max(np.abs(m_full - m_full.conj().T)) <= UNITARY_TOL
            ):
                raise ConventionError(
                    f"{self.provenance or 'transform'}: not a projector"
                )
        else:
            raise ValueError(f"unknown transform kind {self.kind!r}")

    def columns(self):
        """Sparse column view: list of (row indices, amplitudes) per column."""
        if self._columns_cache is None:
            cols = []
            for j in range(self.space.dim):
                rows = np.flatnonzero(np.abs(self.matrix[:, j]) > PRUNE_TOL)
                cols.append((rows, self.matrix[rows, j]))
            self._columns_cache = cols
        return self._columns_cache


def compose_transforms(sequence: list[ModeTransform]) -> ModeTransform:
    """Compose transforms in application order (first element acts first)."""
    if not sequence:
        raise ValueError("empty composition")
    space = sequence[0].space
    overflow: set[int] = set()
    prefix = np.eye(space.dim, dtype=complex)
    kind = KIND_UNITARY
    for t in sequence:
        if t.space != space:
            raise SpaceMismatch("composition across different mode spaces")
        if t.overflow:
            bad_rows = np.array(sorted(t.overflow), dtype=int)
            hit = np.flatnonzero(np.max(np.abs(prefix[bad_rows, :]), axis=0) > PRUNE_TOL)
            overflow.update(int(j) for j in hit)
        prefix = t.matrix @ prefix
        if t.kind == KIND_PROJECTOR:
            kind = KIND_PROJECTOR
    provenance = " . ".join(t.provenance for t in reversed(sequence) if t.provenance)
    return ModeTransform(space, prefix, kind, provenance, frozenset(overflow))


def apply_to_single_photon(t: ModeTransform, s: SinglePhotonState) -> SinglePhotonState:
    """Apply a transform to a single-photon state.

    Unitary transforms preserve the norm; projectors return the raw projected
    vector, whose squared norm is the post-selection probability.
    """
    if t.space != s.space:
        raise SpaceMismatch("transform and state on different spaces")
    for j in t.overflow:
        if abs(s.amps[j]) > PRUNE_TOL:
            raise TruncationOverflow(
                f"input has amplitude on {s.space.mode(j)} whose image leaves the window"
            )
    out = t.matrix @ s.amps
    out[np.abs(out) <= PRUNE_TOL] = 0.0
    normalized = s.normalized and t.kind == KIND_UNITARY
    return SinglePhotonState(s.space, out, normalized=normalized)
