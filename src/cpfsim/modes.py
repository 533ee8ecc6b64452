"""Truncated optical mode space and single-photon states/transforms.

One optical mode is a (path, polarization, OAM index) triple.  A
:class:`ModeSpace` enumerates all modes for a fixed set of path labels and a
truncation bound L on the azimuthal index, and provides the dense index used
by every matrix and state vector in the package.

Two things are kept across transforms: the dense mode indices of each
truncation and run of path positions, read-only, so that they do not depend
on the path names; and on a block that is placed on other paths
(:meth:`ModeTransform.placed`), its sparse columns in block-local rows, which
each placement only re-indexes.  The identities :meth:`ModeTransform.check`
compares against are not kept: it subtracts 1 from the diagonal of each
fresh Gram matrix instead, because an identity kept per size would stay
resident at the size of the largest composed check (the gate's pipeline
checks blocks of up to 288 modes).
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .conventions import NORM_TOL, PRUNE_TOL, UNITARY_TOL
from .errors import ConventionError, SpaceMismatch, TruncationOverflow

POLS = ("H", "V")


@dataclass(frozen=True, order=True)
class Mode:
    """One optical mode: (path label, polarization, azimuthal index)."""

    path: str
    pol: str
    oam: int

    def __str__(self):
        return f"{self.path}:{self.pol}:{self.oam:+d}"


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


def _mode_indices(space: ModeSpace, paths: tuple) -> np.ndarray:
    """The dense indices of the modes of ``paths``, read-only; SpaceMismatch
    unless ``paths`` are paths of ``space`` in its order."""
    at = tuple(space._path_index.get(p, -1) for p in paths)
    if any(a >= b for a, b in zip((-1, *at), at)):
        raise SpaceMismatch(f"paths {paths} are not the space's, in its order")
    return _indices_at(space.truncation, at)


# (truncation, path positions) pairs whose mode indices _indices_at keeps, the
# least recently used dropped first.  The benchmark's circuit decks (seeds 1,
# 2 and 7919) bind 50 pairs each, the gate deck 19.  An element binds at most
# four paths: 64 four-path entries at the largest truncation (63) hold
# 0.54 MB (tracemalloc).
MODE_INDEX_CACHE_SIZE = 64


@functools.lru_cache(maxsize=MODE_INDEX_CACHE_SIZE)
def _indices_at(truncation: int, at: tuple) -> np.ndarray:
    n = 2 * (2 * truncation + 1)
    modes = np.concatenate([np.arange(a * n, a * n + n) for a in at])
    modes.setflags(write=False)
    return modes


class SinglePhotonState:
    """Complex amplitude vector over a ModeSpace."""

    def __init__(self, space: ModeSpace, amps, normalized: bool = True):
        amps = np.asarray(amps, dtype=complex)
        if amps.shape != (space.dim,):
            raise SpaceMismatch(
                f"amplitude vector of length {amps.shape} on space of dim {space.dim}"
            )
        if normalized and not abs(np.vdot(amps, amps).real - 1.0) <= NORM_TOL:
            raise ValueError("state flagged normalized but norm^2 != 1")
        self.space = space
        self.amps = amps
        self.normalized = normalized

    @classmethod
    def from_terms(cls, space: ModeSpace, terms: Mapping[Mode, complex]) -> "SinglePhotonState":
        amps = np.zeros(space.dim, dtype=complex)
        for mode, amp in terms.items():
            amps[space.index(mode)] += amp
        norm_ok = abs(np.vdot(amps, amps).real - 1.0) <= NORM_TOL
        return cls(space, amps, normalized=norm_ok)

    def terms(self, tol: float = PRUNE_TOL):
        """Nonzero (Mode, amplitude) pairs."""
        for i in np.flatnonzero(np.abs(self.amps) > tol):
            yield self.space.mode(int(i)), complex(self.amps[i])

    def __repr__(self):
        parts = ", ".join(f"{m}: {a:.4g}" for m, a in self.terms(1e-9))
        return f"SinglePhotonState({parts})"


@dataclass
class ModeTransform:
    """Unitary ``block`` on the modes of ``paths`` (listed in the space's
    order, modes indexed as in the space) and the identity on every other
    path, checked when built.  The block is read-only: one transform may be
    shared by many runs (:func:`cpfsim.elements.element_transform`).

    ``overflow`` lists input mode indices (of the space, each a mode of
    ``paths``) whose image would leave the truncation window; applying the
    transform to a state with support there raises
    :class:`TruncationOverflow`.  Only the other columns need be
    orthonormal.  Every optic of the setup is unitary; the preparation
    polarizer, the one projector, is a plain matrix
    (:func:`cpfsim.elements.polarizer`).
    """

    space: ModeSpace
    paths: tuple
    block: np.ndarray
    provenance: str = ""
    overflow: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        self._bind()
        if self.overflow and not self.overflow <= frozenset(self._modes.tolist()):
            raise SpaceMismatch(f"overflow modes {sorted(self.overflow)} are not all "
                                f"modes of paths {self.paths}")
        self.check()

    def _bind(self):
        """Index the block's modes in the space, after checking its paths."""
        self.paths = tuple(self.paths)
        self.block = np.asarray(self.block, dtype=complex)
        self.block.setflags(write=False)
        self._modes = _mode_indices(self.space, self.paths)
        if self.block.shape != (self._modes.size,) * 2:
            raise SpaceMismatch("block shape does not match its paths")
        self._columns_cache = None
        self._local = None

    def placed(self, space: ModeSpace, paths, provenance: str) -> "ModeTransform":
        """The same block on ``paths`` of ``space`` (in its order), each path
        standing in for the one at the same rank in ``self.paths``; overflow
        moves with its path.  Not checked again: the block is read-only and
        was checked when built, and unitarity does not depend on which paths
        the block sits on.  This block keeps its sparse columns in
        block-local rows, which every placement shares and re-indexes."""
        if self._local is None:
            self._local = self._local_columns()
        t = copy.copy(self)
        t.space, t.paths, t.provenance = space, paths, provenance
        t._bind()
        t._local = self._local
        if self.overflow:
            t.overflow = frozenset(t._modes[self._overflow_at()].tolist())
        return t

    def _overflow_at(self) -> np.ndarray:
        """Block positions of the overflow modes (``_modes`` is ascending)."""
        return np.searchsorted(self._modes, sorted(self.overflow))

    def check(self):
        """Verify unitarity on the non-overflow part of the block:
        orthonormal kept columns, max |B^+ B - 1| <= UNITARY_TOL, and
        B B^+ = 1 as well when nothing overflows.  Each Gram matrix is fresh,
        so 1 is subtracted from its diagonal in place.  The residual tests
        read ``not r <= tol`` so that a NaN entry fails them."""
        b = self.block
        if self.overflow:
            kept = np.ones(len(self._modes), dtype=bool)
            kept[self._overflow_at()] = False
            b = b[:, kept]
        bh = b.conj().T
        # An empty kept block (every column overflows) has nothing to check.
        if b.size and not _residual(bh @ b) <= UNITARY_TOL:
            raise ConventionError(
                f"{self.provenance or 'transform'}: columns not orthonormal"
            )
        if not self.overflow and not _residual(b @ bh) <= UNITARY_TOL:
            raise ConventionError(f"{self.provenance or 'transform'}: not unitary")

    def _local_columns(self) -> tuple:
        """(block rows, amplitudes, column ends) of the entries above
        ``PRUNE_TOL``, column by column, rows ascending."""
        ks, rs = np.nonzero(np.abs(self.block.T) > PRUNE_TOL)
        return (rs, self.block[rs, ks].tolist(),
                np.cumsum(np.bincount(ks, minlength=len(self._modes))).tolist())

    def columns(self) -> dict:
        """Sparse columns of the block: ``{mode: (rows, amplitudes)}`` for the
        modes of ``paths`` only, as Python lists of ints and complex numbers,
        rows ascending and entries at or below ``PRUNE_TOL`` dropped.  A mode
        that is not a key maps to itself."""
        if self._columns_cache is None:
            rs, amps, ends = self._local or self._local_columns()
            rows = self._modes[rs].tolist()
            cols, start = {}, 0
            for j, end in zip(self._modes.tolist(), ends):
                cols[j] = (rows[start:end], amps[start:end])
                start = end
            self._columns_cache = cols
        return self._columns_cache


def _residual(gram: np.ndarray) -> float:
    """max |gram - 1| of a fresh square Gram matrix, which it overwrites."""
    gram.flat[::gram.shape[0] + 1] -= 1
    return np.abs(gram).max()


def compose_transforms(sequence: list[ModeTransform]) -> ModeTransform:
    """Compose transforms in application order (first element acts first),
    as a block on the union of their paths, checked like every transform."""
    if not sequence:
        raise ValueError("empty composition")
    space = sequence[0].space
    for t in sequence:
        if t.space != space:
            raise SpaceMismatch("composition across different mode spaces")
    touched = {p for t in sequence for p in t.paths}
    paths = tuple(p for p in space.paths if p in touched)
    modes = _mode_indices(space, paths)
    overflow: set[int] = set()
    prefix = np.eye(len(modes), dtype=complex)
    for t in sequence:
        rows = np.searchsorted(modes, t._modes)     # both ascending
        if t.overflow:
            bad = np.searchsorted(modes, sorted(t.overflow))
            hit = np.flatnonzero(np.max(np.abs(prefix[bad, :]), axis=0) > PRUNE_TOL)
            overflow.update(int(modes[k]) for k in hit)
        prefix[rows, :] = t.block @ prefix[rows, :]
    provenance = " . ".join(t.provenance for t in reversed(sequence) if t.provenance)
    return ModeTransform(space, paths, prefix, provenance, frozenset(overflow))


def apply_to_single_photon(t: ModeTransform, s: SinglePhotonState) -> SinglePhotonState:
    """Apply a transform to a single-photon state; amplitudes at or below
    ``PRUNE_TOL`` are zeroed.  The transform is unitary, so the state keeps
    its ``normalized`` flag."""
    if t.space != s.space:
        raise SpaceMismatch("transform and state on different spaces")
    for j in t.overflow:
        if abs(s.amps[j]) > PRUNE_TOL:
            raise TruncationOverflow(
                f"input has amplitude on {s.space.mode(j)} whose image leaves the window"
            )
    out = s.amps.copy()
    out[t._modes] = t.block @ s.amps[t._modes]
    out[np.abs(out) <= PRUNE_TOL] = 0.0
    return SinglePhotonState(s.space, out, normalized=s.normalized)
