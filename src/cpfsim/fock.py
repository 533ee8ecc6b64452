"""Sparse multi-photon bosonic states: evolution, post-selection, sampling.

States are stored as a sparse map from occupation configurations to complex
amplitudes.  A configuration is a sorted tuple of dense mode indices, one
entry per photon; amplitudes are coefficients in the orthonormal Fock basis,
so the sqrt(k!) factors of k-fold occupied modes live in the basis convention
and the stored vector has unit norm when the state is normalized.

Evolution substitutes each creation operator by the transform's columns,
a_j+ -> sum_k M[k, j] a_k+, expanding photon by photon into a running map
keyed by partially built sorted configurations.  Merging partial keys as we
go keeps the branch count bounded by the number of distinct multisets rather
than the product of column supports; a term whose photons each have a single
image skips the map, for one sorted key and one product.  The columns are
sparse and cover the transform's block only
(:meth:`~cpfsim.modes.ModeTransform.columns`): a photon on any other mode
keeps its mode, times 1.  Amplitudes are Python complex numbers throughout;
every product and sum is the one numpy's complex scalars give, and the two
divisions by a real number follow numpy's rule (:func:`_divide`), so results
are bitwise those of numpy scalar arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Mapping, Sequence

import numpy as np

from .conventions import NORM_TOL, PRUNE_TOL
from .errors import (
    BasisIncomplete,
    EmptyPostSelection,
    SpaceMismatch,
    TruncationOverflow,
)
from .modes import Mode, ModeSpace, ModeTransform, SinglePhotonState

_IDENTITY_AMPS = (1.0 + 0.0j,)    # the column of a mode outside a transform's block


def _sqrt_fact(config: tuple) -> float:
    """sqrt(prod k!) over the occupation numbers k of a sorted configuration."""
    if len(set(config)) == len(config):
        return 1.0
    out = 1.0
    run = 1
    for i in range(1, len(config) + 1):
        if i < len(config) and config[i] == config[i - 1]:
            run += 1
        else:
            out *= math.factorial(run)
            run = 1
    return math.sqrt(out)


def _divide(a: complex, x: float) -> complex:
    """``a / x`` as numpy divides a complex128 by a real: times the reciprocal
    of ``x``, with numpy's cross terms (they fix the signs of zero parts).
    Python's ``/`` rounds differently in the last bit for about one amplitude
    in four, and those bits reach seeded shot tallies: the multinomial
    sampler branches on exact probabilities."""
    r = 1.0 / x
    re, im = a.real, a.imag
    return complex((re + im * 0.0) * r, (im - re * 0.0) * r)


def _norm2(amps) -> float:
    """Sum of |a|^2, added left to right."""
    total = 0.0
    for a in amps:
        total += abs(a) ** 2
    return total


def _expand(base: complex, factors) -> dict:
    """Expand ``base`` times a product of creation operators, one photon at a
    time, into sorted configurations.  ``factors`` holds one (mode indices,
    amplitudes) pair of sequences per photon."""
    branches: dict[tuple, complex] = {(): base}
    for rows, amps in factors:
        new: dict[tuple, complex] = {}
        get = new.get
        for partial, pamp in branches.items():
            for k, a in zip(rows, amps):
                lo = bisect_left(partial, k)
                key = partial[:lo] + (k,) + partial[lo:]
                v = get(key)
                new[key] = pamp * a if v is None else v + pamp * a
        branches = new
    return branches


class MultiPhotonState:
    """Sparse n-photon state over a ModeSpace."""

    def __init__(self, space: ModeSpace, n: int, terms: Mapping[tuple, complex],
                 normalized: bool | None = None):
        for cfg in terms:
            if len(cfg) != n:
                raise ValueError(f"config {cfg} does not hold {n} photons")
        self.space = space
        self.n = n
        self.terms = dict(terms)
        if normalized is None:
            normalized = abs(self.norm2() - 1.0) <= NORM_TOL
        self.normalized = normalized

    @classmethod
    def _trusted(cls, space: ModeSpace, n: int, terms: dict, normalized: bool):
        """A state over ``terms`` as given: every configuration already holds
        ``n`` photons, and the dict becomes the state's own."""
        state = cls.__new__(cls)
        state.space, state.n, state.terms, state.normalized = space, n, terms, normalized
        return state

    def norm2(self) -> float:
        return _norm2(self.terms.values())

    def normalized_copy(self) -> "MultiPhotonState":
        nrm = math.sqrt(self.norm2())
        if nrm == 0.0:
            raise EmptyPostSelection("cannot normalize the zero state")
        return MultiPhotonState(
            self.space, self.n,
            {c: _divide(a, nrm) for c, a in self.terms.items()}, normalized=True,
        )

    def path_counts(self, cfg: tuple) -> dict:
        counts: dict[str, int] = {}
        for i in cfg:
            p = self.space.mode(i).path
            counts[p] = counts.get(p, 0) + 1
        return counts


def inject_product(photons: Sequence[SinglePhotonState]) -> MultiPhotonState:
    """Symmetrized product of single-photon states, normalized.

    Photons with disjoint supports give the plain product of amplitudes;
    overlapping supports pick up the correct bosonic enhancement factors.
    """
    if not photons:
        raise ValueError("need at least one photon")
    space = photons[0].space
    for ph in photons:
        if ph.space != space:
            raise SpaceMismatch("photons on different mode spaces")
    factors = []
    for ph in photons:
        nz = np.flatnonzero(np.abs(ph.amps) > PRUNE_TOL)
        factors.append((nz.tolist(), ph.amps[nz].tolist()))
    branches = _expand(1.0 + 0.0j, factors)
    terms = {
        cfg: amp * _sqrt_fact(cfg)
        for cfg, amp in branches.items()
        if abs(amp) > PRUNE_TOL
    }
    state = MultiPhotonState(space, len(photons), terms, normalized=None)
    return state.normalized_copy()


def from_joint_amplitudes(
    space: ModeSpace,
    slots: Sequence[Sequence[Mode]],
    tensor: np.ndarray,
) -> MultiPhotonState:
    """Build an n-photon state from a joint amplitude tensor.

    ``slots[i]`` lists the modes available to photon i; ``tensor`` has one
    axis per photon.  Intended for entangled inputs whose photons occupy
    disjoint paths, where no bosonic factors arise.
    """
    tensor = np.asarray(tensor, dtype=complex)
    terms: dict[tuple, complex] = {}
    it = np.nditer(tensor, flags=["multi_index"])
    for amp in it:
        if abs(amp) <= PRUNE_TOL:
            continue
        cfg = tuple(
            sorted(space.index(slots[axis][j]) for axis, j in enumerate(it.multi_index))
        )
        terms[cfg] = terms.get(cfg, 0.0) + complex(amp)
    return MultiPhotonState(space, tensor.ndim, terms, normalized=None)


def apply_transform(t: ModeTransform, s: MultiPhotonState) -> MultiPhotonState:
    """Linear-optical evolution of a multi-photon state."""
    if t.space != s.space:
        raise SpaceMismatch("transform and state on different spaces")
    cols = t.columns()
    if t.overflow:
        for cfg in s.terms:
            for i in cfg:
                if i in t.overflow:
                    raise TruncationOverflow(
                        f"photon in {s.space.mode(i)} would shift out of the window"
                    )
    n = s.n
    out: dict[tuple, complex] = {}
    get = out.get
    for cfg, amp in s.terms.items():
        factors = [cols[m] if m in cols else ((m,), _IDENTITY_AMPS) for m in cfg]
        # An unbunched term is still divided by 1.0, and an unbunched result
        # multiplied by 1.0: complex arithmetic with 1.0 can flip the sign of
        # a zero part, as sqrt(k!) does for bunched ones.
        base = _divide(amp, 1.0 if len(set(cfg)) == n else _sqrt_fact(cfg))
        images = [rows[0] for rows, _ in factors if len(rows) == 1]
        if len(images) == n:
            # one image per photon: one sorted key, the product left to right
            for _, (a,) in factors:
                base = base * a
            key = tuple(sorted(images))
            prev = get(key)
            out[key] = base if prev is None else prev + base
            continue
        for key, v in _expand(base, factors).items():
            prev = get(key)
            out[key] = v if prev is None else prev + v
    terms = {}
    for cfg, v in out.items():
        v = v * (1.0 if len(set(cfg)) == n else _sqrt_fact(cfg))
        if abs(v) > PRUNE_TOL:
            terms[cfg] = v
    return MultiPhotonState._trusted(s.space, n, terms, s.normalized)


def post_select(
    s: MultiPhotonState, required: Mapping[str, int]
) -> tuple[MultiPhotonState, float]:
    """Keep the configurations with ``required[path]`` photons on each listed
    path, other paths, polarizations and OAM values unconstrained; return
    (state, probability)."""
    if any(c < 0 for c in required.values()):
        raise ValueError("photon counts must be non-negative")
    if sum(required.values()) > s.n:
        raise EmptyPostSelection(
            f"pattern needs {sum(required.values())} photons, state holds {s.n}"
        )
    kept: dict[tuple, complex] = {}
    for cfg, amp in s.terms.items():
        counts = s.path_counts(cfg)
        if all(counts.get(path, 0) == c for path, c in required.items()):
            kept[cfg] = amp
    prob = _norm2(kept.values())
    total = s.norm2()
    if total > 0:
        prob = prob / total
    if prob <= 0.0 or not kept:
        raise EmptyPostSelection("no amplitude matches the detection pattern")
    state = MultiPhotonState(s.space, s.n, kept, normalized=False).normalized_copy()
    return state, prob


def _occupied_paths(s: MultiPhotonState) -> dict[str, int]:
    """Common per-path occupation across all terms (requires it be uniform)."""
    ref = None
    for cfg in s.terms:
        counts = s.path_counts(cfg)
        if ref is None:
            ref = counts
        elif counts != ref:
            raise BasisIncomplete(
                "state has varying path occupation; post-select on a pattern first"
            )
    return ref or {}


def _group_vector_index(space, paths, modes_by_path):
    """Dense index of a product |m_1, m_2, ...> over the group's path blocks."""
    block = 2 * (2 * space.truncation + 1)
    idx = 0
    for path in paths:
        local = space.index(modes_by_path[path]) - space.path_indices(path)[0]
        idx = idx * block + local
    return idx


def project_group(
    s: MultiPhotonState, paths: Sequence[str], vector: np.ndarray
) -> tuple[MultiPhotonState, float]:
    """Project the photons on ``paths`` (one per path) onto a joint vector.

    Returns the reduced state on the remaining paths and the outcome
    probability.  ``vector`` lives on the tensor product of the (pol, oam)
    blocks of the listed paths, in listed order.
    """
    occ = _occupied_paths(s)
    for path in paths:
        if occ.get(path, 0) != 1:
            raise BasisIncomplete(f"path {path!r} does not hold exactly one photon")
    paths = tuple(paths)
    reduced: dict[tuple, complex] = {}
    for cfg, amp in s.terms.items():
        group_modes = {}
        rest = []
        for i in cfg:
            mode = s.space.mode(i)
            if mode.path in paths:
                group_modes[mode.path] = mode
            else:
                rest.append(i)
        j = _group_vector_index(s.space, paths, group_modes)
        proj = np.conj(vector[j]) * amp
        if abs(proj) <= PRUNE_TOL:
            continue
        key = tuple(rest)
        reduced[key] = reduced.get(key, 0.0) + proj
    prob = float(sum(abs(a) ** 2 for a in reduced.values()))
    if not reduced or prob <= 0.0:
        return MultiPhotonState(s.space, s.n - len(paths), {}, normalized=False), 0.0
    state = MultiPhotonState(
        s.space, s.n - len(paths), reduced, normalized=False
    ).normalized_copy()
    return state, prob


def group_basis_vector(space: ModeSpace, paths: Sequence[str], terms: Mapping[tuple, complex]) -> np.ndarray:
    """Joint basis vector over path blocks from {(Mode, ...): amplitude}."""
    block = 2 * (2 * space.truncation + 1)
    vec = np.zeros(block ** len(paths), dtype=complex)
    for modes, amp in terms.items():
        by_path = {m.path: m for m in modes}
        vec[_group_vector_index(space, tuple(paths), by_path)] += amp
    return vec


def path_count_distribution(s: MultiPhotonState) -> dict:
    """Probability of each per-path occupation pattern (counts as sorted tuple)."""
    if not s.normalized:
        s = s.normalized_copy()
    dist: dict[tuple, float] = {}
    for cfg, amp in s.terms.items():
        key = tuple(sorted(s.path_counts(cfg).items()))
        dist[key] = dist.get(key, 0.0) + abs(amp) ** 2
    return dist


def sample_counts(dist: Mapping, shots: int, seed: int, experiment_id: int = 0) -> dict:
    """Multinomial draw from an outcome distribution.

    Reproducible: the counter-based generator is keyed by (seed, experiment
    id), so shot batches can run in parallel without coordination.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    keys = sorted(dist.keys(), key=repr)
    if shots == 0 or not keys:
        return {k: 0 for k in keys}
    probs = np.array([max(float(dist[k]), 0.0) for k in keys])
    probs = probs / probs.sum()
    rng = np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF,
                                                    experiment_id & 0xFFFFFFFFFFFFFFFF]))
    counts = rng.multinomial(shots, probs)
    return {k: int(c) for k, c in zip(keys, counts)}
