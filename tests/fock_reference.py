"""Reference Fock evolution on numpy arrays and scalars.

The engine as it stood before :mod:`cpfsim.fock` moved to Python scalars and
block-only columns: :func:`columns` lists one (rows, amplitudes) pair of
numpy arrays for every mode of the space, identity columns included, and
:func:`apply_transform`, :func:`inject_product` and :func:`normalized_copy`
compute on numpy scalars.  The tests hold the engine to these functions
term by term: the same configurations in the same order, bitwise-equal
amplitudes and the same :class:`~cpfsim.errors.TruncationOverflow` cases.
:func:`outcome_distribution` is the grouped projective readout, built on
:func:`cpfsim.fock.project_group`, that the gate tests resolve Bell outcomes
with.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from cpfsim.conventions import PRUNE_TOL
from cpfsim.errors import BasisIncomplete, EmptyPostSelection, SpaceMismatch, TruncationOverflow
from cpfsim.fock import MultiPhotonState, _occupied_paths, project_group


def _sqrt_fact(config: tuple) -> float:
    out = 1.0
    run = 1
    for i in range(1, len(config) + 1):
        if i < len(config) and config[i] == config[i - 1]:
            run += 1
        else:
            out *= math.factorial(run)
            run = 1
    return math.sqrt(out)


def _insert_sorted(config: tuple, k: int) -> tuple:
    lo, hi = 0, len(config)
    while lo < hi:
        mid = (lo + hi) // 2
        if config[mid] < k:
            lo = mid + 1
        else:
            hi = mid
    return config[:lo] + (k,) + config[lo:]


def _expand(base: complex, factors) -> dict:
    branches: dict[tuple, complex] = {(): base}
    for rows, amps in factors:
        new: dict[tuple, complex] = {}
        for partial, pamp in branches.items():
            for k, a in zip(rows, amps):
                key = _insert_sorted(partial, int(k))
                v = new.get(key)
                new[key] = pamp * a if v is None else v + pamp * a
        branches = new
    return branches


def columns(t) -> list:
    """Sparse column view over the whole space: (row indices, amplitudes) per
    column, rows ascending, the identity off the block."""
    modes = np.concatenate([t.space.path_indices(p) for p in t.paths])
    cols = [(np.array([j]), np.ones(1, dtype=complex)) for j in range(t.space.dim)]
    for k, j in enumerate(modes):
        rows = np.flatnonzero(np.abs(t.block[:, k]) > PRUNE_TOL)
        cols[j] = (modes[rows], t.block[rows, k])
    return cols


def norm2(s: MultiPhotonState) -> float:
    return float(sum(abs(a) ** 2 for a in s.terms.values()))


def normalized_copy(s: MultiPhotonState) -> MultiPhotonState:
    nrm = math.sqrt(norm2(s))
    if nrm == 0.0:
        raise EmptyPostSelection("cannot normalize the zero state")
    return MultiPhotonState(s.space, s.n, {c: a / nrm for c, a in s.terms.items()},
                            normalized=True)


def inject_product(photons) -> MultiPhotonState:
    space = photons[0].space
    for ph in photons:
        if ph.space != space:
            raise SpaceMismatch("photons on different mode spaces")
    nonzero = [np.flatnonzero(np.abs(ph.amps) > PRUNE_TOL) for ph in photons]
    branches = _expand(1.0 + 0.0j, [(nz, ph.amps[nz]) for nz, ph in zip(nonzero, photons)])
    terms = {
        cfg: amp * _sqrt_fact(cfg)
        for cfg, amp in branches.items()
        if abs(amp) > PRUNE_TOL
    }
    return normalized_copy(MultiPhotonState(space, len(photons), terms, normalized=None))


def apply_transform(t, s: MultiPhotonState) -> MultiPhotonState:
    if t.space != s.space:
        raise SpaceMismatch("transform and state on different spaces")
    cols = columns(t)
    if t.overflow:
        for cfg in s.terms:
            for i in cfg:
                if i in t.overflow:
                    raise TruncationOverflow(
                        f"photon in {s.space.mode(i)} would shift out of the window"
                    )
    out: dict[tuple, complex] = {}
    for cfg, amp in s.terms.items():
        for key, v in _expand(amp / _sqrt_fact(cfg), [cols[m] for m in cfg]).items():
            prev = out.get(key)
            out[key] = v if prev is None else prev + v
    terms = {}
    for cfg, v in out.items():
        v = v * _sqrt_fact(cfg)
        if abs(v) > PRUNE_TOL:
            terms[cfg] = v
    return MultiPhotonState(s.space, s.n, terms, normalized=s.normalized)


def outcome_distribution(s: MultiPhotonState, resolution: Mapping) -> dict:
    """Joint outcome probabilities for a grouped projective readout.

    ``resolution`` maps a tuple of path labels to a list of
    ``(label, joint vector)`` pairs forming an orthonormal basis of the
    occupied subspace of that group.  Every occupied path must appear in
    exactly one group and hold exactly one photon.
    """
    if not s.normalized:
        s = s.normalized_copy()
    occ = _occupied_paths(s)
    groups = [tuple(g) for g in resolution]
    covered = [p for g in groups for p in g]
    if sorted(covered) != sorted(set(covered)):
        raise BasisIncomplete("a path appears in more than one resolution group")
    missing = [p for p, c in occ.items() if c > 0 and p not in covered]
    if missing:
        raise BasisIncomplete(f"paths {missing} are occupied but not resolved")

    dist: dict[tuple, float] = {}

    def recurse(state, remaining, outcome, prob):
        if prob <= 1e-30:
            return
        if not remaining:
            key = outcome if len(outcome) > 1 else outcome[0]
            dist[key] = dist.get(key, 0.0) + prob
            return
        group = remaining[0]
        for label, vector in resolution[group]:
            sub, p = project_group(state, group, vector)
            if p <= 0.0:
                continue
            recurse(sub, remaining[1:], outcome + (label,), prob * p)

    recurse(s, groups, (), 1.0)
    total = sum(dist.values())
    if abs(total - 1.0) > 1e-10:
        raise BasisIncomplete(
            f"resolution captures probability {total:.6f}, not 1; basis incomplete"
        )
    return dist
