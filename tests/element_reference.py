"""Reference element builders: every mode of a path mapped one at a time.

Each builder returns a :class:`Dense` pair, the ``space.dim``-square matrix
and the overflow set, built column by column from a per-(polarization, OAM)
map of images, the identity on every other path.  The tests hold the Jones
(x) OAM blocks of :mod:`cpfsim.elements` to these matrices.  :func:`polarizer`,
the one projector, keeps the dense ``np.kron`` build it replaced.  :func:`compose`
is the dense product with overflow tracking, :func:`dense_matrix` the dense
view of a transform, and :func:`phase_align` lines a result up with its
expectation up to a global phase.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from cpfsim import conventions as conv
from cpfsim.elements import hwp_matrix, qwp_matrix
from cpfsim.modes import POLS, Mode

OVERFLOW = object()  # sentinel: image of a mode leaves the truncation window


class Dense(NamedTuple):
    matrix: np.ndarray
    overflow: frozenset


def dense_matrix(t) -> np.ndarray:
    """The ``space.dim``-square matrix of a :class:`cpfsim.modes.ModeTransform`:
    its block on the modes of its paths, the identity on every other path."""
    modes = np.concatenate([t.space.path_indices(p) for p in t.paths])
    m = np.eye(t.space.dim, dtype=complex)
    m[np.ix_(modes, modes)] = t.block
    return m


def _single_path(space, path, fn) -> Dense:
    """Identity everywhere but ``path``, where ``fn(pol, oam)`` gives the
    column's images as (pol', oam', amplitude) or OVERFLOW."""
    m = np.eye(space.dim, dtype=complex)
    overflow = set()
    for j in space.path_indices(path):
        mode = space.mode(int(j))
        images = fn(mode.pol, mode.oam)
        m[:, j] = 0.0
        if images is OVERFLOW:
            overflow.add(int(j))
            continue
        for pol2, oam2, amp in images:
            m[space.index(Mode(path, pol2, oam2)), j] += amp
    return Dense(m, frozenset(overflow))


def _pol_matrix_element(space, path, pol_matrix) -> Dense:
    def fn(pol, oam):
        col = pol_matrix[:, POLS.index(pol)]
        return [(POLS[i], oam, col[i]) for i in range(2) if abs(col[i]) > 0]

    return _single_path(space, path, fn)


def hwp(space, path, angle):
    return _pol_matrix_element(space, path, hwp_matrix(angle))


def qwp(space, path, angle):
    return _pol_matrix_element(space, path, qwp_matrix(angle))


_R = np.array([1.0, 1j]) / math.sqrt(2)
_L = np.array([1.0, -1j]) / math.sqrt(2)


def qplate(space, path, q):
    shift = int(round(2 * q))
    lim = space.truncation

    def fn(pol, oam):
        e = np.zeros(2, dtype=complex)
        e[POLS.index(pol)] = 1.0
        images = []
        for amp, out_vec, new_oam in ((np.vdot(_R, e), _L, oam + shift),
                                      (np.vdot(_L, e), _R, oam - shift)):
            if abs(amp) == 0:
                continue
            if abs(new_oam) > lim:
                return OVERFLOW
            for i in range(2):
                a = amp * out_vec[i]
                if abs(a) > 0:
                    images.append((POLS[i], new_oam, a))
        return images

    return _single_path(space, path, fn)


def spp(space, path, dl):
    dl = int(round(dl))
    lim = space.truncation
    return _single_path(space, path, lambda pol, oam: OVERFLOW if abs(oam + dl) > lim
                        else [(pol, oam + dl, 1.0)])


def dove_prism(space, path, angle):
    return _single_path(space, path, lambda pol, oam: [
        (pol, -oam, 1j * np.exp(2j * angle * oam))])


def mirror(space, path):
    return _single_path(space, path, lambda pol, oam: [(pol, -oam, conv.MIRROR_PHASE)])


def phase_plate(space, path, phase=conv.PHASE_PLATE_DEFAULT):
    return _single_path(space, path, lambda pol, oam: [(pol, oam, np.exp(1j * phase))])


def delay_line(space, path):
    return _single_path(space, path, lambda pol, oam: [(pol, oam, 1.0)])


path_phase = phase_plate


def oam_phase(space, path, phases):
    return _single_path(space, path, lambda pol, oam: [
        (pol, oam, np.exp(1j * phases.get(oam, 0.0)))])


def polarizer(space, path, angle) -> np.ndarray:
    """The polarizer as :mod:`cpfsim.elements` built it with ``np.kron`` and
    ``np.ix_``: the Jones projector times the OAM identity written into the
    path's rows and columns of the dense identity."""
    vec = np.array([math.cos(angle), math.sin(angle)], dtype=complex)
    idx = space.path_indices(path)
    m = np.eye(space.dim, dtype=complex)
    m[np.ix_(idx, idx)] = np.kron(np.outer(vec, vec.conj()), np.eye(2 * space.truncation + 1))
    return m


def parity_interferometer(space, path, angle):
    g = conv.PARITY_INTERFEROMETER_PHASE

    def fn(pol, oam):
        if pol == "H":
            return [("V", -oam, g * 1j * np.exp(2j * angle * oam))]
        return [("H", -oam, g * 1j * np.exp(-2j * angle * oam))]

    return _single_path(space, path, fn)


def pbs(space, in_ports, out_ports):
    a, b = in_ports
    c, d = out_ports
    involved = list(dict.fromkeys(p for p in (a, b, c, d) if p is not None))
    m = np.eye(space.dim, dtype=complex)
    for p in involved:
        m[:, space.path_indices(p)] = 0.0
    used_rows, defined_cols = set(), set()
    r = conv.PBS_REFLECT_PHASE

    def wire(src, pol, dst, amp, flip):
        for j in space.path_indices(src):
            mode = space.mode(int(j))
            if mode.pol != pol:
                continue
            i = space.index(Mode(dst, pol, -mode.oam if flip else mode.oam))
            m[i, j] = amp
            used_rows.add(i)
            defined_cols.add(int(j))

    for src, t_dst, r_dst in ((a, c, d), (b, d, c)):
        if src is None:
            continue
        wire(src, "H", t_dst, 1.0, flip=False)
        wire(src, "V", r_dst, r, flip=True)
    free_cols = [int(j) for p in involved for j in space.path_indices(p)
                 if int(j) not in defined_cols]
    by_mode = {}
    for p in involved:
        for i in space.path_indices(p):
            if int(i) not in used_rows:
                mode = space.mode(int(i))
                by_mode.setdefault((mode.pol, mode.oam), []).append(int(i))
    for j in free_cols:
        mode = space.mode(j)
        i = (by_mode.get((mode.pol, mode.oam)) or by_mode.get((mode.pol, -mode.oam))).pop(0)
        m[i, j] = 1.0 if space.mode(i).oam == mode.oam else r
    return Dense(m, frozenset())


def compose(sequence) -> Dense:
    """Dense product in application order; an input column overflows when
    the product before some element reaches one of its overflow columns."""
    prefix = np.eye(sequence[0].matrix.shape[0], dtype=complex)
    overflow = set()
    for m, bad in sequence:
        if bad:
            rows = np.array(sorted(bad), dtype=int)
            hit = np.flatnonzero(np.max(np.abs(prefix[rows, :]), axis=0) > conv.PRUNE_TOL)
            overflow.update(int(j) for j in hit)
        prefix = m @ prefix
    return Dense(prefix, frozenset(overflow))


def o1_cnot(space, path):
    return compose([hwp(space, path, math.pi / 8),
                    parity_interferometer(space, path, math.pi / 4),
                    hwp(space, path, math.pi / 8)])


def o2_cnot(space, path):
    return compose([hwp(space, path, math.pi / 8),
                    parity_interferometer(space, path, math.pi / 8),
                    qwp(space, path, math.pi / 4)])


def phase_align(candidate: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Multiply ``candidate`` by the unit phase that best matches ``reference``.

    The phase is taken from the overlap component of largest magnitude, so
    physically equal rays compare elementwise after alignment.
    """
    ov = np.vdot(candidate, reference)
    if abs(ov) < 1e-14:
        return candidate
    return candidate * (ov / abs(ov))
