import numpy as np
import pytest

from cpfsim.errors import ConventionError, SpaceMismatch, TruncationOverflow
from cpfsim.modes import (
    Mode,
    ModeSpace,
    ModeTransform,
    SinglePhotonState,
    apply_to_single_photon,
    compose_transforms,
)

from element_reference import phase_align


def test_index_bijection_total():
    sp = ModeSpace(("A", "B"), 3)
    assert sp.dim == 2 * 2 * 7
    seen = set()
    for i in range(sp.dim):
        m = sp.mode(i)
        assert sp.index(m) == i
        seen.add((m.path, m.pol, m.oam))
    assert len(seen) == sp.dim


def test_mode_equality_and_parse():
    assert Mode("A", "H", -2) == Mode("A", "H", -2)
    assert str(Mode("C", "H", 0)) == "C:H:+0"


def test_out_of_window_mode_rejected():
    sp = ModeSpace(("A",), 2)
    with pytest.raises(TruncationOverflow):
        sp.index(Mode("A", "H", 3))


def test_unknown_path_rejected():
    sp = ModeSpace(("A",), 2)
    with pytest.raises(SpaceMismatch):
        sp.index(Mode("B", "H", 0))


def test_state_normalization_flag():
    sp = ModeSpace(("A",), 1)
    amps = np.zeros(sp.dim, dtype=complex)
    amps[0] = 0.5
    with pytest.raises(ValueError):
        SinglePhotonState(sp, amps, normalized=True)
    sub = SinglePhotonState.from_terms(sp, {Mode("A", "H", 0): 0.5})
    assert not sub.normalized
    ok = SinglePhotonState.from_terms(sp, {Mode("A", "H", 0): 1.0})
    assert ok.normalized and abs(ok.norm2() - 1) < 1e-12
    # a NaN norm fails the check, as a NaN residual fails ModeTransform.check
    amps[0] = np.nan
    with pytest.raises(ValueError):
        SinglePhotonState(sp, amps, normalized=True)


def test_transform_kind_checks():
    """Every transform is a checked unitary: a scaled identity, a projector
    and a NaN entry are refused."""
    sp = ModeSpace(("A",), 0)
    eye = np.eye(sp.dim)
    ModeTransform(sp, sp.paths, eye)
    with pytest.raises(ConventionError):
        ModeTransform(sp, sp.paths, 2 * eye)
    proj = np.zeros((sp.dim, sp.dim))
    proj[0, 0] = 1.0
    with pytest.raises(ConventionError):
        ModeTransform(sp, sp.paths, proj)
    nan = eye.astype(complex)
    nan[0, 1] = np.nan
    with pytest.raises(ConventionError):
        ModeTransform(sp, sp.paths, nan)


def test_transform_block_is_read_only():
    """Transforms are shared between runs, so none can be written in place,
    composed ones included."""
    sp = ModeSpace(("A", "B"), 1)
    eye = ModeTransform(sp, ("A",), np.eye(6))
    for t in (eye, compose_transforms([eye, eye])):
        with pytest.raises(ValueError):
            t.block[0, 0] = -1.0
        with pytest.raises(ValueError):
            t.block[:] *= 1j
    assert np.array_equal(eye.block, np.eye(6))


def test_compose_identity_and_kind():
    sp = ModeSpace(("A",), 1)
    eye = ModeTransform(sp, sp.paths, np.eye(sp.dim))
    out = compose_transforms([eye, eye])
    assert np.allclose(out.matrix, np.eye(sp.dim))


def test_compose_space_mismatch():
    a = ModeSpace(("A",), 1)
    b = ModeSpace(("B",), 1)
    ta = ModeTransform(a, a.paths, np.eye(a.dim))
    tb = ModeTransform(b, b.paths, np.eye(b.dim))
    with pytest.raises(SpaceMismatch):
        compose_transforms([ta, tb])


def test_apply_preserves_norm_and_prunes(rng):
    sp = ModeSpace(("A",), 2)
    mat = np.linalg.qr(rng.normal(size=(sp.dim, sp.dim))
                       + 1j * rng.normal(size=(sp.dim, sp.dim)))[0]
    t = ModeTransform(sp, sp.paths, mat)
    amps = rng.normal(size=sp.dim) + 1j * rng.normal(size=sp.dim)
    s = SinglePhotonState(sp, amps / np.linalg.norm(amps))
    out = apply_to_single_photon(t, s)
    assert abs(out.norm2() - 1.0) < 1e-12
    assert out.normalized


def test_phase_align():
    v = np.array([1.0, 1j]) / np.sqrt(2)
    rotated = np.exp(0.7j) * v
    aligned = phase_align(rotated, v)
    assert np.allclose(aligned, v)
