import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfsim.conventions import UNITARY_TOL
from cpfsim.errors import ConventionError, SpaceMismatch, TruncationOverflow
from cpfsim.modes import (
    Mode,
    ModeSpace,
    ModeTransform,
    SinglePhotonState,
    apply_to_single_photon,
    compose_transforms,
)

from element_reference import dense_matrix, phase_align, unitarity_holds


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
    assert ok.normalized and abs(np.vdot(ok.amps, ok.amps) - 1) < 1e-12
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


def _accepts(space, paths, block, overflow) -> bool:
    try:
        ModeTransform(space, paths, block, "t", overflow)
    except ConventionError:
        return False
    return True


@pytest.fixture(autouse=True)
def _quiet_nan():
    """NaN and infinite entries make matmul warn; the tests want its result."""
    with np.errstate(invalid="ignore", over="ignore"):
        yield


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_check_refuses_what_the_eye_residual_refuses(data):
    """``check()`` accepts a block exactly when the residuals against
    ``np.eye`` are within ``UNITARY_TOL``: random unitaries on one or two
    paths of a space, scaled so that a residual lands within a few percent
    of the tolerance or perturbed at one entry by about the tolerance, a
    NaN or infinite entry, and any set of overflow columns."""
    space = ModeSpace(("A", "B", "C"), data.draw(st.integers(0, 2)))
    paths = tuple(data.draw(st.sets(st.sampled_from(space.paths), min_size=1, max_size=2)))
    paths = tuple(p for p in space.paths if p in paths)
    modes = np.concatenate([space.path_indices(p) for p in paths]).tolist()
    n = len(modes)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    block = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    how = data.draw(st.sampled_from(["exact", "scale", "skew", "entry", "nan", "inf"]))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if how == "scale":      # |B^+ B - 1| is about 2 eps on the diagonal
        block = block * (1 + 0.5 * UNITARY_TOL * data.draw(st.floats(0.9, 1.1)))
    elif how == "skew":     # row i stretched: B B^+ - 1 is eps at (i, i) only,
        # B^+ B - 1 is eps times an outer product of a spread unit vector
        block[i] *= np.sqrt(1 + UNITARY_TOL * data.draw(st.floats(0.5, n)))
    elif how == "entry":
        block[i, j] += UNITARY_TOL * data.draw(st.floats(0.1, 10)) * data.draw(
            st.sampled_from([1, -1, 1j, -1j]))
    elif how in ("nan", "inf"):
        block[i, j] = complex(np.nan if how == "nan" else np.inf, 0.0)
    overflow = frozenset(data.draw(st.sets(st.sampled_from(modes), max_size=n)))
    assert _accepts(space, paths, block, overflow) == unitarity_holds(block, modes, overflow)


@pytest.mark.parametrize("entry,overflow,accepted", [
    (np.nan, frozenset(), False),       # a NaN residual fails
    (np.nan, frozenset({0}), True),     # in an overflow column, it is not checked
    (np.nan, frozenset({1}), False),
    (2.0, frozenset({0, 1}), True),     # every column overflows: nothing to check
    (2.0, frozenset(), False),
    (1.5, frozenset(), False),          # B^+ B passes, B B^+ does not
])
def test_check_overflow_and_nan(entry, overflow, accepted):
    """On a one-mode-per-column identity, a bad entry in column 0 fails the
    check unless that column overflows.  Entry 1.5 stretches row 0 of a
    Hadamard by 1.5 UNITARY_TOL in squared norm: the columns stay
    orthonormal within the tolerance (0.75 of it), the rows do not."""
    space = ModeSpace(("A",), 0)
    block = np.eye(2, dtype=complex)
    block[0, 0] = entry
    if entry == 1.5:
        block = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        block[0] *= np.sqrt(1 + 1.5 * UNITARY_TOL)
    assert unitarity_holds(block, [0, 1], overflow) == accepted
    assert _accepts(space, ("A",), block, overflow) == accepted


@pytest.mark.parametrize("overflow", [{0}, {1, 2}, {99}, {-1}])
def test_overflow_outside_the_block_is_refused(overflow):
    """Overflow names modes of the block's own paths: a mode of another
    path, or of no path, is refused rather than left out of the check."""
    space = ModeSpace(("A", "B"), 0)
    with pytest.raises(SpaceMismatch):
        ModeTransform(space, ("B",), np.eye(2), "t", frozenset(overflow))
    ModeTransform(space, ("B",), np.eye(2), "t", frozenset({2, 3}))


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
    assert np.allclose(dense_matrix(out), np.eye(sp.dim))


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
    assert abs(np.vdot(out.amps, out.amps) - 1.0) < 1e-12
    assert out.normalized


def test_phase_align():
    v = np.array([1.0, 1j]) / np.sqrt(2)
    rotated = np.exp(0.7j) * v
    aligned = phase_align(rotated, v)
    assert np.allclose(aligned, v)
