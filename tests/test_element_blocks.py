"""Path-local element blocks against the mode-by-mode reference builders
(``element_reference``): every primitive's dense view and overflow set are
bitwise equal, composites agree to 1e-15, and so do random compositions.
The polarizer's broadcast build is bitwise its ``np.kron`` reference."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import element_reference as ref
from cpfsim import elements as el
from cpfsim.elements import CATALOGUE
from cpfsim.modes import ModeSpace, compose_transforms

KINDS = sorted(CATALOGUE) + ["OAMPHASE"]
COMPOSITES = ("o1_cnot", "o2_cnot")
_ANGLE = st.floats(-10, 10)


@st.composite
def spaces(draw, max_truncation=6):
    n = draw(st.integers(1, 4))
    return ModeSpace(("A", "B", "C", "D")[:n], draw(st.integers(0, max_truncation)))


@st.composite
def element_calls(draw, space):
    """(builder name, arguments after the space) of one random element.
    QP and SPP shift l by up to 6 and 4, so small windows overflow."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "PBS" and len(space.paths) < 2:
        kind = "MIRROR"
    at = draw(st.sampled_from(space.paths))
    if kind == "OAMPHASE":
        lim = space.truncation
        return "oam_phase", (at, draw(st.dictionaries(st.integers(-lim, lim), _ANGLE)))
    name = CATALOGUE[kind][0]
    if kind == "PBS":
        ins = draw(st.lists(st.sampled_from(space.paths), min_size=2, max_size=2, unique=True))
        outs = draw(st.lists(st.sampled_from(space.paths), min_size=2, max_size=2, unique=True))
        return name, (tuple(ins), tuple(outs))
    if kind == "QP":
        return name, (at, draw(st.integers(-6, 6)) / 2)
    if kind == "SPP":
        return name, (at, float(draw(st.integers(-4, 4))))
    if kind in ("DL", "MIRROR", "O1CNOT", "O2CNOT"):
        return name, (at,)
    return name, (at, draw(_ANGLE))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_blocks_match_reference_builders(data):
    space = data.draw(spaces())
    name, args = data.draw(element_calls(space))
    t = getattr(el, name)(space, *args)
    want = getattr(ref, name)(space, *args)
    assert t.overflow == want.overflow
    if name in COMPOSITES:
        assert np.max(np.abs(ref.dense_matrix(t) - want.matrix)) <= 1e-15
    else:
        assert ref.dense_matrix(t).tobytes() == want.matrix.tobytes()
    assert t.block.shape == (len(t.paths) * 2 * (2 * space.truncation + 1),) * 2
    if name != "pbs":
        assert t.paths == (args[0],)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compositions_match_dense_products(data):
    space = data.draw(spaces(max_truncation=4))
    calls = data.draw(st.lists(element_calls(space), min_size=1, max_size=6))
    chain = [getattr(el, name)(space, *args) for name, args in calls]
    got = compose_transforms(chain)
    want = ref.compose([ref.Dense(ref.dense_matrix(t), t.overflow) for t in chain])
    assert got.overflow == want.overflow
    assert np.max(np.abs(ref.dense_matrix(got) - want.matrix)) <= 1e-15
    touched = {p for t in chain for p in t.paths}
    assert got.paths == tuple(p for p in space.paths if p in touched)


# Signed zeros and exact quarter turns fix the signs of zero parts.
_POLARIZER_ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi / 4, math.pi]),
    st.floats(-10, 10))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_polarizer_matches_kron_reference(data):
    space = data.draw(spaces())
    angle = data.draw(_POLARIZER_ANGLES)
    for path in space.paths:
        got = el.polarizer(space, path, angle)
        assert got.tobytes() == ref.polarizer(space, path, angle).tobytes()
