"""The Fock engine against the numpy reference (``fock_reference``): random
one- to three-photon states, bunched photons included, through random chains
of every catalogue kind give the same configurations in the same order, with
bitwise-equal amplitudes, and overflow in the same cases.  The reference's
grouped readout, ``outcome_distribution``, on hand-built states."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fock_reference as ref
from cpfsim.elements import CATALOGUE, element_transform
from cpfsim.errors import BasisIncomplete, TruncationOverflow
from cpfsim.fock import MultiPhotonState, apply_transform, group_basis_vector, inject_product
from cpfsim.modes import POLS, Mode, ModeSpace, SinglePhotonState

# Exact parts (0, +-1, +-i) exercise the signs of zero parts; the rest are generic.
_AMPS = st.one_of(
    st.sampled_from([1.0, -1.0, 1j, -1j, 1 + 1j, 0.5 - 2j]),
    st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)),
)
# Hypothesis leans to the front of a list: routing and shifting kinds first.
_KINDS = ("PBS", "QP", "SPP", *sorted(CATALOGUE.keys() - {"PBS", "QP", "SPP"}))
_ANGLES = st.one_of(st.sampled_from([0.0, math.pi / 8, math.pi / 4, math.pi / 2]),
                    st.floats(-4, 4))


@st.composite
def spaces(draw):
    n = draw(st.sampled_from([2, 3, 1]))
    return ModeSpace(("A", "B", "C")[:n], draw(st.integers(0, 3)))


@st.composite
def photon(draw, space):
    """A normalized photon on one to three modes of the space."""
    lim = space.truncation
    modes = draw(st.lists(st.builds(Mode, st.sampled_from(space.paths), st.sampled_from(POLS),
                                    st.integers(-lim, lim)), min_size=1, max_size=3, unique=True))
    amps = draw(st.lists(_AMPS, min_size=len(modes), max_size=len(modes)))
    if not any(abs(a) > 1e-6 for a in amps):
        amps[0] = 1.0
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return SinglePhotonState.from_terms(space, {m: a / norm for m, a in zip(modes, amps)})


@st.composite
def photons(draw, space):
    """One to three photons; each either repeats an earlier one (bunching
    when it sits on one mode) or is drawn afresh."""
    out = [draw(photon(space))]
    for _ in range(draw(st.integers(0, 2))):
        out.append(draw(st.sampled_from(out)) if draw(st.booleans()) else draw(photon(space)))
    return out


@st.composite
def descriptors(draw, space, kind):
    """One element descriptor of catalogue kind ``kind``; QP and SPP shift l
    by up to 3, so small windows overflow."""
    if kind == "PBS":
        if len(space.paths) < 2:
            kind = "MIRROR"
        else:
            ins = draw(st.lists(st.sampled_from(space.paths), min_size=2, max_size=2, unique=True))
            outs = draw(st.lists(st.sampled_from(space.paths), min_size=2, max_size=2, unique=True))
            return f"PBS(in=[{','.join(ins)}],out=[{','.join(outs)}])"
    at = draw(st.sampled_from(space.paths))
    if kind == "QP":
        return f"QP(q={draw(st.integers(-3, 3)) / 2!r}) @ {at}"
    if kind == "SPP":
        return f"SPP(dl={draw(st.integers(-3, 3))}) @ {at}"
    if kind in ("DL", "MIRROR", "O1CNOT", "O2CNOT"):
        return f"{kind}() @ {at}"
    if kind == "PP" and draw(st.booleans()):
        return f"PP() @ {at}"
    param = CATALOGUE[kind][1][0][0]
    return f"{kind}({param}={draw(_ANGLES)!r}) @ {at}"


def _bits(z) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


def assert_same(got: MultiPhotonState, want: MultiPhotonState):
    assert list(got.terms) == list(want.terms)
    assert [_bits(a) for a in got.terms.values()] == [_bits(a) for a in want.terms.values()]
    assert got.normalized == want.normalized


def assert_same_columns(t):
    cols = t.columns()
    for j, (rows, amps) in enumerate(ref.columns(t)):
        got_rows, got_amps = cols.get(j, ([j], [1 + 0j]))
        assert got_rows == rows.tolist()
        assert [_bits(a) for a in got_amps] == [_bits(a) for a in amps]


def _overflow(fn, *args):
    try:
        return fn(*args), None
    except TruncationOverflow as e:
        return None, str(e)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_engine_matches_reference(data):
    space = data.draw(spaces())
    ph = data.draw(photons(space))
    got, want = inject_product(ph), ref.inject_product(ph)
    assert_same(got, want)
    kinds = data.draw(st.permutations(_KINDS))[:data.draw(st.integers(1, 4))]
    for kind in kinds:
        desc = data.draw(descriptors(space, kind))
        t = element_transform(desc, space)
        assert_same_columns(t)
        got, got_err = _overflow(apply_transform, t, got)
        want, want_err = _overflow(ref.apply_transform, t, want)
        assert got_err == want_err, desc
        if want_err:
            return
        assert_same(got, want)
    # a post-selection's renormalization: keep the terms with a photon on the first path
    first = set(space.path_indices(space.paths[0]).tolist())
    got, want = ({cfg: a for cfg, a in s.terms.items() if first & set(cfg)} for s in (got, want))
    if want:
        assert_same(MultiPhotonState(space, len(ph), got, normalized=False).normalized_copy(),
                    ref.normalized_copy(MultiPhotonState(space, len(ph), want, normalized=False)))


@pytest.mark.parametrize("cfg", [(0, 7), (3, 3)])
@pytest.mark.parametrize("amp", [complex(-0.0, 1.0), complex(1.0, -0.0),
                                 complex(-0.0, -0.0), complex(-1.0, -0.0)])
def test_signed_zero_parts_match_reference(amp, cfg):
    """A hand-built term with signed zero parts, unbunched or bunched, through
    an element with one image per mode and one that mixes: the engine's
    arithmetic with 1.0 on unbunched terms keeps it bitwise on the reference."""
    space = ModeSpace(("A", "B"), 1)
    state = MultiPhotonState(space, 2, {cfg: amp}, normalized=False)
    for desc in ("DL() @ A", "HWP(angle=0.3) @ A"):
        t = element_transform(desc, space)
        assert_same(apply_transform(t, state), ref.apply_transform(t, state))


S2 = 1 / math.sqrt(2)


def small_space():
    return ModeSpace(("a", "b"), 1)


def ket(sp, path, pol, oam):
    return SinglePhotonState.from_terms(sp, {Mode(path, pol, oam): 1.0})


def test_outcome_distribution_single_photon_examples():
    sp = small_space()
    hv = [("H", group_basis_vector(sp, ("a",), {(Mode("a", "H", 0),): 1.0})),
          ("V", group_basis_vector(sp, ("a",), {(Mode("a", "V", 0),): 1.0}))]
    st_ = inject_product([ket(sp, "a", "H", 0)])
    dist = ref.outcome_distribution(st_, {("a",): hv})
    assert abs(dist["H"] - 1.0) < 1e-12 and abs(dist.get("V", 0.0)) < 1e-12
    plus = SinglePhotonState.from_terms(
        sp, {Mode("a", "H", 0): S2, Mode("a", "V", 0): S2})
    dist = ref.outcome_distribution(inject_product([plus]), {("a",): hv})
    assert abs(dist["H"] - 0.5) < 1e-12 and abs(dist["V"] - 0.5) < 1e-12


def test_outcome_distribution_bell_resolution():
    # protocol-shaped four-photon state: one orthogonal photon-1 tag per Bell
    # branch, each branch carrying amplitude 1/2, so every Bell outcome of the
    # middle pair has probability 1/4
    sp = ModeSpace(("p1", "p2", "p3", "p4"), 1)

    def m(path, l, pol="H"):
        return Mode(path, pol, l)

    bell_patterns = (
        ("PhiPlus", {(-1, -1): S2, (1, 1): S2}),
        ("PhiMinus", {(-1, -1): S2, (1, 1): -S2}),
        ("PsiPlus", {(-1, 1): S2, (1, -1): S2}),
        ("PsiMinus", {(-1, 1): S2, (1, -1): -S2}),
    )
    tags = [m("p1", -1), m("p1", 0), m("p1", 1), m("p1", 0, "V")]
    spectator4 = m("p4", 0)
    terms = {}
    for tag, (_name, pattern) in zip(tags, bell_patterns):
        for (l2, l3), amp in pattern.items():
            cfg = tuple(sorted([sp.index(tag), sp.index(m("p2", l2)),
                                sp.index(m("p3", l3)), sp.index(spectator4)]))
            terms[cfg] = terms.get(cfg, 0.0) + 0.5 * amp
    state = MultiPhotonState(sp, 4, terms)
    bell = {
        name: group_basis_vector(
            sp, ("p2", "p3"),
            {(m("p2", a), m("p3", b)): amp for (a, b), amp in pattern.items()})
        for name, pattern in bell_patterns
    }
    tag_basis = [(i, group_basis_vector(sp, ("p1",), {(t,): 1.0}))
                 for i, t in enumerate(tags)]
    spec4_basis = [("x", group_basis_vector(sp, ("p4",), {(spectator4,): 1.0}))]
    dist = ref.outcome_distribution(state, {
        ("p1",): tag_basis,
        ("p2", "p3"): list(bell.items()),
        ("p4",): spec4_basis,
    })
    marg = {}
    for (tag, name, _x), p in dist.items():
        marg[name] = marg.get(name, 0.0) + p
    for name in bell:
        assert abs(marg[name] - 0.25) < 1e-10


def test_outcome_distribution_incomplete_basis():
    sp = small_space()
    only_h = [("H", group_basis_vector(sp, ("a",), {(Mode("a", "H", 0),): 1.0}))]
    plus = SinglePhotonState.from_terms(
        sp, {Mode("a", "H", 0): S2, Mode("a", "V", 0): S2})
    with pytest.raises(BasisIncomplete):
        ref.outcome_distribution(inject_product([plus]), {("a",): only_h})
