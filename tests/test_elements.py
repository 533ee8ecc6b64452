import math

import numpy as np
import pytest

import cpfsim.conventions as conv
from cpfsim import elements as el
from cpfsim.errors import (ConventionError, CpfSimError, SpaceMismatch,
                           TruncationOverflow, UnknownElement)
from cpfsim.modes import (
    Mode,
    ModeSpace,
    SinglePhotonState,
    apply_to_single_photon,
    compose_transforms,
)

from element_reference import phase_align

S2 = 1 / math.sqrt(2)


@pytest.fixture()
def sp():
    return ModeSpace(("A", "B", "C", "D"), 4)


def ket(sp, path, pol, oam):
    return SinglePhotonState.from_terms(sp, {Mode(path, pol, oam): 1.0})


def terms_of(state, tol=1e-12):
    return {m: a for m, a in state.terms(tol)}


def assert_state(state, expected, tol=1e-10):
    got = np.zeros(state.space.dim, dtype=complex)
    got[:] = state.amps
    ref = np.zeros(state.space.dim, dtype=complex)
    for mode, amp in expected.items():
        ref[state.space.index(mode)] = amp
    assert np.max(np.abs(got - ref)) < tol, (terms_of(state), expected)


def test_hwp_pi8_on_h(sp):
    out = apply_to_single_photon(el.hwp(sp, "A", math.pi / 8), ket(sp, "A", "H", 0))
    assert_state(out, {Mode("A", "H", 0): S2, Mode("A", "V", 0): S2})


@pytest.mark.parametrize("alpha", np.linspace(-1.2, 1.4, 7))
def test_hwp_squares_to_identity(sp, alpha):
    m = el.hwp_matrix(alpha)
    # direct 2x2 product oracle
    assert np.allclose(m @ m, np.eye(2), atol=1e-12)
    t = compose_transforms([el.hwp(sp, "A", alpha), el.hwp(sp, "A", alpha)])
    aligned = phase_align(t.matrix.reshape(-1), np.eye(sp.dim).reshape(-1))
    assert np.max(np.abs(aligned.reshape(sp.dim, sp.dim) - np.eye(sp.dim))) < 1e-10


def test_qwp_reference_rows():
    q = el.qwp_matrix(math.pi / 4)
    r = np.array([1, 1j]) / math.sqrt(2)
    l = np.array([1, -1j]) / math.sqrt(2)
    assert np.allclose(q[:, 0], np.exp(1j * math.pi / 4) * r, atol=1e-12)
    assert np.allclose(q[:, 1], -np.exp(-1j * math.pi / 4) * l, atol=1e-12)
    qm = el.qwp_matrix(-math.pi / 4)
    assert np.allclose(qm[:, 0], np.exp(1j * math.pi / 4) * l, atol=1e-12)
    # retarder symmetry fixes the V column to exp(-i pi/4) R
    assert np.allclose(qm[:, 1], np.exp(-1j * math.pi / 4) * r, atol=1e-12)


def test_qwp_is_standard_retarder():
    for angle in (0.0, 0.3, -0.8, math.pi / 3):
        m = el.qwp_matrix(angle)
        assert np.allclose(m, m.T, atol=1e-12)          # rotated retarders are symmetric
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


def test_qplate_handedness_convention(sp):
    qp = el.qplate(sp, "A", 0.5)
    r_in = SinglePhotonState.from_terms(
        sp, {Mode("A", "H", 0): S2, Mode("A", "V", 0): 1j * S2})
    out = apply_to_single_photon(qp, r_in)
    # R|0> -> L|+1>
    assert_state(out, {Mode("A", "H", 1): S2, Mode("A", "V", 1): -1j * S2})
    l_in = SinglePhotonState.from_terms(
        sp, {Mode("A", "H", 0): S2, Mode("A", "V", 0): -1j * S2})
    out = apply_to_single_photon(qp, l_in)
    assert_state(out, {Mode("A", "H", -1): S2, Mode("A", "V", -1): 1j * S2})


def test_qplate_twice_identity_in_window(sp):
    qp = el.qplate(sp, "A", 0.5)
    s = ket(sp, "A", "H", 1)
    out = apply_to_single_photon(qp, apply_to_single_photon(qp, s))
    aligned = phase_align(out.amps, s.amps)
    assert np.max(np.abs(aligned - s.amps)) < 1e-10


def test_qplate_fractional_charge_rejected(sp):
    with pytest.raises(UnknownElement):
        el.qplate(sp, "A", 0.25)


def test_spp_shift_and_boundary(sp):
    t = el.spp(sp, "A", -1)
    out = apply_to_single_photon(t, ket(sp, "A", "H", 0))
    assert_state(out, {Mode("A", "H", -1): 1.0})
    with pytest.raises(TruncationOverflow):
        apply_to_single_photon(t, ket(sp, "A", "H", -4))


@pytest.mark.parametrize("build", [lambda s: el.qplate(s, "A", 0.5), lambda s: el.spp(s, "A", 1)],
                         ids=["qplate", "spp"])
def test_every_column_overflowing_builds_and_refuses(build):
    """At truncation 0 every column of a shifting element leaves the window:
    the element builds, and applying it raises TruncationOverflow."""
    sp0 = ModeSpace(("A",), 0)
    t = build(sp0)
    assert t.overflow == frozenset(range(sp0.dim))
    with pytest.raises(TruncationOverflow):
        apply_to_single_photon(t, ket(sp0, "A", "H", 0))


def test_dove_prism_example(sp):
    out = apply_to_single_photon(el.dove_prism(sp, "A", math.pi / 4),
                                 ket(sp, "A", "H", 1))
    assert_state(out, {Mode("A", "H", -1): -1.0})
    # exp(i * 1e308 * l) is NaN: the unitarity check must not pass it
    with np.errstate(invalid="ignore"), pytest.raises(ConventionError):
        el.dove_prism(ModeSpace(("A",), 4), "A", 1e308)


@pytest.mark.parametrize("gamma", (0.0, math.pi / 8, math.pi / 4, 0.7))
def test_dove_prism_twice_gives_minus_identity(sp, gamma):
    # two traversals pick up the two factors of i: |l> -> -|l> elementwise
    t = compose_transforms([el.dove_prism(sp, "A", gamma)] * 2)
    for pol in ("H", "V"):
        for l in range(-4, 5):
            i = sp.index(Mode("A", pol, l))
            col = t.matrix[:, i]
            assert abs(col[i] + 1.0) < 1e-10
            assert abs(np.linalg.norm(col) - 1.0) < 1e-10


def test_dove_prism_pair_diagonal_phases(sp):
    # DP(g) then DP(-g) acts as -exp(+4igl) on each |l>
    g = math.pi / 8
    t = compose_transforms([el.dove_prism(sp, "A", g), el.dove_prism(sp, "A", -g)])
    for l in range(-4, 5):
        i = sp.index(Mode("A", "H", l))
        assert abs(t.matrix[i, i] + np.exp(4j * g * l)) < 1e-12


def test_mirror_convention(sp):
    out = apply_to_single_photon(el.mirror(sp, "A"), ket(sp, "A", "H", 1))
    assert_state(out, {Mode("A", "H", -1): 1j})


def test_pbs_routing_and_flux(sp):
    t = el.pbs(sp, ("A", "B"), ("C", "D"))
    out = apply_to_single_photon(t, ket(sp, "A", "H", 2))
    assert_state(out, {Mode("C", "H", 2): 1.0})
    out = apply_to_single_photon(t, ket(sp, "A", "V", 1))
    assert_state(out, {Mode("D", "V", -1): conv.PBS_REFLECT_PHASE})
    out = apply_to_single_photon(t, ket(sp, "B", "V", 1))
    assert_state(out, {Mode("C", "V", -1): conv.PBS_REFLECT_PHASE})
    # flux conservation: the two-path block has orthonormal columns
    cols = [sp.index(Mode(p, pol, l)) for p in ("A", "B") for pol in ("H", "V")
            for l in range(-4, 5)]
    block = t.matrix[:, cols]
    assert np.allclose(block.conj().T @ block, np.eye(len(cols)), atol=1e-10)
    # an input may keep its path label as an output, but ports may not repeat
    out = apply_to_single_photon(el.pbs(sp, ("A", "B"), ("C", "A")), ket(sp, "B", "H", 2))
    assert_state(out, {Mode("A", "H", 2): 1.0})
    for ins, outs in ((("A", "A"), ("A", "B")), (("A", "B"), ("C", "C"))):
        with pytest.raises(CpfSimError, match="distinct"):
            el.pbs(sp, ins, outs)


def test_polarizer_projector(sp):
    """The polarizer is a plain projector matrix, the identity off its path."""
    p = el.polarizer(sp, "A", math.pi / 4)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.allclose(p, p.conj().T, atol=1e-12)
    off = np.setdiff1d(np.arange(sp.dim), sp.path_indices("A"))
    assert np.array_equal(p[np.ix_(off, off)], np.eye(len(off)))
    assert not p[np.ix_(off, sp.path_indices("A"))].any()
    assert not p[np.ix_(sp.path_indices("A"), off)].any()
    out = p @ ket(sp, "A", "H", 0).amps
    h, v = sp.index(Mode("A", "H", 0)), sp.index(Mode("A", "V", 0))
    assert np.allclose(out[[h, v]], 0.5) and abs(np.vdot(out, out) - 0.5) < 1e-12
    assert np.count_nonzero(np.abs(out) > 1e-12) == 2
    with pytest.raises(SpaceMismatch):
        el.polarizer(sp, "Z", 0.0)


def test_delay_line_identity(sp):
    t = el.delay_line(sp, "A")
    assert np.allclose(t.matrix, np.eye(sp.dim))


def test_unitary_elements_unitary_on_window(sp):
    builders = [
        el.hwp(sp, "A", 0.3), el.qwp(sp, "A", -0.5), el.dove_prism(sp, "A", 0.2),
        el.mirror(sp, "A"), el.phase_plate(sp, "A"), el.delay_line(sp, "A"),
        el.pbs(sp, ("A", "B"), ("C", "D")),
        el.parity_interferometer(sp, "A", math.pi / 8),
        el.o1_cnot(sp, "A"), el.o2_cnot(sp, "A"),
    ]
    for t in builders:
        keep = [i for i in range(sp.dim) if i not in t.overflow]
        m = t.matrix[:, keep]
        assert np.max(np.abs(m.conj().T @ m - np.eye(len(keep)))) < 1e-10, t.provenance


def test_auxiliary_chain_composes_to_target(sp):
    seq = [el.qplate(sp, "A", 0.5), el.qwp(sp, "A", math.pi / 4),
           el.dove_prism(sp, "A", math.pi / 8), el.dove_prism(sp, "A", 0.0)]
    t = compose_transforms(seq)
    out = apply_to_single_photon(t, ket(sp, "A", "H", 0))
    target = SinglePhotonState.from_terms(
        sp, {Mode("A", "V", -1): S2, Mode("A", "H", 1): S2})
    assert abs(abs(out.overlap(target)) - 1.0) < 1e-10


def test_descriptor_round_trip():
    for text in ("HWP(angle=0.3927) @ A", "QP(q=0.5) @ S",
                 "PBS(in=[A,B],out=[C,D])", "SPP(dl=-1) @ P2"):
        spec = el.parse_descriptor(text)
        again = el.parse_descriptor(spec.descriptor())
        assert again == spec


def test_descriptor_errors():
    with pytest.raises(el.DescriptorError):
        el.parse_descriptor("HWP(angle=) @ A")
    with pytest.raises(el.DescriptorError):
        el.parse_descriptor("not an element")


def test_element_transform_dispatch(sp):
    t = el.element_transform("MIRROR() @ A", sp)
    assert "MIRROR" in t.provenance
    with pytest.raises(UnknownElement):
        el.element_transform("FROB(x=1) @ A", sp)
    with pytest.raises(SpaceMismatch):
        el.element_transform("MIRROR() @ Z", sp)
    with pytest.raises(UnknownElement):
        el.element_transform("HWP() @ A", sp)
