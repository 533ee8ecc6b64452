"""The transform cache behind ``element_transform``: a kept transform is the
one a direct builder call gives, bit for bit; signed zeros are not merged;
refusals raise on every call and are never kept; the cache stays within its
bound; and a circuit's validation and run share their builds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fock_reference import _KINDS, descriptors, spaces

from cpfsim import elements as el
from cpfsim.elements import CATALOGUE, TRANSFORM_CACHE_SIZE, element_transform
from cpfsim.errors import SpaceMismatch, UnknownElement
from cpfsim.gate_d4 import prepare_input
from cpfsim.modes import ModeSpace
from cpfsim.netlist import parse_netlist
from cpfsim.runner import execute

_ZERO_KINDS = [k for k in sorted(CATALOGUE)
               if CATALOGUE[k][1] and CATALOGUE[k][1][0][0] in ("angle", "phase")]


@pytest.fixture(autouse=True)
def cold_cache():
    el._cached_transform.cache_clear()
    yield
    el._cached_transform.cache_clear()


def direct(desc: str, space: ModeSpace):
    """The transform of ``desc`` from its builder, past the cache."""
    spec = el.parse_descriptor(desc)
    name, params = CATALOGUE[spec.kind]
    values = [spec.param(k, default) for k, default in params]
    return getattr(el, name)(space, *spec.paths,
                             *[v if isinstance(v, tuple) else float(v) for v in values])


def assert_same(got, want):
    assert got.block.tobytes() == want.block.tobytes()
    assert got.overflow == want.overflow
    assert got.paths == want.paths
    assert got.provenance == want.provenance
    assert got.space == want.space


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cached_transform_is_the_direct_build(data):
    """Each kind on several spaces: the first call builds, the second is the
    same object, and both equal a direct builder call bit for bit."""
    space = data.draw(spaces())
    desc = data.draw(descriptors(space, data.draw(st.sampled_from(_KINDS))))
    first = element_transform(desc, space)
    again = element_transform(el.parse_descriptor(desc),
                              ModeSpace(space.paths, space.truncation))
    assert again is first
    assert_same(first, direct(desc, space))


@pytest.mark.parametrize("kind", _ZERO_KINDS)
@pytest.mark.parametrize("order", [("0.0", "-0.0"), ("-0.0", "0.0")])
def test_signed_zeros_are_not_merged(kind, order):
    """0.0 == -0.0 and both hash alike; each keeps its own build's bits and
    provenance ("-0" for the negative zero)."""
    space = ModeSpace(("A", "B"), 2)
    param = CATALOGUE[kind][1][0][0]
    descs = [f"{kind}({param}={z}) @ B" for z in order]
    got = [element_transform(d, space) for d in descs]
    assert got[0] is not got[1]
    for t, d in zip(got, descs):
        assert_same(t, direct(d, space))
    assert got[0].provenance != got[1].provenance


@pytest.mark.parametrize("desc,error", [
    ("FROB(x=1) @ A", UnknownElement),
    ("HWP() @ A", UnknownElement),
    ("QP(q=0.25) @ A", UnknownElement),
    ("HWP(angle=0.1) @ A,B", UnknownElement),
    ("MIRROR() @ Z", SpaceMismatch),
    ("PBS(in=[A,Z],out=[A,B])", SpaceMismatch),
])
def test_refusals_raise_on_every_call(desc, error):
    space = ModeSpace(("A", "B"), 2)
    for _ in range(3):
        with pytest.raises(error):
            element_transform(desc, space)
    assert el._cached_transform.cache_info().currsize == 0


def test_cache_stays_within_its_bound():
    """Many distinct angles evict the least recently used; a descriptor that
    recurs within the bound is built once."""
    space = ModeSpace(("A",), 4)
    kept = element_transform("QWP(angle=0.7853981633974483) @ A", space)
    for i in range(4 * TRANSFORM_CACHE_SIZE):
        element_transform(f"HWP(angle={0.001 * i!r}) @ A", space)
        if i % (TRANSFORM_CACHE_SIZE // 2) == 0:
            assert element_transform("QWP(angle=0.7853981633974483) @ A", space) is kept
        assert el._cached_transform.cache_info().currsize <= TRANSFORM_CACHE_SIZE
    assert el._cached_transform.cache_info().maxsize == TRANSFORM_CACHE_SIZE
    first = element_transform("HWP(angle=0.0) @ A", space)
    assert first is not element_transform("HWP(angle=0.0) @ A", ModeSpace(("A",), 3))


def test_validation_and_run_share_builds():
    """A circuit whose window validation pushes photons through the chain:
    the run builds nothing that validation did not."""
    text = ("version 1\n[space]\npaths A B\ntruncation 2\n[source p]\npath A\n"
            "recipe z0\n[elements]\nSPP(dl=1) @ A\nPBS(in=[A,B],out=[B,A])\n"
            "HWP(angle=0.2) @ B\n[run]\ntask circuit\n")
    prepare_input("z0")
    prepared = el._cached_transform.cache_info().misses
    res = parse_netlist(text)
    assert res.ok, [str(d) for d in res.diagnostics]
    assert el._cached_transform.cache_info().misses == prepared + 3
    execute(res.netlist)
    assert el._cached_transform.cache_info().misses == prepared + 3
