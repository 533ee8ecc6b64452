"""The block cache behind ``element_transform`` and the parts kept per
window: a built transform is the one a direct builder call gives, bit for
bit; signed zeros are not merged; refusals raise on every call and are
never kept; a fixed optic's block, built once, placed on any path or port
layout is the direct build, while continuous-angle kinds never enter the
block cache, and the cache stays within its bound; every transform's
sparse columns are those of its dense matrix, bit for bit; mode indices
are shared by spaces whose paths are named differently; and a descriptor
is checked once per parsed element."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fock_reference import _KINDS, descriptors, spaces

from element_reference import dense_columns

from cpfsim import elements as el
from cpfsim import modes
from cpfsim.elements import CATALOGUE, TRANSFORM_CACHE_SIZE, element_transform
from cpfsim.errors import SpaceMismatch, UnknownElement
from cpfsim.gate_d4 import prepare_input
from cpfsim.modes import ModeSpace, ModeTransform
from cpfsim.netlist import parse_netlist
from cpfsim.runner import NetlistError, execute

_ZERO_KINDS = [k for k in sorted(CATALOGUE)
               if CATALOGUE[k][1] and CATALOGUE[k][1][0][0] in ("angle", "phase")]

#: Every cache of ``elements`` and ``modes``.
CACHES = (el._fixed_block, modes._indices_at)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def cold_cache():
    clear_caches()
    yield
    clear_caches()


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
def test_element_transform_is_the_direct_build(data):
    """Each kind on several spaces, as a descriptor string and as a parsed
    spec on an equal space: both builds equal a direct builder call bit for
    bit."""
    space = data.draw(spaces())
    desc = data.draw(descriptors(space, data.draw(st.sampled_from(_KINDS))))
    want = direct(desc, space)
    assert_same(element_transform(desc, space), want)
    assert_same(element_transform(el.parse_descriptor(desc),
                                  ModeSpace(space.paths, space.truncation)), want)


@pytest.mark.parametrize("kind", _ZERO_KINDS)
@pytest.mark.parametrize("order", [("0.0", "-0.0"), ("-0.0", "0.0")])
def test_signed_zeros_are_not_merged(kind, order):
    """0.0 == -0.0 and both hash alike; each keeps its own build's bits and
    provenance ("-0" for the negative zero)."""
    space = ModeSpace(("A", "B"), 2)
    param = CATALOGUE[kind][1][0][0]
    descs = [f"{kind}({param}={z}) @ B" for z in order]
    got = [element_transform(d, space) for d in descs]
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
    ("SPP(dl=0.5) @ A", UnknownElement),
    ("PBS(in=[A,A],out=[A,B])", UnknownElement),
    ("O2CNOT() @ A,B", UnknownElement),
    ("QP(q=0.5) @ Z", SpaceMismatch),
    ("O1CNOT() @ Z", SpaceMismatch),
    ("PBS(in=[A,B],out=[B,Z])", SpaceMismatch),
])
def test_refusals_raise_on_every_call(desc, error):
    space = ModeSpace(("A", "B"), 2)
    for _ in range(3):
        with pytest.raises(error):
            element_transform(desc, space)
    assert el._fixed_block.cache_info().currsize == 0


def test_fixed_kinds_are_those_without_a_continuous_parameter():
    assert el._FIXED == {"QP", "SPP", "DL", "MIRROR", "PBS", "O1CNOT", "O2CNOT"}


_NAMES = ("A", "B", "C", "D", "E", "P1", "X")


@st.composite
def fixed_optics(draw):
    """(template, port count): a fixed optic's descriptor with its ports as
    "{0}", "{1}", ...; a PBS's port pattern (which port repeats, in which
    order) is drawn, so its layouts vary."""
    kind = draw(st.sampled_from(sorted(el._FIXED)))
    if kind == "PBS":
        ports = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(
            lambda p: p[0] != p[1] and p[2] != p[3]))
        rank = {p: f"{{{k}}}" for k, p in enumerate(dict.fromkeys(ports))}
        a, b, c, d = (rank[p] for p in ports)
        return f"PBS(in=[{a},{b}],out=[{c},{d}])", len(rank)
    if kind == "QP":
        q = draw(st.sampled_from([-0.0, 0.0, *[k / 2 for k in range(-5, 6)]]))
        return f"QP(q={q!r}) @ {{0}}", 1
    if kind == "SPP":
        return f"SPP(dl={draw(st.sampled_from(['-0.0', '2.0', *map(str, range(-4, 5))]))}) @ {{0}}", 1
    return f"{kind}() @ {{0}}", 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_placed_block_is_the_direct_build(data):
    """A fixed optic warmed on one path or port layout, then placed on every
    other of several random spaces of one truncation: each result is the
    direct builder call bit for bit, and the block cache builds once per
    distinct layout (the ports' ranks in the space's order)."""
    clear_caches()
    template, n_ports = data.draw(fixed_optics())
    truncation = data.draw(st.integers(0, 4))
    spaces_ = data.draw(st.lists(
        st.lists(st.sampled_from(_NAMES), min_size=n_ports, max_size=5, unique=True),
        min_size=1, max_size=3))
    layouts = set()
    for names in spaces_:
        space = ModeSpace(names, truncation)
        for ports in itertools.permutations(space.paths, n_ports):
            desc = template.format(*ports)
            got = element_transform(desc, space)
            want = direct(desc, space)
            assert_same(got, want)
            assert got.columns() == want.columns()
            layouts.add(tuple(sorted(range(n_ports), key=lambda k: names.index(ports[k]))))
            assert el._fixed_block.cache_info().misses == len(layouts)


@pytest.mark.parametrize("kind", sorted(CATALOGUE.keys() - el._FIXED))
def test_continuous_kinds_skip_the_block_cache(kind):
    space = ModeSpace(("A", "B"), 2)
    param = CATALOGUE[kind][1][0][0]
    for at in space.paths:
        for value in (0.0, 0.3, 0.5):
            element_transform(f"{kind}({param}={value!r}) @ {at}", space)
    info = el._fixed_block.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_block_cache_stays_within_its_bound():
    """More distinct blocks than the bound evict the least recently used; a
    block that recurs within the bound is built once, on any path."""
    element_transform("MIRROR() @ A", ModeSpace(("A", "B"), 3))
    for i, (trunc, dl) in enumerate(itertools.product(range(6), range(-12, 13))):
        element_transform(f"SPP(dl={dl}) @ A", ModeSpace(("A",), trunc))
        if i % (TRANSFORM_CACHE_SIZE // 2) == 0:
            misses = el._fixed_block.cache_info().misses
            placed = element_transform("MIRROR() @ B", ModeSpace(("A", "B", "C"), 3))
            assert el._fixed_block.cache_info().misses == misses
            assert placed.provenance == "MIRROR @ B"
        assert el._fixed_block.cache_info().currsize <= TRANSFORM_CACHE_SIZE
    assert el._fixed_block.cache_info().misses > TRANSFORM_CACHE_SIZE
    assert el._fixed_block.cache_info().maxsize == TRANSFORM_CACHE_SIZE


def test_cold_cache_clears_every_cache():
    """``CACHES`` names every lru cache of ``elements`` and ``modes``, and
    ``clear_caches`` (the ``cold_cache`` fixture) empties each of them."""
    found = {f for module in (el, modes) for f in vars(module).values()
             if hasattr(f, "cache_clear")}
    assert found == set(CACHES)
    space = ModeSpace(("A", "B"), 2)
    for desc in ("O1CNOT() @ B", "QP(q=0.5) @ A", "HWP(angle=0.2) @ A"):
        element_transform(desc, space)
    assert all(cache.cache_info().currsize for cache in CACHES)
    clear_caches()
    assert not any(cache.cache_info().currsize for cache in CACHES)


def _bits(cols: dict) -> dict:
    """Columns with each amplitude as the hex text of its two floats, so
    that equality is bit for bit, a signed zero told from an unsigned one."""
    return {j: (rows, [(a.real.hex(), a.imag.hex()) for a in amps])
            for j, (rows, amps) in cols.items()}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_continuous_columns_are_the_dense_columns(data):
    """A continuous-angle optic's sparse columns equal, bit for bit, those
    read off its dense matrix."""
    space = data.draw(spaces())
    kind = data.draw(st.sampled_from(sorted(CATALOGUE.keys() - el._FIXED)))
    t = element_transform(data.draw(descriptors(space, kind)), space)
    assert _bits(t.columns()) == _bits(dense_columns(t))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_placed_columns_are_the_dense_columns(data):
    """A fixed optic placed on random port layouts of random spaces of one
    truncation: each placement's sparse columns, re-indexed from the kept
    block's, equal bit for bit those read off the dense matrix of the
    direct build."""
    clear_caches()
    template, n_ports = data.draw(fixed_optics())
    truncation = data.draw(st.integers(0, 4))
    for _ in range(data.draw(st.integers(1, 4))):
        names = data.draw(st.lists(st.sampled_from(_NAMES), min_size=n_ports, max_size=5,
                                   unique=True))
        ports = data.draw(st.permutations(names))[:n_ports]
        space = ModeSpace(names, truncation)
        desc = template.format(*ports)
        got = element_transform(desc, space)
        assert _bits(got.columns()) == _bits(dense_columns(direct(desc, space)))


_CHAIN = ("version 1\n[space]\npaths A B\ntruncation 2\n[source p]\npath A\n"
          "recipe x13+\n[elements]\nQP(q=0.5) @ A\nHWP(angle=0.2) @ A\nSPP(dl=1) @ B\n"
          "PBS(in=[A,B],out=[B,A])\nO2CNOT() @ B\n[run]\ntask circuit\n")


def test_parse_and_run_check_each_element_once(monkeypatch):
    """Parsing a circuit, its window pass and its run check each element's
    descriptor once: the parsed spec keeps its verdict.  The source's
    preparation row is built first, so that only the circuit's own
    elements are counted."""
    prepare_input("x13+")
    calls = []

    def counted(spec):
        calls.append(spec)
        return real(spec)

    real = el.spec_problem
    monkeypatch.setattr(el, "spec_problem", counted)
    res = parse_netlist(_CHAIN)
    assert res.ok, [str(d) for d in res.diagnostics]
    execute(res)
    execute(res.netlist)
    assert calls == res.netlist.elements


def test_bare_netlist_refuses_on_every_call():
    """A spec that fails its check, appended to a bare netlist, is refused
    by each run and each direct build."""
    nl = parse_netlist(_CHAIN).netlist
    nl.elements.append(el.ElementSpec("SPP", (("dl", 0.5),), ("A",)))
    for _ in range(3):
        with pytest.raises(NetlistError, match="non-integer"):
            execute(nl)
        with pytest.raises(UnknownElement, match="non-integer"):
            element_transform(nl.elements[-1], ModeSpace(("A", "B"), 2))


@pytest.mark.parametrize("paths,accepted", [
    (("A",), True), (("B", "D"), True), (("A", "B", "C", "D"), True),
    (("D", "B"), False), (("B", "B"), False), (("E",), False), (("A", "E"), False),
])
def test_mode_indices_are_kept_per_path_positions(paths, accepted):
    """A transform's mode indices are the space's indices of its paths, kept
    per truncation and path positions, so that spaces whose paths are named
    differently share them; paths out of the space's order, repeated or
    unknown are refused on every call."""
    named, renamed = ModeSpace("ABCD", 2), ModeSpace(("w", "x", "y", "z"), 2)
    for _ in range(2):
        if not accepted:
            with pytest.raises(SpaceMismatch):
                ModeTransform(named, paths, np.eye(10 * len(paths)))
            continue
        t = ModeTransform(named, paths, np.eye(10 * len(paths)))
        u = ModeTransform(renamed, tuple(renamed.paths["ABCD".index(p)] for p in paths),
                          np.eye(10 * len(paths)))
        assert t._modes is u._modes
        assert t._modes.tolist() == [j for p in paths for j in named.path_indices(p)]
    assert modes._indices_at.cache_info().currsize == accepted
