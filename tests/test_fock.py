import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfsim.errors import EmptyPostSelection
from cpfsim.fock import (
    MultiPhotonState,
    apply_transform,
    group_basis_vector,
    inject_product,
    path_count_distribution,
    post_select,
    project_group,
    sample_counts,
)
from cpfsim.modes import Mode, ModeSpace, ModeTransform, SinglePhotonState, compose_transforms

S2 = 1 / math.sqrt(2)


def small_space():
    return ModeSpace(("a", "b"), 1)


def ket(sp, path, pol, oam):
    return SinglePhotonState.from_terms(sp, {Mode(path, pol, oam): 1.0})


def random_unitary(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.linalg.qr(m)[0]


def random_state(rng, sp, n_photons):
    terms = {}
    for _ in range(6):
        cfg = tuple(sorted(rng.integers(0, sp.dim, size=n_photons).tolist()))
        terms[cfg] = complex(rng.normal(), rng.normal())
    nrm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    return MultiPhotonState(sp, n_photons, {c: a / nrm for c, a in terms.items()})


def splitter_5050(sp):
    """Symmetric 50:50 splitter across paths a and b (same pol and l)."""
    m = np.zeros((sp.dim, sp.dim), dtype=complex)
    for pol in ("H", "V"):
        for l in (-1, 0, 1):
            ia = sp.index(Mode("a", pol, l))
            ib = sp.index(Mode("b", pol, l))
            m[ia, ia] = S2
            m[ib, ia] = S2
            m[ia, ib] = S2
            m[ib, ib] = -S2
    return ModeTransform(sp, sp.paths, m, "BS50")


def test_inject_single_photon():
    sp = small_space()
    st_ = inject_product([ket(sp, "a", "H", 0)])
    assert st_.n == 1
    ((cfg, amp),) = st_.terms.items()
    assert cfg == (sp.index(Mode("a", "H", 0)),)
    assert abs(amp - 1.0) < 1e-12


def test_inject_identical_mode_pair_amp_one():
    sp = small_space()
    st_ = inject_product([ket(sp, "a", "H", 0), ket(sp, "a", "H", 0)])
    ((cfg, amp),) = st_.terms.items()
    assert cfg == (sp.index(Mode("a", "H", 0)),) * 2
    assert abs(amp - 1.0) < 1e-12  # sqrt(2!) lives in the basis convention


def test_inject_disjoint_product_plain_amplitudes():
    sp = small_space()
    p1 = SinglePhotonState.from_terms(
        sp, {Mode("a", "H", 0): 0.6, Mode("a", "V", 0): 0.8})
    p2 = ket(sp, "b", "H", 1)
    st_ = inject_product([p1, p2])
    vals = sorted(abs(a) for a in st_.terms.values())
    assert np.allclose(vals, [0.6, 0.8])


def test_inject_exchange_symmetric(rng):
    sp = small_space()
    photons = []
    for _ in range(3):
        amps = rng.normal(size=sp.dim) + 1j * rng.normal(size=sp.dim)
        photons.append(SinglePhotonState(sp, amps / np.linalg.norm(amps)))
    a = inject_product(photons)
    b = inject_product(photons[::-1])
    assert set(a.terms) == set(b.terms)
    for cfg in a.terms:
        assert abs(a.terms[cfg] - b.terms[cfg]) < 1e-10


def test_hong_ou_mandel_bunching():
    # oracle: (a+ + b+)(a+ - b+)/2 |0> = (a+^2 - b+^2)/2 |0>, no coincidence
    sp = small_space()
    bs = splitter_5050(sp)
    st_ = inject_product([ket(sp, "a", "H", 0), ket(sp, "b", "H", 0)])
    out = apply_transform(bs, st_)
    ia = sp.index(Mode("a", "H", 0))
    ib = sp.index(Mode("b", "H", 0))
    coincidence = out.terms.get(tuple(sorted((ia, ib))), 0.0)
    assert abs(coincidence) < 1e-12
    dist = path_count_distribution(out)
    assert abs(dist[(("a", 2),)] - 0.5) < 1e-12
    assert abs(dist[(("b", 2),)] - 0.5) < 1e-12


def test_distinguishable_photons_do_coincide():
    sp = small_space()
    bs = splitter_5050(sp)
    st_ = inject_product([ket(sp, "a", "H", 0), ket(sp, "b", "V", 0)])
    out = apply_transform(bs, st_)
    dist = path_count_distribution(out)
    assert abs(dist[(("a", 1), ("b", 1))] - 0.5) < 1e-12


def test_unitary_evolution_preserves_norm(rng):
    sp = ModeSpace(("a",), 1)
    for n in (1, 2, 3, 4):
        state = random_state(rng, sp, n)
        u = ModeTransform(sp, sp.paths, random_unitary(rng, sp.dim))
        out = apply_transform(u, state)
        assert abs(out.norm2() - 1.0) < 1e-10


def test_apply_compose_associativity(rng):
    sp = ModeSpace(("a",), 1)
    a = ModeTransform(sp, sp.paths, random_unitary(rng, sp.dim))
    b = ModeTransform(sp, sp.paths, random_unitary(rng, sp.dim))
    state = random_state(rng, sp, 3)
    lhs = apply_transform(compose_transforms([b, a]), state)
    rhs = apply_transform(a, apply_transform(b, state))
    for cfg in set(lhs.terms) | set(rhs.terms):
        assert abs(lhs.terms.get(cfg, 0) - rhs.terms.get(cfg, 0)) < 1e-10


def test_post_select_all_match_probability_one(rng):
    sp = small_space()
    st_ = inject_product([ket(sp, "a", "H", 0), ket(sp, "b", "H", 0)])
    kept, prob = post_select(st_, {"a": 1, "b": 1})
    assert abs(prob - 1.0) < 1e-12
    assert set(kept.terms) == set(st_.terms)


def test_post_select_mass_accounting(rng):
    sp = small_space()
    bs = splitter_5050(sp)
    out = apply_transform(
        bs, inject_product([ket(sp, "a", "H", 0), ket(sp, "b", "V", 0)]))
    kept, p_match = post_select(out, {"a": 1, "b": 1})
    dist = path_count_distribution(out)
    p_discard = sum(v for k, v in dist.items() if k != (("a", 1), ("b", 1)))
    assert abs(p_match + p_discard - 1.0) < 1e-10


def test_post_select_degenerate_pattern():
    sp = small_space()
    st_ = inject_product([ket(sp, "a", "H", 0), ket(sp, "b", "H", 0)])
    with pytest.raises(EmptyPostSelection):
        post_select(st_, {"a": 3})
    with pytest.raises(EmptyPostSelection):
        post_select(st_, {"a": 2})


def test_post_select_refuses_negative_counts():
    sp = small_space()
    st_ = inject_product([ket(sp, "a", "H", 0), ket(sp, "b", "H", 0)])
    with pytest.raises(ValueError, match="photon counts must be non-negative"):
        post_select(st_, {"a": -1})


def test_project_group_reduces_and_normalizes():
    sp = small_space()
    st_ = inject_product([ket(sp, "a", "H", 0), ket(sp, "b", "V", 1)])
    vec = group_basis_vector(sp, ("b",), {(Mode("b", "V", 1),): 1.0})
    reduced, prob = project_group(st_, ("b",), vec)
    assert abs(prob - 1.0) < 1e-12
    assert reduced.n == 1


def test_sample_counts_edges_and_reproducibility():
    assert sample_counts({"a": 1.0}, 0, seed=1) == {"a": 0}
    assert sample_counts({"a": 1.0}, 100, seed=1) == {"a": 100}
    d = {"a": 0.5, "b": 0.5}
    c1 = sample_counts(d, 10_000, seed=7, experiment_id=3)
    c2 = sample_counts(d, 10_000, seed=7, experiment_id=3)
    assert c1 == c2
    c3 = sample_counts(d, 10_000, seed=7, experiment_id=4)
    assert c3 != c1
    assert sum(c1.values()) == 10_000
    # binomial statistics: within 5 sigma of the mean
    sigma = math.sqrt(10_000 * 0.25)
    assert abs(c1["a"] - 5000) <= 5 * sigma


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_property_exchange_symmetry_and_norm(indices, seed):
    """Injecting photons in any order yields identical term maps."""
    sp = ModeSpace(("a",), 1)
    gen = np.random.default_rng(seed)
    photons = []
    for _ in indices:
        amps = gen.normal(size=sp.dim) + 1j * gen.normal(size=sp.dim)
        photons.append(SinglePhotonState(sp, amps / np.linalg.norm(amps)))
    perm = list(np.random.default_rng(seed + 1).permutation(len(photons)))
    a = inject_product(photons)
    b = inject_product([photons[i] for i in perm])
    assert abs(a.norm2() - 1.0) < 1e-10
    assert set(a.terms) == set(b.terms)
    for cfg in a.terms:
        assert abs(a.terms[cfg] - b.terms[cfg]) < 1e-9
