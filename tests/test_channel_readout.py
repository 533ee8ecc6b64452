"""The stacked readout of the heralded channel against the per-row,
per-operator reference form, its shared read-only inputs, empty channels,
the channel the builder keeps, and the work a readout of a built channel
does."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpfsim import analysis
from cpfsim.analysis import (
    MAX_DRAWS,
    STATE_VECTORS,
    HeraldedChannel,
    basis_table,
    build_heralded_channel,
    channel_bounds,
    full_fidelity_report,
    process_fidelity,
    run_fidelity_experiment,
    superposition_suite,
)
from cpfsim.errors import EmptyPostSelection
from cpfsim.gate_d4 import CpfPipeline, heralded_run
from cpfsim.netlist import parse_netlist
from cpfsim.noise import NoiseSpec
from cpfsim.protocol import BellOutcome, cpf_oracle
from cpfsim.runner import execute

from analysis_reference import (
    reference_basis_run,
    reference_channel_bounds,
    reference_ensemble,
    reference_herald_probability,
    reference_outcome_probs,
    reference_process_fidelity,
)

PHI = (BellOutcome.PhiPlus, BellOutcome.PhiMinus)
PATTERNS = (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))
ALL_LOST = NoiseSpec(loss=1.0, seed=3)

#: No operators, and three operators that are all zero.
NO_OPERATORS = ([], [])
ZERO_OPERATORS = ([np.zeros((16, 16), dtype=complex)] * 3, [(PHI[0], PATTERNS[0])] * 3)


@st.composite
def channels(draw):
    """(operators, labels) of 0-40 random operators: independent complex
    matrices, matrices near the CPF oracle (process fidelity near 1), or
    all zero."""
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(("random", "near_gate", "zero")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = rng.normal(size=(n, 16, 16)) + 1j * rng.normal(size=(n, 16, 16))
    if kind == "near_gate":
        ops = cpf_oracle(4) + 0.05 * ops
    ops = ops * rng.uniform(0.0, 2.0, size=(n, 1, 1)) if kind != "zero" else 0.0 * ops
    labels = [(PHI[i], PATTERNS[j]) for i, j in zip(rng.integers(0, 2, n), rng.integers(0, 4, n))]
    return list(ops), labels


def _vectors(rng, n: int) -> np.ndarray:
    """n random joint vectors, about a quarter of them zero."""
    v = rng.normal(size=(n, 16)) + 1j * rng.normal(size=(n, 16))
    return v * (rng.random((n, 1)) > 0.25)


@settings(max_examples=80, deadline=None)
@given(channel=channels(), seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12),
       outputs=st.integers(1, 12), shared=st.booleans())
@example(channel=NO_OPERATORS, seed=1, rows=3, outputs=2, shared=True)
@example(channel=ZERO_OPERATORS, seed=2, rows=3, outputs=2, shared=False)
def test_readout_matches_per_row_reference(channel, seed, rows, outputs, shared):
    """Probabilities and heralds of a batch are bitwise those of one input
    row and one operator at a time."""
    ops, labels = channel
    rng = np.random.default_rng(seed)
    inputs = _vectors(rng, rows)
    outs = _vectors(rng, outputs) if shared else _vectors(rng, rows * outputs).reshape(rows, outputs, 16)
    probs, heralds = HeraldedChannel(ops, labels).readout(inputs, outs)
    assert probs.shape == (rows, outputs) and heralds.shape == (rows,)
    for row, v in enumerate(inputs):
        want, herald = reference_outcome_probs(ops, v, outs if shared else outs[row])
        assert probs[row].tobytes() == want.tobytes()
        assert heralds[row] == herald


@settings(max_examples=30, deadline=None)
@given(channel=channels(), name=st.sampled_from(("ZX", "XZ")),
       shots=st.sampled_from((0, 500)), seed=st.integers(0, 2**16))
@example(channel=NO_OPERATORS, name="ZX", shots=500, seed=0)
@example(channel=ZERO_OPERATORS, name="XZ", shots=0, seed=0)
def test_basis_run_matches_per_row_reference(channel, name, shots, seed):
    ops, labels = channel
    run = run_fidelity_experiment(name, HeraldedChannel(ops, labels), shots, seed)
    matrix, fidelity, herald, counts = reference_basis_run(basis_table(name), ops, shots, seed)
    assert run.matrix.tobytes() == matrix.tobytes()
    assert (run.fidelity, run.herald_probability, run.counts) == (fidelity, herald, counts)


@settings(max_examples=60, deadline=None)
@given(channel=channels())
@example(channel=NO_OPERATORS)
@example(channel=ZERO_OPERATORS)
def test_process_fidelity_and_bounds_match_reference(channel):
    ops, labels = channel
    ch = HeraldedChannel(ops, labels)
    herald = reference_herald_probability(ops)
    assert abs(ch.herald_probability - herald) <= 1e-15 * max(herald, 1.0)
    u = cpf_oracle(4)
    if herald == 0.0:
        with pytest.raises(EmptyPostSelection):
            process_fidelity(ch, u)
    else:
        assert abs(process_fidelity(ch, u) - reference_process_fidelity(ops, herald, u)) <= 1e-15
    for pair in ("zx", "fourier"):
        got, want = channel_bounds(ch, pair), reference_channel_bounds(ops, pair)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15, pair


@settings(max_examples=40, deadline=None)
@given(channel=channels(), seed=st.integers(0, 2**32 - 1),
       accepted=st.sampled_from([frozenset(PHI[:1]), frozenset(PHI[1:]), frozenset(PHI)]))
@example(channel=NO_OPERATORS, seed=0, accepted=frozenset(PHI))
@example(channel=ZERO_OPERATORS, seed=0, accepted=frozenset(PHI))
def test_ensemble_matches_per_operator_reference(channel, seed, accepted):
    """Pattern probabilities, and each outcome's density matrix and
    probability, bitwise and in the same order as one operator at a time."""
    ops, labels = channel
    ch = HeraldedChannel(ops, labels)
    v = np.random.default_rng(seed).normal(size=16) + 0j
    run = heralded_run(ch.kraus, ch.labels, v, accepted)
    want_probs, want_out = reference_ensemble(ops, labels, v, accepted)
    assert list(run.pattern_probs.items()) == list(want_probs.items())
    assert list(run.per_outcome) == list(want_out)
    for outcome, (rho, p) in want_out.items():
        assert run.density(outcome).tobytes() == rho.tobytes()
        assert run.per_outcome[outcome] == p


def test_shared_inputs_are_read_only():
    """The public state vectors, the cached readout inputs built from them
    and a channel's Kraus stack refuse writes, so no caller can change a
    later run."""
    arrays = list(STATE_VECTORS.values())
    for name in ("ZX", "XZ", "ZF", "FZ", "superpositions"):
        table = basis_table(name)
        arrays += [table.inputs, table.outputs, table.expected]
    arrays += [a for a in analysis._suite_inputs() if isinstance(a, np.ndarray)]
    arrays.append(build_heralded_channel().kraus)
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0


def test_all_lost_ensemble_heralds_nothing():
    """Every draw lost builds the empty channel: each readout gives zeros,
    and only the process fidelity, which conditions on a herald, refuses."""
    channel = build_heralded_channel(ALL_LOST, n_draws=3)
    assert channel.kraus.shape == (0, 16, 16) and channel.labels == ()
    assert channel.herald_probability == 0.0
    with pytest.raises(EmptyPostSelection):
        process_fidelity(channel, cpf_oracle(4))
    run = run_fidelity_experiment("ZX", channel, shots=100, seed=5)
    assert run.counts == {row: dict.fromkeys(range(16), 0) for row in range(16)}
    assert run.fidelity == 0.0 and run.herald_probability == 0.0
    assert not run.matrix.any()
    report = full_fidelity_report(channel)
    assert (report.f_zx, report.f_xz, report.lower, report.upper) == (0.0,) * 4
    assert channel_bounds(channel, "fourier") == (0.0, 0.0)
    entries = superposition_suite(channel)
    assert [e.fidelity for e in entries] == [0.0] * 7
    assert entries[6].expectations is None and entries[6].stabilizer_estimate is None
    v = np.kron(STATE_VECTORS["x13+"], STATE_VECTORS["x13+"])
    run = heralded_run(channel.kraus, channel.labels, v, frozenset(PHI))
    assert (run.pattern_probs, run.per_outcome) == ({}, {})


@pytest.fixture
def fock_passes(monkeypatch):
    """The arguments of every transfer_operators call, one Fock pass per
    draw, from an emptied builder memo on."""
    analysis._build_channel.cache_clear()
    calls = []
    real = CpfPipeline.transfer_operators

    def counted(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(CpfPipeline, "transfer_operators", counted)
    return calls


def test_built_channel_feeds_every_analysis_without_a_fock_pass(fock_passes):
    """Once a channel is built, no analysis of it runs the pipeline again:
    the fidelity report, the superposition suite, both brackets, the process
    fidelity and the readout make no transfer_operators call, and a second
    build of the same settings returns the kept channel."""
    spec = NoiseSpec(sigma_zeta=0.3, oam_dephasing=0.2, visibility=0.9, seed=4)
    channel = build_heralded_channel(spec, n_draws=3)
    both = build_heralded_channel(spec, n_draws=3, accepted=frozenset(PHI))
    assert len(fock_passes) == 3
    assert both is channel
    full_fidelity_report(channel, shots=50, seed=1)
    superposition_suite(channel)
    channel_bounds(channel, "zx")
    channel_bounds(channel, "fourier")
    process_fidelity(channel, cpf_oracle(4))
    heralded_run(both.kraus, both.labels, np.kron(STATE_VECTORS["z3"], STATE_VECTORS["x13+"]),
                 PHI[:1])
    assert len(fock_passes) == 3


def test_warm_readout_takes_one_product_per_basis(monkeypatch):
    """On a built channel with the cached inputs warm, each basis of the
    fidelity report and of the Fourier bracket is read in one product with
    the Kraus stack: no np.kron, no single operator taken from the stack."""
    channel = build_heralded_channel(NoiseSpec(sigma_zeta=0.3, visibility=0.9, seed=2), n_draws=2)
    want = (full_fidelity_report(channel), channel_bounds(channel, "fourier"))
    touches = []

    class WatchedStack(np.ndarray):
        def __iter__(self):
            touches.append("iter")
            return super().__iter__()

        def __getitem__(self, key):
            touches.append("item")
            return super().__getitem__(key)

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            touches.append(ufunc.__name__)
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    real_kron = np.kron

    def kron(*args):
        touches.append("kron")
        return real_kron(*args)

    # a private copy to watch: the builder shares the channel it keeps
    channel = copy.copy(channel)
    object.__setattr__(channel, "kraus", channel.kraus.view(WatchedStack))
    monkeypatch.setattr(np, "kron", kron)
    report = full_fidelity_report(channel)
    assert touches == ["matmul", "matmul"]
    assert channel_bounds(channel, "fourier") == want[1]
    assert touches == ["matmul"] * 4
    assert (report.f_zx, report.f_xz, report.herald_probability) == (
        want[0].f_zx, want[0].f_xz, want[0].herald_probability)


def test_builder_keeps_one_channel(fock_passes):
    """Building A, then B, then A again runs three Fock builds: the builder
    keeps its last channel and no other."""
    a = NoiseSpec(sigma_zeta=0.2, seed=1)
    b = NoiseSpec(sigma_zeta=0.2, seed=2)
    first = build_heralded_channel(a, 1)
    assert build_heralded_channel(a, 1) is first
    assert len(fock_passes) == 1
    build_heralded_channel(b, 1)
    again = build_heralded_channel(a, 1)
    assert len(fock_passes) == 3
    assert again is not first and again.kraus.tobytes() == first.kraus.tobytes()
    # the draw count and the accept set are part of the settings
    build_heralded_channel(a, 2)
    build_heralded_channel(a, 2, PHI[:1])
    assert len(fock_passes) == 3 + 2 + 2


def test_call_spellings_share_one_entry(fock_passes):
    """Positional, keyword and default spellings of one accept set, in any
    order or container, give the kept channel; so does every noise-free
    spec, whatever its seed and draw count."""
    spec = NoiseSpec(oam_dephasing=0.2, seed=3)
    channel = build_heralded_channel(spec, 2)
    for other in (build_heralded_channel(spec, 2, frozenset(PHI)),
                  build_heralded_channel(spec, 2, PHI[::-1]),
                  build_heralded_channel(spec, 2, set(PHI)),
                  build_heralded_channel(noise=spec, n_draws=2, accepted=list(PHI)),
                  build_heralded_channel(accepted=PHI, n_draws=2, noise=spec)):
        assert other is channel
    assert len(fock_passes) == 2
    ideal = build_heralded_channel()
    for other in (build_heralded_channel(None, 1, PHI),
                  build_heralded_channel(NoiseSpec(seed=9), 7),
                  build_heralded_channel(noise=NoiseSpec(seed=5), n_draws=MAX_DRAWS)):
        assert other is ideal
    assert len(fock_passes) == 3


def test_fidelity_run_then_analysis_builds_once(fock_passes):
    """A noisy fidelity run and an analysis of the same settings share one
    channel: the runner's positional call and the default-accept call hit
    the same entry."""
    spec = NoiseSpec(sigma_zeta=0.1, oam_dephasing=0.05, visibility=0.95, seed=11)
    text = ("[run]\ntask fidelity\nseed 11\n"
            + "".join(f"noise.{k} {getattr(spec, k)!r}\n"
                      for k in ("sigma_zeta", "oam_dephasing", "visibility"))
            + "noise.draws 2\n")
    res = parse_netlist(text)
    assert res.ok
    execute(res)
    assert len(fock_passes) == 2
    channel = build_heralded_channel(spec, 2)
    assert len(fock_passes) == 2
    assert process_fidelity(channel, cpf_oracle(4)) > 0.0


_SPECS = st.one_of(st.none(), st.builds(
    NoiseSpec,
    sigma_zeta=st.sampled_from((0.0, 0.05, 0.7)), oam_dephasing=st.sampled_from((0.0, 0.3)),
    loss=st.sampled_from((0.0, 0.2, 1.0)), visibility=st.sampled_from((1.0, 0.8, 0.0)),
    seed=st.integers(0, 2**32 - 1)))


@settings(max_examples=25, deadline=None)
@given(spec=_SPECS, n_draws=st.integers(1, 4),
       accepted=st.sampled_from((PHI, PHI[:1], PHI[1:])))
def test_kept_channel_is_a_fresh_build(spec, n_draws, accepted):
    """A memo hit gives bitwise the operators, labels and herald probability
    that a fresh build gives after the memo is emptied."""
    kept = build_heralded_channel(spec, n_draws, frozenset(accepted))
    hit = build_heralded_channel(noise=spec, n_draws=n_draws, accepted=accepted)
    assert hit is kept
    analysis._build_channel.cache_clear()
    fresh = build_heralded_channel(spec, n_draws, accepted)
    assert fresh is not kept
    assert fresh.kraus.shape == kept.kraus.shape
    assert fresh.kraus.tobytes() == kept.kraus.tobytes()
    assert fresh.labels == kept.labels
    assert fresh.herald_probability == kept.herald_probability


@pytest.mark.parametrize("bad", [NoiseSpec(sigma_zeta=float("nan"), seed=1),
                                 NoiseSpec(oam_dephasing=float("inf")),
                                 NoiseSpec(visibility=2.0), NoiseSpec(loss=-0.5)])
def test_refused_spec_keeps_the_kept_channel(fock_passes, bad):
    """A refused spec raises on every call, runs no Fock pass and leaves
    the kept channel in place."""
    spec = NoiseSpec(sigma_zeta=0.1, seed=6)
    kept = build_heralded_channel(spec, 2)
    for _ in range(2):
        with pytest.raises(ValueError):
            build_heralded_channel(bad, 2)
    assert build_heralded_channel(spec, 2) is kept
    assert len(fock_passes) == 2


@pytest.mark.parametrize("n_draws", [0, -3, 2.5, 2.0, True, False, "2", None, MAX_DRAWS + 1])
@pytest.mark.parametrize("noise", [None, NoiseSpec(seed=2), NoiseSpec(sigma_zeta=0.1), ALL_LOST])
def test_bad_draw_count_is_refused(fock_passes, n_draws, noise):
    """Only an int in [1, MAX_DRAWS] is a draw count, whatever the noise;
    a refused count runs no Fock pass and leaves the kept channel."""
    kept = build_heralded_channel(NoiseSpec(sigma_zeta=0.1, seed=6), 1)
    with pytest.raises(ValueError, match="n_draws"):
        build_heralded_channel(noise, n_draws)
    assert build_heralded_channel(NoiseSpec(sigma_zeta=0.1, seed=6), 1) is kept
    assert len(fock_passes) == 1


def test_channel_is_frozen():
    """A shared channel cannot be changed by any of its holders."""
    channel = build_heralded_channel()
    herald = channel.herald_probability
    assert isinstance(channel.labels, tuple)
    for name, value in (("kraus", np.zeros((0, 16, 16))), ("labels", ()),
                        ("herald_probability", 0.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(channel, name, value)
    assert channel.herald_probability == herald and len(channel.kraus) == len(channel.labels) == 4
