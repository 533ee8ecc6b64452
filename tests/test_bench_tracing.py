"""The benchmark's tracer (``bench/tracing.py``) wraps cpfsim functions and
methods by name, so removing or renaming one of them breaks traced runs."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    from cpfsim import fock, gate_d4

    def bound():
        return fock.apply_transform, gate_d4.CpfPipeline.run

    originals = bound()
    with tracing.Tracer().installed():
        assert all(now is not old for now, old in zip(bound(), originals))
    assert all(now is old for now, old in zip(bound(), originals))


@pytest.mark.parametrize("name", ["gate_netlists", "circuit_netlists",
                                  "noisy_fidelity", "lock_loop"])
def test_traced_slice_shows_every_required_layer(name, monkeypatch):
    """A traced run fails when a workload's deck shows no span of one of the
    layers it lists.  The first job of the seed-1 deck, and its first shots
    job where it has one (the gate needs one for ``fock``), run traced after
    the untraced warm-up job, as in ``bench/run.py``."""
    monkeypatch.syspath_prepend(str(BENCH))
    import numpy as np
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    deck = wl.deck(np.random.default_rng(1))
    jobs = deck[:1] + [job for job in deck if job.meta.get("shots")][:1]
    wl.job(wl.warmup())
    tracer = tracing.Tracer()
    with tracer.installed():
        for i, job in enumerate(jobs):
            assert not wl.check(job, tracer.run_job(f"0:{i}", wl.job, job))
    spans, _counts = tracer.take()
    assert set(wl.layers) <= tracing.layers_seen(spans), sorted(
        set(wl.layers) - tracing.layers_seen(spans))


def test_warm_element_cache_keeps_gate_layers(monkeypatch):
    """After the warm-up and a whole untraced seed-1 gate pass, every element
    a gate job asks for is built already, and a traced gate job still shows
    ``elements`` and ``modes`` spans: the cache sits inside
    ``element_transform``, which each job still calls.  Two traced passes
    then give equal count metrics, as ``bench/run.py --trace 1`` requires."""
    monkeypatch.syspath_prepend(str(BENCH))
    import numpy as np
    import tracing
    import workloads

    wl = workloads.WORKLOADS["gate_netlists"]
    deck = wl.deck(np.random.default_rng(1))
    wl.job(wl.warmup())
    for job in deck:
        wl.job(job)
    tracer = tracing.Tracer()
    counts = []
    with tracer.installed():
        assert not wl.check(deck[0], tracer.run_job("warm", wl.job, deck[0]))
        spans, _counts = tracer.take()
        assert {"elements", "modes"} <= tracing.layers_seen(spans)
        for n in range(2):
            for s, job in enumerate(deck):
                assert not wl.check(job, tracer.run_job(f"{n}:{s}", wl.job, job))
            spans, pass_counts = tracer.take()
            assert set(wl.layers) <= tracing.layers_seen(spans)
            counts.append(tracing.pass_metrics(tracing.aggregate(spans, pass_counts))[0])
    assert counts[0] == counts[1]
