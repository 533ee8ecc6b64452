"""The benchmark's tracer (``bench/tracing.py``) wraps cpfsim functions and
methods by name, so removing or renaming one of them breaks traced runs."""

from pathlib import Path

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
