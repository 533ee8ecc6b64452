"""Reference kernel: how fast the machine runs right now.

On a shared machine the same job can take twice as long from one minute to
the next, because other tenants slow the CPU, not because they preempt the
benchmark.  ``run.py`` runs this fixed kernel once before every timed job
and reports job times calibrated by it: a job's wall time times
``REF_MS / (local reference time)``, that is, its time on a machine that runs
the kernel in ``REF_MS``.  A change to cpfsim moves the job time and not the
kernel, so it shows in the calibrated figure; a slower phase of the machine
moves both and mostly cancels (``bench/README.md`` gives what remains).

The kernel mixes the three kinds of work cpfsim jobs do, in roughly equal
time: a pure-Python loop (the lock loop, netlist parsing, the runner),
many small-array numpy calls (Fock bookkeeping, element builds) and one
dense complex matrix product (OpenBLAS, as in ``ModeTransform.check``).  It
uses no cpfsim code.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_MS = 5.0              # nominal kernel time the calibrated figures assume
LOCAL_SPAN = 3            # reference samples on each side of a job

_rng = np.random.default_rng(20240722)
_SMALL = (_rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))) / 8
_DENSE = _rng.standard_normal((224, 224)) + 1j * _rng.standard_normal((224, 224))


def _python_part() -> float:
    acc, table = 0.0, {}
    for i in range(10000):
        acc += (i * 0.5) % 7.0
        table[i & 255] = acc
    return acc


def _small_numpy_part() -> complex:
    x = _SMALL
    for _ in range(200):
        x = (x @ _SMALL) / np.abs(x).max()
    return complex(x[0, 0])


def _dense_part() -> complex:
    return complex((_DENSE @ _DENSE).trace())


def reference_s() -> float:
    """Wall seconds of one run of the reference kernel."""
    t0 = time.perf_counter()
    _python_part()
    _small_numpy_part()
    _dense_part()
    return time.perf_counter() - t0


def calibrate(latencies, refs) -> list[float]:
    """Calibrated seconds of each job.

    ``refs`` holds one reference time before each job and one after the
    last, so job ``i`` ran between ``refs[i]`` and ``refs[i + 1]``.  Each
    job is scaled by the median of the ``2 * LOCAL_SPAN`` reference times
    around it.
    """
    if len(refs) != len(latencies) + 1:
        raise ValueError("need one reference time before each job and one after the last")
    out = []
    for i, lat in enumerate(latencies):
        local = refs[max(0, i + 1 - LOCAL_SPAN):i + 1 + LOCAL_SPAN]
        out.append(lat * (REF_MS / 1e3) / statistics.median(local))
    return out
