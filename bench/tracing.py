"""Traced runs: spans around cpfsim's public functions, recorded from outside.

``Tracer.installed()`` replaces each target function by a wrapper in every
cpfsim module that binds it by name (``gate_d4`` imports ``apply_transform``
and ``post_select`` from ``fock``, ``runner`` imports ``parse_netlist`` and
``simulate_lock``, and so on) and on the class for methods, and puts the
originals back on exit.  The program itself
is not changed.

A span is (name, start, end, parent, job).  Spans are kept in memory and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct child spans.  Counts are taken from arguments and
return values at the same boundaries.  Wrappers record only while a job is
running, so deck generation and output checks leave no trace.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

from cpfsim import (analysis, elements, fock, gate_d4, locking, modes,
                    netlist, noise, protocol, runner)

LAYERS = ("modes", "elements", "fock", "protocol", "gate_d4", "noise",
          "analysis", "locking", "netlist", "runner")

_MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (
    analysis, elements, fock, gate_d4, locking, modes, netlist, noise,
    protocol, runner)}

_BUILDERS = ("hwp", "qwp", "qplate", "spp", "dove_prism", "mirror",
             "phase_plate", "delay_line", "path_phase", "oam_phase",
             "polarizer", "pbs", "parity_interferometer", "o1_cnot", "o2_cnot")


def _apply_transform_counts(counts, args, out):
    counts["fock.apply_transform.terms_in"] += len(args[1].terms)
    if out is not None:
        counts["fock.apply_transform.terms_out"] += len(out.terms)


def _post_select_counts(counts, args, out):
    counts["fock.post_select.terms_in"] += len(args[0].terms)
    if out is not None:
        counts["fock.post_select.terms_kept"] += len(out[0].terms)


def _draws_counts(counts, args, out):
    if out is not None:
        counts["noise.draws"] += len(out)
        counts["noise.lost"] += sum(d.lost for d in out)


# (module, attribute, metric group, recorder).  "span" records a span; a
# function records a span and adds counts from (counts, args, result), where
# the result is None if the call raised; "count" only counts calls, for
# per-sample functions of the lock loop whose time belongs to the caller's
# self time.
TARGETS = [
    ("modes", "ModeTransform.check", "modes.ModeTransform.check", "span"),
    ("modes", "ModeTransform.columns", "modes.ModeTransform.columns", "span"),
    ("modes", "compose_transforms", "modes.compose_transforms", "span"),
    ("modes", "apply_to_single_photon", "modes.apply_to_single_photon", "span"),
    ("elements", "element_transform", "elements.element_transform", "span"),
    ("elements", "parse_descriptor", "elements.parse_descriptor", "span"),
    *[("elements", b, "elements.builders", "span") for b in _BUILDERS],
    ("fock", "apply_transform", "fock.apply_transform", _apply_transform_counts),
    ("fock", "post_select", "fock.post_select", _post_select_counts),
    ("fock", "project_group", "fock.project_group", "span"),
    ("fock", "inject_product", "fock.inject", "span"),
    ("fock", "from_joint_amplitudes", "fock.inject", "span"),
    ("fock", "sample_counts", "fock.sample_counts", "span"),
    ("fock", "path_count_distribution", "fock.path_count_distribution", "span"),
    ("protocol", "cpf_oracle", "protocol", "span"),
    ("protocol", "correction_factors", "protocol", "span"),
    ("gate_d4", "CpfPipeline.__init__", "gate_d4.CpfPipeline.init", "span"),
    ("gate_d4", "CpfPipeline.run", "gate_d4.CpfPipeline.run", "span"),
    ("gate_d4", "CpfPipeline.transfer_operators",
     "gate_d4.CpfPipeline.transfer_operators", "span"),
    ("gate_d4", "CpfPipeline.inject", "gate_d4.CpfPipeline.inject", "span"),
    ("gate_d4", "run_cpf_d4", "gate_d4.run_cpf_d4", "span"),
    ("gate_d4", "prepare_input", "gate_d4.prepare_input", "span"),
    ("gate_d4", "prepare_auxiliary", "gate_d4.prepare_auxiliary", "span"),
    ("gate_d4", "encode_qudit_vector", "gate_d4.encode_qudit_vector", "span"),
    ("noise", "NoiseSpec.draws", "noise.NoiseSpec.draws", _draws_counts),
    ("noise", "NoiseSpec.draw", "noise.NoiseSpec.draw", "span"),
    ("analysis", "full_fidelity_report", "analysis.full_fidelity_report", "span"),
    ("analysis", "run_fidelity_experiment",
     "analysis.run_fidelity_experiment", "span"),
    ("analysis", "build_heralded_channel", "analysis.build_heralded_channel", "span"),
    ("analysis", "process_fidelity", "analysis.process_fidelity", "span"),
    ("analysis", "channel_bounds", "analysis.channel_bounds", "span"),
    ("locking", "simulate_lock", "locking.simulate_lock", "span"),
    ("locking", "calibrate_gain", "locking.calibrate_gain", "span"),
    ("locking", "LockTrace.to_csv", "locking.LockTrace.to_csv", "span"),
    ("locking", "DriftModel.path", "locking.DriftModel.path", "span"),
    ("locking", "intensity", "locking.intensity", "count"),
    ("locking", "pid_update", "locking.pid_update", "count"),
    ("netlist", "parse_netlist", "netlist.parse_netlist", "span"),
    ("netlist", "serialize", "netlist.serialize", "span"),
    ("runner", "execute", "runner.execute", "span"),
    ("runner", "RunResult.to_json", "runner.RunResult.to_json", "span"),
]

# Per-layer metrics a traced run prints, as (name, unit).  Counts and times
# are per deck pass; times are the median over the traced passes.
_CALLS_S = [
    "modes.ModeTransform.check", "modes.ModeTransform.columns",
    "modes.compose_transforms", "modes.apply_to_single_photon",
    "elements.element_transform", "elements.builders",
    "fock.apply_transform", "fock.post_select", "fock.project_group",
    "fock.inject", "fock.sample_counts", "protocol",
    "gate_d4.CpfPipeline.run", "gate_d4.CpfPipeline.transfer_operators",
    "noise.NoiseSpec.draws", "analysis.run_fidelity_experiment",
    "analysis.build_heralded_channel", "netlist.parse_netlist",
    "runner.execute",
]
_SELF_S = [
    "gate_d4.CpfPipeline.run", "gate_d4.CpfPipeline.transfer_operators",
    "analysis.run_fidelity_experiment", "analysis.build_heralded_channel",
    "locking.simulate_lock", "runner.execute",
]
_S_ONLY = [
    "analysis.process_fidelity", "analysis.channel_bounds",
    "locking.simulate_lock", "locking.calibrate_gain",
    "locking.LockTrace.to_csv", "netlist.serialize", "runner.RunResult.to_json",
]
_CALLS_ONLY = ["locking.intensity", "locking.pid_update"]

COUNT_METRICS = (
    [(f"{g}.calls", "count") for g in _CALLS_S + _CALLS_ONLY]
    + [("fock.apply_transform.terms_in", "count"),
       ("fock.apply_transform.terms_out", "count"),
       ("fock.post_select.kept_frac", "ratio"),
       ("noise.lost_frac", "ratio")]
)
TIME_METRICS = (
    [(f"{g}.s", "s") for g in _CALLS_S + _S_ONLY]
    + [(f"{g}.self_s", "s") for g in _SELF_S]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
)
SETUP_METRICS = [("gate_d4.CpfPipeline.init.s", "s")]
OVERHEAD_METRIC = ("trace.overhead_frac", "ratio")
LAYER_METRICS = COUNT_METRICS + TIME_METRICS + SETUP_METRICS + [OVERHEAD_METRIC]


class Tracer:
    """Records spans and boundary counts while a job is running."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list = []
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, group, fn, recorder):
        if recorder == "count":
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                if self.job is not None:
                    self.counts[group + ".calls"] += 1
                return fn(*args, **kwargs)
            return counting
        hook = None if recorder == "span" else recorder

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            return self.call(group, fn, args, kwargs, hook)
        return traced

    def call(self, name, fn, args=(), kwargs=None, hook=None):
        """Run ``fn`` inside a span named ``name``."""
        kwargs = kwargs or {}
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        out = None
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.job)
            if hook is not None:
                hook(self.counts, args, out)

    def run_job(self, job_id, fn, *args):
        """Run one job as a root span ``job``; wrappers record inside it."""
        self.job = job_id
        try:
            return self.call("job", fn, args)
        finally:
            self.job = None

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        try:
            for mod_name, attr, group, recorder in TARGETS:
                self._install(_MODULES[mod_name], attr, group, recorder)
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()

    def _install(self, module, attr, group, recorder):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self._wrap(group, original, recorder))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(group, original, recorder)
        for name, mod in sys.modules.items():
            if name == "cpfsim" or name.startswith("cpfsim."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    # -- reduction -----------------------------------------------------------

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def write(self, path, span_lists):
        """Write span lists as JSON lines; ``parent`` is a line index."""
        base = 0
        with open(path, "w") as f:
            for spans in span_lists:
                for name, t0, t1, parent, job in spans:
                    f.write(json.dumps({
                        "name": name, "start": t0 - self.origin,
                        "end": t1 - self.origin, "job": job,
                        "parent": None if parent is None else base + parent,
                    }) + "\n")
                base += len(spans)


def aggregate(spans, counts) -> dict:
    """Per-group calls, span time and self time, and per-layer self time.

    A group's span time counts only its outermost spans, so a builder that
    calls another builder is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    stats: dict = Counter(counts)
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        dur = t1 - t0
        self_s = dur - child_time[i]
        stats[name + ".calls"] += 1
        stats[name + ".self_s"] += self_s
        stats[name.split(".", 1)[0] + ".layer_self_s"] += self_s
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            stats[name + ".s"] += dur
    return stats


def pass_metrics(stats: dict) -> tuple[dict, dict]:
    """Split one pass's aggregate into exact counts and timings."""
    counts = {name: stats.get(name, 0) for name, _ in COUNT_METRICS
              if name.endswith(".calls")}
    counts["fock.apply_transform.terms_in"] = stats.get("fock.apply_transform.terms_in", 0)
    counts["fock.apply_transform.terms_out"] = stats.get("fock.apply_transform.terms_out", 0)
    kept_in = stats.get("fock.post_select.terms_in", 0)
    counts["fock.post_select.kept_frac"] = (
        stats.get("fock.post_select.terms_kept", 0) / kept_in if kept_in else 0.0)
    draws = stats.get("noise.draws", 0)
    counts["noise.lost_frac"] = stats.get("noise.lost", 0) / draws if draws else 0.0
    times = {}
    for name, _ in TIME_METRICS:
        if name.endswith(".self_s") and name[:-7] in LAYERS:
            times[name] = stats.get(name[:-7] + ".layer_self_s", 0.0)
        else:
            times[name] = stats.get(name, 0.0)
    return counts, times


def layers_seen(spans) -> set:
    return {name.split(".", 1)[0] for name, *_ in spans} & set(LAYERS)
