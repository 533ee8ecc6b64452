"""Job decks, job bodies and output checks of the four benchmark workloads.

A workload is a *deck* of jobs generated from the seed.  The timed loop runs
the deck's jobs in order, one at a time, and starts over at the end.  Each
deck is stratified: the seed draws every parameter, but the structural mix
that sets how much work a job does (recipe pairs, photon/path/truncation
grid, lost noise draws, drift kinds) is the same for every seed, so runs
with different seeds measure comparable work.  Each workload also has one
fixed warm-up job, the same for every seed, which set-up runs.

The program sees only generated netlist text (and, for ``noisy_fidelity``,
the ``NoiseSpec`` built from the same numbers).  Jobs call cpfsim through its
public Python API; nothing is written to disk inside a job.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from cpfsim import analysis, elements, gate_d4, modes, netlist, noise, protocol, runner
from cpfsim.locking import LockParams

DATA_RECIPES = ("z0", "z1", "z2", "z3", "x02+", "x02-", "x13+", "x13-", "s12", "s23")
ACCEPT_SETS = (("PhiPlus",), ("PhiMinus",), ("PhiPlus", "PhiMinus"))

# Output-check tolerances.  Fixed here; a change that needs them loosened
# has changed the program's results.
HERALD_TOL = 1e-12        # per-outcome heralding probability, 1/16
ORACLE_INFIDELITY = 1e-9  # 1 - |<oracle . input|heralded>|^2
PROB_TOL = 1e-9           # distributions, herald agreement, Kraus completeness

CIRCUIT_REPLICAS = 16     # jobs per grid cell of a circuit_netlists deck
NOISE_DRAWS = 2           # noise.draws of every noisy_fidelity job
NOISY_DECK = 8            # jobs per noisy_fidelity deck
NOISY_LOST_SLOT = 4       # the one deck slot whose job loses one of its draws
LOCK_DURATION = 4.0       # simulated seconds per lock_loop job
LOCK_MOD_FREQS_HZ = (500, 750, 1000, 1250, 1500)
WARMUP_SEED = 0           # seeds every workload's fixed warm-up job


@dataclass
class Job:
    """One generated job: the netlist text plus what its checks need."""

    text: str
    meta: dict = field(default_factory=dict)


@dataclass
class Output:
    """What a job hands back: the result JSON and, for lock jobs, the CSV."""

    json_text: str
    csv_text: str | None = None
    extra: dict = field(default_factory=dict)


def _execute(text: str):
    return runner.execute(netlist.parse_netlist(text))


def netlist_job(job: Job) -> Output:
    """Parse, execute and serialize one netlist."""
    return Output(_execute(job.text).to_json())


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# ---------------------------------------------------------------------------
# gate_netlists: the `cpfsim simulate` path on cpf_d4 netlists


_GATE_TEMPLATE = """\
version 1

[space]
paths A1 B1 P11 P21 C1 D1 X1 A2 B2 P12 P22 C2 D2 X2 E1 E2
truncation 4

[source photon1]
path A1
recipe {r1}

[source photon2]
path B1
recipe aux

[source photon3]
path B2
recipe aux

[source photon4]
path A2
recipe {r4}

[detect]
pattern C1=1 C2=1 E1=1 E2=1
accept {accept}

[run]
task cpf_d4
mode {mode}
shots {shots}
seed {seed}
noise.sigma_zeta 0
noise.oam_dephasing 0
noise.loss 0
noise.visibility 1
"""


def gate_deck(rng: np.random.Generator) -> list[Job]:
    """All 100 photon1 x photon4 recipe pairs, each once, in seeded order.

    Accept sets and analytic/shots mode are spread evenly over the deck.
    """
    pairs = [(a, b) for a in DATA_RECIPES for b in DATA_RECIPES]
    order = rng.permutation(len(pairs))
    accepts = [ACCEPT_SETS[i % 3] for i in range(len(pairs))]
    shots_mode = [i % 2 == 1 for i in range(len(pairs))]
    accepts = [accepts[i] for i in rng.permutation(len(pairs))]
    shots_mode = [shots_mode[i] for i in rng.permutation(len(pairs))]
    return [_gate_job(rng, *pairs[k], accepts[slot], shots_mode[slot])
            for slot, k in enumerate(order)]


def _gate_job(rng, r1, r4, accept, shots_mode) -> Job:
    shots = int(rng.integers(100, 10001)) if shots_mode else 0
    text = _GATE_TEMPLATE.format(
        r1=r1, r4=r4, accept=" ".join(accept),
        mode="shots" if shots else "analytic", shots=shots,
        seed=int(rng.integers(0, 2**31)),
    )
    return Job(text, {"r1": r1, "r4": r4, "accept": accept, "shots": shots})


def gate_warmup() -> Job:
    return _gate_job(np.random.default_rng(WARMUP_SEED), "z0", "x02+",
                     ACCEPT_SETS[2], False)


def gate_check(job: Job, out: Output) -> list[str]:
    res = json.loads(out.json_text)
    errors = []
    accept = set(job.meta["accept"])
    per = res["summary"]["per_outcome_probability"]
    if set(per) != accept:
        errors.append(f"heralded outcomes {sorted(per)} != accepted {sorted(accept)}")
    for name, p in per.items():
        if abs(p - 1 / 16) > HERALD_TOL:
            errors.append(f"{name} heralds {p!r}, expected 1/16")
    total = res["heralding_probability"]
    if abs(total - len(accept) / 16) > HERALD_TOL:
        errors.append(f"heralding probability {total!r} != {len(accept)}/16")
    v1 = analysis.STATE_VECTORS[job.meta["r1"]]
    v4 = analysis.STATE_VECTORS[job.meta["r4"]]
    target = protocol.cpf_oracle(4) @ np.kron(v1, v4)
    target = target / np.linalg.norm(target)
    for name, entries in (res["states"] or {}).items():
        state = protocol.QuditState.from_json_entries(4, entries)
        fid = abs(np.vdot(target, state.amps)) ** 2 / state.norm2()
        if 1.0 - fid > ORACLE_INFIDELITY:
            errors.append(f"{name}: heralded state infidelity {1.0 - fid:.3e}")
    if job.meta["shots"] and sum(res["tallies"].values()) != job.meta["shots"]:
        errors.append("shot tallies do not sum to shots")
    return errors


# ---------------------------------------------------------------------------
# circuit_netlists: generic element chains on the Fock engine


_PATH_NAMES = ("A", "B", "C", "D")
_SHIFT_KINDS = ("QP", "SPP")
_NO_SHIFT_KINDS = ("HWP", "QWP", "DP", "PP", "DL", "MIRROR", "PATHPHASE",
                   "INTERF", "PBS", "O1CNOT", "O2CNOT")
_ELEMENT_KINDS = _SHIFT_KINDS + _NO_SHIFT_KINDS


def _recipe_max_oam(recipe: str) -> int:
    if recipe == "aux":
        return 1
    levels = np.flatnonzero(np.abs(analysis.STATE_VECTORS[recipe]) > 0)
    return max(abs(gate_d4.LEVEL_TO_OAM[i]) for i in levels)


def _circuit_element(rng, paths, kind) -> str:
    at = paths[int(rng.integers(len(paths)))]
    angle = _fmt(float(rng.uniform(-math.pi, math.pi)))
    if kind in ("HWP", "QWP", "DP", "INTERF"):
        return f"{kind}(angle={angle}) @ {at}"
    if kind in ("PP", "PATHPHASE"):
        return f"{kind}(phase={angle}) @ {at}"
    if kind in ("DL", "MIRROR", "O1CNOT", "O2CNOT"):
        return f"{kind}() @ {at}"
    if kind == "PBS":
        a, b = rng.choice(len(paths), size=2, replace=False)
        return f"PBS(in=[{paths[a]},{paths[b]}],out=[{paths[a]},{paths[b]}])"
    raise ValueError(kind)


def circuit_deck(rng: np.random.Generator) -> list[Job]:
    """``CIRCUIT_REPLICAS`` jobs per (photons 1-3) x (paths 2-4) x
    (truncation 2-6) cell: enough distinct jobs that one run rarely repeats
    one, so rare heavy jobs (three photons bunched on one path) weigh the
    same in every seed's deck.

    Each slot's chain length (4-16 elements) is fixed by its place in the
    grid, and element kinds are dealt from shuffled rounds of all thirteen
    non-projector kinds, so the seed varies the elements but not how many
    or which mix of kinds a cell gets.
    Photons use data recipes or ``aux`` on random paths (so some share a
    path and bunch).  OAM-shifting elements (QP, SPP) are added only while a
    conservative bound on |l| stays inside the truncation window, so no job
    raises ``TruncationOverflow``.
    """
    grid = [(n, p, t) for n in (1, 2, 3) for p in (2, 3, 4) for t in range(2, 7)]
    grid = [(*cell, 4 + (c + 15 * r) % 13)
            for r in range(CIRCUIT_REPLICAS) for c, cell in enumerate(grid)]
    return [_circuit_job(rng, *grid[k]) for k in rng.permutation(len(grid))]


def _circuit_job(rng, n_photons, n_paths, trunc, n_elements) -> Job:
    paths = _PATH_NAMES[:n_paths]
    recipes = DATA_RECIPES + ("aux",)
    sources = []
    for i in range(n_photons):
        sources.append((f"photon{i + 1}", paths[int(rng.integers(n_paths))],
                        recipes[int(rng.integers(len(recipes)))]))
    bound = max(_recipe_max_oam(r) for _, _, r in sources)
    chain, bag = [], []
    for _ in range(n_elements):
        if not bag:
            bag = [_ELEMENT_KINDS[i] for i in rng.permutation(len(_ELEMENT_KINDS))]
        kind = bag.pop()
        if kind in _SHIFT_KINDS:
            shift = int(rng.choice([1, 2]))
            if bound + shift > trunc:
                kind = _NO_SHIFT_KINDS[int(rng.integers(len(_NO_SHIFT_KINDS)))]
            else:
                bound += shift
                at = paths[int(rng.integers(n_paths))]
                chain.append(f"QP(q={shift / 2:g}) @ {at}" if kind == "QP" else
                             f"SPP(dl={shift * int(rng.choice([-1, 1]))}) @ {at}")
                continue
        chain.append(_circuit_element(rng, paths, kind))
    pattern = {}
    if rng.random() < 1 / 3:
        pattern = {paths[int(rng.integers(n_paths))]: int(rng.integers(0, 2))}
    shots = int(rng.integers(100, 10001)) if rng.random() < 0.5 else 0
    lines = ["version 1", "", "[space]", f"paths {' '.join(paths)}",
             f"truncation {trunc}"]
    for name, path, recipe in sources:
        lines += ["", f"[source {name}]", f"path {path}", f"recipe {recipe}"]
    lines += ["", "[elements]", *chain]
    if pattern:
        lines += ["", "[detect]", "pattern " + " ".join(
            f"{p}={c}" for p, c in pattern.items())]
    lines += ["", "[run]", "task circuit",
              f"mode {'shots' if shots else 'analytic'}", f"shots {shots}",
              f"seed {int(rng.integers(0, 2**31))}"]
    return Job("\n".join(lines) + "\n", {
        "paths": paths, "truncation": trunc, "sources": sources,
        "chain": chain, "pattern": pattern, "shots": shots})


def circuit_warmup() -> Job:
    """A mid-grid cell: two photons on three paths at truncation 4."""
    return _circuit_job(np.random.default_rng(WARMUP_SEED), 2, 3, 4, 10)


def _single_photon_reference(meta: dict) -> tuple[float, dict]:
    """(herald, path distribution) of a one-photon chain, propagated as one
    amplitude vector with ``element_transform`` + ``apply_to_single_photon``."""
    space = modes.ModeSpace(meta["paths"], meta["truncation"])
    (_, path, recipe), = meta["sources"]
    if recipe == "aux":
        state = gate_d4.prepare_auxiliary(space, path)
    else:
        prepared, _ = gate_d4.prepare_input(recipe)
        state = gate_d4.encode_qudit_vector(
            space, path, gate_d4.qudit_amplitudes(prepared))
    for desc in meta["chain"]:
        state = modes.apply_to_single_photon(
            elements.element_transform(desc, space), state)
    probs = {}
    for p in space.paths:
        probs[p] = float(np.sum(np.abs(state.amps[space.path_indices(p)]) ** 2))
    total = sum(probs.values())
    probs = {p: v / total for p, v in probs.items()}
    herald = None
    if meta["pattern"]:
        (p_req, c_req), = meta["pattern"].items()
        keep = {p: v for p, v in probs.items() if (p == p_req) == (c_req == 1)}
        herald = sum(keep.values())
        probs = {p: v / herald for p, v in keep.items()} if herald > 0 else {}
    return herald, {f"{p}:1": v for p, v in probs.items() if v > PROB_TOL}


def circuit_check(job: Job, out: Output) -> list[str]:
    res = json.loads(out.json_text)
    errors = []
    dist = res["summary"].get("distribution")
    herald = res["heralding_probability"]
    if dist is None and herald != 0.0:
        errors.append("no distribution although post-selection kept amplitude")
    if dist is not None and abs(sum(dist.values()) - 1.0) > PROB_TOL:
        errors.append(f"distribution sums to {sum(dist.values())!r}")
    if len(job.meta["sources"]) == 1:
        ref_herald, ref_dist = _single_photon_reference(job.meta)
        if ref_herald is not None and abs((herald or 0.0) - ref_herald) > PROB_TOL:
            errors.append(f"herald {herald!r} != single-photon {ref_herald!r}")
        if dist is not None:
            for key in set(dist) | set(ref_dist):
                if abs(dist.get(key, 0.0) - ref_dist.get(key, 0.0)) > PROB_TOL:
                    errors.append(f"P({key}) differs from single-photon propagation")
    if job.meta["shots"] and dist is not None and \
            sum(res["tallies"].values()) != job.meta["shots"]:
        errors.append("shot tallies do not sum to shots")
    return errors


# ---------------------------------------------------------------------------
# noisy_fidelity: the `cpfsim fidelity` path plus the heralded channel


_FIDELITY_TEMPLATE = """\
version 1

[detect]
accept PhiPlus PhiMinus

[run]
task fidelity
mode analytic
shots 0
seed {seed}
noise.sigma_zeta {sigma_zeta}
noise.oam_dephasing {oam_dephasing}
noise.visibility {visibility}
noise.loss {loss}
noise.draws {draws}
"""


def noisy_deck(rng: np.random.Generator) -> list[Job]:
    """Eight noise ensembles of two draws each.

    Every noise level is drawn from its range.  The netlist seed is then
    drawn until the ensemble loses exactly as many draws as the slot
    prescribes: one draw in slot ``NOISY_LOST_SLOT``, none elsewhere.  A lost
    draw skips its Fock runs, so this keeps the work per deck equal across
    seeds, and no ensemble loses every draw (which would leave no heralded
    channel to build).
    """
    return [_noisy_job(rng, 1 if slot == NOISY_LOST_SLOT else 0)
            for slot in range(NOISY_DECK)]


def _noisy_job(rng, want_lost) -> Job:
    params = {
        "sigma_zeta": float(_fmt(rng.uniform(0.02, 0.3))),
        "oam_dephasing": float(_fmt(rng.uniform(0.0, 0.15))),
        "visibility": float(_fmt(rng.uniform(0.9, 1.0))),
        "loss": float(_fmt(rng.uniform(0.01, 0.1))),
    }
    while True:
        seed = int(rng.integers(0, 2**31))
        spec = noise.NoiseSpec(seed=seed, **params)
        if sum(d.lost for d in spec.draws(NOISE_DRAWS)) == want_lost:
            break
    text = _FIDELITY_TEMPLATE.format(seed=seed, draws=NOISE_DRAWS, **params)
    return Job(text, {"spec": spec})


def noisy_warmup() -> Job:
    return _noisy_job(np.random.default_rng(WARMUP_SEED), 0)


def noisy_job(job: Job) -> Output:
    result = _execute(job.text)
    text = result.to_json()
    channel = analysis.build_heralded_channel(job.meta["spec"], NOISE_DRAWS)
    f_proc = analysis.process_fidelity(channel, protocol.cpf_oracle(4))
    lower, upper = analysis.channel_bounds(channel, "fourier")
    return Output(text, extra={"channel": channel, "process_fidelity": f_proc,
                               "bracket": (lower, upper)})


def noisy_check(job: Job, out: Output) -> list[str]:
    res = json.loads(out.json_text)
    errors = []
    channel = out.extra["channel"]
    if abs(res["heralding_probability"] - channel.herald_probability) > PROB_TOL:
        errors.append(f"report herald {res['heralding_probability']!r} != "
                      f"channel herald {channel.herald_probability!r}")
    gram = sum(k.conj().T @ k for k in channel.kraus)
    resid = np.max(np.abs(gram - channel.herald_probability * np.eye(16)))
    if resid > PROB_TOL:
        errors.append(f"sum K^dag K deviates from a multiple of I by {resid:.3e}")
    lower, upper = out.extra["bracket"]
    f_proc = out.extra["process_fidelity"]
    if not lower - PROB_TOL <= f_proc <= upper + PROB_TOL:
        errors.append(f"process fidelity {f_proc!r} outside Fourier bracket "
                      f"[{lower!r}, {upper!r}]")
    for key in ("f_zx", "f_xz"):
        if not 0.0 <= res["summary"][key] <= 1.0:
            errors.append(f"{key} = {res['summary'][key]!r} outside [0, 1]")
    return errors


# ---------------------------------------------------------------------------
# lock_loop: the phase-lock simulation


_LOCK_TEMPLATE = """\
version 1

[run]
task lock
mode analytic
shots 0
seed {seed}
duration {duration}
setpoint 0.0

[lock]
mod_depth 0.2
mod_freq {mod_freq}
demod_phase 1.5707963267948966
e0h 1
e0v 1
{drift}
pid.kp {kp}
pid.ki {ki}
pid.kd 0
"""


def lock_deck(rng: np.random.Generator) -> list[Job]:
    """One job per drift kind x modulation frequency, with drift size and
    PID gains drawn from the range where the loop locks (kp 0.15-0.45,
    ki 150-350).

    The loop runs one control step per modulation period, so the five
    frequencies give 2000-6000 steps per 4 s job.  Jobs of one fixed cost
    would make the median latency jump between the fast and slow phases of
    a shared machine; a spread of costs keeps it continuous.
    """
    cells = [(kind, f) for kind in ("random-walk", "sinusoidal", "step")
             for f in LOCK_MOD_FREQS_HZ]
    return [_lock_job(rng, *cells[k]) for k in rng.permutation(len(cells))]


def _lock_job(rng, kind, freq_hz) -> Job:
    drift = [f"drift.kind {kind}",
             f"drift.magnitude {_fmt(rng.uniform(0.2, 1.0))}"]
    if kind == "sinusoidal":
        drift.append(f"drift.period {_fmt(rng.uniform(0.5, 2.0))}")
    elif kind == "step":
        drift.append(f"drift.step_time {_fmt(rng.uniform(0.5, 2.0))}")
    mod_freq = 2 * math.pi * freq_hz
    text = _LOCK_TEMPLATE.format(
        seed=int(rng.integers(0, 2**31)), duration=LOCK_DURATION,
        mod_freq=repr(mod_freq), drift="\n".join(drift),
        kp=_fmt(rng.uniform(0.15, 0.45)), ki=_fmt(rng.uniform(150.0, 350.0)))
    return Job(text, {"steps": lock_steps(mod_freq)})


def lock_warmup() -> Job:
    """The middle cell: a random-walk drift at 1000 Hz, 4000 control steps."""
    return _lock_job(np.random.default_rng(WARMUP_SEED), "random-walk", 1000)


def lock_steps(mod_freq: float, duration: float = LOCK_DURATION) -> int:
    """Control steps of one lock run: one per modulation period."""
    p = LockParams(mod_freq=mod_freq)
    per_period = max(int(round(p.mod_period / p.sample_dt)), 1)
    return max(int(duration / (per_period * p.sample_dt)), 1)


def lock_job(job: Job) -> Output:
    result = _execute(job.text)
    return Output(result.to_json(), result.trace_csv)


def lock_check(job: Job, out: Output) -> list[str]:
    summary = json.loads(out.json_text)["summary"]
    errors = []
    if summary["diverged"]:
        errors.append("lock loop diverged")
    if not summary["rms_closed"] < summary["rms_open"]:
        errors.append(f"rms_closed {summary['rms_closed']!r} >= "
                      f"rms_open {summary['rms_open']!r}")
    rows = out.csv_text.count("\n") - 1
    if rows != job.meta["steps"]:
        errors.append(f"trace CSV has {rows} rows, expected {job.meta['steps']}")
    return errors


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    deck: object
    warmup: object            # () -> the fixed warm-up Job set-up runs
    job: object
    check: object
    layers: tuple             # module layers whose spans every deck must show
    uses_pipeline: bool       # builds the four-photon pipeline in set-up
    work_unit: tuple | None = None   # (metric name, unit, amount per job)


WORKLOADS = {
    w.name: w for w in (
        Workload("gate_netlists", gate_deck, gate_warmup,
                 netlist_job, gate_check,
                 ("netlist", "runner", "elements", "modes", "fock",
                  "protocol", "gate_d4"), True),
        Workload("circuit_netlists", circuit_deck, circuit_warmup,
                 netlist_job, circuit_check,
                 ("netlist", "runner", "elements", "modes", "fock"), False),
        Workload("noisy_fidelity", noisy_deck, noisy_warmup,
                 noisy_job, noisy_check,
                 ("netlist", "runner", "analysis", "noise", "gate_d4",
                  "fock", "modes", "protocol"), True,
                 ("draws_per_s", "1/s", NOISE_DRAWS)),
        Workload("lock_loop", lock_deck, lock_warmup,
                 lock_job, lock_check,
                 ("netlist", "runner", "locking"), False,
                 ("lock_sim_s_per_s", "s/s", LOCK_DURATION)),
    )
}
