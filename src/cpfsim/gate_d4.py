"""Concrete d=4 realization of the heralded controlled phase-flip gate.

Qudit encoding: levels (0, 1, 2, 3) live in OAM components (-2, -1, 0, +1)
of horizontally polarized photons.  The auxiliary two-level subspace uses
p = 1, so the auxiliaries occupy l = -1 and l = +1.

The module assembles, from element descriptors of the netlist grammar each
built by :func:`cpfsim.elements.element_transform` (but the one projector,
the preparation polarizer):

* the OAM beam splitter, :data:`SPLITTER_CHAIN` (routing l = +1 across, all
  other alphabet components straight through), checkable line by line
  against golden transcripts,
* the input-state preparation table and the auxiliary preparation,
* the OAM-to-polarization conversion plus Bell-measurement stage,
  :data:`BSM_CHAIN`,
* the full four-photon heralded pipeline.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import conventions as conv
from . import elements as el
from .errors import EmptyPostSelection, EncodingError, PatternMismatch, TruncationOverflow
from .fock import MultiPhotonState, apply_transform, from_joint_amplitudes, group_basis_vector
from .modes import (
    Mode,
    ModeSpace,
    ModeTransform,
    SinglePhotonState,
    apply_to_single_photon,
    compose_transforms,
)
from .noise import IDEAL_DRAW, NoiseDraw
from .protocol import BellOutcome, QuditState, correction_unitary

# Qudit alphabet: level index -> azimuthal index.
LEVEL_TO_OAM = (-2, -1, 0, 1)
OAM_TO_LEVEL = {l: i for i, l in enumerate(LEVEL_TO_OAM)}
AUX_P = 1        # auxiliary subspace index; l = -1
AUX_TOP = 3      # top level d-1; l = +1
DEFAULT_TRUNCATION = 4

_S = 1.0 / math.sqrt(2.0)
_PI4 = math.pi / 4
_PI8 = math.pi / 8


def _optic(group, space: ModeSpace) -> ModeTransform:
    """One element group built on ``space``: a lone descriptor is that
    element's transform, a longer group their composition."""
    parts = [el.element_transform(desc, space) for desc in group]
    return parts[0] if len(parts) == 1 else compose_transforms(parts)


# ---------------------------------------------------------------------------
# OAM beam splitter assembly


@dataclass(frozen=True)
class SplitterPaths:
    """Path labels of one beam splitter: inputs a/b, loop arms, outputs c/d."""

    a: str = "A"
    b: str = "B"
    p1: str = "P1"
    p2: str = "P2"
    c: str = "C"
    d: str = "D"
    dump: str = "X"

    def as_dict(self):
        return {
            "A": self.a, "B": self.b, "P1": self.p1, "P2": self.p2,
            "C": self.c, "D": self.d, "X": self.dump,
        }


#: The splitter's stages in application order, each (label, descriptors),
#: paths written as the roles of :meth:`SplitterPaths.as_dict`.  ``BLEG@B``
#: is the port-B conversion leg and ``DTAIL@D`` the final port-D composite
#: that restores horizontal polarization and the original azimuthal indices;
#: the gate, whose auxiliaries enter already converted, runs the chain
#: without them.  PBS1's second input is P2, which no photon reaches there.
SPLITTER_CHAIN = (
    ("O1@A", ("O1CNOT() @ {A}",)),
    ("BLEG@B", ("O2CNOT() @ {B}", f"HWP(angle={_PI4}) @ {{B}}", "DP(angle=0.0) @ {B}",
                "PP() @ {B}")),
    ("PBS1", ("PBS(in=[{A},{P2}],out=[{P1},{P2}])",)),
    ("O2@P2", ("O2CNOT() @ {P2}",)),
    ("PBS2", ("PBS(in=[{P2},{B}],out=[{D},{P2}])",)),
    ("O2MP@P2", ("O2CNOT() @ {P2}", "MIRROR() @ {P2}", "PP() @ {P2}")),
    ("PBS3", ("PBS(in=[{P1},{P2}],out=[{C},{X}])",)),
    ("O1@C", ("O1CNOT() @ {C}",)),
    ("DTAIL@D", ("MIRROR() @ {D}", "O2CNOT() @ {D}", f"HWP(angle={_PI4}) @ {{D}}",
                 f"DP(angle={_PI4}) @ {{D}}")),
)


@dataclass
class Stage:
    label: str
    transform: ModeTransform


@dataclass
class HdBeamSplitter:
    """OAM beam splitter: alphabet components of port A exit at C except
    l = +1, which exits at D; port B (l = -1, +1 only) routes oppositely."""

    space: ModeSpace
    paths: SplitterPaths
    stages: list

    def apply(self, state):
        step = apply_to_single_photon if isinstance(state, SinglePhotonState) else apply_transform
        for st in self.stages:
            state = step(st.transform, state)
        return state


def build_hd_beamsplitter(
    space: ModeSpace, paths: SplitterPaths = SplitterPaths()
) -> HdBeamSplitter:
    """Assemble the splitter from :data:`SPLITTER_CHAIN` on ``paths``."""
    if space.truncation < 2:
        raise TruncationOverflow("splitter needs truncation >= 2")
    roles = paths.as_dict()
    return HdBeamSplitter(space, paths, [
        Stage(label, _optic([desc.format_map(roles) for desc in group], space))
        for label, group in SPLITTER_CHAIN])


# ---------------------------------------------------------------------------
# Golden transcript check


@dataclass
class TranscriptEntry:
    port: str
    label: str
    max_deviation: float

    @property
    def ok(self) -> bool:
        return self.max_deviation <= 1e-10


@dataclass
class TranscriptReport:
    entries: list

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def lines(self):
        return [f"port {e.port}  {e.label:<10s} max|d|={e.max_deviation:.3e}  "
                + ("ok" if e.ok else "DIVERGED") for e in self.entries]


def _load_transcript(port: str) -> list:
    """Parse a packaged golden transcript into (label, {(path, pol, l): amp})."""
    text = resources.files("cpfsim.data").joinpath(
        f"transcript_port_{port.lower()}.txt"
    ).read_text()
    sections = []
    label = None
    terms: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("==="):
            if label is not None:
                sections.append((label, terms))
            label = line.lstrip("= ").strip()
            terms = {}
            continue
        mode_s, re_s, im_s = line.rsplit(" ", 2)
        path, pol, oam = mode_s.split(":")
        terms[(path, pol, int(oam))] = complex(float(re_s), float(im_s))
    if label is not None:
        sections.append((label, terms))
    return sections


def _fixture_state(space, role_map, terms) -> SinglePhotonState:
    return SinglePhotonState.from_terms(
        space,
        {Mode(role_map[path], pol, oam): amp for (path, pol, oam), amp in terms.items()},
    )


def transcript_check(bs: HdBeamSplitter) -> TranscriptReport:
    """Run each port's chain element group by element group and compare every
    intermediate state against the golden transcript, amplitude exact."""
    role_map = bs.paths.as_dict()
    entries = []
    for port in ("A", "B"):
        sections = _load_transcript(port)
        label0, input_terms = sections[0]
        if label0 != "input":
            raise ValueError("transcript fixture must start with an input section")
        state = _fixture_state(bs.space, role_map, input_terms)
        checkpoints = {label: terms for label, terms in sections[1:]}
        for st in bs.stages:
            state = apply_to_single_photon(st.transform, state)
            if st.label in checkpoints:
                expect = _fixture_state(bs.space, role_map, checkpoints[st.label])
                dev = float(np.max(np.abs(state.amps - expect.amps)))
                entries.append(TranscriptEntry(port, st.label, dev))
    return TranscriptReport(entries)


# ---------------------------------------------------------------------------
# Input and auxiliary preparation


@dataclass(frozen=True)
class PreparationRecipe:
    """Element chain preparing one alphabet state from |H, l=0>; the
    prepared photon then passes an H polarizer.

    ``direct`` rows (the fractional q-plate preparations) construct their
    target superposition analytically instead of running elements.
    """

    target: tuple                    # qudit amplitudes, length 4
    # Elements in application order, each an ElementSpec or a descriptor
    # string (anything element_transform takes); the table's rows hold specs.
    elements: tuple = ()
    direct: bool = False

    @functools.cached_property
    def transforms(self) -> tuple:
        """The elements built on the preparation space, on first use, and
        kept: the recipe is frozen and every built block is read-only."""
        space = _prep_space()
        return tuple(el.element_transform(spec, space) for spec in self.elements)


def _recipe(target, elements=(), direct=False):
    """One table row; its descriptors are parsed here, once, at import."""
    return PreparationRecipe(
        target=tuple(complex(x) for x in target),
        elements=tuple(el.parse_descriptor(desc) for desc in elements),
        direct=direct,
    )


#: Table of preparation rows keyed by state name.  The four single-l rows,
#: the four same-parity superpositions, and the two neighbour superpositions
#: prepared directly (their wave-plate route needs a fractional q-plate).
PREPARATION_TABLE = {
    "z0": _recipe((1, 0, 0, 0), (
        f"QWP(angle={-_PI4}) @ S", "QP(q=0.5) @ S", f"QWP(angle={-_PI4}) @ S",
        "SPP(dl=-1) @ S")),
    "z1": _recipe((0, 1, 0, 0), (
        f"QWP(angle={-_PI4}) @ S", "QP(q=0.5) @ S", f"QWP(angle={-_PI4}) @ S")),
    "z2": _recipe((0, 0, 1, 0), (
        f"QWP(angle={_PI4}) @ S", "QP(q=0.5) @ S", f"QWP(angle={_PI4}) @ S",
        "SPP(dl=-1) @ S")),
    "z3": _recipe((0, 0, 0, 1), (
        f"QWP(angle={_PI4}) @ S", "QP(q=0.5) @ S", f"QWP(angle={_PI4}) @ S")),
    "x02+": _recipe((_S, 0, _S, 0), (
        f"HWP(angle={_PI8}) @ S", f"QWP(angle={_PI4}) @ S", "QP(q=0.5) @ S",
        f"QWP(angle={_PI4}) @ S", f"HWP(angle={-_PI8}) @ S", "SPP(dl=-1) @ S")),
    "x02-": _recipe((_S, 0, -_S, 0), (
        f"HWP(angle={-_PI8}) @ S", f"QWP(angle={_PI4}) @ S", "QP(q=0.5) @ S",
        f"QWP(angle={_PI4}) @ S", f"HWP(angle={-_PI8}) @ S", "SPP(dl=-1) @ S")),
    "x13+": _recipe((0, _S, 0, _S), (
        f"HWP(angle={_PI8}) @ S", f"QWP(angle={_PI4}) @ S", "QP(q=0.5) @ S",
        f"QWP(angle={_PI4}) @ S", f"HWP(angle={-_PI8}) @ S")),
    "x13-": _recipe((0, _S, 0, -_S), (
        f"HWP(angle={-_PI8}) @ S", f"QWP(angle={_PI4}) @ S", "QP(q=0.5) @ S",
        f"QWP(angle={_PI4}) @ S", f"HWP(angle={-_PI8}) @ S")),
    "s12": _recipe((0, _S, _S, 0), direct=True),
    "s23": _recipe((0, 0, _S, _S), direct=True),
}


def _prep_space() -> ModeSpace:
    return ModeSpace(("S",), DEFAULT_TRUNCATION)


def encode_qudit_vector(space: ModeSpace, path: str, levels) -> SinglePhotonState:
    """H-polarized photon with the given qudit-level amplitudes on one path."""
    levels = np.asarray(levels, dtype=complex)
    terms = {
        Mode(path, "H", LEVEL_TO_OAM[i]): levels[i]
        for i in range(4)
        if abs(levels[i]) > 0
    }
    return SinglePhotonState.from_terms(space, terms)


def qudit_amplitudes(state: SinglePhotonState) -> np.ndarray:
    """Extract level amplitudes from an H-polarized alphabet photon."""
    levels = np.zeros(4, dtype=complex)
    seen_path = None
    for mode, amp in state.terms():
        if seen_path is None:
            seen_path = mode.path
        elif mode.path != seen_path:
            raise EncodingError("photon spread over several paths")
        if mode.pol != "H" or mode.oam not in OAM_TO_LEVEL:
            raise EncodingError(f"mode {mode} outside the H-polarized alphabet")
        levels[OAM_TO_LEVEL[mode.oam]] = amp
    return levels


def prepare_input(recipe: PreparationRecipe | str):
    """Run one preparation row; return (state, success probability).

    The state lives on a single-path space ("S") and matches the row's target
    up to a global phase.  Raises EmptyPostSelection when the H polarizer
    keeps no amplitude.
    """
    if isinstance(recipe, str):
        try:
            recipe = PREPARATION_TABLE[recipe]
        except KeyError:
            raise KeyError(f"unknown preparation row {recipe!r}") from None
    space = _prep_space()
    if recipe.direct:
        return encode_qudit_vector(space, "S", recipe.target), 1.0
    state = _run_chain(recipe, space)
    amps = el.polarizer(space, "S", 0.0) @ state.amps
    amps[np.abs(amps) <= conv.PRUNE_TOL] = 0.0
    prob = float(np.vdot(amps, amps).real)
    if not prob > 0.0:
        raise EmptyPostSelection("the preparation polarizer keeps no amplitude")
    return SinglePhotonState(space, amps / math.sqrt(prob), normalized=True), prob


def _run_chain(recipe: PreparationRecipe, space: ModeSpace) -> SinglePhotonState:
    """|H, l=0> on path "S" of ``space`` through the recipe's kept transforms."""
    state = SinglePhotonState.from_terms(space, {Mode("S", "H", 0): 1.0})
    for t in recipe.transforms:
        state = apply_to_single_photon(t, state)
    return state


# The auxiliary's chain, a kept recipe outside the table (it prepares no
# qudit): the q-plate and quarter-wave plate, then a Dove prism pair that
# trims the residual relative phase the wave-plate conventions leave between
# the two components (frozen conventions, see :mod:`cpfsim.conventions`).
_AUXILIARY = _recipe((), ("QP(q=0.5) @ S", f"QWP(angle={_PI4}) @ S",
                          f"DP(angle={_PI8}) @ S", "DP(angle=0.0) @ S"))


def prepare_auxiliary(space: ModeSpace, path: str) -> SinglePhotonState:
    """Auxiliary photon (|V,-1> + |H,+1>)/sqrt(2), up to a global phase, on
    ``path`` of ``space``: the chain runs on the preparation space and its
    photon is placed on ``path``.  SpaceMismatch for a path outside
    ``space``; TruncationOverflow for a window narrower than |l| = 1."""
    state = _run_chain(_AUXILIARY, _prep_space())
    return SinglePhotonState.from_terms(
        space, {Mode(path, m.pol, m.oam): amp for m, amp in state.terms(0.0)})


AUX_TARGET_TERMS = {("V", -1): _S, ("H", 1): _S}


def auxiliary_target(space: ModeSpace, path: str) -> SinglePhotonState:
    return SinglePhotonState.from_terms(
        space, {Mode(path, pol, oam): amp for (pol, oam), amp in AUX_TARGET_TERMS.items()}
    )


# ---------------------------------------------------------------------------
# Bell-measurement stage


@dataclass
class BsmStage:
    """OAM-to-polarization conversion arms, measurement splitter, decoder.

    Stage input: photons on D1 and D2, in the converted form
    |p> = |V, l=-1>, |d-1> = |H, l=+1>.  The photon-3 arm folds the two-level
    Hadamard into its exit plate; the Dove-prism pairs set the arm phases so
    the coincidence patterns decode the PhiPlus and PhiMinus branches (the
    Psi branches bunch into one output port and stay ambiguous); the
    analyzers sit on E1 and E2.
    """

    space: ModeSpace
    transform: ModeTransform

    DISTINGUISHABLE = frozenset({BellOutcome.PhiPlus, BellOutcome.PhiMinus})
    PATTERN_TO_OUTCOME = {
        ("+", "+"): BellOutcome.PhiPlus,
        ("-", "-"): BellOutcome.PhiPlus,
        ("+", "-"): BellOutcome.PhiMinus,
        ("-", "+"): BellOutcome.PhiMinus,
    }

    def decode(self, pattern: tuple) -> BellOutcome | None:
        """Map one analyzer coincidence pattern to a Bell outcome, or None."""
        return self.PATTERN_TO_OUTCOME.get(tuple(pattern))

    def analyzer_basis(self, path: str) -> list:
        """Diagonal polarization basis at l = 0 on one output path."""
        h, v = Mode(path, "H", 0), Mode(path, "V", 0)
        return [(s, group_basis_vector(self.space, (path,), {(h,): _S, (v,): amp}))
                for s, amp in (("+", _S), ("-", -_S))]

    @classmethod
    def require_distinguishable(cls, outcomes) -> frozenset:
        """``outcomes`` as a frozenset; EncodingError if the stage cannot
        tell one of them apart."""
        outcomes = frozenset(outcomes)
        unknown = outcomes - cls.DISTINGUISHABLE
        if unknown:
            raise EncodingError(
                f"outcomes {sorted(o.value for o in unknown)} are not"
                " unambiguously distinguished by the measurement stage"
            )
        return outcomes


#: The Bell stage's element groups in application order (see :class:`BsmStage`):
#: each arm's Dove-prism pair, then the arm composed as one group.
BSM_CHAIN = (
    (f"DP(angle={_PI8}) @ D1",), ("DP(angle=0.0) @ D1",),
    (f"QWP(angle={-_PI4}) @ D1", "QP(q=0.5) @ D1", f"QWP(angle={_PI4}) @ D1"),
    (f"DP(angle={_PI4}) @ D2",), ("DP(angle=0.0) @ D2",),
    (f"QWP(angle={-_PI4}) @ D2", "QP(q=0.5) @ D2", "QWP(angle=0.0) @ D2",
     f"PP(phase={conv.BSM_ARM3_TRIM}) @ D2"),
    ("PBS(in=[D1,D2],out=[E1,E2])",),
)


def build_bsm_stage(space: ModeSpace) -> BsmStage:
    return BsmStage(space, compose_transforms([_optic(group, space) for group in BSM_CHAIN]))


# ---------------------------------------------------------------------------
# Full four-photon pipeline


def _phased(state: MultiPhotonState, phase: list) -> MultiPhotonState:
    """``state`` after the per-mode phases ``phase`` (complex numbers by dense
    index): each term times the product of its modes' phases, repeated modes
    included, multiplied left to right as numpy's ``prod`` does."""
    return MultiPhotonState._trusted(
        state.space, state.n,
        {cfg: amp * functools.reduce(operator.mul, [phase[i] for i in cfg])
         for cfg, amp in state.terms.items()},
        state.normalized)


@dataclass(eq=False)
class HeraldedRun:
    """One joint input v read through heralded operators K labelled (Bell
    outcome, analyzer pattern): the gate's transfer operators or a channel's
    Kraus operators.  An outcome's state is formed on request: pure for the
    noise-free gate, a density matrix for a noise-averaged channel."""

    amps: np.ndarray             # (n, 16): K v of each operator
    norms: list                  # ||K v||^2 of each operator
    rows: dict                   # accepted BellOutcome -> indices of its operators
    pattern_probs: dict          # analyzer pattern -> sum of its ||K v||^2, above 1e-30
    per_outcome: dict            # BellOutcome -> trace of its density sum, above 1e-30
    _states: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def port_pattern_prob(self) -> float:    # one photon in each of C1, C2, E1, E2
        return float(sum(self.pattern_probs.values()))

    @property
    def heralding_probability(self) -> float:
        return float(sum(self.per_outcome.values()))

    def heralded_state(self, outcome: BellOutcome) -> QuditState:
        """The first heralding pattern's state, normalized, formed once;
        PatternMismatch if another pattern heralds a different state."""
        if outcome not in self._states:
            chunks = [(self.amps[i], self.norms[i]) for i in self.rows[outcome]
                      if self.norms[i] > 1e-30]
            first = chunks[0][0] / np.linalg.norm(chunks[0][0])
            if any(abs(np.vdot(first, a)) ** 2 < (1 - 1e-9) * q for a, q in chunks[1:]):
                raise PatternMismatch(
                    f"analyzer patterns of {outcome.value} herald different states")
            self._states[outcome] = QuditState(4, first)
        return self._states[outcome]

    def density(self, outcome: BellOutcome) -> np.ndarray:
        """sum K v v^dag K^dag / probability over ``outcome``'s operators, a
        running sum from zero in label order."""
        a = self.amps[self.rows[outcome]]
        rho = np.add.reduce(a[:, :, None] * a.conj()[:, None, :], axis=0, initial=0.0)
        return rho / self.per_outcome[outcome]


def heralded_run(kraus, labels, v: np.ndarray, accepted) -> HeraldedRun:
    """Joint input ``v`` through the (n, 16, 16) operators ``kraus``, labelled
    ``labels``, for the Bell outcomes ``accepted``; EncodingError if the Bell
    stage cannot tell an accepted outcome apart."""
    accepted = BsmStage.require_distinguishable(accepted)
    amps = (np.asarray(kraus, dtype=complex).reshape(-1, 16, 16) @ v[:, None])[..., 0]
    norms = (amps.conj()[:, None, :] @ amps[:, :, None]).real.ravel().tolist()  # np.vdot
    pattern_probs: dict = {}
    rows: dict = {}
    for i, ((outcome, pattern), q) in enumerate(zip(labels, norms)):
        pattern_probs[pattern] = pattern_probs.get(pattern, 0.0) + q
        if outcome in accepted:
            rows.setdefault(outcome, []).append(i)
    # each outcome's density-sum trace: its diagonal, a running sum from zero
    diagonal = amps * amps.conj()
    per_outcome = {}
    for outcome, r in rows.items():
        prob = float(np.add.reduce(np.add.reduce(diagonal[r], axis=0, initial=0.0)).real)
        if prob > 1e-30:
            per_outcome[outcome] = prob
    return HeraldedRun(amps, norms, rows, {p: q for p, q in pattern_probs.items() if q > 1e-30},
                       per_outcome)


class CpfPipeline:
    """The assembled four-photon gate: two splitters without B leg and D tail,
    fold mirrors, the Bell-measurement stage, port post-selection, decoding,
    and corrections."""

    PATHS = (
        "A1", "B1", "P11", "P21", "C1", "D1", "X1",
        "A2", "B2", "P12", "P22", "C2", "D2", "X2",
        "E1", "E2",
    )
    PORTS = ("C1", "C2", "E1", "E2")
    #: Input path of each photon: the data photons enter the splitters at A,
    #: the auxiliaries at B.
    INPUTS = {"photon1": "A1", "photon2": "B1", "photon3": "B2", "photon4": "A2"}
    SPLITTERS = (SplitterPaths("A1", "B1", "P11", "P21", "C1", "D1", "X1"),
                 SplitterPaths("A2", "B2", "P12", "P22", "C2", "D2", "X2"))
    #: The mirrors that fold the D outputs onto the Bell stage's inputs.
    FOLDS = ("MIRROR() @ D1", "MIRROR() @ D2")

    def __init__(self):
        self.space = ModeSpace(self.PATHS, DEFAULT_TRUNCATION)
        # Each splitter runs without its B leg and D tail, and its stage list
        # is cut at PBS3: arm-phase jitter enters inside the loop, ahead of
        # the recombining splitter.
        pre, post, self._jitter_paths = [], [], ()
        for paths in self.SPLITTERS:
            stages = [st for st in build_hd_beamsplitter(self.space, paths).stages
                      if st.label not in ("BLEG@B", "DTAIL@D")]
            cut = [st.label for st in stages].index("PBS3")
            pre += [st.transform for st in stages[:cut]]
            post += [st.transform for st in stages[cut:]]
            self._jitter_paths += (paths.p2,)
        self._pre = compose_transforms(pre)
        self.stage = build_bsm_stage(self.space)
        post += [*(el.element_transform(desc, self.space) for desc in self.FOLDS),
                 self.stage.transform]
        self._post = compose_transforms(post)
        # What no draw changes, built once: the 16 injected basis inputs, the
        # dense indices the input phases (A1/A2 alphabet, B1/B2 ``H, +1``) and
        # the arm jitter land on, each index's mode and path, and each E
        # path's first index with its conjugated analyzer vectors.
        sp = self.space
        self._inputs = [self.inject(c.reshape(4, 4)) for c in np.eye(16, dtype=complex)]
        self._in_phase_modes = [sp.index(Mode(path, "H", l))
                                for path in ("A1", "A2") for l in LEVEL_TO_OAM]
        self._in_phase_modes += [sp.index(Mode(path, "H", 1)) for path in ("B1", "B2")]
        self._jitter_modes = [sp.path_indices(path).tolist() for path in self._jitter_paths]
        self._modes = [sp.mode(i) for i in range(sp.dim)]
        self._mode_paths = [m.path for m in self._modes]
        self._analyzers = [
            (int(sp.path_indices(path)[0]),
             [(s, v.conj().tolist()) for s, v in self.stage.analyzer_basis(path)])
            for path in ("E1", "E2")]
        # Noise-free draws all share these operators: loss deletes whole
        # shots and never touches amplitudes.
        self._ideal = self._pattern_operators(IDEAL_DRAW)

    # -- state assembly ----------------------------------------------------

    def inject(self, c_matrix: np.ndarray) -> MultiPhotonState:
        """Four-photon input: joint data amplitudes c[m, n] plus auxiliaries."""
        c_matrix = np.asarray(c_matrix, dtype=complex)
        if c_matrix.shape != (4, 4):
            raise EncodingError("joint input must be a 4x4 amplitude matrix")
        a1, b1, b2, a2 = self.INPUTS.values()
        aux = [(Mode(b, "V", LEVEL_TO_OAM[AUX_P]), Mode(b, "H", LEVEL_TO_OAM[AUX_TOP]))
               for b in (b1, b2)]
        slots = [
            [Mode(a1, "H", LEVEL_TO_OAM[m]) for m in range(4)],
            list(aux[0]),
            list(aux[1]),
            [Mode(a2, "H", LEVEL_TO_OAM[n]) for n in range(4)],
        ]
        tensor = np.einsum(
            "mn,a,b->mabn",
            c_matrix,
            np.full(2, _S, dtype=complex),
            np.full(2, _S, dtype=complex),
        )
        return from_joint_amplitudes(self.space, slots, tensor)

    # -- runs ----------------------------------------------------------------

    def _pattern_operators(self, draw: NoiseDraw) -> dict:
        """The Fock-engine pipeline, one basis input at a time, through one
        draw: its input phases (dephasing on the A1/A2 alphabet, visibility
        on B1/B2 ``H, +1``), ``_pre``, its arm jitter on the loop arms,
        ``_post``.  Noise enters only as single-mode phases, so both segments
        and the injected inputs serve every draw unchanged.

        Returns {analyzer pattern: R} with R the 16x16 matrix taking joint
        input amplitudes to the uncorrected (C1, C2) amplitudes that pattern
        heralds, in analyzer order; patterns that never fire are dropped.
        """
        in_phase = [1 + 0j] * self.space.dim
        for i, phi in zip(self._in_phase_modes,
                          (*draw.dephasing[0], *draw.dephasing[1], *draw.aux_phases)):
            in_phase[i] = complex(np.exp(1j * phi))
        arm_phase = [1 + 0j] * self.space.dim
        for indices, z in zip(self._jitter_modes, draw.zeta):
            phase = complex(np.exp(1j * z))
            for i in indices:
                arm_phase[i] = phase
        modes, paths = self._modes, self._mode_paths
        (e1_base, e1), (e2_base, e2) = self._analyzers
        ops = {(s1, s2): np.zeros((16, 16), dtype=complex) for s1, _ in e1 for s2, _ in e2}
        ports = set(self.PORTS)
        for col, state in enumerate(self._inputs):
            state = _phased(apply_transform(self._pre, _phased(state, in_phase)), arm_phase)
            state = apply_transform(self._post, state)
            for cfg, amp in state.terms.items():
                at = {paths[i]: i for i in cfg}
                if at.keys() != ports:      # four photons: one on each port
                    continue
                x, y = modes[at["C1"]], modes[at["C2"]]
                for mode in (x, y):
                    if mode.pol != "H" or mode.oam not in OAM_TO_LEVEL:
                        raise EncodingError(f"heralded photon left the alphabet: {mode}")
                row = 4 * OAM_TO_LEVEL[x.oam] + OAM_TO_LEVEL[y.oam]
                j1, j2 = at["E1"] - e1_base, at["E2"] - e2_base
                for s1, v1 in e1:
                    for s2, v2 in e2:
                        ops[(s1, s2)][row, col] += amp * v1[j1] * v2[j2]
        return {p: k for p, k in ops.items() if k.any()}

    def transfer_operators(self, draw: NoiseDraw = IDEAL_DRAW) -> dict:
        """Unnormalized heralded transfer matrix per Bell outcome and pattern.

        Returns {(outcome, pattern): K} with K the 16x16 matrix taking joint
        input amplitudes to corrected heralded amplitudes; Kraus operators of
        the heralded channel up to the common normalization.  The only place
        the pipeline runs on the Fock engine: every run and analysis of the
        gate is algebra on these operators.
        """
        if draw.lost:
            return {}
        raw = self._ideal if draw.trivial else self._pattern_operators(draw)
        kraus = {}
        for pattern, r in raw.items():
            outcome = self.stage.decode(pattern)
            if outcome is not None:
                kraus[(outcome, pattern)] = correction_unitary(outcome, 4) @ r
        return kraus

    def run(self, c_matrix: np.ndarray, accepted) -> HeraldedRun:
        """:func:`heralded_run` of one joint input on the noise-free transfer
        operators, each accepted outcome's pure state checked (PatternMismatch)."""
        c = np.asarray(c_matrix, dtype=complex)
        if c.shape != (4, 4):
            raise EncodingError("joint input must be a 4x4 amplitude matrix")
        ops = self.transfer_operators(IDEAL_DRAW)
        run = heralded_run(list(ops.values()), ops, c.reshape(-1) / np.linalg.norm(c), accepted)
        for outcome in run.per_outcome:
            run.heralded_state(outcome)
        return run


@functools.cache
def pipeline() -> CpfPipeline:
    """The one shared pipeline, built on first use."""
    return CpfPipeline()


def run_cpf_d4(in1, in4, accepted) -> HeraldedRun:
    """The noise-free gate on the product of two qudits, each 4 level
    amplitudes, for the Bell outcomes ``accepted`` (``pipeline().run``)."""
    v1, v4 = np.asarray(in1, dtype=complex), np.asarray(in4, dtype=complex)
    if v1.shape != (4,) or v4.shape != (4,):
        raise EncodingError("single-photon input must have 4 level amplitudes")
    return pipeline().run(np.outer(v1, v4), accepted=accepted)
