"""Single-photon transformations of every optical element in the setup.

Phase conventions are frozen in :mod:`cpfsim.conventions`; see that module for
the full list.  Every constructor but :func:`polarizer` returns a unitary
:class:`~cpfsim.modes.ModeTransform` whose block covers the designated
path(s) only; it acts as the identity elsewhere.  A single-path element is a
sum of at most two Kronecker products of a 2x2 Jones matrix with a
(2L+1)-square OAM matrix (identity, shift or phased flip); the PBS block
covers its involved paths.

Element descriptors serialize as ``NAME(key=value,...) @ path[,path...]``,
e.g. ``HWP(angle=0.3927) @ A`` or ``PBS(in=[A,B],out=[C,D])``; the same grammar
is consumed by the netlist parser.

:func:`element_transform` builds a descriptor on a mode space through two
caches.  The first is keyed by (descriptor, space).  The second holds the
fixed optics, the kinds with no continuous parameter, keyed by kind, OAM
shift, truncation and port layout: such a block is built and checked once,
then placed on the paths of each (descriptor, space) without a second
check, since it is read-only and its unitarity does not depend on which
paths it sits on.

Every build takes its mode indices from :mod:`cpfsim.modes`, kept per
(truncation, path positions), and a placed block shares its sparse columns
with every placement.  The OAM identity and shift matrices are formed on
each call: kept per (truncation, shift), they saved under 1 % of a circuit
job.  A parsed descriptor keeps the verdict of its check
(:attr:`ElementSpec.problem`), so parsing, validation and a run check it
once.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import conventions as conv
from .errors import CpfSimError, SpaceMismatch, UnknownElement
from .modes import ModeSpace, ModeTransform, POLS, compose_transforms

_SHIFT_TOL = 1e-12  # an OAM shift this close to an integer is that integer
_I2 = np.eye(2)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product a (x) b of two matrices as one broadcast product:
    the elementwise products ``np.kron`` forms, so the same bits, without its
    per-call overhead."""
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def _on_path(space: ModeSpace, path: str, terms, provenance) -> ModeTransform:
    """Transform acting as sum_k J_k (x) O_k on ``path``, the identity elsewhere.

    Each term pairs a 2x2 Jones matrix with a (2L+1)-square OAM matrix.  A
    zero column of O_k is an OAM image outside the window: each input mode
    that a term with a nonzero Jones column sends there overflows, and its
    whole column is zeroed.  The overflow mask is formed only when some O_k
    has a zero column.
    """
    if path not in space.paths:
        raise SpaceMismatch(f"path {path!r} not in space")
    n = 2 * space.truncation + 1
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    lost = None
    for jones, orbital in terms:
        block += _kron(jones, orbital)
        kept = orbital.any(axis=0)
        if not kept.all():
            mask = np.outer(jones.any(axis=0), ~kept).ravel()
            lost = mask if lost is None else lost | mask
    if lost is None:
        return ModeTransform(space, (path,), block, provenance)
    block[:, lost] = 0.0
    base = int(space.path_indices(path)[0])
    overflow = frozenset(base + int(k) for k in np.flatnonzero(lost))
    return ModeTransform(space, (path,), block, provenance, overflow)


def _oams(space: ModeSpace) -> range:
    return range(-space.truncation, space.truncation + 1)


def _flip(phases) -> np.ndarray:
    """OAM matrix |l> -> phases[l] |-l>, with ``phases`` listed from -L to L."""
    return np.flipud(np.diag(phases))


def _shift(space: ModeSpace, dl: int) -> np.ndarray:
    """OAM matrix |l> -> |l + dl>, the identity at dl = 0; columns whose image
    leaves the window are zero."""
    return np.eye(2 * space.truncation + 1, k=-dl)


def hwp_matrix(angle: float) -> np.ndarray:
    """Half-wave plate Jones matrix at fast-axis angle ``angle``."""
    c, s = math.cos(2 * angle), math.sin(2 * angle)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp_matrix(angle: float) -> np.ndarray:
    """Quarter-wave plate Jones matrix, R(a) diag(i, 1) R(-a)."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([1j, 1.0]) @ rot.T


def hwp(space, path, angle) -> ModeTransform:
    return _on_path(space, path, [(hwp_matrix(angle), _shift(space, 0))],
                    f"HWP(angle={angle:g}) @ {path}")


def qwp(space, path, angle) -> ModeTransform:
    return _on_path(space, path, [(qwp_matrix(angle), _shift(space, 0))],
                    f"QWP(angle={angle:g}) @ {path}")


_R = np.array([1.0, 1j]) / math.sqrt(2)  # R in (H, V) amplitudes
_L = np.array([1.0, -1j]) / math.sqrt(2)


def qplate(space, path, q) -> ModeTransform:
    """q-plate: swaps circular polarization handedness and shifts l by +-2q:
    |L><R| (x) shift(+2q) + |R><L| (x) shift(-2q).  An input with a circular
    component whose image leaves the window overflows as a whole."""
    shift = 2 * q
    if abs(shift - round(shift)) > _SHIFT_TOL:
        raise UnknownElement(
            f"QP(q={q}) shifts l by {shift}, not an integer; fractional charges "
            "are handled by direct state constructors instead"
        )
    shift = int(round(shift))
    return _on_path(space, path, [(np.outer(_L, _R.conj()), _shift(space, shift)),
                                  (np.outer(_R, _L.conj()), _shift(space, -shift))],
                    f"QP(q={q}) @ {path}")


def spp(space, path, dl) -> ModeTransform:
    """Spiral phase plate: shifts the azimuthal index by the integer ``dl``."""
    dl = int(round(dl))
    return _on_path(space, path, [(_I2, _shift(space, dl))], f"SPP(dl={dl}) @ {path}")


def dove_prism(space, path, angle) -> ModeTransform:
    """Dove prism at angle g: |l> -> i exp(2igl) |-l>."""
    orbital = _flip([1j * np.exp(2j * angle * l) for l in _oams(space)])
    return _on_path(space, path, [(_I2, orbital)], f"DP(angle={angle:g}) @ {path}")


def mirror(space, path) -> ModeTransform:
    """Mirror: fixed reflection phase and an OAM sign flip."""
    orbital = _flip([conv.MIRROR_PHASE] * (2 * space.truncation + 1))
    return _on_path(space, path, [(_I2, orbital)], f"MIRROR @ {path}")


def phase_plate(space, path, phase=conv.PHASE_PLATE_DEFAULT) -> ModeTransform:
    return _on_path(space, path, [(_I2, np.exp(1j * phase) * _shift(space, 0))],
                    f"PP(phase={phase:g}) @ {path}")


def delay_line(space, path) -> ModeTransform:
    """Delay line, identity: its experimental role is temporal overlap."""
    return _on_path(space, path, [(_I2, _shift(space, 0))], f"DL @ {path}")


def path_phase(space, path, phase) -> ModeTransform:
    """Fixed phase on one path; used for interferometer-arm jitter."""
    return _on_path(space, path, [(_I2, np.exp(1j * phase) * _shift(space, 0))],
                    f"PATHPHASE(phase={phase:g}) @ {path}")


def oam_phase(space, path, phases: dict) -> ModeTransform:
    """Diagonal phases per azimuthal index on one path; used for dephasing."""
    orbital = np.diag([np.exp(1j * phases.get(l, 0.0)) for l in _oams(space)])
    return _on_path(space, path, [(_I2, orbital)], f"OAMPHASE @ {path}")


def polarizer(space, path, angle) -> np.ndarray:
    """Linear polarizer projecting onto cos(a) H + sin(a) V, as a dense matrix:
    the Jones projector times the OAM identity on ``path``, the identity
    elsewhere.  A projector is no unitary, hence no :class:`ModeTransform`."""
    if path not in space.paths:
        raise SpaceMismatch(f"path {path!r} not in space")
    vec = np.array([math.cos(angle), math.sin(angle)], dtype=complex)
    n = 2 * (2 * space.truncation + 1)  # modes on one path, a contiguous run
    base = space.paths.index(path) * n
    m = np.eye(space.dim, dtype=complex)
    m[base:base + n, base:base + n] = _kron(np.outer(vec, vec.conj()), _shift(space, 0))
    return m


def pbs(space, in_ports, out_ports) -> ModeTransform:
    """Polarizing beam splitter across two beamlines.

    H transmits (first in -> first out, second in -> second out); V reflects
    into the crossed output with phase ``PBS_REFLECT_PHASE`` and an OAM sign
    flip.  Ports may overlap (a beamline may keep its path label); leftover
    path labels are wired back so the block stays unitary, which never
    matters because those ports are unoccupied where the element is placed.
    The block covers the involved paths only.
    """
    a, b = in_ports
    c, d = out_ports
    if a == b or c == d:
        raise CpfSimError(
            f"PBS ports must be distinct: in={list(in_ports)}, out={list(out_ports)}")
    involved = list(dict.fromkeys(p for p in (a, b, c, d) if p is not None))
    for p in involved:
        if p not in space.paths:
            raise SpaceMismatch(f"path {p!r} not in space")
    paths = tuple(p for p in space.paths if p in involved)
    lim = space.truncation
    n = 2 * lim + 1

    def at(path, pol, l):  # block index of one mode
        return (paths.index(path) * 2 + POLS.index(pol)) * n + l + lim

    block = np.zeros((len(paths) * 2 * n,) * 2, dtype=complex)
    r = conv.PBS_REFLECT_PHASE
    for src, t_dst, r_dst in ((a, c, d), (b, d, c)):
        if src is None:
            continue
        for l in _oams(space):
            block[at(t_dst, "H", l), at(src, "H", l)] = 1.0
            block[at(r_dst, "V", -l), at(src, "V", l)] = r

    # Complete the permutation structure for leftover ports (never occupied),
    # pairing them in (a, b, c, d) order.
    modes = [(p, pol, l) for p in involved for pol in POLS for l in _oams(space)]
    by_mode = {}
    for p, pol, l in modes:
        if not block[at(p, pol, l)].any():
            by_mode.setdefault((pol, l), []).append(at(p, pol, l))
    for p, pol, l in modes:
        j = at(p, pol, l)
        if block[:, j].any():
            continue
        same = bool(by_mode.get((pol, l)))
        i = by_mode[(pol, l) if same else (pol, -l)].pop(0)
        block[i, j] = 1.0 if same else r

    prov = f"PBS(in=[{a},{b}],out=[{c},{d}])"
    return ModeTransform(space, paths, block, prov)


def parity_interferometer(space, path, angle) -> ModeTransform:
    """Dove-prism interferometer: DP(+g) on H, DP(-g) on V, HWP(pi/4) swap.

    Acts as H|l> -> exp(+2igl) V|-l>, V|l> -> exp(-2igl) H|-l>; the Dove
    prisms' common factor i sits in the frozen path phase.
    """
    g = conv.PARITY_INTERFEROMETER_PHASE
    h_to_v = np.array([[0, 0], [1, 0]])
    v_to_h = np.array([[0, 1], [0, 0]])
    return _on_path(space, path, [
        (h_to_v, _flip([g * 1j * np.exp(2j * angle * l) for l in _oams(space)])),
        (v_to_h, _flip([g * 1j * np.exp(-2j * angle * l) for l in _oams(space)])),
    ], f"INTERF(angle={angle:g}) @ {path}")


def o1_cnot(space, path) -> ModeTransform:
    """Polarization-OAM CNOT of order 1: HWP(pi/8), interferometer(pi/4), HWP(pi/8)."""
    seq = [
        hwp(space, path, math.pi / 8),
        parity_interferometer(space, path, math.pi / 4),
        hwp(space, path, math.pi / 8),
    ]
    t = compose_transforms(seq)
    t.provenance = f"O1CNOT @ {path}"
    return t


def o2_cnot(space, path) -> ModeTransform:
    """Polarization-OAM CNOT of order 2: HWP(pi/8), interferometer(pi/8), QWP(pi/4)."""
    seq = [
        hwp(space, path, math.pi / 8),
        parity_interferometer(space, path, math.pi / 8),
        qwp(space, path, math.pi / 4),
    ]
    t = compose_transforms(seq)
    t.provenance = f"O2CNOT @ {path}"
    return t


# ---------------------------------------------------------------------------
# Descriptor grammar


@dataclass(frozen=True)
class ElementSpec:
    """Parsed element descriptor: kind, parameters, and path bindings."""

    kind: str
    params: tuple = field(default_factory=tuple)  # ((key, value), ...)
    paths: tuple = field(default_factory=tuple)

    @functools.cached_property
    def problem(self) -> str | None:
        """:func:`spec_problem` of this spec, worked out on first use and
        kept: the spec is frozen, so its verdict cannot change."""
        return spec_problem(self)

    def param(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def descriptor(self) -> str:
        inner = ",".join(
            f"{k}={_format_value(v)}" for k, v in self.params
        )
        text = f"{self.kind}({inner})"
        if self.paths:
            text += " @ " + ",".join(self.paths)
        return text


def _format_value(v):
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(str(x) for x in v) + "]"
    if isinstance(v, float):
        return float_text(v)
    return str(v)


def float_text(v: float) -> str:
    """``v`` at 12 significant digits when that text reads back as ``v``,
    else ``repr(v)``: netlist text keeps every float exactly."""
    text = f"{v:.12g}"
    return text if float(text) == v else repr(v)


_DESCRIPTOR_RE = re.compile(
    r"^\s*(?P<kind>[A-Za-z][A-Za-z0-9_]*)\s*"
    r"\(\s*(?P<params>[^)]*)\)\s*"
    r"(?:@\s*(?P<paths>[A-Za-z0-9_,\s]+))?\s*$"
)
_LIST_RE = re.compile(r"^\[(.*)\]$")


class DescriptorError(ValueError):
    """Malformed element descriptor; carries a column offset for diagnostics."""

    def __init__(self, message, col=0):
        super().__init__(message)
        self.col = col


def parse_descriptor(text: str) -> ElementSpec:
    m = _DESCRIPTOR_RE.match(text)
    if not m:
        short = text.strip()
        if "(" in short and not short.rstrip().endswith(")"):
            raise DescriptorError("unterminated parameter list", text.find("("))
        raise DescriptorError(f"cannot parse element descriptor {short!r}")
    params = []
    body = m.group("params").strip()
    if body:
        depth = 0
        parts, cur = [], ""
        for ch in body:
            if ch == "," and depth == 0:
                parts.append(cur)
                cur = ""
                continue
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            cur += ch
        parts.append(cur)
        for part in parts:
            if "=" not in part:
                raise DescriptorError(
                    f"parameter {part.strip()!r} is not key=value", text.find(part)
                )
            key, _, raw = part.partition("=")
            key, raw = key.strip(), raw.strip()
            if not raw:
                raise DescriptorError(
                    f"missing parameter value for {key!r}", text.find(part)
                )
            lm = _LIST_RE.match(raw)
            if lm:
                value = tuple(x.strip() for x in lm.group(1).split(",") if x.strip())
            else:
                try:
                    value = int(raw)
                except ValueError:
                    try:
                        value = float(raw)
                    except ValueError:
                        value = raw
            params.append((key, value))
    paths = ()
    if m.group("paths"):
        paths = tuple(p.strip() for p in m.group("paths").split(",") if p.strip())
    return ElementSpec(m.group("kind").upper(), tuple(params), paths)


REQUIRED = object()  # default of a parameter the descriptor must give

# Descriptor kind -> (builder name in this module, ((parameter, default), ...)).
# PBS binds its ports through in=/out=; every other kind binds one ``@ path``.
# Builders are looked up by name at call time, so a wrapped builder sees every
# call.  Every kind builds a unitary ModeTransform; the polarizer, a projector,
# is no descriptor.
CATALOGUE = {
    "HWP": ("hwp", (("angle", REQUIRED),)),
    "QWP": ("qwp", (("angle", REQUIRED),)),
    "QP": ("qplate", (("q", REQUIRED),)),
    "SPP": ("spp", (("dl", REQUIRED),)),
    "DP": ("dove_prism", (("angle", REQUIRED),)),
    "PP": ("phase_plate", (("phase", conv.PHASE_PLATE_DEFAULT),)),
    "DL": ("delay_line", ()),
    "MIRROR": ("mirror", ()),
    "PATHPHASE": ("path_phase", (("phase", REQUIRED),)),
    "INTERF": ("parity_interferometer", (("angle", REQUIRED),)),
    "PBS": ("pbs", (("in", REQUIRED), ("out", REQUIRED))),
    "O1CNOT": ("o1_cnot", ()),
    "O2CNOT": ("o2_cnot", ()),
}
_PORTS = ("in", "out")       # parameters that list two distinct paths
_SHIFTS = {"q": 2, "dl": 1}  # l moves by factor * value, which must be an integer
_MAX_VALUE = 2.0 ** 52       # beyond it adjacent doubles lie a radian or more apart


def spec_problem(spec: ElementSpec) -> str | None:
    """Why ``spec`` cannot be built, or None; never raises.

    The one check behind :func:`element_transform` and netlist validation,
    which read it through :attr:`ElementSpec.problem`, once per spec.  Paths
    outside a mode space are left to the builder (SpaceMismatch).
    """
    kind = spec.kind
    if kind not in CATALOGUE:
        return f"unknown element kind {kind!r}"
    params = dict(CATALOGUE[kind][1])
    given = [k for k, _ in spec.params]
    for k in given:
        if k not in params:
            return f"{kind} takes no parameter {k!r}"
        if given.count(k) > 1:
            return f"{kind} repeats parameter {k!r}"
    for name, default in params.items():
        v = spec.param(name, default)
        if v is REQUIRED:
            return f"{kind} requires parameter {name!r}"
        if name in _PORTS:
            if not isinstance(v, tuple) or len(v) != 2 or v[0] == v[1]:
                return f"{kind} parameter {name} must list two distinct paths"
        elif not isinstance(v, (int, float)) or not abs(v) <= _MAX_VALUE:
            return (f"{kind} parameter {name}={_format_value(v)} must be a finite "
                    "number, |x| <= 2**52")
        else:
            shift = _SHIFTS.get(name, 0) * float(v)
            if abs(shift - round(shift)) > _SHIFT_TOL:
                return f"{kind}({name}={v:g}) shifts l by {shift:g}, a non-integer"
    binds = 0 if "in" in params else 1
    if len(spec.paths) != binds:
        return f"{kind} takes {binds} path binding(s) after @, got {len(spec.paths)}"
    return None


# Kinds whose every parameter is a port list or an integer OAM shift: the
# fixed optics.  Their block depends on the kind, those parameters and the
# truncation, and for a PBS on the rank of each port among the involved
# paths, but not on the path names or the rest of the space.
_FIXED = frozenset(kind for kind, (_, params) in CATALOGUE.items()
                   if all(k in _PORTS or k in _SHIFTS for k, _ in params))

# Entries each of element_transform's two caches keeps, the least recently
# used dropped first.  The outer cache, keyed by (spec, space), has room for
# the recurring descriptors (the preparation rows, fixed optics) and is far
# below the thousands of distinct random-angle elements of a long circuit run,
# which would otherwise hit only when a deck repeats.  The block cache, keyed
# by a fixed optic's kind, shifts, truncation and port layout, holds the few
# dozen blocks the fixed optics of any mix of paths and spaces need (59 over
# the benchmark's circuit deck).  A block is checked once, when built; placed
# on other paths it is not checked again, since it is read-only and its
# unitarity does not depend on the paths it sits on.
TRANSFORM_CACHE_SIZE = 64


def element_transform(spec: ElementSpec | str, space: ModeSpace) -> ModeTransform:
    """Build the transform for one element descriptor.

    Raises UnknownElement for a descriptor :func:`spec_problem` rejects and
    SpaceMismatch for paths outside ``space``, on every call; a spec that
    was checked before (a parsed netlist's) is not checked again.  A built
    transform is kept per (spec, space), up to :data:`TRANSFORM_CACHE_SIZE`
    of them, and shared by later calls; its block is read-only.

    A fixed optic (QP, SPP, DL, MIRROR, PBS, O1CNOT, O2CNOT: no continuous
    parameter) is built once per (kind, shifts, truncation, port layout) by
    its builder on a space of stand-in paths, checked there, and kept in a
    second cache of the same bound.  Each (spec, space) then gets that block
    placed on its own paths, with the builder's overflow and provenance, and
    is not checked again: unitarity does not depend on which paths a block
    sits on.  Every other kind is built by its builder for each (spec, space).
    """
    if isinstance(spec, str):
        spec = parse_descriptor(spec)
    # 0.0 == -0.0 and both hash alike, but their builds differ (a provenance
    # reads "-0"), so the key also carries the sign of every float parameter.
    signs = tuple(math.copysign(1.0, v) if isinstance(v, float) else None
                  for _, v in spec.params)
    return _cached_transform(spec, space, signs)


@functools.lru_cache(maxsize=TRANSFORM_CACHE_SIZE)
def _cached_transform(spec: ElementSpec, space: ModeSpace, signs: tuple) -> ModeTransform:
    """Check and build one transform; a refusal raises and is not kept."""
    if spec.problem:
        raise UnknownElement(spec.problem)
    name, params = CATALOGUE[spec.kind]
    values = [spec.param(k, default) for k, default in params]
    values = [v if isinstance(v, tuple) else float(v) for v in values]
    if spec.kind not in _FIXED:
        return globals()[name](space, *spec.paths, *values)
    bound = spec.paths + tuple(p for v in values if isinstance(v, tuple) for p in v)
    for p in bound:
        if p not in space.paths:
            raise SpaceMismatch(f"path {p!r} not in space")
    paths = tuple(p for p in space.paths if p in bound)
    # Stand-in path k is "{k}", so the block's provenance formats to the
    # builder's text on the real paths.
    stand_in = {p: f"{{{k}}}" for k, p in enumerate(paths)}
    args = tuple(stand_in[p] for p in spec.paths) + tuple(
        tuple(stand_in[p] for p in v) if isinstance(v, tuple) else v for v in values)
    block = _fixed_block(name, ModeSpace(stand_in.values(), space.truncation), args,
                         tuple(math.copysign(1.0, v) for v in values if isinstance(v, float)))
    return block.placed(space, paths, block.provenance.format(*paths))


@functools.lru_cache(maxsize=TRANSFORM_CACHE_SIZE)
def _fixed_block(name: str, space: ModeSpace, args: tuple, signs: tuple) -> ModeTransform:
    """A fixed optic built by its builder on a space of stand-in paths and
    checked there.  ``signs`` keeps a signed zero's build apart."""
    return globals()[name](space, *args)
