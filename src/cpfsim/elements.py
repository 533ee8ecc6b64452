"""Single-photon transformations of every optical element in the setup.

Phase conventions are frozen in :mod:`cpfsim.conventions`; see that module for
the full list.  Every constructor but :func:`polarizer` returns a unitary
:class:`~cpfsim.modes.ModeTransform` acting on the designated path(s) and as
the identity elsewhere.

Element descriptors serialize as ``NAME(key=value,...) @ path[,path...]``,
e.g. ``HWP(angle=0.3927) @ A`` or ``PBS(in=[A,B],out=[C,D])``; the same grammar
is consumed by the netlist parser.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import conventions as conv
from .errors import CpfSimError, SpaceMismatch, UnknownElement
from .modes import Mode, ModeSpace, ModeTransform, POLS, compose_transforms

OVERFLOW = object()  # sentinel: image of a mode leaves the truncation window
_SHIFT_TOL = 1e-12  # an OAM shift this close to an integer is that integer


def _single_path(space: ModeSpace, path: str, fn, provenance) -> ModeTransform:
    """Build identity-everywhere transform from a per-(pol, oam) map on one path.

    ``fn(pol, oam)`` returns an iterable of (pol', oam', amplitude) staying on
    the same path, or the OVERFLOW sentinel.
    """
    if path not in space.paths:
        raise SpaceMismatch(f"path {path!r} not in space")
    m = np.eye(space.dim, dtype=complex)
    overflow = set()
    for j in space.path_indices(path):
        mode = space.mode(int(j))
        images = fn(mode.pol, mode.oam)
        m[:, j] = 0.0
        if images is OVERFLOW:
            overflow.add(int(j))
            continue
        for pol2, oam2, amp in images:
            i = space.index(Mode(path, pol2, oam2))
            m[i, j] += amp
    return ModeTransform(space, m, provenance, frozenset(overflow))


def _pol_matrix_element(space, path, pol_matrix, provenance):
    def fn(pol, oam):
        col = pol_matrix[:, POLS.index(pol)]
        return [(POLS[i], oam, col[i]) for i in range(2) if abs(col[i]) > 0]

    return _single_path(space, path, fn, provenance)


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
    return _pol_matrix_element(space, path, hwp_matrix(angle), f"HWP(angle={angle:g}) @ {path}")


def qwp(space, path, angle) -> ModeTransform:
    return _pol_matrix_element(space, path, qwp_matrix(angle), f"QWP(angle={angle:g}) @ {path}")


_R = np.array([1.0, 1j]) / math.sqrt(2)  # R in (H, V) amplitudes
_L = np.array([1.0, -1j]) / math.sqrt(2)


def qplate(space, path, q) -> ModeTransform:
    """q-plate: swaps circular polarization handedness and shifts l by +-2q."""
    shift = 2 * q
    if abs(shift - round(shift)) > _SHIFT_TOL:
        raise UnknownElement(
            f"QP(q={q}) shifts l by {shift}, not an integer; fractional charges "
            "are handled by direct state constructors instead"
        )
    shift = int(round(shift))
    lim = space.truncation

    def fn(pol, oam):
        e = np.zeros(2, dtype=complex)
        e[POLS.index(pol)] = 1.0
        r_amp = np.vdot(_R, e)  # <R|pol>
        l_amp = np.vdot(_L, e)
        images = []
        for amp, out_vec, new_oam in (
            (r_amp, _L, oam + shift),   # R component -> L, l + 2q
            (l_amp, _R, oam - shift),   # L component -> R, l - 2q
        ):
            if abs(amp) == 0:
                continue
            if abs(new_oam) > lim:
                return OVERFLOW
            for i in range(2):
                a = amp * out_vec[i]
                if abs(a) > 0:
                    images.append((POLS[i], new_oam, a))
        return images

    return _single_path(space, path, fn, f"QP(q={q}) @ {path}")


def spp(space, path, dl) -> ModeTransform:
    """Spiral phase plate: shifts the azimuthal index by the integer ``dl``."""
    dl = int(round(dl))
    lim = space.truncation

    def fn(pol, oam):
        if abs(oam + dl) > lim:
            return OVERFLOW
        return [(pol, oam + dl, 1.0)]

    return _single_path(space, path, fn, f"SPP(dl={dl}) @ {path}")


def dove_prism(space, path, angle) -> ModeTransform:
    """Dove prism at angle g: |l> -> i exp(2igl) |-l>."""

    def fn(pol, oam):
        return [(pol, -oam, 1j * np.exp(2j * angle * oam))]

    return _single_path(space, path, fn, f"DP(angle={angle:g}) @ {path}")


def mirror(space, path) -> ModeTransform:
    """Mirror: fixed reflection phase and an OAM sign flip."""

    def fn(pol, oam):
        return [(pol, -oam, conv.MIRROR_PHASE)]

    return _single_path(space, path, fn, f"MIRROR @ {path}")


def phase_plate(space, path, phase=conv.PHASE_PLATE_DEFAULT) -> ModeTransform:
    def fn(pol, oam):
        return [(pol, oam, np.exp(1j * phase))]

    return _single_path(space, path, fn, f"PP(phase={phase:g}) @ {path}")


def delay_line(space, path) -> ModeTransform:
    """Delay line, identity: its experimental role is temporal overlap."""

    def fn(pol, oam):
        return [(pol, oam, 1.0)]

    return _single_path(space, path, fn, f"DL @ {path}")


def path_phase(space, path, phase) -> ModeTransform:
    """Fixed phase on one path; used for interferometer-arm jitter."""

    def fn(pol, oam):
        return [(pol, oam, np.exp(1j * phase))]

    return _single_path(space, path, fn, f"PATHPHASE(phase={phase:g}) @ {path}")


def oam_phase(space, path, phases: dict) -> ModeTransform:
    """Diagonal phases per azimuthal index on one path; used for dephasing."""

    def fn(pol, oam):
        return [(pol, oam, np.exp(1j * phases.get(oam, 0.0)))]

    return _single_path(space, path, fn, f"OAMPHASE @ {path}")


def polarizer(space, path, angle) -> np.ndarray:
    """Linear polarizer projecting onto cos(a) H + sin(a) V, as a dense matrix:
    the Jones projector times the OAM identity on ``path``, the identity
    elsewhere.  A projector is no unitary, hence no :class:`ModeTransform`."""
    if path not in space.paths:
        raise SpaceMismatch(f"path {path!r} not in space")
    vec = np.array([math.cos(angle), math.sin(angle)], dtype=complex)
    idx = space.path_indices(path)
    m = np.eye(space.dim, dtype=complex)
    m[np.ix_(idx, idx)] = np.kron(np.outer(vec, vec.conj()), np.eye(2 * space.truncation + 1))
    return m


def pbs(space, in_ports, out_ports) -> ModeTransform:
    """Polarizing beam splitter across two beamlines.

    H transmits (first in -> first out, second in -> second out); V reflects
    into the crossed output with phase ``PBS_REFLECT_PHASE`` and an OAM sign
    flip.  Ports may overlap (a beamline may keep its path label); leftover
    path labels are wired back so the full matrix stays unitary, which never
    matters because those ports are unoccupied where the element is placed.
    """
    a, b = in_ports
    c, d = out_ports
    if a == b or c == d:
        raise CpfSimError(
            f"PBS ports must be distinct: in={list(in_ports)}, out={list(out_ports)}")
    involved = []
    for p in (a, b, c, d):
        if p is not None and p not in involved:
            involved.append(p)
    for p in involved:
        if p not in space.paths:
            raise SpaceMismatch(f"path {p!r} not in space")

    m = np.eye(space.dim, dtype=complex)
    for p in involved:
        m[:, space.path_indices(p)] = 0.0

    used_rows: set[int] = set()
    defined_cols: set[int] = set()
    r = conv.PBS_REFLECT_PHASE

    def wire(src, pol, dst, amp, flip):
        for j in space.path_indices(src):
            mode = space.mode(int(j))
            if mode.pol != pol:
                continue
            i = space.index(Mode(dst, pol, -mode.oam if flip else mode.oam))
            m[i, j] = amp
            used_rows.add(i)
            defined_cols.add(int(j))

    for src, t_dst, r_dst in ((a, c, d), (b, d, c)):
        if src is None:
            continue
        wire(src, "H", t_dst, 1.0, flip=False)
        wire(src, "V", r_dst, r, flip=True)

    # Complete the permutation structure for leftover ports (never occupied).
    free_cols = [
        int(j)
        for p in involved
        for j in space.path_indices(p)
        if int(j) not in defined_cols
    ]
    free_rows = [
        int(i)
        for p in involved
        for i in space.path_indices(p)
        if int(i) not in used_rows
    ]
    by_mode = {}
    for i in free_rows:
        mode = space.mode(i)
        by_mode.setdefault((mode.pol, mode.oam), []).append(i)
    for j in free_cols:
        mode = space.mode(j)
        candidates = by_mode.get((mode.pol, mode.oam)) or by_mode.get(
            (mode.pol, -mode.oam)
        )
        i = candidates.pop(0)
        m[i, j] = 1.0 if space.mode(i).oam == mode.oam else r

    prov = f"PBS(in=[{a},{b}],out=[{c},{d}])"
    return ModeTransform(space, m, prov)


def parity_interferometer(space, path, angle) -> ModeTransform:
    """Dove-prism interferometer: DP(+g) on H, DP(-g) on V, HWP(pi/4) swap.

    Acts as H|l> -> exp(+2igl) V|-l>, V|l> -> exp(-2igl) H|-l>; the Dove
    prisms' common factor i sits in the frozen path phase.
    """
    g = conv.PARITY_INTERFEROMETER_PHASE

    def fn(pol, oam):
        if pol == "H":
            return [("V", -oam, g * 1j * np.exp(2j * angle * oam))]
        return [("H", -oam, g * 1j * np.exp(-2j * angle * oam))]

    return _single_path(space, path, fn, f"INTERF(angle={angle:g}) @ {path}")


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
        return f"{v:.12g}"
    return str(v)


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

    The one check behind :func:`element_transform` and netlist validation.
    Paths outside a mode space are left to the builder (SpaceMismatch).
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


def element_transform(spec: ElementSpec | str, space: ModeSpace) -> ModeTransform:
    """Build the transform for one element descriptor.

    Raises UnknownElement for a descriptor :func:`spec_problem` rejects and
    SpaceMismatch for paths outside ``space``.
    """
    if isinstance(spec, str):
        spec = parse_descriptor(spec)
    problem = spec_problem(spec)
    if problem:
        raise UnknownElement(problem)
    name, params = CATALOGUE[spec.kind]
    values = [spec.param(k, default) for k, default in params]
    values = [v if isinstance(v, tuple) else float(v) for v in values]
    return globals()[name](space, *spec.paths, *values)
