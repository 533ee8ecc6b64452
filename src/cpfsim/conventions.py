"""Frozen phase conventions for the optical element library.

Every element matrix in :mod:`cpfsim.elements` follows the single set of
conventions collected here.  They are not free parameters: the whole set was
fitted once against the step-by-step port-A and port-B golden transcripts of
the OAM beam-splitter assembly (shipped in ``cpfsim/data/transcript_port_*.txt``)
and then frozen.  Changing any single entry makes the transcript check fail.

Conventions
-----------
Polarization basis order is (H, V).  Circular states are
R = (H + iV)/sqrt(2) and L = (H - iV)/sqrt(2).

* HWP(a):  H -> cos(2a) H + sin(2a) V,  V -> sin(2a) H - cos(2a) V.
* QWP(a):  R(a) diag(i, 1) R(-a) with R a real rotation by a.  At +pi/4 this
  gives H -> exp(i pi/4) R and V -> -exp(-i pi/4) L.
* QP(q):   R|l> -> L|l + 2q>,  L|l> -> R|l - 2q>.
* SPP(dl): |l> -> |l + dl> (the standard plate has dl = -1).
* DP(g):   |l> -> i exp(2 i g l) |-l>, polarization untouched.
* PBS:     H transmits unchanged; V reflects with phase ``PBS_REFLECT_PHASE``
  and an OAM sign flip (any reflection inverts the handedness of l).
* mirror:  phase ``MIRROR_PHASE`` and an OAM sign flip.
* PP:      fixed phase plate, default phase pi.
* DL:      delay line, identity (temporal overlap is idealized).
* parity interferometer (two DPs at +-g around an HWP at pi/4): the common
  factor i of the two Dove prisms is absorbed into the path phase
  ``PARITY_INTERFEROMETER_PHASE`` so that the block acts as
  H|l> -> exp(+2igl) V|-l>,  V|l> -> exp(-2igl) H|-l>.

Bell-measurement stage trims (fitted to make the polarization Bell decoder
land exactly on the {PhiPlus, PhiMinus} coincidence patterns):

* the exit wave plate of the photon-2 conversion arm sits at +pi/4 in the
  fixed lab frame (its mount is labelled -pi/4 in the folded beam frame),
* the photon-3 arm carries a fixed phase plate of ``BSM_ARM3_TRIM``,
* each arm is preceded by a Dove-prism pair whose angles are listed in
  :mod:`cpfsim.gate_d4`.
"""

import math

# Single-photon element phases.
PBS_REFLECT_PHASE = 1j
MIRROR_PHASE = 1j
PHASE_PLATE_DEFAULT = math.pi
PARITY_INTERFEROMETER_PHASE = -1j

# Bell-measurement stage trim (radians of fixed phase on the photon-3 arm).
BSM_ARM3_TRIM = math.pi / 4

# Numerical policy.
PRUNE_TOL = 1e-12     # amplitudes below this are dropped after each transform
UNITARY_TOL = 1e-10   # tolerance for unitarity / projector checks
NORM_TOL = 1e-10      # tolerance for normalization checks
