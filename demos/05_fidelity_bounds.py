"""Process-fidelity bracketing from two classical fidelity experiments.

One photon is prepared in the computational basis and the other in the
pairwise-superposition basis, the gate runs, and the same basis is measured.
The two averages F_ZX and F_XZ bracket the process fidelity as
[F_ZX + F_XZ - 1, min(F_ZX, F_XZ)].

The second half demonstrates a caveat this simulator makes measurable: the
pairwise X states are unbiased to Z only inside each OAM-parity block, so
phase noise across that split escapes both classical fidelities while the
true process fidelity drops.  The fully conjugate basis pair sees it.
"""

import numpy as np

from cpfsim.analysis import (
    build_heralded_channel,
    channel_bounds,
    full_fidelity_report,
    process_fidelity,
    run_fidelity_experiment,
    superposition_suite,
)
from cpfsim.noise import NoiseSpec
from cpfsim.protocol import cpf_oracle

# One noiseless heralded channel feeds every analysis below.
ideal = build_heralded_channel()

print("Noiseless flip pattern (ZX basis): expected-output index per input row")
run = run_fidelity_experiment("ZX", ideal)
for row, (k1, k4) in enumerate(run.table.entries):
    j = int(np.argmax(run.matrix[row]))
    mark = "  <- flipped" if j != row else ""
    print(f"   {k1:>5s} x {k4:<5s} -> {run.table.entries[j][0]} x "
          f"{run.table.entries[j][1]}{mark}")

report = full_fidelity_report(ideal)
print(f"\nnoiseless: F_ZX = {report.f_zx:.6f}, F_XZ = {report.f_xz:.6f}, "
      f"bracket [{report.lower:.6f}, {report.upper:.6f}]")

print("\nSeven superposition inputs (row 7 exits entangled):")
for e in superposition_suite(ideal):
    extra = ""
    if e.expectations:
        exps = ", ".join(f"{k}={v:+.3f}" for k, v in e.expectations.items())
        extra = f"   stabilizers: {exps} -> F = {e.stabilizer_estimate:.4f}"
    print(f"   row {e.row} {e.input_keys}: fidelity {e.fidelity:.6f}{extra}")

print("\nNoisy ensembles: bracket vs true process fidelity")
u = cpf_oracle(4)
for spec in (NoiseSpec(oam_dephasing=0.35, seed=1),
             NoiseSpec(sigma_zeta=0.45, seed=2),
             NoiseSpec(visibility=0.85, seed=3)):
    ch = build_heralded_channel(spec, n_draws=16)
    f = process_fidelity(ch, u)
    zx = channel_bounds(ch, "zx")
    four = channel_bounds(ch, "fourier")
    def mark(b):
        return "contains F" if b[0] - 1e-9 <= f <= b[1] + 1e-9 else "MISSES F"
    print(f"   {spec}")
    print(f"      true F = {f:.4f}; pairwise bracket [{zx[0]:.4f}, {zx[1]:.4f}]"
          f" {mark(zx)}; conjugate bracket [{four[0]:.4f}, {four[1]:.4f}]"
          f" {mark(four)}")
print("\nArm jitter dephases only across the OAM-parity split: the pairwise"
      "\nbracket stays at [1, 1] while the gate demonstrably degrades.")
