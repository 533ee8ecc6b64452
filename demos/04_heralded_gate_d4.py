"""The full four-photon OAM pipeline at d = 4.

Qudit levels (0, 1, 2, 3) live in OAM components (-2, -1, 0, +1) of
H-polarized photons.  Two data photons and two auxiliaries run through two
OAM beam splitters; the auxiliaries convert to polarization, meet on the
measurement splitter, and their coincidence pattern heralds the gate.
"""

import numpy as np

from cpfsim.analysis import STATE_VECTORS
from cpfsim.fock import sample_counts
from cpfsim.gate_d4 import prepare_input, run_cpf_d4
from cpfsim.protocol import BellOutcome, QuditState, cpf_oracle

BOTH = {BellOutcome.PhiPlus, BellOutcome.PhiMinus}

print("Preparing the inputs from |H, l=0> with wave plates and q-plates:")
for key in ("z3", "x13+"):
    state, prob = prepare_input(key)
    print(f"   {key}: success probability {prob:.2f}")

run = run_cpf_d4(STATE_VECTORS["z3"], STATE_VECTORS["x13+"], accepted=BOTH)
print("\nInput |3> x (|1>+|3>)/sqrt(2):")
print(f"   port pattern probability {run.port_pattern_prob:.6f} (1/4)")
for pattern, p in sorted(run.pattern_probs.items()):
    print(f"   analyzer pattern {pattern}: {p:.6f}")
print(f"   heralding probability {run.heralding_probability:.6f} (1/8)")
for outcome in run.per_outcome:
    state = run.heralded_state(outcome)
    nz = {(m, n): np.round(state.matrix()[m, n], 3)
          for m in range(4) for n in range(4)
          if abs(state.matrix()[m, n]) > 1e-9}
    print(f"   {outcome.value}: heralded state {nz}")
print("   the (1,3) superposition sign flipped: the controlled phase flip.")

v = STATE_VECTORS["x13+"]
run = run_cpf_d4(v, v, accepted={BellOutcome.PhiPlus})
state = run.heralded_state(BellOutcome.PhiPlus)
ideal = QuditState(4, cpf_oracle(4) @ np.kron(v, v))
print("\nProduct input (|1>+|3>)(|1>+|3>)/2 becomes entangled:")
print(f"   fidelity to (|11>+|13>+|31>-|33>)/2: {state.fidelity(ideal):.12f}")

dist = dict(run.pattern_probs)
dist[("no-herald",)] = 1.0 - sum(dist.values())
counts = sample_counts(dist, shots=20_000, seed=11)
print("\n20000 shots of coincidence counting (seeded, reproducible):")
for k, c in sorted(counts.items(), key=lambda kv: str(kv[0])):
    print(f"   {k}: {c}")
