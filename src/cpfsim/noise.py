"""Monte Carlo pure-state noise channels for the d=4 gate pipeline.

Each shot draws one :class:`NoiseDraw`; all imperfections enter as unit
phases or photon deletion, so the heralding probability stays independent of
the input state and the conditional (heralded) channel remains trace
preserving when averaged over draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseSpec:
    """Noise knobs for the four-photon pipeline.

    sigma_zeta      per-shot Gaussian jitter (radians) of each interferometer
                    arm phase, one independent draw per beam splitter
    oam_dephasing   std (radians) of independent per-OAM-component phases on
                    the two data photons
    loss            per-path photon deletion probability (post-selection then
                    fails for that shot)
    visibility      two-photon interference visibility in [0, 1], modelled as
                    Gaussian dephasing between the two auxiliary components
                    with E[exp(i phi)] = visibility
    """

    sigma_zeta: float = 0.0
    oam_dephasing: float = 0.0
    loss: float = 0.0
    visibility: float = 1.0
    seed: int = 0

    def validate(self):
        for magnitude in (self.sigma_zeta, self.oam_dephasing):
            if not (magnitude >= 0 and math.isfinite(magnitude)):
                raise ValueError("noise magnitudes must be non-negative and finite")
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError("loss must be a probability")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")

    @property
    def trivial(self) -> bool:
        return (
            self.sigma_zeta == 0.0
            and self.oam_dephasing == 0.0
            and self.loss == 0.0
            and self.visibility == 1.0
        )

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed & 0xFFFFFFFFFFFFFFFF, 0x6E6F6973]))

    def draw(self, rng: np.random.Generator) -> "NoiseDraw":
        zeta = tuple(rng.normal(0.0, self.sigma_zeta, size=2)) if self.sigma_zeta else (0.0, 0.0)
        if self.oam_dephasing:
            deph = tuple(
                tuple(rng.normal(0.0, self.oam_dephasing, size=4)) for _ in range(2)
            )
        else:
            deph = ((0.0,) * 4, (0.0,) * 4)
        if self.visibility >= 1.0:
            aux = (0.0, 0.0)
        elif self.visibility <= 0.0:
            aux = tuple(rng.uniform(0.0, 2 * math.pi, size=2))
        else:
            sigma = math.sqrt(-2.0 * math.log(self.visibility))
            aux = tuple(rng.normal(0.0, sigma, size=2))
        lost = bool(np.any(rng.random(4) < self.loss)) if self.loss else False
        return NoiseDraw(zeta=zeta, dephasing=deph, aux_phases=aux, lost=lost)

    def draws(self, n: int):
        rng = self.rng()
        return [self.draw(rng) for _ in range(n)]


@dataclass(frozen=True)
class NoiseDraw:
    """One sampled imperfection pattern for a single shot."""

    zeta: tuple = (0.0, 0.0)            # arm phase per beam splitter
    dephasing: tuple = ((0.0,) * 4, (0.0,) * 4)  # per level, photons 1 and 4
    aux_phases: tuple = (0.0, 0.0)      # phase on the top auxiliary branch
    lost: bool = False

    @property
    def trivial(self) -> bool:
        return (
            not self.lost
            and all(z == 0.0 for z in self.zeta)
            and all(p == 0.0 for p in self.aux_phases)
            and all(all(x == 0.0 for x in row) for row in self.dephasing)
        )


IDEAL_DRAW = NoiseDraw()
