"""Pao-Sah / charge-sheet drain-current model on top of the 1-D Poisson.

The gradual-channel Pao-Sah reduction gives

    I_DS = (W / L) * mu_eff * integral_0^{V_DS} Q_inv(V_G, V) dV

where ``Q_inv(V_G, V)`` is the sheet inversion charge from the vertical
Poisson solve with the channel quasi-Fermi potential at ``V``.  Because
``Q_inv`` decays as ``exp(-V/V_t)`` in weak inversion, the integral
captures both drift and diffusion, and subthreshold saturation emerges
without special casing.  Velocity saturation is applied through a smooth
``V_DSeff`` clamp and a triode degradation factor, and channel-length
modulation as a linear post-factor — the same structure BSIM-class models
use, which keeps the later compact-model fit honest but not trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.tcad.poisson1d import ArrayLike, Poisson1D
from repro.tcad.short_channel import ShortChannelModel
from repro.tcad.srh import SrhParameters, generation_leakage
from repro.tcad.velocity import MobilityModel


@dataclass
class ChargeSheetModel:
    """Drain current / gate charge evaluator for one device geometry.

    Attributes
    ----------
    poisson:
        Vertical electrostatics solver (already includes any MIV gate-
        coupling boost through its effective oxide thickness).
    mobility:
        Mobility model (already includes narrow-width degradation).
    short_channel:
        Characteristic-length corrections.
    width:
        Total electrical width [m].
    l_gate:
        Drawn gate length [m].
    l_eff_factor:
        Effective-length multiplier (> 1 for the 4-channel ring gate).
    clm_coefficient:
        Channel-length-modulation slope [1/V].
    quadrature_points:
        Gauss-Legendre points for the channel integral.
    """

    poisson: Poisson1D
    mobility: MobilityModel
    short_channel: ShortChannelModel
    width: float
    l_gate: float
    l_eff_factor: float = 1.0
    clm_coefficient: float = 0.06
    quadrature_points: int = 12
    srh: SrhParameters = SrhParameters()

    def __post_init__(self) -> None:
        if self.width <= 0 or self.l_gate <= 0:
            raise SimulationError("device dimensions must be positive")
        if self.l_eff_factor < 1.0:
            raise SimulationError("l_eff_factor must be >= 1")
        nodes, weights = np.polynomial.legendre.leggauss(self.quadrature_points)
        self._gl_nodes = nodes
        self._gl_weights = weights
        self._vt = self.poisson.vt

    @property
    def l_eff(self) -> float:
        """Effective channel length [m]."""
        return self.l_gate * self.l_eff_factor

    def _effective_gate_voltage(self, vgs: float, vds: float) -> float:
        """Apply DIBL and threshold roll-off as a gate-voltage shift."""
        sigma = self.short_channel.dibl(self.l_eff)
        rolloff = self.short_channel.vth_rolloff(self.l_eff)
        return vgs + sigma * vds + rolloff

    def _vdsat(self, q0: float) -> float:
        """Smooth saturation voltage from velocity-saturation theory,
        given the source-end inversion charge ``q0``."""
        cox = self.poisson.oxide_capacitance()
        v_ov = q0 / cox
        esat_l = self.mobility.saturation_field(q0) * self.l_eff
        return 3.0 * self._vt + esat_l * v_ov / (esat_l + v_ov + 1e-12)

    def drain_current(self, vgs: ArrayLike, vds: ArrayLike):
        """Drain current [A] (source-referenced), at one bias or a batch.

        ``vgs`` and ``vds`` are scalars or arrays, broadcast together.
        Negative ``vds`` is handled per row by source/drain exchange
        symmetry, and ``vds == 0`` gives exactly 0.  Every conducting
        row goes through the same batched Poisson solves: one for the
        source-end charge, then one per Gauss-Legendre node, each row's
        node ``j`` warm-started from its own node ``j - 1`` solution.
        """
        vgs, vds = np.broadcast_arrays(np.asarray(vgs, dtype=float),
                                       np.asarray(vds, dtype=float))
        reverse = vds < 0
        gate = np.where(reverse, vgs - vds, vgs).ravel()
        drain = np.where(reverse, -vds, vds).ravel()
        current = np.zeros(drain.size)
        on = np.flatnonzero(drain != 0)
        if on.size:
            current[on] = self._forward_current(gate[on], drain[on])
        current = np.where(reverse.ravel(), -current, current)
        current = current.reshape(vgs.shape)
        return float(current) if current.ndim == 0 else current

    def _forward_current(self, vgs: np.ndarray, vds: np.ndarray) -> list:
        """Drain currents [A] of rows with positive ``vds``."""
        vg_eff = self._effective_gate_voltage(vgs, vds)
        q0 = self.poisson.inversion_charge(vg_eff, 0.0).tolist()
        # Smooth clamp of the integration limit (velocity saturation).
        # Per-row float arithmetic: the same operations, and so the same
        # bits, as evaluating one bias point at a time.
        vdseff = [v / (1.0 + (v / self._vdsat(q)) ** 4) ** 0.25
                  for v, q in zip(vds.tolist(), q0)]

        # Gauss-Legendre integral of Q over [0, vdseff], with the mobility
        # evaluated at the source-end charge (standard charge-sheet
        # simplification: one mu_eff per bias point, not per channel slice).
        half = np.array(vdseff) / 2.0
        v_points = half[:, None] * (self._gl_nodes + 1.0)
        integral = np.zeros(half.size)
        psi0 = None
        for j, w in enumerate(self._gl_weights):
            solution = self.poisson.solve(vg_eff, v_points[:, j], psi0=psi0)
            psi0 = solution.psi
            integral += w * solution.q_inv
        integral *= half

        return [self._finish(i, q, v, v_eff) for i, q, v, v_eff in
                zip(integral.tolist(), q0, vds.tolist(), vdseff)]

    def _finish(self, integral: float, q0: float, vds: float,
                vdseff: float) -> float:
        """Mobility, velocity saturation, CLM and leakage of one row."""
        integral *= self.mobility.effective_mobility(q0)
        esat_l = self.mobility.saturation_field(q0) * self.l_eff
        triode_factor = 1.0 / (1.0 + vdseff / esat_l)
        clm = 1.0 + self.clm_coefficient * max(vds - vdseff, 0.0)

        current = (self.width / self.l_eff) * integral * triode_factor * clm
        return current + self._leakage_floor(vds)

    def _leakage_floor(self, vds: float) -> float:
        """SRH generation leakage from the drain-side depleted film [A]."""
        depleted_volume = self.width * self.l_eff * self.poisson.stack.t_si
        floor = generation_leakage(depleted_volume, self.poisson.ni, self.srh)
        # Generation scales with the depletion bias; keep a soft V_DS factor.
        return floor * (vds / (vds + self._vt))

    def gate_capacitance_per_area(self, vgs: ArrayLike, delta: float = 2e-3):
        """Small-signal C_GG per area [F/m^2] at V_DS = 0, with every
        ``+delta`` / ``-delta`` pair in one batched solve."""
        return self.poisson.gate_capacitance(vgs, delta)

    def transconductance(self, vgs: float, vds: float,
                         delta: float = 2e-3) -> float:
        """g_m [S] by central differencing."""
        return (self.drain_current(vgs + delta, vds) -
                self.drain_current(vgs - delta, vds)) / (2.0 * delta)

    def output_conductance(self, vgs: float, vds: float,
                           delta: float = 2e-3) -> float:
        """g_ds [S] by central differencing."""
        return (self.drain_current(vgs, vds + delta) -
                self.drain_current(vgs, max(vds - delta, 0.0))) / (2.0 * delta)

    def subthreshold_swing(self, vds: float = 0.05,
                           vg_low: float = 0.05, vg_high: float = 0.20) -> float:
        """Subthreshold swing [V/decade] between two weak-inversion biases."""
        i_low = self.drain_current(vg_low, vds)
        i_high = self.drain_current(vg_high, vds)
        if i_low <= 0 or i_high <= 0 or i_high <= i_low:
            raise SimulationError("invalid subthreshold window")
        decades = np.log10(i_high / i_low)
        return (vg_high - vg_low) / float(decades)
