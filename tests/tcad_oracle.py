"""Per-point oracle of the batched TCAD sweep.

The production path evaluates a device's whole bias plan in batched
calls: stacked Poisson solves, one drain-current call per I-V plan and
one solve for the C-V plan.  This module keeps the earlier one-bias-
at-a-time implementation as the reference it must match bit for bit:

* :func:`reference_solve` — the scalar damped-Newton Poisson loop, one
  banded LAPACK solve per iteration on a single ``(n_nodes,)`` state;
* :func:`reference_drain_current` — the per-point charge-sheet current,
  with its 12-node warm-start chain and the source-end charge solved
  twice (once for V_DSAT, once for the mobility);
* :func:`reference_characterize` — the sweep plan point by point, C-V
  by two scalar solves per gate bias.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import solve_banded

from repro.constants import Q
from repro.errors import ConvergenceError
from repro.extraction.targets import DeviceTargets
from repro.tcad.characteristics import CVCurve, IdVdFamily, IVCurve
from repro.tcad.charge_sheet import ChargeSheetModel
from repro.tcad.device import DeviceDesign
from repro.tcad.poisson1d import Poisson1D, PoissonSolution
from repro.tcad.simulator import SweepSpec


def reference_solve(poisson: Poisson1D, v_gate: float,
                    v_channel: float = 0.0, v_back: float = 0.0,
                    psi0: Optional[np.ndarray] = None) -> PoissonSolution:
    """One bias point through the scalar Newton loop."""
    mesh = poisson.mesh
    n_nodes = mesh.n_nodes
    psi_top = v_gate - poisson.stack.flatband

    if psi0 is not None and psi0.shape == (n_nodes,):
        psi = psi0.copy()
    else:
        psi = np.linspace(psi_top, v_back, n_nodes)
    psi[0] = psi_top
    psi[-1] = v_back

    cond = mesh.edge_eps / mesh.h
    volumes = poisson._volumes
    film = poisson._film_mask
    for iteration in range(1, poisson.MAX_ITERATIONS + 1):
        n, p, dn, dp = poisson._carriers(psi, v_channel)
        rho = Q * (p - n + poisson.stack.net_doping) * film
        drho = Q * (dp - dn) * film

        flux = cond * (psi[1:] - psi[:-1])
        f = np.zeros(n_nodes)
        f[1:-1] = flux[1:] - flux[:-1] + rho[1:-1] * volumes[1:-1]

        diag = np.zeros(n_nodes)
        diag[1:-1] = -(cond[1:] + cond[:-1]) + drho[1:-1] * volumes[1:-1]
        diag[0] = diag[-1] = 1.0
        f[0] = f[-1] = 0.0
        ab = np.zeros((3, n_nodes))
        ab[0, 2:] = cond[1:]
        ab[1, :] = diag
        ab[2, :-2] = cond[:-1]
        ab[0, 1] = 0.0
        ab[2, -2] = 0.0

        delta = solve_banded((1, 1), ab, -f)
        psi += np.clip(delta, -poisson.MAX_UPDATE, poisson.MAX_UPDATE)
        if float(np.max(np.abs(delta))) < poisson.TOLERANCE:
            n, _, _, _ = poisson._carriers(psi, v_channel)
            return PoissonSolution(
                psi=psi.copy(),
                x=mesh.x.copy(),
                q_inv=float(Q * np.sum(n * volumes * film)),
                q_gate=float(cond[0] * (psi[0] - psi[1])),
                surface_potential=float(psi[poisson._surface_index]),
                iterations=iteration,
            )
    raise ConvergenceError(f"reference Poisson1D failed at v_gate={v_gate}")


def reference_drain_current(model: ChargeSheetModel, vgs: float,
                            vds: float) -> float:
    """One bias point through the per-point charge-sheet loop."""
    if vds < 0:
        return -reference_drain_current(model, vgs - vds, -vds)
    if vds == 0:
        return 0.0

    poisson = model.poisson
    vg_eff = model._effective_gate_voltage(vgs, vds)
    q0 = reference_solve(poisson, vg_eff, 0.0).q_inv
    v_ov = q0 / poisson.oxide_capacitance()
    esat_l = model.mobility.saturation_field(q0) * model.l_eff
    vdsat = 3.0 * model._vt + esat_l * v_ov / (esat_l + v_ov + 1e-12)
    vdseff = vds / (1.0 + (vds / vdsat) ** 4) ** 0.25

    half = vdseff / 2.0
    v_points = half * (model._gl_nodes + 1.0)
    integral = 0.0
    psi0 = None
    for v, w in zip(v_points, model._gl_weights):
        solution = reference_solve(poisson, vg_eff, float(v), psi0=psi0)
        psi0 = solution.psi
        integral += w * solution.q_inv
    integral *= half

    q0 = reference_solve(poisson, vg_eff, 0.0).q_inv
    integral *= model.mobility.effective_mobility(q0)
    esat_l = model.mobility.saturation_field(q0) * model.l_eff
    triode_factor = 1.0 / (1.0 + vdseff / esat_l)
    clm = 1.0 + model.clm_coefficient * max(vds - vdseff, 0.0)

    current = (model.width / model.l_eff) * integral * triode_factor * clm
    return current + model._leakage_floor(vds)


def reference_gate_capacitance(device: DeviceDesign, vgs: float,
                               delta: float = 2e-3) -> float:
    """Total gate capacitance [F] at one gate bias, two scalar solves."""
    poisson = device.engine.poisson
    hi = reference_solve(poisson, vgs + delta, 0.0).q_gate
    lo = reference_solve(poisson, vgs - delta, 0.0).q_gate
    per_area = (hi - lo) / (2.0 * delta)
    intrinsic = per_area * device.width * device.l_gate
    return (intrinsic + device.overlap_cap_source + device.overlap_cap_drain
            + device.miv_fringe_cap)


def reference_characterize(device: DeviceDesign,
                           spec: Optional[SweepSpec] = None) -> DeviceTargets:
    """The full sweep plan of a device, one bias point at a time."""
    spec = spec or SweepSpec()
    model = device.engine
    label = device.label

    def idvg(vds: float) -> IVCurve:
        vg = spec.vg_axis
        currents = np.array(
            [reference_drain_current(model, float(v), vds) for v in vg])
        return IVCurve(vg, currents, vds, "idvg", f"{label}:idvg@{vds:g}V")

    vd = spec.vd_axis
    curves = [IVCurve(vd, np.array([reference_drain_current(
                          model, float(vgs), float(v)) for v in vd]),
                      float(vgs), "idvd", f"{label}:idvd@vg={vgs:g}V")
              for vgs in spec.idvd_gate_biases]
    vg_cv = np.linspace(spec.vg_start, spec.vg_stop, spec.cv_points)
    caps = np.array([reference_gate_capacitance(device, float(v))
                     for v in vg_cv])
    return DeviceTargets(
        variant=device.variant,
        polarity=device.polarity,
        idvg_lin=idvg(spec.vds_lin),
        idvg_sat=idvg(spec.vds_sat),
        idvd=IdVdFamily(curves, f"{label}:idvd"),
        cv=CVCurve(vg_cv, caps, f"{label}:cv"),
        label=label,
    )
