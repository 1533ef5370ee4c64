"""Nonlinear 1-D Poisson solver through the FDSOI gate stack.

Solves, vertically through oxide / silicon film / BOX,

    d/dx ( eps(x) dpsi/dx ) = -q (p - n + N_net)

with Dirichlet boundaries: ``psi = V_G - V_FB`` at the gate/oxide interface
and ``psi = V_back`` at the bottom of the BOX (grounded carrier wafer).
Carriers follow Boltzmann statistics with quasi-Fermi splitting: the
electron quasi-Fermi potential equals the local channel potential ``V``
(0 at source, V_DS at drain) while holes stay at the source reference.

The solver uses a damped Newton iteration on the finite-volume
discretisation; the Jacobian is tridiagonal and solved with the banded
LAPACK routine.  A batch of biases shares one Newton loop, with the
per-bias systems stacked into one block-diagonal banded solve.  Outputs are the potential profile, the sheet inversion
charge (integral of the minority carrier density over the film) and the
gate charge per unit area (displacement field at the gate boundary), from
which C-V curves are differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.constants import Q, thermal_voltage
from repro.errors import ConvergenceError, SimulationError
from repro.materials import SILICON, SILICON_DIOXIDE
from repro.observe import get_tracer
from repro.tcad.mesh import Mesh1D, Region
from repro.tcad.statistics import boltzmann_n, boltzmann_p, fermi_correction
from repro.tcad.tridiagonal import stacked_tridiagonal_solve

#: A bias: a scalar, or a 1-D array with one value per batch row.
ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class StackSpec:
    """Vertical stack description for the 1-D solve.

    Attributes
    ----------
    t_ox:
        Front gate oxide thickness [m] (possibly reduced to model the MIV
        side-gate coupling boost; see :mod:`repro.tcad.device`).
    t_si:
        Silicon film thickness [m].
    t_box:
        Buried oxide thickness [m].
    flatband:
        Front-gate flat-band voltage V_FB [V] (workfunction difference).
    net_doping:
        Signed net doping N_D - N_A in the film [m^-3] (0 for the channel).
    temperature:
        Lattice temperature [K].
    n_cells_ox, n_cells_si, n_cells_box:
        Mesh resolution per region.
    """

    t_ox: float
    t_si: float
    t_box: float
    flatband: float = 0.0
    net_doping: float = 0.0
    temperature: float = 298.15
    n_cells_ox: int = 6
    n_cells_si: int = 28
    n_cells_box: int = 30


@dataclass(frozen=True)
class PoissonSolution:
    """Result of one 1-D Poisson solve, or of a batch of them.

    A batched solve of ``k`` rows gives ``psi`` the shape
    ``(k, n_nodes)`` and ``q_inv``, ``q_gate``, ``surface_potential``
    and ``iterations`` the shape ``(k,)``; ``x`` is shared.

    Attributes
    ----------
    psi:
        Electrostatic potential at every node [V].
    x:
        Node positions [m] (0 at the gate/oxide interface).
    q_inv:
        Sheet inversion (minority) charge magnitude [C/m^2].
    q_gate:
        Gate charge per area [C/m^2] (displacement field at the gate).
    surface_potential:
        Potential at the oxide/film interface [V].
    iterations:
        Newton iterations used.
    """

    psi: np.ndarray
    x: np.ndarray
    q_inv: ArrayLike
    q_gate: ArrayLike
    surface_potential: ArrayLike
    iterations: Union[int, np.ndarray]


class Poisson1D:
    """Newton solver for the vertical FDSOI electrostatics.

    Parameters
    ----------
    stack:
        Stack geometry and conditions.
    use_fermi_correction:
        Apply the first-order degeneracy correction to carrier densities.
    """

    #: Maximum Newton iterations before declaring failure.
    MAX_ITERATIONS = 80
    #: Convergence threshold on the potential update [V].
    TOLERANCE = 1e-9
    #: Maximum per-iteration potential update (damping) [V].
    MAX_UPDATE = 0.5

    def __init__(self, stack: StackSpec, use_fermi_correction: bool = True):
        self.stack = stack
        self.use_fermi_correction = use_fermi_correction
        self.vt = thermal_voltage(stack.temperature)
        self.ni = SILICON.intrinsic_density(stack.temperature)
        self.mesh = Mesh1D([
            Region("oxide", stack.t_ox, stack.n_cells_ox,
                   SILICON_DIOXIDE.permittivity),
            Region("film", stack.t_si, stack.n_cells_si,
                   SILICON.permittivity, has_charge=True),
            Region("box", stack.t_box, stack.n_cells_box,
                   SILICON_DIOXIDE.permittivity),
        ])
        self._film_mask = self.mesh.node_charged
        self._volumes = self.mesh.node_volumes
        self._surface_index = int(np.argmax(self.mesh.region_node_mask("film")))

    def solve(self, v_gate: ArrayLike, v_channel: ArrayLike = 0.0,
              v_back: ArrayLike = 0.0,
              psi0: Optional[np.ndarray] = None) -> PoissonSolution:
        """Solve for the potential profile at one bias or a batch of them.

        Parameters
        ----------
        v_gate:
            Front gate voltage [V].
        v_channel:
            Local channel quasi-Fermi potential (0 at source, V_DS at the
            drain end) [V].
        v_back:
            Back-plane (carrier wafer) potential [V].
        psi0:
            Optional initial guess (e.g. the solution at a nearby bias):
            one ``(n_nodes,)`` profile for every row, or ``(k, n_nodes)``
            with one profile per row.  Any other shape is ignored.

        The biases are scalars or 1-D arrays, broadcast together into
        ``k`` rows.  All rows share one damped Newton loop on a stacked
        ``(k, n_nodes)`` state with one block-diagonal banded solve per
        iteration.  A row leaves the active set on the iteration it
        converges, so it takes exactly the steps it would take alone and
        its result is bit-identical to a one-row solve.  Scalar biases
        return scalar fields; array biases return the per-solve fields
        with a leading batch axis.
        """
        v_gate, v_channel, v_back = np.broadcast_arrays(
            np.asarray(v_gate, dtype=float),
            np.asarray(v_channel, dtype=float),
            np.asarray(v_back, dtype=float))
        if v_gate.ndim > 1:
            raise SimulationError("Poisson1D biases must be scalars or 1-D")
        scalar = v_gate.ndim == 0
        v_gate, v_channel, v_back = (np.atleast_1d(a)
                                     for a in (v_gate, v_channel, v_back))
        k, n_nodes = v_gate.size, self.mesh.n_nodes
        psi_top = v_gate - self.stack.flatband
        psi = self._initial_guess(psi_top, v_back, psi0)

        cond = self.mesh.edge_eps / self.mesh.h  # edge conductances [F/m^2]
        volumes = self._volumes[1:-1]
        # Interior row i couples right via cond[i] and left via cond[i-1];
        # the Dirichlet rows have no coupling.
        upper = np.zeros((k, n_nodes))
        upper[:, 1:-1] = cond[1:]
        lower = np.zeros((k, n_nodes))
        lower[:, 1:-1] = cond[:-1]

        iterations = np.zeros(k, dtype=int)
        residuals = np.zeros(k)
        active = np.arange(k)
        residual = np.full(k, np.inf)
        for iteration in range(1, self.MAX_ITERATIONS + 1):
            m = active.size
            psi_a = psi[active]
            n, p, dn, dp = self._carriers(psi_a, v_channel[active, None])
            rho = Q * (p - n + self.stack.net_doping) * self._film_mask
            drho = Q * (dp - dn) * self._film_mask

            # Residual F_i and tridiagonal Jacobian for interior nodes;
            # the Dirichlet rows are identity rows with zero residual.
            flux = cond * (psi_a[:, 1:] - psi_a[:, :-1])
            f = np.zeros((m, n_nodes))
            f[:, 1:-1] = flux[:, 1:] - flux[:, :-1] + rho[:, 1:-1] * volumes
            diag = np.ones((m, n_nodes))
            diag[:, 1:-1] = -(cond[1:] + cond[:-1]) + drho[:, 1:-1] * volumes

            delta = stacked_tridiagonal_solve(lower[:m], diag, upper[:m], -f)
            psi[active] = psi_a + np.clip(delta, -self.MAX_UPDATE,
                                          self.MAX_UPDATE)
            residual = np.max(np.abs(delta), axis=1)
            done = residual < self.TOLERANCE
            iterations[active[done]] = iteration
            residuals[active[done]] = residual[done]
            active, residual = active[~done], residual[~done]
            if active.size == 0:
                break
        else:
            row = active[0]
            raise ConvergenceError(
                f"Poisson1D failed at v_gate={v_gate[row]:.3f} V, "
                f"v_channel={v_channel[row]:.3f} V",
                iterations=self.MAX_ITERATIONS, residual=float(residual[0]))

        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("tcad.poisson1d.solves").inc(k)
            tracer.counter("tcad.poisson1d.iterations").inc(
                int(iterations.sum()))
            histogram = tracer.histogram(
                "tcad.poisson1d.iterations_per_solve")
            for count in iterations.tolist():
                histogram.observe(count)
            tracer.gauge("tcad.poisson1d.last_residual").set(
                float(residuals[-1]))
        return self._package(psi, v_channel, cond, iterations, scalar)

    def _initial_guess(self, psi_top: np.ndarray, v_back: np.ndarray,
                       psi0: Optional[np.ndarray]) -> np.ndarray:
        """Starting ``(k, n_nodes)`` state with the Dirichlet values set.

        Without a usable ``psi0`` each row starts from its own linear
        gate-to-back ramp: one ``linspace`` per row, since a broadcast
        ``linspace`` picks its formula from the whole batch.
        """
        k, n_nodes = psi_top.size, self.mesh.n_nodes
        if psi0 is not None and np.shape(psi0) in ((n_nodes,), (k, n_nodes)):
            psi = np.array(np.broadcast_to(psi0, (k, n_nodes)), dtype=float)
        else:
            psi = np.array([np.linspace(top, back, n_nodes)
                            for top, back in zip(psi_top, v_back)])
        psi[:, 0] = psi_top
        psi[:, -1] = v_back
        return psi

    def _carriers(self, psi: np.ndarray, v_channel: ArrayLike):
        """Densities and their derivatives w.r.t. psi."""
        n = boltzmann_n(psi, v_channel, self.ni, self.vt)
        p = boltzmann_p(psi, 0.0, self.ni, self.vt)
        if self.use_fermi_correction:
            n = n * fermi_correction(n, SILICON.nc)
            p = p * fermi_correction(p, SILICON.nv)
        dn = n / self.vt
        dp = -p / self.vt
        return n, p, dn, dp

    def _package(self, psi: np.ndarray, v_channel: np.ndarray,
                 cond: np.ndarray, iterations: np.ndarray,
                 scalar: bool) -> PoissonSolution:
        n, _, _, _ = self._carriers(psi, v_channel[:, None])
        # Summing each C-contiguous row runs the same pairwise summation,
        # with the same bits, as summing that row on its own.
        q_inv = Q * np.sum(n * self._volumes * self._film_mask, axis=1)
        # cond[0] * (psi0 - psi1) is eps_ox * E_ox = displacement [C/m^2].
        q_gate = cond[0] * (psi[:, 0] - psi[:, 1])
        surface = psi[:, self._surface_index]
        if scalar:
            return PoissonSolution(
                psi=psi[0].copy(),
                x=self.mesh.x.copy(),
                q_inv=float(q_inv[0]),
                q_gate=float(q_gate[0]),
                surface_potential=float(surface[0]),
                iterations=int(iterations[0]),
            )
        return PoissonSolution(psi=psi, x=self.mesh.x.copy(), q_inv=q_inv,
                               q_gate=q_gate, surface_potential=surface,
                               iterations=iterations)

    def inversion_charge(self, v_gate: ArrayLike, v_channel: ArrayLike = 0.0,
                         psi0: Optional[np.ndarray] = None):
        """Sheet inversion charge [C/m^2] at a bias point (or a batch)."""
        return self.solve(v_gate, v_channel, psi0=psi0).q_inv

    def gate_capacitance(self, v_gate: ArrayLike, delta: float = 2e-3):
        """Small-signal gate capacitance per area [F/m^2] by central
        differencing of the gate charge, with every ``+delta`` /
        ``-delta`` pair in one batched solve."""
        v_gate = np.asarray(v_gate, dtype=float)
        rows = np.ravel(v_gate)
        hi, lo = np.split(self.solve(
            np.concatenate([rows + delta, rows - delta])).q_gate, 2)
        cap = ((hi - lo) / (2.0 * delta)).reshape(v_gate.shape)
        return float(cap) if cap.ndim == 0 else cap

    def oxide_capacitance(self) -> float:
        """Front-oxide parallel-plate capacitance per area [F/m^2]."""
        return SILICON_DIOXIDE.permittivity / self.stack.t_ox

