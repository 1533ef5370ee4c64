"""1-D drift-diffusion solver (Gummel iteration, Scharfetter-Gummel flux).

The charge-sheet engine treats transport semi-analytically; this module
solves the *full* coupled Poisson + electron-continuity system on a 1-D
n-type structure (ohmic contact / doped bar / ohmic contact), the
workhorse validation problem of device simulation:

* equilibrium reproduces the analytic built-in potentials and carries
  zero current;
* the low-bias conductance of an n+ bar matches q mu N A / L;
* an n+/n-/n+ structure shows the series-resistance behaviour assumed
  for the transistor S/D extensions (see ``SD_SHEET_RESISTANCE``).

Electrons only (majority carriers of the n-type structures of interest);
the Scharfetter-Gummel exponential fitting keeps the discrete flux exact
for constant fields, which is what makes the method the industry
standard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np
from scipy.linalg import solve_banded

from repro.constants import Q, thermal_voltage
from repro.errors import ConvergenceError, MeshError
from repro.kernels import dd1d_kernel
from repro.materials import SILICON
from repro.observe import get_tracer
from repro.resilience.faults import draw_fault
from repro.resilience.rescue import continue_solve
from repro.tcad.tridiagonal import stacked_tridiagonal_solve


def bernoulli(x: np.ndarray) -> np.ndarray:
    """B(x) = x / (exp(x) - 1), series-expanded near 0 for stability."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    with np.errstate(over="ignore"):
        full = np.where(np.abs(safe) > 500.0,
                        np.where(safe > 0, 0.0, -safe),
                        safe / np.expm1(np.clip(safe, -500.0, 500.0)))
    return np.where(small, 1.0 - x / 2.0 + x * x / 12.0, full)


@dataclass(frozen=True)
class Bar1D:
    """An n-type 1-D structure with position-dependent doping.

    Attributes
    ----------
    length:
        Bar length [m].
    area:
        Cross-section [m^2].
    doping:
        Callable x -> N_D(x) [m^-3] (donors only).
    n_nodes:
        Mesh nodes.
    mobility:
        Electron mobility [m^2/Vs] (constant; field dependence is not
        the point of this validation solver).
    temperature:
        Kelvin.
    """

    length: float
    area: float
    doping: Callable[[float], float]
    n_nodes: int = 101
    mobility: float = 0.05
    temperature: float = 298.15

    def __post_init__(self) -> None:
        if self.length <= 0 or self.area <= 0:
            raise MeshError("bar geometry must be positive")
        if self.n_nodes < 5:
            raise MeshError("need at least 5 nodes")
        if self.mobility <= 0:
            raise MeshError("mobility must be positive")


@dataclass
class DDSolution:
    """Solution of one bias point."""

    x: np.ndarray
    psi: np.ndarray
    n: np.ndarray
    current: float   # A, positive flowing from the x=L contact to x=0
    gummel_iterations: int


class DriftDiffusion1D:
    """Gummel-iteration DD solver for :class:`Bar1D` structures."""

    MAX_GUMMEL = 200
    MAX_NEWTON = 60
    TOL_PSI = 1e-10

    def __init__(self, bar: Bar1D):
        self.bar = bar
        self.vt = thermal_voltage(bar.temperature)
        self.ni = SILICON.intrinsic_density(bar.temperature)
        self.x = np.linspace(0.0, bar.length, bar.n_nodes)
        self.h = np.diff(self.x)
        self.nd = np.array([max(bar.doping(float(xi)), 0.0)
                            for xi in self.x])
        if np.any(self.nd <= 0):
            raise MeshError("this solver expects an n-type (N_D > 0) bar")
        self.eps = SILICON.permittivity

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _contact_potential(self, nd: float) -> float:
        """Equilibrium potential of an ohmic contact at doping nd."""
        return self.vt * np.log(nd / self.ni)

    def _solve_poisson(self, psi: np.ndarray, phi_n: np.ndarray,
                       psi_left: float, psi_right: float) -> np.ndarray:
        """Newton solve of Poisson with n = ni exp((psi - phi_n)/vt)."""
        n_nodes = psi.size
        psi = psi.copy()
        psi[0], psi[-1] = psi_left, psi_right
        cond = self.eps / self.h
        volumes = np.zeros(n_nodes)
        volumes[1:] += self.h / 2.0
        volumes[:-1] += self.h / 2.0

        for _ in range(self.MAX_NEWTON):
            n = self.ni * np.exp(np.clip((psi - phi_n) / self.vt, -60, 60))
            rho = Q * (self.nd - n)
            drho = -Q * n / self.vt

            f = np.zeros(n_nodes)
            flux = cond * (psi[1:] - psi[:-1])
            f[1:-1] = flux[1:] - flux[:-1] + rho[1:-1] * volumes[1:-1]
            diag = np.zeros(n_nodes)
            diag[1:-1] = -(cond[1:] + cond[:-1]) + drho[1:-1] * volumes[1:-1]
            diag[0] = diag[-1] = 1.0
            f[0] = f[-1] = 0.0

            ab = np.zeros((3, n_nodes))
            ab[0, 2:] = cond[1:]
            ab[1, :] = diag
            ab[2, :-2] = cond[:-1]
            ab[0, 1] = ab[2, -2] = 0.0
            delta = solve_banded((1, 1), ab, -f)
            psi += np.clip(delta, -0.5, 0.5)
            if np.max(np.abs(delta)) < self.TOL_PSI:
                return psi
        raise ConvergenceError("Poisson stage of Gummel did not converge",
                               iterations=self.MAX_NEWTON,
                               residual=float(np.max(np.abs(delta))))

    def _solve_continuity(self, psi: np.ndarray, n_left: float,
                          n_right: float) -> np.ndarray:
        """Linear SG electron-continuity solve for n at fixed psi."""
        n_nodes = psi.size
        d = self.bar.mobility * self.vt
        dpsi = (psi[1:] - psi[:-1]) / self.vt
        # SG flux J_{i+1/2} = (qD/h) [ n_{i+1} B(dpsi) - n_i B(-dpsi) ].
        b_plus = bernoulli(dpsi)
        b_minus = bernoulli(-dpsi)
        w = d / self.h

        ab = np.zeros((3, n_nodes))
        rhs = np.zeros(n_nodes)
        # Interior: flux_{i+1/2} - flux_{i-1/2} = 0 (steady state, no R).
        # Row i couples n_{i-1}, n_i, n_{i+1}.
        upper = w[1:] * b_plus[1:]            # coefficient of n_{i+1}
        lower = w[:-1] * b_minus[:-1]         # coefficient of n_{i-1}
        diag_interior = -(w[1:] * b_minus[1:] + w[:-1] * b_plus[:-1])
        ab[1, 1:-1] = diag_interior
        ab[0, 2:] = upper
        ab[2, :-2] = lower
        ab[1, 0] = ab[1, -1] = 1.0
        rhs[0], rhs[-1] = n_left, n_right
        ab[0, 1] = ab[2, -2] = 0.0
        n = solve_banded((1, 1), ab, rhs)
        return np.maximum(n, 1.0)

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def solve(self, bias: float,
              initial: Optional[DDSolution] = None) -> DDSolution:
        """Solve at contact bias ``bias`` (applied to the x=L contact).

        Tries the direct Gummel solve first — the fault-free path is
        arithmetically unchanged.  When that fails to converge (or the
        fault injector forces it to, site ``"dd1d"``), the solve is
        rescued by bias continuation: ramp the contact bias from
        equilibrium (0 V, where Gummel always converges) towards the
        target with :func:`repro.resilience.rescue.continue_solve`,
        warm-starting each point from the last — the same adaptive
        continuation primitive the SPICE Newton rescue ladder uses.
        """
        rule = draw_fault("convergence", "dd1d")
        if rule is not None and rule.fatal:
            raise ConvergenceError(
                rule.message or f"injected non-convergence at bias "
                                f"{bias:g}V (dd1d)",
                iterations=0, residual=float("inf"))
        if rule is None:
            try:
                return self._solve_direct(bias, initial)
            except ConvergenceError:
                pass
        return self._solve_continuation(bias, initial)

    def _solve_continuation(self, bias: float,
                            initial: Optional[DDSolution]) -> DDSolution:
        """Bias-continuation rescue: walk 0 V -> ``bias`` adaptively."""

        def solve_at(b: float,
                     warm: Optional[DDSolution]) -> DDSolution:
            return self._solve_direct(b, warm if warm is not None
                                      else initial)

        outcome = continue_solve(solve_at, target=bias, start=0.0)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("tcad.dd1d.rescues").inc()
            tracer.counter("tcad.dd1d.continuation_steps").inc(
                outcome.steps)
            tracer.event("tcad.dd1d.rescue", bias=bias,
                         steps=outcome.steps, splits=outcome.splits)
        return outcome.solution

    def sweep(self, biases: Sequence[float],
              kernel: Optional[str] = None) -> List[DDSolution]:
        """Solve a bias sweep.

        ``kernel`` selects the implementation (explicit argument >
        ``REPRO_SOLVER_KERNEL`` > default ``"batched"``):

        * ``"batched"`` — one stacked Newton/Gummel iteration over all
          bias points at once (shared tridiagonal solves, per-point
          active-set dropout); bias points the batch cannot converge
          fall back to the legacy per-point solve with its
          continuation rescue, warm-started from the nearest converged
          neighbour.
        * ``"loop"`` — the legacy Python loop, warm-starting each
          point from the previous one; the differential oracle.

        Both kernels land on the same converged system (the Gummel
        fixed point is unique); they differ only in start strategy and
        solver arithmetic, bounded by the ``numeric`` tolerance class
        at finite bias and the solver noise floor (|I| < 1e-15 A) at
        equilibrium (see ``tests/test_solver_differential.py``).
        """
        if dd1d_kernel(kernel) == "loop":
            return self._sweep_loop(biases)
        return self._sweep_batched(biases)

    def _sweep_loop(self, biases: Sequence[float]) -> List[DDSolution]:
        """Legacy sweep: warm-start each point from the last."""
        solutions: List[DDSolution] = []
        previous: Optional[DDSolution] = None
        for bias in biases:
            previous = self.solve(float(bias), initial=previous)
            solutions.append(previous)
        return solutions

    # ------------------------------------------------------------------
    # batched kernel
    # ------------------------------------------------------------------
    def _sweep_batched(self, biases: Sequence[float]) -> List[DDSolution]:
        """Batched Newton/Gummel across all bias points of the sweep.

        Every point runs the same per-node arithmetic as a cold-started
        :meth:`_solve_direct`; the tridiagonal solves of all still-active
        points are stacked into one block-tridiagonal banded system (the
        blocks are decoupled — the stacked factorisation does exactly the
        per-block elimination), so the Python/LAPACK call count per
        Gummel iteration is independent of the number of bias points.
        Converged points drop out of the active batch; points the batch
        cannot converge fall back to :meth:`solve` (and its continuation
        rescue ladder), warm-started from the nearest converged
        neighbour.
        """
        biases = [float(b) for b in biases]
        m = len(biases)
        if m == 0:
            return []
        # Fault draws happen per bias point, in sweep order — the same
        # draw sequence the legacy loop makes — so injected convergence
        # faults target individual points under either kernel.
        rules = [draw_fault("convergence", "dd1d") for _ in biases]
        for bias, rule in zip(biases, rules):
            if rule is not None and rule.fatal:
                raise ConvergenceError(
                    rule.message or f"injected non-convergence at bias "
                                    f"{bias:g}V (dd1d)",
                    iterations=0, residual=float("inf"))
        batched = [i for i in range(m) if rules[i] is None]

        solutions: List[Optional[DDSolution]] = [None] * m
        iterations = np.zeros(m, dtype=int)
        fallbacks: List[int] = [i for i in range(m) if rules[i] is not None]

        if batched:
            b = np.array([biases[i] for i in batched])
            psi, n, iters, failed = self._gummel_batched(b)
            for j, i in enumerate(batched):
                if j in failed:
                    fallbacks.append(i)
                else:
                    solutions[i] = DDSolution(
                        self.x.copy(), psi[j], n[j],
                        self._current(psi[j], n[j]), int(iters[j]))
                    iterations[i] = iters[j]

        for i in sorted(fallbacks):
            warm = self._nearest_converged(solutions, biases, i)
            if rules[i] is not None:
                solutions[i] = self._solve_continuation(biases[i], warm)
            else:
                solutions[i] = self.solve(biases[i], initial=warm)

        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("tcad.dd1d.batch_sweeps").inc()
            tracer.counter("tcad.dd1d.batch_points").inc(m)
            tracer.counter("tcad.dd1d.batch_gummel_iterations").inc(
                int(iterations.max(initial=0)))
            if fallbacks:
                tracer.counter("tcad.dd1d.batch_fallbacks").inc(
                    len(fallbacks))
            tracer.histogram(
                "tcad.dd1d.batch_points_per_sweep").observe(m)
        return solutions  # type: ignore[return-value]

    @staticmethod
    def _nearest_converged(solutions: List[Optional[DDSolution]],
                           biases: List[float],
                           index: int) -> Optional[DDSolution]:
        """Warm-start donor for a fallback point: closest solved bias."""
        best: Optional[DDSolution] = None
        best_distance = float("inf")
        for j, solution in enumerate(solutions):
            if solution is None:
                continue
            distance = abs(biases[j] - biases[index])
            if distance < best_distance:
                best, best_distance = solution, distance
        return best

    def _gummel_batched(self, biases: np.ndarray):
        """Cold-started Gummel on a ``(m, n_nodes)`` state block.

        Returns ``(psi, n, iterations, failed)`` where ``failed`` is the
        set of batch rows that did not converge (Poisson Newton or the
        outer Gummel loop exhausted) — the caller rescues those
        per-point.
        """
        m = biases.size
        n_nodes = self.x.size
        psi_left = self._contact_potential(self.nd[0])
        psi_right = self._contact_potential(self.nd[-1]) + biases
        n_left, n_right = self.nd[0], self.nd[-1]

        # Cold start, identical per point to _solve_direct's cold branch.
        psi = np.linspace(np.full(m, psi_left), psi_right, n_nodes,
                          axis=-1)
        phi_n = np.linspace(np.zeros(m), biases, n_nodes, axis=-1)

        psi_out = np.empty((m, n_nodes))
        n_out = np.empty((m, n_nodes))
        iters_out = np.zeros(m, dtype=int)
        failed: set = set()
        active = np.arange(m)

        for iteration in range(1, self.MAX_GUMMEL + 1):
            psi_new, poisson_ok = self._solve_poisson_batched(
                psi[active], phi_n[active], psi_left, psi_right[active])
            if not np.all(poisson_ok):
                bad = active[~poisson_ok]
                failed.update(int(i) for i in bad)
                active = active[poisson_ok]
                psi_new = psi_new[poisson_ok]
                if active.size == 0:
                    break
            n_new = self._solve_continuity_batched(psi_new, n_left,
                                                   n_right)
            change = np.max(np.abs(psi_new - psi[active]), axis=1)
            psi[active] = psi_new
            phi_n[active] = psi_new - self.vt * np.log(n_new / self.ni)
            # Same rule as the loop kernel: the first pass only
            # establishes psi/phi_n self-consistency.
            done = (change < 1e-9) & (iteration > 1)
            if np.any(done):
                finished = active[done]
                psi_out[finished] = psi_new[done]
                n_out[finished] = n_new[done]
                iters_out[finished] = iteration
                active = active[~done]
            if active.size == 0:
                break
        failed.update(int(i) for i in active)
        return psi_out, n_out, iters_out, failed

    def _solve_poisson_batched(self, psi: np.ndarray, phi_n: np.ndarray,
                               psi_left: float, psi_right: np.ndarray):
        """Batched Newton solve of Poisson on a ``(k, n_nodes)`` block.

        Returns ``(psi, converged_mask)``; rows that exhaust
        ``MAX_NEWTON`` are reported unconverged rather than raising, so
        the rest of the batch keeps going.
        """
        k, n_nodes = psi.shape
        psi = psi.copy()
        psi[:, 0] = psi_left
        psi[:, -1] = psi_right
        cond = self.eps / self.h
        volumes = np.zeros(n_nodes)
        volumes[1:] += self.h / 2.0
        volumes[:-1] += self.h / 2.0

        converged = np.zeros(k, dtype=bool)
        active = np.arange(k)
        for _ in range(self.MAX_NEWTON):
            p = psi[active]
            n = self.ni * np.exp(
                np.clip((p - phi_n[active]) / self.vt, -60, 60))
            rho = Q * (self.nd - n)
            drho = -Q * n / self.vt

            f = np.zeros_like(p)
            flux = cond * (p[:, 1:] - p[:, :-1])
            f[:, 1:-1] = (flux[:, 1:] - flux[:, :-1] +
                          rho[:, 1:-1] * volumes[1:-1])
            diag = np.zeros_like(p)
            diag[:, 1:-1] = (-(cond[1:] + cond[:-1]) +
                             drho[:, 1:-1] * volumes[1:-1])
            diag[:, 0] = diag[:, -1] = 1.0

            upper = np.zeros_like(p)
            upper[:, 1:-1] = cond[1:]
            lower = np.zeros_like(p)
            lower[:, 1:-1] = cond[:-1]
            delta = stacked_tridiagonal_solve(lower, diag, upper, -f)
            psi[active] += np.clip(delta, -0.5, 0.5)
            done = np.max(np.abs(delta), axis=1) < self.TOL_PSI
            if np.any(done):
                converged[active[done]] = True
                active = active[~done]
            if active.size == 0:
                break
        return psi, converged

    def _solve_continuity_batched(self, psi: np.ndarray, n_left: float,
                                  n_right: float) -> np.ndarray:
        """Batched SG electron-continuity solve at fixed psi block."""
        k, n_nodes = psi.shape
        d = self.bar.mobility * self.vt
        dpsi = (psi[:, 1:] - psi[:, :-1]) / self.vt
        b_plus = bernoulli(dpsi)
        b_minus = bernoulli(-dpsi)
        w = d / self.h

        diag = np.zeros_like(psi)
        diag[:, 1:-1] = -(w[1:] * b_minus[:, 1:] +
                          w[:-1] * b_plus[:, :-1])
        diag[:, 0] = diag[:, -1] = 1.0
        upper = np.zeros_like(psi)
        upper[:, 1:-1] = w[1:] * b_plus[:, 1:]
        lower = np.zeros_like(psi)
        lower[:, 1:-1] = w[:-1] * b_minus[:, :-1]
        rhs = np.zeros_like(psi)
        rhs[:, 0] = n_left
        rhs[:, -1] = n_right
        n = stacked_tridiagonal_solve(lower, diag, upper, rhs)
        return np.maximum(n, 1.0)

    def _solve_direct(self, bias: float,
                      initial: Optional[DDSolution]) -> DDSolution:
        """One cold/warm-started Gummel solve (no rescue)."""
        psi_left = self._contact_potential(self.nd[0])
        psi_right = self._contact_potential(self.nd[-1]) + bias
        n_left, n_right = self.nd[0], self.nd[-1]

        if initial is not None:
            psi = initial.psi.copy()
            phi_n = psi - self.vt * np.log(
                np.maximum(initial.n, 1.0) / self.ni)
        else:
            psi = np.linspace(psi_left, psi_right, self.x.size)
            # Quasi-Fermi boundary conditions: 0 at x=0, bias at x=L.
            phi_n = np.linspace(0.0, bias, self.x.size)

        n = self.nd.copy()
        for iteration in range(1, self.MAX_GUMMEL + 1):
            psi_new = self._solve_poisson(psi, phi_n, psi_left, psi_right)
            n = self._solve_continuity(psi_new, n_left, n_right)
            phi_n = psi_new - self.vt * np.log(n / self.ni)
            change = float(np.max(np.abs(psi_new - psi)))
            psi = psi_new
            # The first pass only establishes self-consistency between
            # psi and phi_n; never declare convergence on it.
            if change < 1e-9 and iteration > 1:
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.counter("tcad.dd1d.solves").inc()
                    tracer.counter("tcad.dd1d.gummel_iterations").inc(
                        iteration)
                    tracer.histogram(
                        "tcad.dd1d.gummel_iterations_per_solve").observe(
                        iteration)
                return DDSolution(self.x.copy(), psi, n,
                                  self._current(psi, n), iteration)
        raise ConvergenceError("Gummel loop did not converge",
                               iterations=self.MAX_GUMMEL, residual=change)

    def _current(self, psi: np.ndarray, n: np.ndarray) -> float:
        """Terminal current [A] from the SG flux (edge-averaged).

        Sign convention: positive when conventional current flows from
        the biased (x = L) contact towards x = 0, i.e. for positive
        applied bias on an ohmic bar.
        """
        d = self.bar.mobility * self.vt
        dpsi = (psi[1:] - psi[:-1]) / self.vt
        flux = (d / self.h) * (n[1:] * bernoulli(dpsi) -
                               n[:-1] * bernoulli(-dpsi))
        return float(-Q * self.bar.area * np.mean(flux))

    def resistance(self, bias: float = 5e-3) -> float:
        """Small-signal resistance [Ohm] from a low-bias solve."""
        solution = self.solve(bias)
        if solution.current == 0:
            raise ConvergenceError("no current at finite bias")
        return bias / solution.current


def uniform_bar(nd_cm3: float = 1e19, length: float = 48e-9,
                area: float = 192e-9 * 7e-9,
                mobility: float = 0.01) -> Bar1D:
    """The paper's S/D extension as a DD problem: 48 nm long, 192 x 7 nm
    cross-section, 1e19 cm^-3 doping."""
    nd = nd_cm3 * 1e6
    return Bar1D(length=length, area=area, doping=lambda _x: nd,
                 mobility=mobility)
