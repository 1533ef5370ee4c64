"""MNA system assembly shared by the DC and transient solvers.

Two linear-algebra kernels live here (``REPRO_SOLVER_KERNEL``, see
:mod:`repro.kernels`):

* ``dense`` — the legacy oracle: every Newton iteration stamps every
  element from scratch and solves with ``np.linalg.solve``;
* ``sparse`` — the fast kernel: elements are partitioned into a linear
  part (stamped once per assembler and reused as a cached base matrix)
  and a varying part (re-stamped per iteration), and solves go through
  SuperLU with the CSC sparsity pattern cached while the structure is
  unchanged and the numeric factorisation reused while the matrix
  values are unchanged (linear circuits factor once per transient).

The sparse kernel silently degrades to the dense oracle below
``REPRO_SPARSE_THRESHOLD`` unknowns and when SciPy is unavailable, so
small systems — every committed golden and the whole standard-cell
flow — keep bit-identical legacy arithmetic.

Under both kernels the circuit's MOSFETs are evaluated in banks
(:class:`~repro.spice.elements.mosfet.MosfetBank`), built once per
assembler: each assembly makes one compact-model call per model, then
stamps the elements in circuit order, every MOSFET scattering its
precomputed companion.  Each matrix entry therefore accumulates the
same values in the same order as per-transistor stamping did, and the
results are bit-identical to it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.errors import SingularMatrixError
from repro.observe import get_tracer
from repro.spice.netlist import Circuit
from repro.spice.elements.base import Element, Stamper
from repro.spice.elements.mosfet import MosfetBank

#: Leak conductance from every node to ground — keeps cut-off transistor
#: networks non-singular, as real simulators do.
GMIN = 1e-12


def _singular(exc: Exception) -> SingularMatrixError:
    """The shared diagnosis both kernels raise for singular systems."""
    return SingularMatrixError(
        f"singular MNA matrix ({exc}); check for floating "
        f"subcircuits or voltage-source loops")


class _LazyVoltages(dict):
    """Node-voltage view over a solution vector, materialised on demand.

    Elements read the few nodes they touch (MOSFETs none: their banks
    read the solution vector directly), so building the full
    ``{node: float}`` dict every Newton iteration would be wasted work.
    """

    def __init__(self, x: np.ndarray, node_index: Dict[str, int]):
        super().__init__()
        self._x = x
        self._index = node_index

    def get(self, node, default=0.0):
        idx = self._index.get(node)
        if idx is None:
            return default
        return float(self._x[idx])

    def __missing__(self, node):
        idx = self._index.get(node)
        if idx is None:
            raise KeyError(node)
        return float(self._x[idx])


class _SparseLinearSolver:
    """CSC pattern cache and LU factorisation reuse for one assembler.

    The pattern (``indices``/``indptr`` plus the dense positions each
    stored entry refills from) is rebuilt only when the matrix grows a
    nonzero outside it; the numeric factorisation is reused verbatim
    whenever the refilled data is bit-identical to the last factorised
    data — which makes linear circuits factor exactly once per
    (transient timestep size), with every further Newton iteration and
    timestep a cheap triangular solve.
    """

    def __init__(self):
        self.n: Optional[int] = None
        self.indices: Optional[np.ndarray] = None
        self.indptr: Optional[np.ndarray] = None
        self.rows: Optional[np.ndarray] = None
        self.cols: Optional[np.ndarray] = None
        self.last_data: Optional[np.ndarray] = None
        self.lu = None

    def _rebuild_pattern(self, matrix: np.ndarray) -> None:
        from scipy import sparse

        pattern = sparse.csc_matrix(matrix)
        pattern.sort_indices()
        self.n = matrix.shape[0]
        self.indices = pattern.indices.astype(np.int64, copy=True)
        self.indptr = pattern.indptr.astype(np.int64, copy=True)
        self.rows = self.indices
        self.cols = np.repeat(np.arange(self.n), np.diff(self.indptr))
        self.last_data = None
        self.lu = None
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("spice.mna.pattern_rebuilds").inc()

    def solve(self, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        from scipy import sparse
        from scipy.sparse.linalg import splu

        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("spice.mna.solves").inc()
            tracer.counter("spice.mna.sparse_solves").inc()
        if self.indices is None or matrix.shape[0] != self.n:
            self._rebuild_pattern(matrix)
        data = matrix[self.rows, self.cols]
        # The cached pattern is valid only while it covers every
        # nonzero of the matrix (a new coupling — e.g. a transistor
        # leaving cut-off — shows up as a nonzero the extraction
        # missed).  Entries *inside* the pattern going to zero are
        # harmless explicit zeros.
        if np.count_nonzero(matrix) != np.count_nonzero(data):
            self._rebuild_pattern(matrix)
            data = matrix[self.rows, self.cols]
        if self.lu is not None and np.array_equal(data, self.last_data):
            if tracer.enabled:
                tracer.counter("spice.mna.factor_reuse").inc()
        else:
            system = sparse.csc_matrix(
                (data, self.indices, self.indptr), shape=(self.n, self.n))
            try:
                self.lu = splu(system)
            except RuntimeError as exc:
                self.lu = None
                self.last_data = None
                raise _singular(exc) from None
            self.last_data = data
            if tracer.enabled:
                tracer.counter("spice.mna.factorizations").inc()
        return self.lu.solve(rhs)


class MnaAssembler:
    """Builds linearised MNA systems for a circuit.

    Parameters
    ----------
    circuit:
        The circuit to assemble.
    kernel:
        Optional MNA kernel override (``"sparse"``/``"dense"`` or a
        full ``REPRO_SOLVER_KERNEL`` spec); default resolves the
        environment.
    sparse_threshold:
        Optional minimum unknown count for the sparse path; default
        resolves ``REPRO_SPARSE_THRESHOLD``.

    The effective kernel is exposed as :attr:`kernel`.  The circuit's
    elements and their parameters must not change over the assembler's
    lifetime under either kernel: the MOSFET banks (terminal rows and
    ``Mosfet.model``) are built at construction, and the sparse kernel
    also caches the linear partition.  The solver stack honours this:
    source stepping swaps *waveforms* of voltage sources, which are
    read at stamp time.  A MOSFET on a node the circuit does not know
    raises :class:`~repro.errors.NetlistError` here.
    """

    def __init__(self, circuit: Circuit, kernel: Optional[str] = None,
                 sparse_threshold: Optional[int] = None):
        circuit.validate()
        self.circuit = circuit
        self.node_index = circuit.node_index()
        self.branch_index = circuit.branch_index()
        self.n_unknowns = circuit.n_unknowns
        self.n_nodes = len(self.node_index)
        elements = circuit.elements
        self.banks: List[MosfetBank] = MosfetBank.group(elements,
                                                        self.node_index)
        # Each element with its MOSFET's position in the concatenated
        # bank companions (None for every other element).
        slot = {id(fet): k for k, fet in enumerate(
            fet for bank in self.banks for fet in bank.devices)}
        self._elements: List[Tuple[Element, Optional[int]]] = [
            (e, slot.get(id(e))) for e in elements]
        requested = kernels.mna_kernel(kernel)
        self.kernel = "dense"
        if (requested == "sparse"
                and self.n_unknowns >= kernels.sparse_threshold(
                    sparse_threshold)
                and kernels.scipy_sparse_available()):
            self.kernel = "sparse"
            self._prepare_sparse()

    def _prepare_sparse(self) -> None:
        """Partition elements and cache the linear stamps."""
        self._static_varying = [
            (e, k) for e, k in self._elements
            if not e.static_linear
            and type(e).stamp_static is not Element.stamp_static]
        self._dynamic_varying = [
            (e, k) for e, k in self._elements
            if not e.dynamic_linear
            and type(e).stamp_dynamic is not Element.stamp_dynamic]
        zero_voltages = {node: 0.0 for node in self.node_index}
        base = Stamper(self.node_index, self.branch_index, self.n_unknowns)
        for element, _ in self._elements:
            if element.static_linear:
                element.stamp_static(base, zero_voltages, 0.0)
        self._add_gmin(base.matrix)
        self._static_base = base.matrix
        self._static_base_rhs = base.rhs
        cap_stamper = Stamper(self.node_index, self.branch_index,
                              self.n_unknowns)
        self._cap_base = np.zeros((self.n_unknowns, self.n_unknowns))
        scratch = np.zeros(self.n_unknowns)
        for element, _ in self._elements:
            if element.dynamic_linear:
                element.stamp_dynamic(cap_stamper, zero_voltages, scratch,
                                      self._cap_base)
        self._sparse = _SparseLinearSolver()

    def _add_gmin(self, matrix: np.ndarray) -> None:
        idx = np.arange(self.n_nodes)
        matrix[idx, idx] += GMIN

    def _companions(self, x: np.ndarray, dynamic: bool) -> list:
        """Every banked MOSFET's companion at estimate ``x``."""
        x_ext = np.append(x, 0.0)
        companions = []
        for bank in self.banks:
            vgs, vds = bank.bias(x_ext)
            companions.extend(bank.dynamic_companions(vgs, vds) if dynamic
                              else bank.static_companions(vgs, vds))
        return companions

    # ------------------------------------------------------------------
    # vector <-> dict conversions
    # ------------------------------------------------------------------
    def voltages_from(self, x: np.ndarray) -> Dict[str, float]:
        """Node-voltage dict from a solution vector."""
        return {node: float(x[i]) for node, i in self.node_index.items()}

    def branch_current(self, x: np.ndarray, element_name: str) -> float:
        """Branch current of a voltage source from a solution vector."""
        return float(x[self.branch_index[element_name]])

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def assemble_static(self, x: np.ndarray, time: float) -> Stamper:
        """Stamp all static (memoryless) element behaviour at estimate x."""
        if self.kernel == "dense":
            stamper = Stamper(self.node_index, self.branch_index,
                              self.n_unknowns)
            elements = self._elements
        else:
            # Start from the cached linear base (already including
            # GMIN) and re-stamp only the varying elements.
            stamper = Stamper.from_base(self.node_index, self.branch_index,
                                        self._static_base.copy(),
                                        self._static_base_rhs.copy())
            elements = self._static_varying
        if elements:
            voltages = _LazyVoltages(x, self.node_index)
            companions = self._companions(x, dynamic=False)
            for element, k in elements:
                if k is None:
                    element.stamp_static(stamper, voltages, time)
                else:
                    element.stamp_static(stamper, voltages, time,
                                         companions[k])
        if self.kernel == "dense":
            self._add_gmin(stamper.matrix)
        return stamper

    def assemble_dynamic(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Charge vector q(x) and capacitance Jacobian C(x) = dq/dx.

        Under the sparse kernel the returned Jacobian may be the cached
        linear base itself (no per-call copy): callers must treat it as
        read-only, which the DC and transient solvers do.
        """
        if self.kernel == "dense":
            charge = np.zeros(self.n_unknowns)
            cap = np.zeros((self.n_unknowns, self.n_unknowns))
            elements = self._elements
        else:
            # Linear charges are exactly C x with the cached capacitance
            # base; only nonlinear elements re-stamp.
            charge = self._cap_base @ x
            if not self._dynamic_varying:
                return charge, self._cap_base
            cap = self._cap_base.copy()
            elements = self._dynamic_varying
        stamper = Stamper(self.node_index, self.branch_index,
                          self.n_unknowns)
        voltages = _LazyVoltages(x, self.node_index)
        companions = self._companions(x, dynamic=True)
        for element, k in elements:
            if k is None:
                element.stamp_dynamic(stamper, voltages, charge, cap)
            else:
                element.stamp_dynamic(stamper, voltages, charge, cap,
                                      companions[k])
        return charge, cap

    def solve_system(self, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = z under this assembler's kernel.

        Dense assemblers defer to the legacy :meth:`solve_linear`
        oracle; sparse assemblers go through the cached-pattern SuperLU
        path with factorisation reuse.  Both raise the same
        :class:`~repro.errors.SingularMatrixError` (code
        ``spice.singular_matrix``) on singular systems.
        """
        if self.kernel == "dense":
            return self.solve_linear(matrix, rhs)
        return self._sparse.solve(matrix, rhs)

    @staticmethod
    def solve_linear(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Dense solve with a clear diagnosis of singular systems."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("spice.mna.solves").inc()
        try:
            return np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise _singular(exc) from None


def scale_sources(circuit: Circuit, factor: float) -> "ScaledSourceContext":
    """Context manager scaling all voltage sources (source stepping)."""
    return ScaledSourceContext(circuit, factor)


class ScaledSourceContext:
    """Temporarily replaces VoltageSource waveforms with scaled DC values.

    Used by the source-stepping fallback: at factor 0 the circuit is
    trivially solvable, and the solution continues smoothly to factor 1.
    """

    def __init__(self, circuit: Circuit, factor: float):
        self.circuit = circuit
        self.factor = factor
        self._saved: Dict[str, object] = {}

    def __enter__(self) -> "ScaledSourceContext":
        from repro.spice.elements.vsource import VoltageSource

        for element in self.circuit:
            if isinstance(element, VoltageSource):
                self._saved[element.name] = element.waveform
                element.waveform = element.value(0.0) * self.factor
        return self

    def __exit__(self, *exc_info) -> Optional[bool]:
        for name, waveform in self._saved.items():
            self.circuit.element(name).waveform = waveform
        return None
