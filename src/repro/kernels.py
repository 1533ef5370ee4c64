"""Solver-kernel selection (``REPRO_SOLVER_KERNEL``).

Version 1.7 rewrote the two hot solvers — the 1-D drift-diffusion bias
sweep and the SPICE MNA linear algebra — as *fast kernels* while keeping
the original implementations alive as differential oracles:

* ``tcad.dd1d`` sweeps: ``batched`` (stacked-tridiagonal Gummel across
  all bias points, active-set dropout) vs ``loop`` (the legacy
  per-point warm-started Python loop);
* ``repro.spice`` MNA: ``sparse`` (linear/nonlinear partitioned
  assembly, cached CSC sparsity pattern, LU factorisation reuse) vs
  ``dense`` (assemble + ``np.linalg.solve`` from scratch every Newton
  iteration).

Selection is one spec string — explicit argument > environment >
default — holding up to one token per axis::

    REPRO_SOLVER_KERNEL=batched,sparse   # the defaults
    REPRO_SOLVER_KERNEL=loop,dense       # full legacy (the oracle)
    REPRO_SOLVER_KERNEL=loop             # legacy dd1d, default MNA

The sparse MNA kernel additionally degrades to the dense oracle below
``REPRO_SPARSE_THRESHOLD`` unknowns (and whenever SciPy is missing), so
small systems — every committed golden and the whole standard-cell
flow — keep their bit-identical legacy arithmetic while large systems
get the fast path.  Unknown tokens and conflicting specs fail with
:class:`~repro.errors.ConfigError` at resolution time, same contract as
every other ``REPRO_*`` knob (see :mod:`repro.config`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.config import resolve_int
from repro.errors import ConfigError

#: Environment variable selecting the solver kernels.
KERNEL_ENV = "REPRO_SOLVER_KERNEL"

#: Environment variable with the sparse-MNA size threshold (unknowns).
SPARSE_THRESHOLD_ENV = "REPRO_SPARSE_THRESHOLD"

#: Systems with fewer unknowns than this use the dense oracle even
#: under the sparse kernel: LAPACK beats SuperLU on tiny matrices and
#: the legacy arithmetic stays bit-identical for every standard cell.
DEFAULT_SPARSE_THRESHOLD = 64

#: Valid tokens per axis (first entry = default).
DD1D_KERNELS = ("batched", "loop")
MNA_KERNELS = ("sparse", "dense")


@dataclass(frozen=True)
class KernelConfig:
    """Resolved kernel selection for both solver families."""

    dd1d: str = DD1D_KERNELS[0]
    mna: str = MNA_KERNELS[0]

    def spec(self) -> str:
        """The spec string reproducing this configuration."""
        return f"{self.dd1d},{self.mna}"


def parse_kernel_spec(spec: str) -> KernelConfig:
    """Parse a ``REPRO_SOLVER_KERNEL`` spec string.

    Tokens are comma (or whitespace) separated; at most one token per
    axis; unknown or conflicting tokens raise
    :class:`~repro.errors.ConfigError` naming the variable.
    """
    dd1d = None
    mna = None
    for token in spec.replace(",", " ").split():
        if token in DD1D_KERNELS:
            if dd1d is not None and dd1d != token:
                raise ConfigError(
                    f"{KERNEL_ENV} selects conflicting dd1d kernels "
                    f"{dd1d!r} and {token!r} in {spec!r}")
            dd1d = token
        elif token in MNA_KERNELS:
            if mna is not None and mna != token:
                raise ConfigError(
                    f"{KERNEL_ENV} selects conflicting MNA kernels "
                    f"{mna!r} and {token!r} in {spec!r}")
            mna = token
        else:
            raise ConfigError(
                f"{KERNEL_ENV} token {token!r} unknown (valid: "
                f"{', '.join(DD1D_KERNELS + MNA_KERNELS)})")
    return KernelConfig(dd1d=dd1d or DD1D_KERNELS[0],
                        mna=mna or MNA_KERNELS[0])


def resolve_kernels(spec: str = None) -> KernelConfig:
    """Resolve the kernel config: explicit spec > environment > default."""
    if spec is None:
        spec = os.environ.get(KERNEL_ENV, "")
    return parse_kernel_spec(spec)


def dd1d_kernel(explicit: str = None) -> str:
    """The dd1d sweep kernel (``"batched"`` or ``"loop"``).

    ``explicit`` may be a single axis token or a full spec string.
    """
    if explicit is not None and explicit in DD1D_KERNELS:
        return explicit
    return resolve_kernels(explicit).dd1d


def mna_kernel(explicit: str = None) -> str:
    """The MNA kernel (``"sparse"`` or ``"dense"``)."""
    if explicit is not None and explicit in MNA_KERNELS:
        return explicit
    return resolve_kernels(explicit).mna


def sparse_threshold(explicit=None) -> int:
    """Minimum unknown count for the sparse MNA path to engage."""
    return resolve_int(SPARSE_THRESHOLD_ENV, DEFAULT_SPARSE_THRESHOLD,
                       explicit, positive=True)


def scipy_sparse_available() -> bool:
    """True when ``scipy.sparse.linalg`` can be imported."""
    try:
        import scipy.sparse.linalg  # noqa: F401
    except ImportError:  # pragma: no cover - scipy is a hard dep here
        return False
    return True
