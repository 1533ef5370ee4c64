"""Per-transistor oracle of the banked MOSFET evaluation.

The production assembler evaluates all MOSFETs that share a model in
one compact-model call per assembly (:class:`MosfetBank`) and has each
device scatter its precomputed companion.  This module keeps the
earlier one-transistor-at-a-time implementation as the reference it
must match bit for bit:

* :func:`reference_stamp_static` — a 5-point ``ids_batch`` per device
  (nominal, ±δ gate, ±δ drain), stamped through
  ``stamp_transconductance`` → ``stamp_conductance`` →
  ``stamp_current``;
* :func:`reference_stamp_dynamic` — a 3-point ``charges_batch`` per
  device with forward-difference capacitances;
* :func:`reference_assemble_static` / :func:`reference_assemble_dynamic`
  — the dense assembly over a full ``{node: float}`` dict, every
  element stamped in circuit order;
* :func:`reference_assembly` — a context manager that routes every
  ``MnaAssembler`` through the two reference assemblies, to run whole
  transients on the oracle.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.spice.elements.base import Stamper
from repro.spice.elements.mosfet import FD_DELTA, Mosfet
from repro.spice.mna import GMIN, MnaAssembler


def reference_stamp_static(fet: Mosfet, stamper: Stamper,
                           voltages: Dict[str, float]) -> None:
    """The per-transistor static stamp: one 5-point ``ids_batch``."""
    vd, vg, vs = fet.terminal_voltages(voltages)
    vgs, vds = vg - vs, vd - vs
    d = FD_DELTA
    batch = fet.model.ids_batch(
        np.array([vgs, vgs + d, vgs - d, vgs, vgs]),
        np.array([vds, vds, vds, vds + d, vds - d]))
    ids = float(batch[0])
    gm = float(batch[1] - batch[2]) / (2.0 * d)
    gds = float(batch[3] - batch[4]) / (2.0 * d)

    drain, gate, source = fet.nodes
    # Companion: i = ids + gm * d(vgs) + gds * d(vds), flowing d->s.
    stamper.stamp_transconductance(drain, source, gate, source, gm)
    stamper.stamp_conductance(drain, source, gds)
    stamper.stamp_current(drain, source, ids - gm * vgs - gds * vds)


def reference_stamp_dynamic(fet: Mosfet, stamper: Stamper,
                            voltages: Dict[str, float],
                            charge_vector: np.ndarray,
                            cap_matrix: np.ndarray) -> None:
    """The per-transistor dynamic stamp: one 3-point ``charges_batch``."""
    drain, gate, source = fet.nodes
    rows = [stamper.row(n) for n in (gate, drain, source)]
    vd, vg, vs = fet.terminal_voltages(voltages)
    vgs, vds = vg - vs, vd - vs

    d = FD_DELTA
    qg_b, qd_b, qs_b = fet.model.charges_batch(
        np.array([vgs, vgs + d, vgs]),
        np.array([vds, vds, vds + d]))
    q0 = np.array([qg_b[0], qd_b[0], qs_b[0]])
    # dq/dvg (vs fixed), dq/dvd, and dq/dvs = -(dq/dvg + dq/dvd).
    dq_dvg = (np.array([qg_b[1], qd_b[1], qs_b[1]]) - q0) / d
    dq_dvd = (np.array([qg_b[2], qd_b[2], qs_b[2]]) - q0) / d
    dq_dvs = -(dq_dvg + dq_dvd)

    for i, row in enumerate(rows):
        if row is None:
            continue
        charge_vector[row] += q0[i]
        for deriv, node in ((dq_dvg[i], gate), (dq_dvd[i], drain),
                            (dq_dvs[i], source)):
            col = stamper.row(node)
            if col is not None:
                cap_matrix[row, col] += deriv


def reference_assemble_static(assembler: MnaAssembler, x: np.ndarray,
                              time: float) -> Stamper:
    """Dense static assembly with per-transistor MOSFET stamps."""
    stamper = Stamper(assembler.node_index, assembler.branch_index,
                      assembler.n_unknowns)
    voltages = assembler.voltages_from(x)
    for element in assembler.circuit:
        if isinstance(element, Mosfet):
            reference_stamp_static(element, stamper, voltages)
        else:
            element.stamp_static(stamper, voltages, time)
    for i in range(assembler.n_nodes):
        stamper.matrix[i, i] += GMIN
    return stamper


def reference_assemble_dynamic(assembler: MnaAssembler, x: np.ndarray,
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """Dense dynamic assembly with per-transistor MOSFET stamps."""
    stamper = Stamper(assembler.node_index, assembler.branch_index,
                      assembler.n_unknowns)
    voltages = assembler.voltages_from(x)
    charge = np.zeros(assembler.n_unknowns)
    cap = np.zeros((assembler.n_unknowns, assembler.n_unknowns))
    for element in assembler.circuit:
        if isinstance(element, Mosfet):
            reference_stamp_dynamic(element, stamper, voltages, charge, cap)
        else:
            element.stamp_dynamic(stamper, voltages, charge, cap)
    return charge, cap


@contextlib.contextmanager
def reference_assembly(monkeypatch) -> Iterator[None]:
    """Route every ``MnaAssembler`` through the oracle assemblies."""
    with monkeypatch.context() as patch:
        patch.setattr(MnaAssembler, "assemble_static",
                      reference_assemble_static)
        patch.setattr(MnaAssembler, "assemble_dynamic",
                      reference_assemble_dynamic)
        yield
