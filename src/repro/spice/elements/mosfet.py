"""MOSFET element wrapping the BSIMSOI4-lite compact model.

Three terminals (drain, gate, source).  The static stamp linearises the
drain current with numerically differentiated gm/gds (robust against any
future change in the model equations); the dynamic stamp provides the
model's conservative terminal charges with a numerical 3x3 capacitance
Jacobian.

Every evaluation goes through a :class:`MosfetBank`: the MOSFETs of one
circuit that share one model instance.  A bank of m devices makes one
``ids_batch`` call over 5·m bias points (nominal, ±δ gate, ±δ drain)
per static assembly and one ``charges_batch`` call over 3·m points
(nominal, +δ gate, +δ drain) per dynamic assembly.  The MNA assembler
builds its banks once and hands each device its precomputed
*companion* — the matrix/vector entries it touches and the values it
adds there — and the device scatters it in the entry order of the
classic ``stamp_transconductance`` → ``stamp_conductance`` →
``stamp_current`` sequence.  Called without a companion, a stamp
evaluates the device as a bank of one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compact.model import BsimSoi4Lite
from repro.errors import NetlistError
from repro.spice.elements.base import Element, Stamper

#: Finite-difference step for gm/gds/capacitances [V].
FD_DELTA = 1e-4

#: Where a device adds its values: ``(vector entries, matrix entries)``
#: as ``(row, value index)`` and ``(row, col, value index)`` tuples.
Layout = Tuple[List[Tuple[int, int]], List[Tuple[int, int, int]]]

#: A device's layout plus the values of one evaluation.
Companion = Tuple[Layout, Sequence[float]]

# Value indices of a static companion: gm, -gm, gds, -gds, -ieq, ieq.
_GM, _NEG_GM, _GDS, _NEG_GDS, _NEG_IEQ, _IEQ = range(6)


def _static_layout(rd: Optional[int], rg: Optional[int],
                   rs: Optional[int]) -> Layout:
    """Entries of the drain-current companion, ground entries dropped."""
    matrix = [(r, c, k) for r, c, k in (
        # i = gm * (vg - vs) flowing drain -> source
        (rd, rg, _GM), (rd, rs, _NEG_GM), (rs, rg, _NEG_GM), (rs, rs, _GM),
        # gds between drain and source
        (rd, rd, _GDS), (rs, rs, _GDS), (rd, rs, _NEG_GDS),
        (rs, rd, _NEG_GDS),
    ) if r is not None and c is not None]
    vector = [(r, k) for r, k in ((rd, _NEG_IEQ), (rs, _IEQ))
              if r is not None]
    return vector, matrix


def _dynamic_layout(rd: Optional[int], rg: Optional[int],
                    rs: Optional[int]) -> Layout:
    """Entries of the charge companion, terminals in (g, d, s) order.

    Values are ``q0`` (indices 0-2) then ``dq/dvg``, ``dq/dvd`` and
    ``dq/dvs`` (3 + 3*j + i for terminal i and controlling terminal j).
    """
    rows = (rg, rd, rs)
    vector = [(r, i) for i, r in enumerate(rows) if r is not None]
    matrix = [(r, c, 3 + 3 * j + i)
              for i, r in enumerate(rows) if r is not None
              for j, c in enumerate(rows) if c is not None]
    return vector, matrix


def _scatter(vector: np.ndarray, matrix: np.ndarray,
             companion: Companion) -> None:
    """Add a companion's values into a vector and matrix, in order."""
    (vector_entries, matrix_entries), values = companion
    for r, k in vector_entries:
        vector[r] += values[k]
    for r, c, k in matrix_entries:
        matrix[r, c] += values[k]


class Mosfet(Element):
    """Compact-model MOSFET (nodes: drain, gate, source)."""

    def __init__(self, name: str, drain: str, gate: str, source: str,
                 model: BsimSoi4Lite):
        super().__init__(name, (drain, gate, source))
        if not isinstance(model, BsimSoi4Lite):
            raise NetlistError(f"{name}: model must be a BsimSoi4Lite")
        self.model = model

    # ------------------------------------------------------------------
    # evaluations
    # ------------------------------------------------------------------
    def _bank_of_one(self, stamper: Stamper, voltages: Dict[str, float]):
        """This device alone as a bank, with its (vgs, vds) arrays."""
        vd, vg, vs = self.terminal_voltages(voltages)
        return (MosfetBank((self,), stamper.node_index),
                np.array([vg - vs]), np.array([vd - vs]))

    # ------------------------------------------------------------------
    # stamps
    # ------------------------------------------------------------------
    def stamp_static(self, stamper: Stamper, voltages: Dict[str, float],
                     time: float,
                     companion: Optional[Companion] = None) -> None:
        """Companion i = ids + gm * d(vgs) + gds * d(vds), drain -> source.

        ``companion`` is this device's entry of its bank's
        :meth:`MosfetBank.static_companions`; without it the device is
        evaluated at ``voltages`` as a bank of one.
        """
        if companion is None:
            bank, vgs, vds = self._bank_of_one(stamper, voltages)
            companion = bank.static_companions(vgs, vds)[0]
        _scatter(stamper.rhs, stamper.matrix, companion)

    def stamp_dynamic(self, stamper: Stamper, voltages: Dict[str, float],
                      charge_vector: np.ndarray, cap_matrix: np.ndarray,
                      companion: Optional[Companion] = None) -> None:
        """Terminal charges and their 3x3 capacitance Jacobian.

        ``companion`` as for :meth:`stamp_static`, from
        :meth:`MosfetBank.dynamic_companions`.
        """
        if companion is None:
            bank, vgs, vds = self._bank_of_one(stamper, voltages)
            companion = bank.dynamic_companions(vgs, vds)[0]
        _scatter(charge_vector, cap_matrix, companion)


class MosfetBank:
    """MOSFETs of one circuit that share one model instance.

    Banks are keyed by model *identity*: two equal but distinct model
    objects form two banks.  The devices, their terminal rows and the
    model are fixed when the bank is built, so a device's ``nodes`` and
    ``model`` must not change over the bank's lifetime.  A node the
    index does not know raises :class:`NetlistError` here.
    """

    def __init__(self, devices: Sequence[Mosfet],
                 node_index: Dict[str, int]):
        self.devices: Tuple[Mosfet, ...] = tuple(devices)
        self.model = self.devices[0].model
        row = Stamper(node_index, {}, 0).row
        rows = [tuple(row(n) for n in fet.nodes) for fet in self.devices]
        # Positions into x_ext = [x..., 0.0]: ground reads the last slot.
        positions = np.array([[-1 if r is None else r for r in fet_rows]
                              for fet_rows in rows], dtype=np.intp)
        self._drain, self._gate, self._source = positions.T.copy()
        self._static_layouts = [_static_layout(*r) for r in rows]
        self._dynamic_layouts = [_dynamic_layout(*r) for r in rows]

    @classmethod
    def group(cls, elements: Sequence[Element],
              node_index: Dict[str, int]) -> List["MosfetBank"]:
        """Bank the MOSFETs among ``elements`` by model identity.

        Banks come in order of their first device; devices keep their
        element order within a bank.
        """
        groups: Dict[int, List[Mosfet]] = {}
        for element in elements:
            if isinstance(element, Mosfet):
                groups.setdefault(id(element.model), []).append(element)
        return [cls(devices, node_index) for devices in groups.values()]

    def bias(self, x_ext: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(vgs, vds) of every device from an extended solution vector."""
        vs = x_ext[self._source]
        return x_ext[self._gate] - vs, x_ext[self._drain] - vs

    def static_companions(self, vgs: np.ndarray,
                          vds: np.ndarray) -> List[Companion]:
        """Linearised drain currents: one ``ids_batch`` over 5·m points.

        The per-device arithmetic after the call is plain float
        arithmetic: for the few devices of a cell it is cheaper than a
        chain of small-array operations, and it is the IEEE arithmetic
        of a per-transistor stamp, operation for operation.
        """
        m = len(self.devices)
        d = FD_DELTA
        ids = self.model.ids_batch(
            np.concatenate([vgs, vgs + d, vgs - d, vgs, vgs]),
            np.concatenate([vds, vds, vds, vds + d, vds - d])).tolist()
        companions = []
        for j, (layout, vg, vd) in enumerate(zip(
                self._static_layouts, vgs.tolist(), vds.tolist())):
            gm = (ids[m + j] - ids[2 * m + j]) / (2.0 * d)
            gds = (ids[3 * m + j] - ids[4 * m + j]) / (2.0 * d)
            ieq = ids[j] - gm * vg - gds * vd
            companions.append((layout, (gm, -gm, gds, -gds, -ieq, ieq)))
        return companions

    def dynamic_companions(self, vgs: np.ndarray,
                           vds: np.ndarray) -> List[Companion]:
        """Charges and forward-difference capacitances: one
        ``charges_batch`` over 3·m points (nominal, +δ gate, +δ drain)."""
        m = len(self.devices)
        d = FD_DELTA
        charges = [q.tolist() for q in self.model.charges_batch(
            np.concatenate([vgs, vgs + d, vgs]),
            np.concatenate([vds, vds, vds + d]))]
        companions = []
        for j, layout in enumerate(self._dynamic_layouts):
            q0 = [q[j] for q in charges]
            dq_dvg = [(q[m + j] - q[j]) / d for q in charges]
            dq_dvd = [(q[2 * m + j] - q[j]) / d for q in charges]
            # charges see voltage differences only
            dq_dvs = [-(a + b) for a, b in zip(dq_dvg, dq_dvd)]
            companions.append((layout, q0 + dq_dvg + dq_dvd + dq_dvs))
        return companions
