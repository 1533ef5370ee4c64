"""Differential harness: the batched TCAD sweep vs its per-point oracle.

``characterize_device`` runs a device's whole I-V plan as one batched
drain-current call and its C-V plan as one batched Poisson solve.  Its
targets must equal the one-bias-at-a-time oracle in
:mod:`tests.tcad_oracle` exactly — ``==`` on every float, no tolerance.
Also here: the edge cases of the array path and the work-counter
semantics of a batched solve.
"""

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.extraction.targets import characterize_device
from repro.geometry.transistor_layout import ChannelCount
from repro.observe import Tracer, activate
from repro.tcad.charge_sheet import ChargeSheetModel
from repro.tcad.device import Polarity, design_for_variant
from repro.tcad.poisson1d import Poisson1D, StackSpec
from tests.tcad_oracle import (
    reference_characterize,
    reference_drain_current,
    reference_solve,
)

ALL_DEVICES = [(v, p) for v in ChannelCount for p in Polarity]
TIER1_DEVICES = [(ChannelCount.TRADITIONAL, Polarity.NMOS),
                 (ChannelCount.FOUR, Polarity.PMOS)]


def _ids(cases):
    return [f"{v.name.lower()}-{p.value}" for v, p in cases]


def _assert_matches_oracle(variant, polarity):
    device = design_for_variant(variant, polarity)
    batched = characterize_device(device).to_dict()
    assert batched == reference_characterize(device).to_dict()


@pytest.mark.parametrize("variant,polarity", TIER1_DEVICES,
                         ids=_ids(TIER1_DEVICES))
def test_characterize_matches_per_point_oracle(variant, polarity):
    _assert_matches_oracle(variant, polarity)


@pytest.mark.slow
@pytest.mark.parametrize("variant,polarity", ALL_DEVICES,
                         ids=_ids(ALL_DEVICES))
def test_characterize_matches_per_point_oracle_all_devices(variant,
                                                           polarity):
    _assert_matches_oracle(variant, polarity)


@pytest.fixture(scope="module")
def device():
    return design_for_variant(ChannelCount.TRADITIONAL, Polarity.NMOS)


@pytest.fixture(scope="module")
def solver():
    return Poisson1D(StackSpec(t_ox=1e-9, t_si=7e-9, t_box=100e-9,
                               flatband=0.04))


# ----------------------------------------------------------------------
# Poisson1D: batch rows vs the scalar Newton loop
# ----------------------------------------------------------------------
GATES = np.array([-0.3, 0.0, 0.2, 0.55, 0.9, 1.2])
CHANNELS = np.array([0.0, 0.05, 0.3, 0.0, 0.6, 1.0])


def test_batched_rows_equal_reference_newton(solver):
    batch = solver.solve(GATES, CHANNELS)
    assert batch.psi.shape == (GATES.size, solver.mesh.n_nodes)
    for row, (vg, vc) in enumerate(zip(GATES, CHANNELS)):
        ref = reference_solve(solver, float(vg), float(vc))
        assert np.array_equal(batch.psi[row], ref.psi)
        assert batch.q_inv[row] == ref.q_inv
        assert batch.q_gate[row] == ref.q_gate
        assert batch.surface_potential[row] == ref.surface_potential
        assert batch.iterations[row] == ref.iterations


def test_scalar_solve_is_a_batch_of_one(solver):
    ref = reference_solve(solver, 0.7, 0.1)
    got = solver.solve(0.7, 0.1)
    assert isinstance(got.q_inv, float) and isinstance(got.iterations, int)
    assert got.psi.shape == (solver.mesh.n_nodes,)
    assert np.array_equal(got.psi, ref.psi)
    assert (got.q_inv, got.q_gate, got.iterations) == (
        ref.q_inv, ref.q_gate, ref.iterations)


def test_per_row_warm_start_equals_reference(solver):
    cold = solver.solve(GATES, 0.0)
    warm = solver.solve(GATES, CHANNELS, psi0=cold.psi)
    for row, (vg, vc) in enumerate(zip(GATES, CHANNELS)):
        ref = reference_solve(solver, float(vg), float(vc),
                              psi0=cold.psi[row])
        assert np.array_equal(warm.psi[row], ref.psi)
        assert warm.iterations[row] == ref.iterations


# ----------------------------------------------------------------------
# edge cases of the array path
# ----------------------------------------------------------------------
def test_zero_vds_rows_return_exact_zero(device):
    vgs = np.array([0.0, 0.5, 1.0, 0.7])
    vds = np.array([0.0, 0.0, 0.3, -0.0])
    got = device.engine.drain_current(vgs, vds)
    assert got[0] == 0.0 and got[1] == 0.0 and got[3] == 0.0
    assert not np.signbit(got[[0, 1, 3]]).any()
    assert got[2] == reference_drain_current(device.engine, 1.0, 0.3)


def test_negative_vds_rows_use_source_drain_exchange(device):
    model = device.engine
    vgs = np.array([0.8, 0.8, 0.2, 1.0])
    vds = np.array([-0.5, 0.5, -0.05, -0.3])
    got = model.drain_current(vgs, vds)
    for row, (g, d) in enumerate(zip(vgs, vds)):
        assert got[row] == reference_drain_current(model, float(g), float(d))
    assert got[0] == -model.drain_current(0.8 + 0.5, 0.5)
    assert got[0] < 0 < got[1]


def test_broadcast_shapes(device):
    model = device.engine
    row = model.drain_current(np.array([0.4, 0.8]), 0.5)
    assert row.shape == (2,)
    grid = model.drain_current(np.array([[0.4], [0.8]]),
                               np.array([0.1, 0.5, 1.0]))
    assert grid.shape == (2, 3)
    assert grid[1, 1] == row[1]
    assert isinstance(model.drain_current(0.8, 0.5), float)


def test_convergence_error_names_the_failing_row(solver, monkeypatch):
    gates = np.array([-0.3, 1.2])
    iterations = solver.solve(gates).iterations
    assert iterations[0] < iterations[1]
    monkeypatch.setattr(Poisson1D, "MAX_ITERATIONS", int(iterations[0]))
    with pytest.raises(ConvergenceError) as err:
        solver.solve(gates, np.array([0.0, 0.25]))
    message = str(err.value)
    assert "v_gate=1.200 V" in message and "v_channel=0.250 V" in message
    assert err.value.iterations == iterations[0]


def _count_solve_rows(monkeypatch):
    rows = []
    original = Poisson1D.solve

    def counting(self, v_gate, *args, **kwargs):
        rows.append(np.size(v_gate))
        return original(self, v_gate, *args, **kwargs)

    monkeypatch.setattr(Poisson1D, "solve", counting)
    return rows


def test_gate_capacitance_pairs_are_one_two_row_solve(device, monkeypatch):
    rows = _count_solve_rows(monkeypatch)
    device.engine.poisson.gate_capacitance(0.6)
    device.engine.gate_capacitance_per_area(0.6)
    assert rows == [2, 2]


def test_characterize_is_one_current_call_and_one_cv_solve(device,
                                                          monkeypatch):
    rows = _count_solve_rows(monkeypatch)
    calls = []
    original = ChargeSheetModel.drain_current

    def counting(self, vgs, vds):
        calls.append(np.size(vgs))
        return original(self, vgs, vds)

    monkeypatch.setattr(ChargeSheetModel, "drain_current", counting)
    characterize_device(device)
    assert calls == [110]
    # source-end charge, 12 quadrature nodes, then the 42-row C-V solve
    n_nodes = device.engine.quadrature_points
    assert rows == [110] * (1 + n_nodes) + [42]


# ----------------------------------------------------------------------
# work counters: a k-row batch records what k scalar solves record
# ----------------------------------------------------------------------
def test_batch_counters_equal_scalar_solves(solver):
    cold = solver.solve(GATES, 0.0)
    scalar, batched = Tracer(), Tracer()
    with activate(scalar):
        for row, (vg, vc) in enumerate(zip(GATES, CHANNELS)):
            solver.solve(float(vg), float(vc), psi0=cold.psi[row])
    with activate(batched):
        solver.solve(GATES, CHANNELS, psi0=cold.psi)
    got, want = batched.metrics.snapshot(), scalar.metrics.snapshot()
    assert got["tcad.poisson1d.solves"]["value"] == GATES.size
    assert got == want
