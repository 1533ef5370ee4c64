"""Differential harness: banked MOSFET evaluation vs its per-transistor
oracle.

The MNA assembler evaluates all MOSFETs that share a model in one
compact-model call per assembly and stamps the elements in circuit
order.  Its systems must equal the per-transistor oracle in
:mod:`tests.spice_mosfet_oracle` exactly — ``np.array_equal`` on every
matrix and vector, ``==`` on every waveform sample.  Also here: the
sparse kernel's use of the banks and the edge cases of bank
construction.
"""

import numpy as np
import pytest

from repro.cells.library import CELL_NAMES, get_cell
from repro.cells.netlist_builder import build_cell_circuit
from repro.cells.variants import DeviceVariant
from repro.cells.vectors import stimulus_plan_for
from repro.compact.model import BsimSoi4Lite
from repro.errors import NetlistError
from repro.ppa.runner import _configure_sources, simulate_cell
from repro.spice import Circuit, Resistor, dc_source, transient
from repro.spice.dcop import solve_dc
from repro.spice.elements.mosfet import Mosfet
from repro.spice.mna import MnaAssembler
from repro.verify.tolerances import tolerance_class
from tests.spice_mosfet_oracle import (
    reference_assemble_dynamic,
    reference_assemble_static,
    reference_assembly,
)

NUMERIC = tolerance_class("numeric")

ALL_CELLS = [(c, v) for c in CELL_NAMES for v in DeviceVariant]
PPA_CELLS = [(c, v) for c in ("INV1X1", "NAND2X1", "AND2X1")
             for v in DeviceVariant]
TIER1_TRANSIENTS = [("INV1X1", DeviceVariant.MIV_2CH),
                    ("NAND2X1", DeviceVariant.MIV_2CH)]


def _ids(cases):
    return [f"{c}-{v.value}" for c, v in cases]


@pytest.fixture(autouse=True)
def _default_kernels(monkeypatch):
    monkeypatch.delenv("REPRO_SOLVER_KERNEL", raising=False)
    monkeypatch.delenv("REPRO_SPARSE_THRESHOLD", raising=False)


def _cell_circuit(model_sets, cell, variant):
    """The cell's circuit with its first stimulus run configured."""
    netlist = build_cell_circuit(get_cell(cell), model_sets(variant))
    _configure_sources(netlist, stimulus_plan_for(netlist.spec).runs[0])
    return netlist.circuit


def _random_state(assembler, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.3, 1.3, assembler.n_unknowns)
    x[assembler.n_nodes:] *= 1e-4   # branch currents
    return x


def _assert_numeric_close(value, reference):
    """Within ``numeric`` of the reference's largest magnitude (the
    bound ``tests/test_solver_differential.py`` uses)."""
    scale = max(1e-24, float(np.max(np.abs(reference))))
    assert np.max(np.abs(value - reference)) <= NUMERIC.rtol * scale


def _assert_assembly_matches_oracle(assembler, x, time):
    bank = assembler.assemble_static(x, time)
    oracle = reference_assemble_static(assembler, x, time)
    assert np.array_equal(bank.matrix, oracle.matrix)
    assert np.array_equal(bank.rhs, oracle.rhs)
    charge, cap = assembler.assemble_dynamic(x)
    ref_charge, ref_cap = reference_assemble_dynamic(assembler, x)
    assert np.array_equal(charge, ref_charge)
    assert np.array_equal(cap, ref_cap)


# ----------------------------------------------------------------------
# assembled systems, every cell x variant
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cell,variant", ALL_CELLS, ids=_ids(ALL_CELLS))
def test_assembly_matches_per_transistor_oracle(model_sets, cell, variant):
    circuit = _cell_circuit(model_sets, cell, variant)
    assembler = MnaAssembler(circuit)
    assert assembler.kernel == "dense"
    _assert_assembly_matches_oracle(assembler, solve_dc(circuit).x, 0.0)
    for seed in range(3):
        _assert_assembly_matches_oracle(
            assembler, _random_state(assembler, seed), 1e-10 * seed)


def test_cell_banks_group_by_model(model_sets):
    circuit = _cell_circuit(model_sets, "NAND2X1", DeviceVariant.TWO_D)
    models = model_sets(DeviceVariant.TWO_D)
    banks = MnaAssembler(circuit).banks
    assert [bank.model for bank in banks] in ([models.nmos, models.pmos],
                                              [models.pmos, models.nmos])
    fets = [e for e in circuit if isinstance(e, Mosfet)]
    for bank in banks:
        assert list(bank.devices) == [f for f in fets
                                      if f.model is bank.model]


# ----------------------------------------------------------------------
# whole transients
# ----------------------------------------------------------------------
def _assert_transients_equal(model_sets, monkeypatch, cell, variant):
    models = model_sets(variant)
    _, banked = simulate_cell(get_cell(cell), variant, models=models)
    with reference_assembly(monkeypatch):
        _, oracle = simulate_cell(get_cell(cell), variant, models=models)
    assert banked.keys() == oracle.keys()
    for key, (_, result) in banked.items():
        expected = oracle[key][1]
        assert np.array_equal(result.times, expected.times)
        for node, wave in result.node_voltages.items():
            assert (wave == expected.node_voltages[node]).all(), node
        for name, wave in result.source_currents.items():
            assert (wave == expected.source_currents[name]).all(), name


@pytest.mark.parametrize("cell,variant", TIER1_TRANSIENTS,
                         ids=_ids(TIER1_TRANSIENTS))
def test_transient_waveforms_match_oracle(model_sets, monkeypatch, cell,
                                          variant):
    _assert_transients_equal(model_sets, monkeypatch, cell, variant)


@pytest.mark.slow
@pytest.mark.parametrize("cell,variant", PPA_CELLS, ids=_ids(PPA_CELLS))
def test_transient_waveforms_match_oracle_ppa_cells(model_sets, monkeypatch,
                                                    cell, variant):
    _assert_transients_equal(model_sets, monkeypatch, cell, variant)


# ----------------------------------------------------------------------
# sparse kernel and edge cases
# ----------------------------------------------------------------------
def test_sparse_kernel_assembles_through_the_banks(model_sets, monkeypatch):
    circuit = _cell_circuit(model_sets, "NAND2X1", DeviceVariant.MIV_1CH)
    sparse = MnaAssembler(circuit, kernel="sparse", sparse_threshold=1)
    dense = MnaAssembler(circuit, kernel="dense")
    assert sparse.kernel == "sparse"
    assert len(sparse.banks) == 2

    calls = []
    original = BsimSoi4Lite.ids_batch

    def counting(model, vgs, vds):
        calls.append(len(vgs))
        return original(model, vgs, vds)

    monkeypatch.setattr(BsimSoi4Lite, "ids_batch", counting)
    x = _random_state(dense, 7)
    got = sparse.assemble_static(x, 2e-10)
    assert sorted(calls) == sorted(5 * len(b.devices) for b in sparse.banks)
    want = dense.assemble_static(x, 2e-10)
    pairs = [(got.matrix, want.matrix), (got.rhs, want.rhs),
             *zip(sparse.assemble_dynamic(x), dense.assemble_dynamic(x))]
    for value, reference in pairs:
        _assert_numeric_close(value, reference)


def test_sparse_cell_transient_matches_dense(model_sets, monkeypatch):
    def run(kernel):
        monkeypatch.setenv("REPRO_SOLVER_KERNEL", kernel)
        monkeypatch.setenv("REPRO_SPARSE_THRESHOLD", "1")
        circuit = _cell_circuit(model_sets, "INV1X1", DeviceVariant.TWO_D)
        return transient(circuit, t_stop=4e-10, dt=2e-11, method="trap",
                         record_nodes=["out"]).waveform("out").v

    _assert_numeric_close(run("sparse"), run("dense"))


def test_circuit_without_mosfets_has_no_banks():
    c = Circuit()
    c.add(dc_source("V1", "in", "0", 1.0))
    c.add(Resistor("R1", "in", "mid", 1e3))
    c.add(Resistor("R2", "mid", "0", 1e3))
    x = np.array([1.0, 0.5, -5e-4])
    systems = []
    for kernel in ("dense", "sparse"):
        assembler = MnaAssembler(c, kernel=kernel, sparse_threshold=1)
        assert assembler.kernel == kernel
        assert assembler.banks == []
        systems.append((assembler.assemble_static(x, 0.0),
                        *assembler.assemble_dynamic(x)))
    (dense, charge, cap), (sparse, sparse_charge, sparse_cap) = systems
    _assert_numeric_close(sparse.matrix, dense.matrix)
    _assert_numeric_close(sparse.rhs, dense.rhs)
    assert not charge.any() and not sparse_charge.any()
    assert not cap.any() and not sparse_cap.any()


def test_mosfet_on_unknown_node_fails_at_construction(model_sets):
    models = model_sets(DeviceVariant.TWO_D)
    c = Circuit()
    c.add(dc_source("V1", "a", "0", 1.0))
    c.add(Resistor("R1", "a", "0", 1e3))
    fet = c.add(Mosfet("M1", "a", "a", "0", models.nmos))
    fet.nodes = ("nowhere", "a", "0")
    with pytest.raises(NetlistError, match="unknown node 'nowhere'"):
        MnaAssembler(c)


def test_assembly_looks_up_ids_magnitude_per_call(model_sets, monkeypatch):
    """One ``ids_magnitude`` call per bank per static assembly, found on
    the class at call time (the benchmark probes patch it there)."""
    circuit = _cell_circuit(model_sets, "AND2X1", DeviceVariant.MIV_4CH)
    assembler = MnaAssembler(circuit)
    calls = []
    original = BsimSoi4Lite.ids_magnitude

    def counting(model, vgs, vds):
        calls.append(np.size(vgs))
        return original(model, vgs, vds)

    monkeypatch.setattr(BsimSoi4Lite, "ids_magnitude", counting)
    assembler.assemble_static(_random_state(assembler, 3), 0.0)
    assert len(calls) == len(assembler.banks) == 2
    fets = sum(isinstance(e, Mosfet) for e in circuit)
    assert sum(calls) == 5 * fets
