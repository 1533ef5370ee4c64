"""Property tests of MOSFET banks on generated small circuits.

A bank evaluates all devices of one model in one compact-model call;
nothing about a device's stamp may depend on which bank it sits in, on
its position there, or on how its terminals are wired.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact.model import BsimSoi4Lite
from repro.compact.parameters import default_parameters
from repro.spice import Circuit, Resistor, dc_source
from repro.spice.elements.base import Stamper
from repro.spice.elements.mosfet import Mosfet, MosfetBank
from repro.spice.mna import MnaAssembler
from repro.tcad.device import Polarity
from tests.spice_mosfet_oracle import (
    reference_assemble_dynamic,
    reference_assemble_static,
)

NMOS = BsimSoi4Lite(params=default_parameters(), polarity=Polarity.NMOS)
PMOS = BsimSoi4Lite(params=default_parameters(), polarity=Polarity.PMOS)
#: Equal to NMOS but a distinct object: it must form its own bank.
NMOS_TWIN = BsimSoi4Lite(params=default_parameters(),
                         polarity=Polarity.NMOS)
MODELS = (NMOS, PMOS, NMOS_TWIN)

#: Terminal nodes: ground and three internal nodes.  Drawing with
#: replacement produces diode connections (gate = drain), shorted
#: channels (drain = source) and grounded terminals.
NODES = ("0", "a", "b", "c")

terminals = st.tuples(*(st.sampled_from(NODES),) * 3)
devices = st.lists(st.tuples(terminals, st.integers(0, len(MODELS) - 1)),
                   min_size=1, max_size=7)
voltages = st.lists(st.floats(-1.2, 1.2), min_size=len(NODES),
                    max_size=len(NODES))


def _circuit(specs, order=None):
    """MOSFETs per ``specs`` (added in ``order``), a supply on 'a' and a
    resistor from every used node to ground."""
    c = Circuit("gen")
    c.add(dc_source("Vdd", "a", "0", 1.0))
    c.add(Resistor("Ra", "a", "0", 1e4))
    for i in (order if order is not None else range(len(specs))):
        nodes, model = specs[i]
        c.add(Mosfet(f"M{i}", *nodes, MODELS[model]))
    used = {n for nodes, _ in specs for n in nodes} - {"0", "a"}
    for node in sorted(used):
        c.add(Resistor(f"R{node}", node, "0", 1e4))
    return c


def _state(assembler, levels):
    x = np.zeros(assembler.n_unknowns)
    for node, i in assembler.node_index.items():
        x[i] = levels[NODES.index(node)]
    return x


def _stamp_alone(fet, node_index, dynamic, voltages=None, companion=None):
    """One device's stamp into an empty system, keyed by node names.

    Without ``companion`` the device evaluates itself at ``voltages``.
    """
    n = len(node_index)
    stamper = Stamper(node_index, {}, n)
    if dynamic:
        vector, matrix = np.zeros(n), np.zeros((n, n))
        fet.stamp_dynamic(stamper, voltages, vector, matrix, companion)
    else:
        fet.stamp_static(stamper, voltages, 0.0, companion)
        vector, matrix = stamper.rhs, stamper.matrix
    names = {i: node for node, i in node_index.items()}
    return ({names[i]: v for i, v in enumerate(vector.tolist())},
            {(names[r], names[c]): matrix[r, c]
             for r in names for c in names})


def _per_device(assembler, x, dynamic):
    """Each banked device's own stamp at estimate ``x``, by name."""
    companions = assembler._companions(x, dynamic)
    fets = [fet for bank in assembler.banks for fet in bank.devices]
    return {fet.name: _stamp_alone(fet, assembler.node_index, dynamic,
                                   companion=companion)
            for fet, companion in zip(fets, companions)}


@settings(max_examples=60, deadline=None)
@given(specs=devices, levels=voltages)
def test_generated_circuits_match_oracle(specs, levels):
    """Mixed polarities, twin models and tied terminals: the banked
    assembly equals the per-transistor oracle bit for bit."""
    assembler = MnaAssembler(_circuit(specs))
    x = _state(assembler, levels)
    got = assembler.assemble_static(x, 0.0)
    want = reference_assemble_static(assembler, x, 0.0)
    assert np.array_equal(got.matrix, want.matrix)
    assert np.array_equal(got.rhs, want.rhs)
    charge, cap = assembler.assemble_dynamic(x)
    ref_charge, ref_cap = reference_assemble_dynamic(assembler, x)
    assert np.array_equal(charge, ref_charge)
    assert np.array_equal(cap, ref_cap)


@settings(max_examples=40, deadline=None)
@given(nodes=st.lists(terminals, min_size=1, max_size=8),
       biases=st.lists(st.tuples(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2)),
                       min_size=8, max_size=8),
       model=st.sampled_from(MODELS))
def test_bank_of_k_equals_k_banks_of_one(nodes, biases, model):
    index = {n: i for i, n in enumerate(NODES[1:])}
    fets = [Mosfet(f"M{i}", *t, model) for i, t in enumerate(nodes)]
    vgs = np.array([b[0] for b in biases[:len(fets)]])
    vds = np.array([b[1] for b in biases[:len(fets)]])
    bank = MosfetBank(fets, index)
    static = bank.static_companions(vgs, vds)
    dynamic = bank.dynamic_companions(vgs, vds)
    for j, fet in enumerate(fets):
        one = MosfetBank([fet], index)
        assert one.static_companions(vgs[j:j + 1], vds[j:j + 1]) == \
            [static[j]]
        assert one.dynamic_companions(vgs[j:j + 1], vds[j:j + 1]) == \
            [dynamic[j]]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), specs=devices, levels=voltages)
def test_permuting_mosfet_order_keeps_each_stamp(data, specs, levels):
    order = data.draw(st.permutations(range(len(specs))))
    first = MnaAssembler(_circuit(specs))
    second = MnaAssembler(_circuit(specs, order))
    for dynamic in (False, True):
        assert _per_device(first, _state(first, levels), dynamic) == \
            _per_device(second, _state(second, levels), dynamic)


@settings(max_examples=40, deadline=None)
@given(specs=devices, levels=voltages)
def test_bare_stamp_is_a_bank_of_one(specs, levels):
    """``stamp_static``/``stamp_dynamic`` without a companion evaluate
    the device alone and stamp what its bank would have."""
    assembler = MnaAssembler(_circuit(specs))
    x = _state(assembler, levels)
    voltages = assembler.voltages_from(x)
    for dynamic in (False, True):
        banked = _per_device(assembler, x, dynamic)
        for bank in assembler.banks:
            for fet in bank.devices:
                assert banked[fet.name] == _stamp_alone(
                    fet, assembler.node_index, dynamic, voltages)


@settings(max_examples=30, deadline=None)
@given(specs=devices)
def test_banks_follow_model_identity(specs):
    assembler = MnaAssembler(_circuit(specs))
    first_seen = []
    for _, model in specs:
        if model not in first_seen:
            first_seen.append(model)
    assert [id(bank.model) for bank in assembler.banks] == \
        [id(MODELS[model]) for model in first_seen]
    for bank in assembler.banks:
        assert all(fet.model is bank.model for fet in bank.devices)
    assert sum(len(bank.devices) for bank in assembler.banks) == len(specs)
