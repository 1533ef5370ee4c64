"""Property tests of the array-valued charge-sheet drain current.

On batches of biases, the current must be monotone in V_GS, continuous
through V_DS = 0 and odd under source/drain exchange; every batch row
must equal the per-point oracle bit for bit, and permuting the rows
must permute the results bit for bit (each row's Newton iterations
stop on their own, whatever else is in the batch).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.transistor_layout import ChannelCount
from repro.tcad.device import Polarity, design_for_variant
from tests.tcad_oracle import reference_drain_current

_MODEL = design_for_variant(ChannelCount.TRADITIONAL, Polarity.NMOS).engine

#: Gate and drain biases on a 10 mV grid: distinct points sit far enough
#: apart that Newton's 1e-9 V tolerance cannot reorder their currents.
_GRID = 0.01
gate_steps = st.integers(min_value=0, max_value=100)
drain_steps = st.integers(min_value=-100, max_value=100)
#: Rows keep the exchanged gate bias V_GS + |V_DS| within 1.3 V, inside
#: the range where the Poisson Newton loop reaches its 1e-9 V tolerance.
bias_rows = st.lists(
    st.tuples(gate_steps, drain_steps).filter(lambda r: r[0] + abs(r[1])
                                              <= 130),
    min_size=1, max_size=8)


def _biases(rows):
    steps = np.array(rows, dtype=float) * _GRID
    return steps[:, 0], steps[:, 1]


@settings(max_examples=25, deadline=None)
@given(gates=st.lists(gate_steps, min_size=2, max_size=8, unique=True),
       vds=st.integers(min_value=1, max_value=100))
def test_current_is_monotone_in_vgs(gates, vds):
    vgs = np.sort(np.array(gates, dtype=float)) * _GRID
    currents = _MODEL.drain_current(vgs, vds * _GRID)
    assert np.all(np.diff(currents) > 0)


@settings(max_examples=25, deadline=None)
@given(vgs=gate_steps, eps=st.floats(min_value=1e-9, max_value=1e-4))
def test_current_is_continuous_through_zero_vds(vgs, eps):
    vgs *= _GRID
    forward, reverse, zero, scale = _MODEL.drain_current(
        vgs, np.array([eps, -eps, 0.0, 1e-4]))
    assert zero == 0.0
    assert forward > 0 > reverse
    # linear in V_DS near 0, with the slope of the 0.1 mV point
    bound = 1.5 * scale / 1e-4 * eps
    assert forward <= bound and -reverse <= bound


@settings(max_examples=25, deadline=None)
@given(rows=bias_rows)
def test_current_is_odd_under_source_drain_exchange(rows):
    # I(V_GS, -V_DS) = -I(V_GS + V_DS, V_DS): the exchanged gate bias is
    # the same float on both sides, so the identity holds bit for bit.
    vgs, vds = _biases(rows)
    vds = np.abs(vds)
    assert np.array_equal(_MODEL.drain_current(vgs, -vds),
                          -_MODEL.drain_current(vgs + vds, vds))


@settings(max_examples=20, deadline=None)
@given(rows=bias_rows)
def test_batched_equals_scalar_oracle_bitwise(rows):
    vgs, vds = _biases(rows)
    batched = _MODEL.drain_current(vgs, vds)
    oracle = [reference_drain_current(_MODEL, float(g), float(d))
              for g, d in zip(vgs, vds)]
    assert batched.tolist() == oracle


@settings(max_examples=25, deadline=None)
@given(data=st.data(), rows=bias_rows)
def test_permuting_rows_permutes_results_bitwise(data, rows):
    vgs, vds = _biases(rows)
    order = np.array(data.draw(st.permutations(range(len(rows)))))
    reference = _MODEL.drain_current(vgs, vds)
    permuted = _MODEL.drain_current(vgs[order], vds[order])
    assert np.array_equal(permuted, reference[order])


@pytest.mark.parametrize("vds", [0.05, 1.0])
def test_each_row_equals_its_single_bias_call(vds):
    vgs = np.linspace(0.0, 1.0, 11)
    batched = _MODEL.drain_current(vgs, vds)
    assert batched.tolist() == [_MODEL.drain_current(float(g), vds)
                                for g in vgs]
