"""The 2.0 public surface: keyword-only entry points, backend-only width.

Cheap argument-plumbing checks only — every engine run is stubbed out
before simulation work starts, so nothing here runs a simulation.
"""

import os

import pytest

import repro
from repro.engine import PoolBackend, SerialBackend, default_engine
from repro.flows.durable import resume_run, run_durable_flow
from repro.ppa.runner import PpaRunner


@pytest.fixture
def stop_engine_runs(monkeypatch):
    """Abort any engine run before simulation work starts."""

    def fake_run(self, tasks, *args, **kwargs):
        raise RuntimeError("stop before simulating")

    monkeypatch.setattr(repro.Engine, "run", fake_run)


def deprecations(recwarn):
    return [w for w in recwarn if issubclass(w.category, DeprecationWarning)]


# ----------------------------------------------------------------------
# keyword shapes
# ----------------------------------------------------------------------
def test_new_keyword_shapes_do_not_warn(stop_engine_runs, recwarn):
    with pytest.raises(RuntimeError, match="stop before"):
        repro.quick_ppa(cells=["INV1X1"])
    with pytest.raises(RuntimeError, match="stop before"):
        repro.run_full_flow(cells=["INV1X1"], engine=default_engine())
    with pytest.raises(RuntimeError, match="stop before"):
        repro.run_extractions(engine=default_engine())
    runner = PpaRunner(engine=default_engine())
    with pytest.raises(RuntimeError, match="stop before"):
        runner.sweep(cells=["INV1X1"])
    assert not deprecations(recwarn)


def test_ppa_runner_requires_engine():
    with pytest.raises(TypeError, match="engine"):
        PpaRunner()


#: entry point -> (callable, required positional args, base keywords)
ENTRY_POINTS = {
    "quick_ppa": lambda: (repro.quick_ppa, (), {}),
    "run_full_flow": lambda: (repro.run_full_flow, (), {}),
    "run_extractions": lambda: (repro.run_extractions, (), {}),
    "PpaRunner": lambda: (PpaRunner, (), {"engine": default_engine()}),
    "PpaRunner.sweep": lambda: (
        PpaRunner(engine=default_engine()).sweep, (), {}),
    "Engine": lambda: (repro.Engine, (), {"use_disk": False}),
    "run_durable_flow": lambda: (run_durable_flow, (), {}),
    "resume_run": lambda: (resume_run, ("no-such-run",), {}),
}

#: retired 1.x call shape -> (extra positional args, extra keywords)
RETIRED_SHAPES = {
    "positional": ((["INV1X1"],), {}),
    "cell_names": ((), {"cell_names": ["INV1X1"]}),
    "max_workers": ((), {"max_workers": 1}),
}


@pytest.mark.parametrize("shape", sorted(RETIRED_SHAPES))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_retired_call_shapes_raise_type_error(stop_engine_runs, entry,
                                              shape):
    func, args, kwargs = ENTRY_POINTS[entry]()
    extra_args, extra_kwargs = RETIRED_SHAPES[shape]
    with pytest.raises(TypeError,
                       match="positional|unexpected keyword"):
        func(*args, *extra_args, **kwargs, **extra_kwargs)


# ----------------------------------------------------------------------
# execution width comes from the backend spec alone
# ----------------------------------------------------------------------
def test_backend_env_selects_backend(monkeypatch, recwarn):
    monkeypatch.setenv("REPRO_BACKEND", "serial")
    engine = repro.Engine(use_disk=False)
    assert isinstance(engine.backend, SerialBackend)
    assert not deprecations(recwarn)


def test_repro_max_workers_no_longer_sizes_pools(monkeypatch, recwarn):
    cpus = os.cpu_count() or 1
    monkeypatch.setenv("REPRO_MAX_WORKERS", str(cpus + 1))
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert PoolBackend().workers == cpus
    engine = repro.Engine(use_disk=False)
    try:
        default = SerialBackend if cpus == 1 else PoolBackend
        assert isinstance(engine.backend, default)
        assert engine.max_workers == cpus
    finally:
        engine.shutdown()
    monkeypatch.setenv("REPRO_BACKEND", "pool")
    engine = repro.Engine(use_disk=False)
    try:
        assert engine.max_workers == cpus
    finally:
        engine.shutdown()
    assert not deprecations(recwarn)


def test_version_bumped():
    assert repro.__version__ == "2.0.0"
