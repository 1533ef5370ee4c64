"""Shared conformance suite every execution backend must pass.

One parametrized battery over ``serial``, ``pool:2`` and ``workqueue``:
dependency ordering, cache behaviour, bit-identical artifacts, retries,
``on_error="continue"``, cancellation and content-addressed resume run
everywhere; preemption (timeouts) and worker-crash recovery are gated
on the backend's capability flags rather than its name, so a future
backend is judged by what it claims, not by what it is called.
"""

import pytest

from repro.engine import (
    Engine,
    PoolBackend,
    SerialBackend,
    Task,
    WorkQueueBackend,
    parse_backend_spec,
    register_stage,
    resolve_backend,
    unregister_stage,
)
from repro.engine.durability import CancellationToken
from repro.errors import ReproError, RunInterrupted
from repro.resilience import FaultInjector, RetryPolicy, clear_faults, install

pytestmark = pytest.mark.engine

#: Every shipped backend spec, exercised by the whole battery.
BACKENDS = ("serial", "pool:2", "workqueue")


def _add(payload, deps):
    return payload["value"] + sum(deps.values())


def _fail(payload, deps):
    raise RuntimeError("boom")


def _nap(payload, deps):
    import time
    time.sleep(payload["seconds"])
    return payload["seconds"]


@pytest.fixture(autouse=True)
def _stages(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
    monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
    clear_faults()
    register_stage("conf_add", version=1, compute=_add,
                   encode=lambda a: a, decode=lambda d: d, replace=True)
    register_stage("conf_fail", version=1, compute=_fail, replace=True)
    register_stage("conf_nap", version=1, compute=_nap, replace=True)
    yield
    clear_faults()
    unregister_stage("conf_add")
    unregister_stage("conf_fail")
    unregister_stage("conf_nap")


def _engine(backend, cache_dir, **kwargs):
    return Engine(backend=backend, cache_dir=cache_dir, **kwargs)


def _graph():
    return [
        Task(id="a", stage="conf_add", payload={"value": 1}),
        Task(id="b", stage="conf_add", payload={"value": 10},
             deps=("a",)),
        Task(id="c", stage="conf_add", payload={"value": 100},
             deps=("a", "b")),
        Task(id="d", stage="conf_add", payload={"value": 7}),
    ]


# ----------------------------------------------------------------------
# spec parsing / resolution
# ----------------------------------------------------------------------
def test_parse_backend_spec_variants():
    assert isinstance(parse_backend_spec("serial"), SerialBackend)
    assert isinstance(parse_backend_spec("workqueue"), WorkQueueBackend)
    pool = parse_backend_spec("pool:3")
    assert isinstance(pool, PoolBackend)
    assert pool.workers == 3
    with pytest.raises(ReproError, match="backend"):
        parse_backend_spec("quantum")
    with pytest.raises(ReproError):
        parse_backend_spec("pool:zero")
    with pytest.raises(ReproError, match="workers"):
        parse_backend_spec("pool:0")


def test_resolve_backend_passthrough_and_env(monkeypatch):
    backend = SerialBackend()
    assert resolve_backend(backend) is backend
    monkeypatch.setenv("REPRO_BACKEND", "serial")
    assert isinstance(resolve_backend(None), SerialBackend)
    monkeypatch.delenv("REPRO_BACKEND")
    assert resolve_backend(None) is None
    with pytest.raises(ReproError, match="backend"):
        resolve_backend(42)


def test_workqueue_requires_disk_cache():
    with pytest.raises(ReproError, match="disk cache"):
        Engine(backend="workqueue", use_disk=False)


# ----------------------------------------------------------------------
# the parametrized battery
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_dependencies_feed_dependents(tmp_path, backend):
    run = _engine(backend, tmp_path).run(_graph())
    assert run["a"] == 1
    assert run["b"] == 11
    assert run["c"] == 112
    assert run["d"] == 7
    assert run.manifest.backend == backend.split(":")[0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_artifacts_bit_identical_to_serial(tmp_path, backend):
    baseline = _engine("serial", tmp_path / "base").run(_graph())
    run = _engine(backend, tmp_path / "cand").run(_graph())
    assert run.artifacts == baseline.artifacts
    assert {r.task_id: r.key for r in run.manifest.records} == \
        {r.task_id: r.key for r in baseline.manifest.records}


@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_rerun_is_all_cache_hits(tmp_path, backend):
    _engine(backend, tmp_path).run(_graph())
    warm = _engine(backend, tmp_path).run(_graph())
    assert warm.manifest.hit_rate() == 1.0
    assert all(r.worker == "cache" for r in warm.manifest.records)


@pytest.mark.parametrize("backend", BACKENDS)
def test_retry_heals_transient_faults(tmp_path, backend):
    install(FaultInjector.parse("stage_exc:conf_add:first=1"))
    engine = _engine(backend, tmp_path,
                     retry_policy=RetryPolicy(retries=2, backoff=0.0))
    run = engine.run(
        [Task(id="a", stage="conf_add", payload={"value": 5})])
    clear_faults()
    assert run["a"] == 5
    assert run.manifest.retries() >= 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_on_error_continue_completes_independents(tmp_path, backend):
    engine = _engine(backend, tmp_path, on_error="continue")
    run = engine.run([
        Task(id="bad", stage="conf_fail", payload=None),
        Task(id="child", stage="conf_add", payload={"value": 1},
             deps=("bad",)),
        Task(id="ok", stage="conf_add", payload={"value": 4}),
    ])
    assert run["ok"] == 4
    assert set(run.failed) == {"bad"}
    assert set(run.skipped) == {"child"}
    assert run.failed["bad"].error_type == "RuntimeError"


@pytest.mark.parametrize("backend", BACKENDS)
def test_pre_cancelled_token_interrupts(tmp_path, backend):
    token = CancellationToken(grace=0.2)
    token.request()
    engine = _engine(backend, tmp_path)
    with pytest.raises(RunInterrupted) as err:
        engine.run(_graph(), cancellation=token)
    assert err.value.manifest is not None
    assert err.value.manifest.interrupted


@pytest.mark.parametrize("backend", BACKENDS)
def test_failed_run_resumes_from_cache(tmp_path, backend):
    install(FaultInjector.parse("stage_exc:conf_add:first=1"))
    first = _engine(backend, tmp_path, on_error="continue").run(_graph())
    clear_faults()
    assert first.failed
    second = _engine(backend, tmp_path).run(_graph())
    assert second.ok
    reference = _engine("serial", tmp_path / "ref").run(_graph())
    assert second.artifacts == reference.artifacts


# ----------------------------------------------------------------------
# capability-gated checks (flags, not names)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_timeout_preempts_only_when_supported(tmp_path, backend):
    engine = _engine(backend, tmp_path, on_error="continue",
                     retry_policy=RetryPolicy(retries=0, timeout=0.3))
    if not engine.backend.supports_preemption:
        pytest.skip(f"{engine.backend.name} cannot preempt a running "
                    f"compute function")
    run = engine.run([
        Task(id="slow", stage="conf_nap", payload={"seconds": 30.0}),
        Task(id="quick", stage="conf_add", payload={"value": 3}),
    ])
    assert run["quick"] == 3
    assert run.failed["slow"].error_type == "TaskTimeoutError"


@pytest.mark.parametrize("backend", BACKENDS)
def test_worker_crash_recovers_when_remote(tmp_path, backend):
    engine = _engine(backend, tmp_path)
    if not engine.backend.remote_workers:
        pytest.skip(f"{engine.backend.name} computes in-process; a "
                    f"worker kill would kill the run itself")
    install(FaultInjector.parse("worker_kill:conf_add:n=1"))
    run = engine.run(_graph())
    clear_faults()
    assert run.ok
    assert run.manifest.pool_rebuilds >= 1
    reference = _engine("serial", tmp_path / "ref").run(_graph())
    assert run.artifacts == reference.artifacts
