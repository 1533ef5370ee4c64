"""The filesystem work queue: leases, heartbeats, takeover, draining.

Fast in-process checks cover the lease protocol (claim conflicts,
heartbeat staleness, the bounded stampede for wedged peers, live-peer
publishes surfacing as ``peer`` results).  The ``chaos``-marked tests
run real ``python -m repro.flows --backend workqueue`` subprocesses:
two peers drain one graph cooperatively, and a SIGKILLed peer's leases
are taken over so the survivor completes the graph.
"""

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.engine import Engine, Task, register_stage, unregister_stage
from repro.engine.backends.workqueue import (
    DEFAULT_LEASE_TTL,
    QUEUE_DIRNAME,
    WorkQueueBackend,
    _Lease,
    heartbeat_age,
    resolve_lease_ttl,
)
from repro.engine.cache import ArtifactCache
from repro.engine.durability import load_run, run_dir
from repro.engine.locks import FileLock
from repro.engine.manifest import RunManifest, STATUS_COMPLETED
from repro.engine.stages import get_stage
from repro.errors import ReproError
from repro.flows.durable import MANIFEST_FILENAME
from repro.resilience import chaos

pytestmark = pytest.mark.engine


def _add(payload, deps):
    return payload["value"] + sum(deps.values())


@pytest.fixture(autouse=True)
def _stages():
    register_stage("wq_add", version=1, compute=_add,
                   encode=lambda a: a, decode=lambda d: d, replace=True)
    yield
    unregister_stage("wq_add")


def _lease_dir(cache_dir) -> Path:
    path = Path(cache_dir) / QUEUE_DIRNAME / "leases"
    path.mkdir(parents=True, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# lease protocol
# ----------------------------------------------------------------------
def test_resolve_lease_ttl(monkeypatch):
    assert resolve_lease_ttl() == DEFAULT_LEASE_TTL
    assert resolve_lease_ttl(2.5) == 2.5
    monkeypatch.setenv("REPRO_LEASE_TTL", "7")
    assert resolve_lease_ttl() == 7.0
    monkeypatch.setenv("REPRO_LEASE_TTL", "soon")
    with pytest.raises(ReproError, match="REPRO_LEASE_TTL"):
        resolve_lease_ttl()
    monkeypatch.setenv("REPRO_LEASE_TTL", "-1")
    with pytest.raises(ReproError, match="positive"):
        resolve_lease_ttl()


def test_lease_claim_conflicts_and_heartbeats(tmp_path):
    lease_dir = _lease_dir(tmp_path)
    first = _Lease(lease_dir, "k1", "me", ttl=0.2)
    assert first.try_acquire()
    try:
        # A second claimant (even in-process: flock state is per open
        # file description) must fail while the lease is held.
        second = _Lease(lease_dir, "k1", "rival", ttl=0.2)
        assert not second.try_acquire()
        age = heartbeat_age(lease_dir, "k1")
        assert age is not None and age < 1.0
        # The refresher keeps the heartbeat young.
        time.sleep(0.3)
        assert heartbeat_age(lease_dir, "k1") < 0.2
    finally:
        first.release()
    assert heartbeat_age(lease_dir, "k1") is None  # beat removed
    third = _Lease(lease_dir, "k1", "late", ttl=0.2)
    assert third.try_acquire()
    third.release()


def test_heartbeat_age_none_without_beat(tmp_path):
    assert heartbeat_age(_lease_dir(tmp_path), "ghost") is None


def test_stale_heartbeat_triggers_bounded_stampede(tmp_path):
    """A held lease with an old heartbeat = wedged-alive peer: the
    backend computes anyway (and counts the override)."""
    backend = WorkQueueBackend(lease_ttl=0.2)
    engine = Engine(backend=backend, cache_dir=tmp_path)
    task = Task(id="a", stage="wq_add", payload={"value": 5})
    key = engine.task_keys([task])["a"]
    lease_dir = _lease_dir(tmp_path)
    blocker = FileLock(lease_dir / f"{key}.lock")
    assert blocker.try_acquire()
    try:
        with open(lease_dir / f"{key}.json", "w", encoding="utf-8") as f:
            json.dump({"owner": "wedged", "pid": 0,
                       "t": time.time() - 60.0}, f)
        run = engine.run([task])
    finally:
        blocker.release()
    assert run["a"] == 5
    assert backend.stale_overrides >= 1


def test_live_peer_publish_surfaces_as_peer_result(tmp_path):
    """While a live peer holds the lease (fresh heartbeat), we wait;
    when its artefact lands in the shared store we adopt it."""
    backend = WorkQueueBackend(lease_ttl=30.0)
    engine = Engine(backend=backend, cache_dir=tmp_path)
    task = Task(id="a", stage="wq_add", payload={"value": 9})
    key = engine.task_keys([task])["a"]
    lease_dir = _lease_dir(tmp_path)
    peer_lease = _Lease(lease_dir, key, "peer", ttl=30.0)
    assert peer_lease.try_acquire()

    def publish():
        time.sleep(0.3)
        # The peer publishes through its own cache handle, then
        # releases — exactly what a real peer invocation does.
        ArtifactCache(cache_dir=tmp_path).put(
            key, get_stage("wq_add"), 9)
        peer_lease.release()

    thread = threading.Thread(target=publish)
    thread.start()
    try:
        run = engine.run([task])
    finally:
        thread.join()
    assert run["a"] == 9
    record = run.manifest.records[0]
    assert record.worker == "peer"
    assert record.cache_hit


def test_two_engines_drain_one_graph_in_process(tmp_path):
    """Sequential peers over one store: the second run adopts every
    artefact the first published."""
    tasks = [Task(id=f"t{i}", stage="wq_add", payload={"value": i})
             for i in range(4)]
    first = Engine(backend="workqueue", cache_dir=tmp_path).run(tasks)
    assert first.ok
    second = Engine(backend="workqueue", cache_dir=tmp_path).run(tasks)
    assert second.ok
    assert second.artifacts == first.artifacts
    assert second.manifest.hit_rate() == 1.0


# ----------------------------------------------------------------------
# real multi-process chaos
# ----------------------------------------------------------------------
@pytest.mark.chaos
@pytest.mark.slow
def test_concurrent_workqueue_peers_complete(tmp_path):
    """Two simultaneous --backend workqueue invocations over one cache:
    both exit 0, zero quarantined entries, both journals complete."""
    env = chaos.repro_env(tmp_path)
    argvs = [chaos.flow_argv(run_id=f"wq-conc-{i}", backend="workqueue")
             for i in (1, 2)]
    outcomes = chaos.run_concurrent_flows(argvs, env, stagger_s=0.1)
    for outcome in outcomes:
        assert outcome.returncode == 0, outcome.stderr
    assert ArtifactCache(cache_dir=tmp_path).quarantined() == []
    for i in (1, 2):
        state = load_run(tmp_path, f"wq-conc-{i}")
        assert state.status == "completed"
    manifests = [RunManifest.load(run_dir(tmp_path, f"wq-conc-{i}")
                                  / MANIFEST_FILENAME) for i in (1, 2)]
    assert all(m.backend == "workqueue" for m in manifests)
    # Work was shared, not duplicated: across both runs each key was
    # computed once (the other peer saw a peer/cache record).
    computed = [r.key for m in manifests for r in m.records
                if r.cache == "miss"]
    assert len(computed) == len(set(computed))


@pytest.mark.chaos
@pytest.mark.slow
def test_sigkill_peer_lease_takeover_completes_graph(tmp_path):
    """SIGKILL one work-queue peer mid-run; flock dies with it, so a
    fresh peer takes over its leases and finishes the graph with the
    serial baseline's exact fingerprints."""
    env = chaos.repro_env(tmp_path)
    victim = chaos.spawn_flow(
        chaos.flow_argv(run_id="wq-victim", backend="workqueue"), env)
    assert chaos.wait_for_journal(tmp_path, "wq-victim", min_tasks=2,
                                  proc=victim), "victim never reached task 2"
    os.kill(victim.pid, 9)
    outcome = chaos.finish(victim)
    assert outcome.killed

    survivor = chaos.run_flow(
        chaos.flow_argv(run_id="wq-survivor", backend="workqueue"), env)
    assert survivor.returncode == 0, survivor.stderr
    state = load_run(tmp_path, "wq-survivor")
    assert state.status == "completed"
    assert ArtifactCache(cache_dir=tmp_path).quarantined() == []

    # Serial baseline in a fresh cache: identical task fingerprints.
    serial_env = chaos.repro_env(tmp_path / "serial-cache")
    baseline = chaos.run_flow(
        chaos.flow_argv(run_id="wq-serial", backend="serial"), serial_env)
    assert baseline.returncode == 0, baseline.stderr
    base_state = load_run(tmp_path / "serial-cache", "wq-serial")
    assert {(tid, rec["key"]) for tid, rec in state.done().items()} == \
        {(tid, rec["key"]) for tid, rec in base_state.done().items()}
    manifest = RunManifest.load(
        run_dir(tmp_path, "wq-survivor") / MANIFEST_FILENAME)
    assert manifest.status == STATUS_COMPLETED
    assert manifest.backend == "workqueue"
