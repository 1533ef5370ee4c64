"""Server chaos: real ``python -m repro.serve`` subprocesses under
SIGKILL, overload floods, coalescing clients and SIGTERM drains.

The service contract worth having survives a real ``kill -9`` of the
server mid-request: the client's plain retry (same body, no
bookkeeping) lands on the same deterministic run id, resumes the same
journal, recomputes only what the kill lost, and returns results
bit-identical to a serial baseline.  Marked ``serve``, ``chaos`` and
``slow``; CI runs these in the dedicated ``serve`` job.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.engine.durability import load_run
from repro.resilience import chaos
from repro.serve.handlers import parse_characterize

pytestmark = [pytest.mark.serve, pytest.mark.chaos, pytest.mark.slow]

#: The minimal flow (1 cell x 1 variant x 1 extraction) is 6 tasks.
MINIMAL_TASKS = 6

MINIMAL_BODY = {"cells": ["INV1X1"], "variants": ["2D"],
                "extraction_variants": ["TRADITIONAL"]}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def tenant_cache(cache_dir, tenant: str = "public") -> str:
    return os.path.join(str(cache_dir), "tenants", tenant)


def journal_keys(cache_dir, run_id: str) -> set:
    """``(task_id, key)`` fingerprints of a run's completed tasks."""
    state = load_run(cache_dir, run_id)
    return {(tid, rec["key"]) for tid, rec in state.done().items()}


def post(port: int, body: dict, headers: dict = None, timeout=120.0):
    return chaos.http_request(
        "POST", f"http://127.0.0.1:{port}/characterize", body=body,
        headers=headers, timeout=timeout)


def test_sigkill_mid_request_retry_is_bit_identical(tmp_path):
    """kill -9 the server mid-run; a restarted server + client retry
    completes without recomputing journalled work, bit-identical to a
    serial baseline."""
    # Serial baseline in its own cache: the ground-truth fingerprints.
    baseline_cache = tmp_path / "baseline"
    baseline_env = chaos.repro_env(baseline_cache)
    outcome = chaos.run_flow(
        chaos.flow_argv(run_id="baseline", backend="serial"), baseline_env)
    assert outcome.returncode == 0, outcome.stderr
    baseline = journal_keys(baseline_cache, "baseline")
    assert len(baseline) == MINIMAL_TASKS

    server_cache = tmp_path / "server"
    env = chaos.repro_env(server_cache)
    run_id = parse_characterize(MINIMAL_BODY).run_id
    port = free_port()

    proc = chaos.spawn_server(chaos.serve_argv(port, workers=1), env)
    try:
        assert chaos.wait_for_server(port, proc=proc), "server not up"
        # Fire the request from a thread (it will die with the server).
        threading.Thread(target=lambda: _swallow(post, port),
                         daemon=True).start()
        assert chaos.wait_for_journal(
            tenant_cache(server_cache), run_id, min_tasks=2, proc=proc)
        os.killpg(proc.pid, signal.SIGKILL)
        assert chaos.finish(proc).killed
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)

    progressed = len(journal_keys(tenant_cache(server_cache), run_id))
    assert progressed <= MINIMAL_TASKS

    # Restart and retry the identical request: server-side resume.
    proc = chaos.spawn_server(chaos.serve_argv(port, workers=1), env)
    try:
        assert chaos.wait_for_server(port, proc=proc)
        status, payload, _ = post(port, MINIMAL_BODY)
        assert status == 200, payload
        assert payload["run_id"] == run_id
        assert payload["resumed"] >= 1
        summary = payload["manifest"]
        assert summary["tasks"] == MINIMAL_TASKS
        # Completed stages were NOT recomputed: the journalled tasks
        # come back as cache hits.
        assert summary["cache_hits"] >= progressed
        proc.send_signal(signal.SIGTERM)
        assert chaos.finish(proc).returncode == 0
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)

    # Bit-identical: same content-addressed (task, fingerprint) set as
    # the serial baseline computed in a different cache.
    assert journal_keys(tenant_cache(server_cache), run_id) == baseline


def _swallow(fn, *args):
    try:
        fn(*args, MINIMAL_BODY)
    except OSError:
        pass


def test_overload_flood_sheds_while_healthz_answers(tmp_path):
    """Flood a queue-of-1 server: sheds answer 429 + Retry-After with
    the taxonomy code, /healthz stays responsive, nothing is dropped."""
    env = chaos.repro_env(tmp_path)
    port = free_port()
    proc = chaos.spawn_server(
        chaos.serve_argv(port, queue=1, workers=1, tenant_rps=1000,
                         tenant_burst=1000), env)
    try:
        assert chaos.wait_for_server(port, proc=proc)
        # Distinct bodies so the flood cannot coalesce.
        floods = [dict(MINIMAL_BODY, cells=[cell]) for cell in
                  ("INV1X1", "AND2X1", "NOR2X1", "XOR2X1")]
        results = [None] * len(floods)

        def fire(i):
            results[i] = post(port, floods[i])

        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(len(floods))]
        for thread in threads:
            thread.start()
            time.sleep(0.05)  # let the first request win the slot

        # While the flood is in flight, liveness answers fast.
        t0 = time.monotonic()
        status, body, _ = chaos.http_request(
            "GET", f"http://127.0.0.1:{port}/healthz", timeout=5.0)
        assert status == 200 and time.monotonic() - t0 < 2.0

        for thread in threads:
            thread.join(timeout=120.0)

        statuses = sorted(r[0] for r in results)
        # Zero silently-dropped: every request got a terminal answer.
        assert all(r is not None for r in results)
        assert statuses.count(200) >= 1
        assert statuses.count(429) >= 1
        for status, payload, headers in results:
            if status == 429:
                assert payload["error"]["code"] == "serve.overloaded"
                assert payload["error"]["retryable"] is True
                assert int(headers["Retry-After"]) >= 1
        proc.send_signal(signal.SIGTERM)
        assert chaos.finish(proc).returncode == 0
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)


def test_coalescing_across_two_client_processes(tmp_path):
    """Two separate client *processes* post the identical request
    concurrently: exactly one computation happens, both get the same
    run id, and SIGTERM drains to exit 0 with a clean journal."""
    env = chaos.repro_env(tmp_path)
    run_id = parse_characterize(MINIMAL_BODY).run_id
    port = free_port()
    client_src = (
        "import json,sys,urllib.request\n"
        "req=urllib.request.Request(sys.argv[1],"
        "data=json.dumps({'cells':['INV1X1'],'variants':['2D'],"
        "'extraction_variants':['TRADITIONAL']}).encode(),"
        "method='POST')\n"
        "resp=urllib.request.urlopen(req,timeout=120)\n"
        "print(json.dumps(json.load(resp)))\n")
    url = f"http://127.0.0.1:{port}/characterize"

    proc = chaos.spawn_server(chaos.serve_argv(port, workers=2), env)
    try:
        assert chaos.wait_for_server(port, proc=proc)
        first = subprocess.Popen([sys.executable, "-c", client_src, url],
                                 stdout=subprocess.PIPE, text=True)
        assert chaos.wait_for_journal(
            tenant_cache(tmp_path), run_id, min_tasks=1, proc=proc)
        second = subprocess.Popen([sys.executable, "-c", client_src, url],
                                  stdout=subprocess.PIPE, text=True)
        out_first, _ = first.communicate(timeout=120)
        out_second, _ = second.communicate(timeout=120)
        assert first.returncode == 0 and second.returncode == 0

        import json
        bodies = [json.loads(out_first), json.loads(out_second)]
        assert {b["run_id"] for b in bodies} == {run_id}
        assert all(b["status"] == "completed" for b in bodies)
        assert any(b.get("coalesced") for b in bodies)

        status, metrics, _ = chaos.http_request(
            "GET", f"http://127.0.0.1:{port}/metrics", timeout=10.0)
        assert metrics["metrics"]["serve.coalesced_total"]["value"] == 1

        proc.send_signal(signal.SIGTERM)
        outcome = chaos.finish(proc)
        assert outcome.returncode == 0, outcome.stderr
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)

    # One computation: a single begin record, no resumes, a clean
    # completed journal of exactly the minimal flow's tasks.
    state = load_run(tenant_cache(tmp_path), run_id)
    assert state.status == "completed"
    assert state.resumes == 0
    assert len(state.tasks) == MINIMAL_TASKS


def test_sigterm_mid_request_drains_within_grace(tmp_path):
    """SIGTERM while a run is in flight: the admitted request still
    answers 200, the server exits 0 within the grace window."""
    env = chaos.repro_env(tmp_path)
    run_id = parse_characterize(MINIMAL_BODY).run_id
    port = free_port()
    proc = chaos.spawn_server(
        chaos.serve_argv(port, workers=1, grace=60), env)
    try:
        assert chaos.wait_for_server(port, proc=proc)
        result = {}

        def fire():
            result["resp"] = post(port, MINIMAL_BODY)

        thread = threading.Thread(target=fire)
        thread.start()
        assert chaos.wait_for_journal(
            tenant_cache(tmp_path), run_id, min_tasks=1, proc=proc)
        proc.send_signal(signal.SIGTERM)
        thread.join(timeout=120.0)
        status, payload, _ = result["resp"]
        assert status == 200, payload
        assert payload["status"] == "completed"
        outcome = chaos.finish(proc, timeout=90.0)
        assert outcome.returncode == 0, outcome.stderr
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)

    assert load_run(tenant_cache(tmp_path), run_id).status == "completed"
