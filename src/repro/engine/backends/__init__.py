"""Pluggable execution backends for the task-graph scheduler.

Selection (first match wins):

1. an explicit :class:`ExecutionBackend` instance or spec string passed
   to ``Engine(backend=...)`` / ``--backend``;
2. the :data:`BACKEND_ENV` (``REPRO_BACKEND``) environment variable;
3. a machine-width :class:`~repro.engine.backends.pool.PoolBackend`
   (:class:`~repro.engine.backends.serial.SerialBackend` on single-core
   machines).

Spec grammar: ``"serial"`` | ``"pool"`` | ``"pool:N"`` | ``"workqueue"``.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.engine.backends.base import (
    ExecutionBackend,
    RESULT_CRASHED,
    RESULT_DONE,
    RESULT_ERROR,
    RESULT_PEER,
    TaskExecution,
    TaskResult,
    TransferStats,
    run_stage_inline,
)
from repro.engine.backends.pool import PoolBackend
from repro.engine.backends.serial import SerialBackend
from repro.engine.backends.workqueue import (
    LEASE_TTL_ENV,
    WorkQueueBackend,
    resolve_lease_ttl,
)
from repro.errors import ReproError

#: Environment variable selecting the execution backend.
BACKEND_ENV = "REPRO_BACKEND"

#: Spec strings accepted by :func:`parse_backend_spec`.
BACKEND_SPECS = ("serial", "pool", "pool:N", "workqueue")


def parse_backend_spec(spec: str) -> ExecutionBackend:
    """Instantiate a backend from a spec string (see module docstring)."""
    text = spec.strip().lower()
    if text == "serial":
        return SerialBackend()
    if text == "workqueue":
        return WorkQueueBackend()
    if text == "pool":
        return PoolBackend()
    if text.startswith("pool:"):
        try:
            workers = int(text[len("pool:"):])
        except ValueError:
            raise ReproError(
                f"bad backend spec {spec!r}: expected 'pool:N' with "
                f"integer N") from None
        return PoolBackend(workers)
    raise ReproError(
        f"unknown backend spec {spec!r} "
        f"(expected one of {', '.join(BACKEND_SPECS)})")


def resolve_backend(backend: Optional[Union[str, ExecutionBackend]] = None
                    ) -> Optional[ExecutionBackend]:
    """Resolve explicit arg > ``REPRO_BACKEND``; None when neither set."""
    if backend is not None:
        if isinstance(backend, ExecutionBackend):
            return backend
        if isinstance(backend, str):
            return parse_backend_spec(backend)
        raise ReproError(
            f"backend must be a spec string or ExecutionBackend, "
            f"got {type(backend).__name__}")
    env = os.environ.get(BACKEND_ENV)
    if env:
        return parse_backend_spec(env)
    return None


__all__ = [
    "BACKEND_ENV",
    "BACKEND_SPECS",
    "ExecutionBackend",
    "LEASE_TTL_ENV",
    "PoolBackend",
    "RESULT_CRASHED",
    "RESULT_DONE",
    "RESULT_ERROR",
    "RESULT_PEER",
    "SerialBackend",
    "TaskExecution",
    "TaskResult",
    "TransferStats",
    "WorkQueueBackend",
    "parse_backend_spec",
    "resolve_backend",
    "resolve_lease_ttl",
    "run_stage_inline",
]
