"""Shared executor-pool runtime used by both substrates.

See :mod:`repro.runtime.dispatch` for :func:`run_tasks`, the one path a
task of any substrate takes to a worker and back,
:mod:`repro.runtime.pool` for the :class:`TaskPool` abstraction and
its serial / fork backends, :mod:`repro.runtime.shipping` for
the observability capture protocol that keeps pooled runs byte-identical
to serial ones, :mod:`repro.runtime.config` for the unified
:class:`RuntimeConfig` knob surface, and :mod:`repro.runtime.faults` /
:mod:`repro.runtime.recovery` for deterministic fault injection and the
retry / speculation / blacklisting machinery that survives it.
"""

from repro.runtime.config import RuntimeConfig
from repro.runtime.dispatch import run_tasks, runs_inline
from repro.runtime.faults import (
    DEFAULT_KINDS,
    FAULT_KINDS,
    Fault,
    FaultEscalation,
    FaultPlan,
    FatalFault,
    InjectedFaultError,
    ShuffleLost,
    TaskHang,
    TransientFault,
    WorkerCrash,
)
from repro.runtime.pool import (
    PoolError,
    ProcessBackend,
    SerialBackend,
    TaskPool,
    make_pool,
    validate_executors,
)
from repro.runtime.recovery import (
    Outcome,
    RecoveryContext,
    resolve_faults,
    run_recovered,
)
from repro.runtime.shipping import ObsCapture, apply_capture, capture_observability

__all__ = [
    "PoolError",
    "ProcessBackend",
    "SerialBackend",
    "TaskPool",
    "make_pool",
    "validate_executors",
    "ObsCapture",
    "apply_capture",
    "capture_observability",
    "RuntimeConfig",
    "FaultPlan",
    "Fault",
    "FAULT_KINDS",
    "DEFAULT_KINDS",
    "InjectedFaultError",
    "TransientFault",
    "FatalFault",
    "WorkerCrash",
    "TaskHang",
    "ShuffleLost",
    "FaultEscalation",
    "Outcome",
    "RecoveryContext",
    "resolve_faults",
    "run_recovered",
    "run_tasks",
    "runs_inline",
]
