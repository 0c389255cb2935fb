"""Seeded, deterministic fault injection for the execution runtime.

Real clouds lose workers, straggle and time out; the paper's
dynamic-vs-static scheduling argument is really an argument about who
recovers well from exactly that.  :class:`FaultPlan` is the reproduction's
chaos harness: a pure function from a task's *logical identity* —
``(seed, scope, task index, round)`` — to an injected :class:`Fault` (or
``None``).  Nothing about physical placement enters the draw, so the same
plan produces the same faults under ``executors="serial"``, 2 workers or
4, which is what lets ``bench chaos`` assert that every seeded-fault run
is byte-identical to the fault-free run.

``round`` is the retry dimension: the task attempt number on the Spark
side, the query restart number on the Impala side.  By default a plan
only injects while ``round < max_rounds`` (1), so a retried attempt or a
restarted query runs clean and recovery is guaranteed within the
configured budgets.  Raise ``max_rounds`` to exercise repeated failures
(blacklisting, restart-budget exhaustion).

Faults are injected **driver-side, pre-dispatch**: the recovery layer
(:mod:`repro.runtime.recovery`) consults the plan before a task attempt
is handed to the :class:`~repro.runtime.pool.TaskPool`, so an injected
crash never executes the task body and charges neither counters nor
simulated seconds — the retried attempt reproduces the fault-free
metrics exactly.  Only ``slow`` faults dispatch normally, carrying a
slowdown factor that the speculation logic sees.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.errors import ReproError

__all__ = [
    "FAULT_KINDS",
    "DEFAULT_KINDS",
    "Fault",
    "FaultPlan",
    "InjectedFaultError",
    "TransientFault",
    "FatalFault",
    "WorkerCrash",
    "TaskHang",
    "ShuffleLost",
    "FaultEscalation",
    "make_fault_error",
]

# Every fault class the plan can draw.  ``fatal`` and ``shuffle_loss``
# are opt-in (fatal aborts the query by design; shuffle loss is only
# repairable where lineage exists), the rest are recoverable anywhere.
FAULT_KINDS = (
    "transient",
    "crash",
    "slow",
    "hang",
    "heartbeat_loss",
    "fatal",
    "shuffle_loss",
)

DEFAULT_KINDS = ("transient", "crash", "slow", "hang", "heartbeat_loss")


@dataclass(frozen=True)
class Fault:
    """One injected fault: what happens, how bad, and whose fault it is.

    ``worker`` is a *virtual* worker id assigned by the plan (not a
    physical pool worker — those differ run to run).  Blacklisting
    counts failures against virtual workers so the decision is
    deterministic across executor counts.
    """

    kind: str
    factor: float = 1.0  # slowdown multiplier, meaningful for kind="slow"
    worker: int = 0


class InjectedFaultError(ReproError):
    """Base class for errors raised on behalf of an injected fault."""

    def __init__(self, message: str, fault: Fault, scope: str, task: int):
        super().__init__(message)
        self.fault = fault
        self.scope = scope
        self.task = task


class TransientFault(InjectedFaultError):
    """A retriable one-off failure (lost RPC, evicted container)."""


class FatalFault(InjectedFaultError):
    """A non-retriable failure: the attempt's error is final."""


class WorkerCrash(InjectedFaultError):
    """The (virtual) worker running the attempt died."""


class TaskHang(InjectedFaultError):
    """The attempt hung and was declared lost (an injected hang)."""


class ShuffleLost(InjectedFaultError):
    """A shuffle block the attempt needed is gone (storage loss)."""


class FaultEscalation(InjectedFaultError):
    """Recovery budget exhausted: every allowed attempt was faulted."""

    def __init__(self, fault: Fault, scope: str, task: int, attempts: int):
        super().__init__(
            f"{scope}: task {task} failed {attempts} attempt(s) "
            f"(last injected fault: {fault.kind})",
            fault,
            scope,
            task,
        )
        self.attempts = attempts


_ERROR_BY_KIND = {
    "transient": TransientFault,
    "fatal": FatalFault,
    "crash": WorkerCrash,
    "heartbeat_loss": WorkerCrash,
    "hang": TaskHang,
    "shuffle_loss": ShuffleLost,
}


def make_fault_error(
    fault: Fault, scope: str, task: int, round: int
) -> InjectedFaultError:
    """The exception an injected ``fault`` surfaces as."""
    cls = _ERROR_BY_KIND.get(fault.kind, TransientFault)
    return cls(
        f"injected {fault.kind} fault: {scope} task {task} "
        f"round {round} (virtual worker {fault.worker})",
        fault,
        scope,
        task,
    )


class FaultPlan:
    """A seeded schedule of injected faults, keyed on logical identity.

    ``fault_for(scope, task, round)`` is deterministic and placement-free:
    the draw is seeded from a SHA-256 of ``(seed, scope, task, round)``
    (``random.Random`` seeded with a string is itself stable, but the
    hash keeps the derivation explicit and collision-resistant across
    scopes).  ``fault_rate`` is the per-attempt injection probability;
    ``kinds`` the drawable fault classes; ``slow_factor`` the slowdown
    carried by ``slow`` faults; ``virtual_workers`` the size of the
    virtual cluster faults are attributed to; ``max_rounds`` caps which
    rounds may fault at all (see module docstring).

    Explicit, test-targeted faults override the random draw::

        plan = FaultPlan(seed=7).at("job-1:stage-0", task=2, kind="crash")

    ``scope="*"`` matches any scope.  Explicit rules fire regardless of
    ``fault_rate`` and ``max_rounds``.
    """

    def __init__(
        self,
        seed: int = 0,
        fault_rate: float = 0.0,
        kinds: tuple = DEFAULT_KINDS,
        slow_factor: float = 4.0,
        virtual_workers: int = 4,
        max_rounds: int = 1,
    ):
        if not 0.0 <= float(fault_rate) <= 1.0:
            raise ReproError(f"fault_rate must be in [0, 1], got {fault_rate!r}")
        kinds = tuple(kinds)
        unknown = [k for k in kinds if k not in FAULT_KINDS]
        if unknown:
            raise ReproError(
                f"unknown fault kind(s) {unknown!r}; known: {FAULT_KINDS}"
            )
        if slow_factor < 1.0:
            raise ReproError(f"slow_factor must be >= 1, got {slow_factor!r}")
        if virtual_workers < 1:
            raise ReproError(
                f"virtual_workers must be >= 1, got {virtual_workers!r}"
            )
        if max_rounds < 0:
            raise ReproError(f"max_rounds must be >= 0, got {max_rounds!r}")
        self.seed = int(seed)
        self.fault_rate = float(fault_rate)
        self.kinds = kinds
        self.slow_factor = float(slow_factor)
        self.virtual_workers = int(virtual_workers)
        self.max_rounds = int(max_rounds)
        self._explicit: dict[tuple, Fault] = {}

    # -- authoring ---------------------------------------------------------------

    def at(
        self,
        scope: str,
        task: int,
        kind: str,
        round: int = 0,
        factor: float | None = None,
        worker: int | None = None,
    ) -> "FaultPlan":
        """Pin an explicit fault at ``(scope, task, round)``; chainable."""
        if kind not in FAULT_KINDS:
            raise ReproError(f"unknown fault kind {kind!r}; known: {FAULT_KINDS}")
        if factor is None:
            factor = self.slow_factor if kind == "slow" else 1.0
        if worker is None:
            worker = self._rng(scope, task, round, salt="worker").randrange(
                self.virtual_workers
            )
        self._explicit[(scope, int(task), int(round))] = Fault(
            kind=kind, factor=float(factor), worker=int(worker)
        )
        return self

    # -- the draw ----------------------------------------------------------------

    def _rng(self, scope: str, task: int, round: int, salt: str = "") -> random.Random:
        key = f"{self.seed}|{scope}|{task}|{round}|{salt}".encode()
        digest = hashlib.sha256(key).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def fault_for(self, scope: str, task: int, round: int = 0) -> Fault | None:
        """The fault injected into this attempt, or ``None`` to run clean."""
        for pattern in (scope, "*"):
            rule = self._explicit.get((pattern, int(task), int(round)))
            if rule is not None:
                return rule
        if round >= self.max_rounds or self.fault_rate <= 0.0:
            return None
        rng = self._rng(scope, task, round)
        if rng.random() >= self.fault_rate:
            return None
        kind = self.kinds[rng.randrange(len(self.kinds))]
        worker = rng.randrange(self.virtual_workers)
        factor = self.slow_factor if kind == "slow" else 1.0
        return Fault(kind=kind, factor=factor, worker=worker)

    def uniform(self, scope: str, task: int, round: int, salt: str = "jitter") -> float:
        """A deterministic U[0,1) draw tied to the same logical identity.

        The recovery layer uses this for backoff jitter so retry delays
        are reproducible, not wall-clock noise.
        """
        return self._rng(scope, task, round, salt=salt).random()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(seed={self.seed}, fault_rate={self.fault_rate}, "
            f"kinds={self.kinds}, max_rounds={self.max_rounds}, "
            f"explicit={len(self._explicit)})"
        )
