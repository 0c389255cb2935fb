"""Unit tests for the executor-pool layer itself (no substrates)."""

import multiprocessing as mp
import os

import pytest

from repro.errors import ReproError
from repro.runtime import (
    PoolError,
    ProcessBackend,
    SerialBackend,
    TaskPool,
    make_pool,
    validate_executors,
)

HAS_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")


class TestValidateExecutors:
    def test_serial_spellings(self):
        assert validate_executors(None) == 1
        assert validate_executors("serial") == 1
        assert validate_executors(1) == 1

    def test_integers_pass_through(self):
        assert validate_executors(2) == 2
        assert validate_executors(16) == 16

    @pytest.mark.parametrize("bad", [0, -3, 1.5, "parallel", True, False, []])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ReproError, match="must be 'serial' or an integer >= 1"):
            validate_executors(bad)

    def test_error_names_the_knob(self):
        with pytest.raises(ReproError, match="num_workers must be"):
            validate_executors(0, what="num_workers")


class TestMakePool:
    def test_serial_values_give_serial_backend(self):
        assert isinstance(make_pool(None), SerialBackend)
        assert isinstance(make_pool("serial"), SerialBackend)
        assert isinstance(make_pool(1), SerialBackend)

    def test_integer_gives_process_backend(self):
        pool = make_pool(3)
        assert isinstance(pool, ProcessBackend)
        assert pool.workers == 3

    def test_existing_pool_passes_through(self):
        pool = SerialBackend()
        assert make_pool(pool) is pool

    def test_serial_flags(self):
        assert make_pool(1).is_serial
        assert not make_pool(2).is_serial


class TestSerialBackend:
    def test_runs_in_order(self):
        order = []

        def make(i):
            return lambda: (order.append(i), i * 10)[1]

        assert SerialBackend().run([make(i) for i in range(5)]) == [
            0, 10, 20, 30, 40,
        ]
        assert order == [0, 1, 2, 3, 4]

    def test_on_result_hook(self):
        seen = []
        SerialBackend().run(
            [lambda: "a", lambda: "b"],
            on_result=lambda i, v: seen.append((i, v)),
        )
        assert seen == [(0, "a"), (1, "b")]

    def test_exception_propagates(self):
        def boom():
            raise ValueError("inline")

        with pytest.raises(ValueError, match="inline"):
            SerialBackend().run([boom])

    def test_empty_batch(self):
        assert SerialBackend().run([]) == []


@needs_fork
class TestPicklableError:
    @pytest.mark.parametrize(
        "cause, shipped_cause",
        [
            (OSError("simulated executor loss"), "OSError('simulated executor loss')"),
            (OSError(lambda: None), "None"),  # an unpicklable cause is dropped
        ],
    )
    def test_cause_survives_the_round_trip_when_picklable(self, cause, shipped_cause):
        import pickle

        from repro.runtime.pool import picklable_error

        error = ReproError("task failed")
        error.__cause__ = cause
        shipped = pickle.loads(pickle.dumps(picklable_error(error)))
        assert (str(shipped), repr(shipped.__cause__)) == ("task failed", shipped_cause)


class TestProcessBackendFork:
    def test_results_in_task_order(self):
        pool = ProcessBackend(2)
        tasks = [(lambda i=i: i * i) for i in range(8)]
        assert pool.run(tasks) == [i * i for i in range(8)]

    def test_runs_in_separate_processes(self):
        pool = ProcessBackend(2)
        pids = pool.run([os.getpid for _ in range(4)])
        assert all(pid != os.getpid() for pid in pids)

    def test_closures_capture_driver_state(self):
        big = {"lookup": list(range(1000))}
        pool = ProcessBackend(2)
        assert pool.run([lambda: big["lookup"][-1]]) == [999]

    def test_on_result_sees_every_completion(self):
        pool = ProcessBackend(2)
        seen = []
        results = pool.run(
            [(lambda i=i: i) for i in range(6)],
            on_result=lambda i, v: seen.append((i, v)),
        )
        assert sorted(seen) == [(i, i) for i in range(6)]
        assert results == list(range(6))

    def test_lowest_index_error_raised(self):
        def ok():
            return 1

        def boom(msg):
            raise RuntimeError(msg)

        pool = ProcessBackend(2)
        with pytest.raises(RuntimeError, match="first"):
            pool.run([ok, lambda: boom("first"), ok, lambda: boom("second")])

    def test_worker_traceback_attached_as_note(self):
        def boom():
            raise RuntimeError("with context")

        try:
            ProcessBackend(2).run([boom])
        except RuntimeError as exc:
            notes = "".join(getattr(exc, "__notes__", []))
            assert "in pool worker" in notes
            assert "boom" in notes
        else:  # pragma: no cover
            pytest.fail("worker error not raised")

    def test_unpicklable_result_ships_as_error(self):
        # The worker's own pickling failure ships back and re-raises on the
        # driver instead of hanging the queue's feeder thread.
        pool = ProcessBackend(2)
        with pytest.raises(Exception, match="[Pp]ickle"):
            pool.run([lambda: (lambda: 1)])  # lambdas don't pickle

    def test_empty_batch_spawns_nothing(self):
        assert ProcessBackend(2).run([]) == []

    def test_more_workers_than_tasks(self):
        assert ProcessBackend(8).run([lambda: 42]) == [42]


@needs_fork
class TestTeardownOnDriverError:
    """Regression: a raising ``on_result`` callback must reap the pool.

    The old code propagated the callback's exception without shutting the
    workers down: with queued tasks still pending the children stayed
    alive past ``run()`` (leaked processes, and a hung interpreter exit
    on the queue feeder threads).  Now any driver-side error mid-collect
    terminates and joins every worker before re-raising.
    """

    def test_raising_callback_reaps_workers_and_propagates(self):
        import time

        def slow(i):
            return lambda: (time.sleep(0.05), i)[1]

        pool = ProcessBackend(2)

        def explode(index, value):
            raise RuntimeError("driver-side callback failure")

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="driver-side callback failure"):
            pool.run([slow(i) for i in range(12)], on_result=explode)
        elapsed = time.monotonic() - start
        deadline = time.monotonic() + 10.0
        while mp.active_children() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert mp.active_children() == [], "workers leaked past run()"
        # The error path terminates instead of draining the 11 queued
        # tasks (or burning the old 5 s-per-worker graceful join).
        assert elapsed < 5.0

    def test_pool_is_reusable_after_error_teardown(self):
        pool = ProcessBackend(2)
        with pytest.raises(RuntimeError):
            pool.run(
                [(lambda i=i: i) for i in range(4)],
                on_result=lambda i, v: (_ for _ in ()).throw(
                    RuntimeError("boom")
                ),
            )
        assert pool.run([(lambda i=i: i * 2) for i in range(4)]) == [0, 2, 4, 6]


class TestProcessBackendConfig:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
    def test_bad_worker_counts(self, bad):
        with pytest.raises(PoolError, match="workers must be"):
            ProcessBackend(bad)

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            TaskPool().run([lambda: 1])
