"""Tests for the process-based parallel scheduler backend (§3.5).

The load-bearing property: for any scheduler capacity, the placement
produced with a process pool is **bit-identical** to the in-process
path's — workers are an execution detail, never a semantic one.
``scheduler_workers = N`` asks for N lanes: this process plus N - 1
worker processes.  The failure-handling tests then check that no cell
is ever lost to the parallel infrastructure: crashes before the
handshake or mid-run, hangs past ``WORKER_TIMEOUT``, pickle failures,
spawn failures and a missing start method all degrade to in-process
evaluation.  tests/test_shard.py runs the same failures through the
shard path.
"""

import gc
import math
import multiprocessing
import os
import random
import time
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.parallel as parallel_mod
import repro.core.scheduler as scheduler_mod
from repro.checker import check_legal
from repro.core.mgl import MGLegalizer
from repro.core.occupancy import Occupancy
from repro.core.parallel import (
    ParallelEvaluator,
    ParallelUnavailable,
    PoolNames,
    WorkerPool,
)
from repro.core.params import LegalizerParams
from repro.core.scheduler import WindowScheduler
from repro.core.shard import run_sharded_mgl
from repro.model.design import Design
from repro.model.placement import Placement
from repro.model.technology import CellType, Technology


def build_design(seed: int, density: float) -> Design:
    rng = random.Random(seed)
    tech = Technology(
        cell_types=[
            CellType("S2", 2, 1),
            CellType("S3", 3, 1),
            CellType("D2", 2, 2),
            CellType("T3", 3, 3),
        ]
    )
    rows = rng.choice([8, 12])
    sites = rng.choice([40, 60])
    design = Design(tech, num_rows=rows, num_sites=sites, name=f"par{seed}")
    target = density * rows * sites
    area = 0
    index = 0
    while area < target:
        cell_type = rng.choice(tech.cell_types)
        design.add_cell(
            f"c{index}",
            cell_type,
            rng.uniform(0, sites - cell_type.width),
            rng.uniform(0, rows - cell_type.height),
        )
        area += cell_type.width * cell_type.height
        index += 1
    return design


def positions(design: Design, capacity: int, workers: int):
    params = LegalizerParams(
        routability=False,
        scheduler_capacity=capacity,
        scheduler_workers=workers,
    )
    placement = MGLegalizer(design, params).run()
    return list(placement.x), list(placement.y)


def outcome(design: Design, capacity: int, workers: int):
    """(positions, scheduler re-evaluations) of one MGL run."""
    params = LegalizerParams(
        routability=False,
        scheduler_capacity=capacity,
        scheduler_workers=workers,
    )
    legalizer = MGLegalizer(design, params)
    placement = legalizer.run()
    reevaluations = legalizer.stats.get("scheduler_reevaluations", 0)
    return (list(placement.x), list(placement.y)), reevaluations


def crash_before_handshake(conn, init):
    """A worker entry point that dies before answering ``("ready",)``."""
    conn.close()


def hang_after_handshake(conn, init):
    """A worker entry point that comes up, then never answers its work."""
    conn.send(("ready",))
    conn.recv()
    time.sleep(600)  # The pool terminates it on retirement.


def pooled_run(design, registry=None):
    """Capacity-8 MGL on three lanes, two of them workers: (positions, stats)."""
    from repro.obs.observer import Observer

    params = LegalizerParams(
        routability=False, scheduler_capacity=8, scheduler_workers=3
    )
    legalizer = MGLegalizer(design, params, observer=Observer(metrics=registry))
    placement = legalizer.run()
    assert check_legal(placement).is_legal
    return (list(placement.x), list(placement.y)), legalizer.stats


class TestBitIdenticalPlacements:
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), density=st.floats(0.25, 0.6))
    def test_workers_never_change_the_placement(self, seed, density):
        """capacity (1, 2, 8) x workers (0, 1, 2, 3): identical placements
        and re-evaluation counts."""
        design = build_design(seed, density)
        for capacity in (1, 2, 8):
            serial = outcome(design, capacity, workers=0)
            for workers in (1, 2, 3):
                pooled = outcome(design, capacity, workers=workers)
                assert pooled == serial, (
                    f"{workers} workers diverged at capacity {capacity}"
                )

    def test_worker_counts_and_stats_agree(self, small_design):
        params = LegalizerParams(routability=False, scheduler_capacity=8)
        serial = MGLegalizer(small_design, params)
        serial_placement = serial.run()

        params2 = LegalizerParams(
            routability=False, scheduler_capacity=8, scheduler_workers=3
        )
        pooled = MGLegalizer(small_design, params2)
        pooled_placement = pooled.run()

        assert serial_placement.x == pooled_placement.x
        assert serial_placement.y == pooled_placement.y
        # The pure evaluation work is identical, wherever it ran.
        assert (
            pooled.stats["insertions_evaluated"]
            == serial.stats["insertions_evaluated"]
        )
        assert pooled.stats["parallel_batches"] > 0
        assert pooled.stats["parallel_tasks"] > 0
        assert pooled.stats["parallel_worker_failures"] == 0
        assert pooled.stats["scheduler_workers_spawned"] == 2

    def test_routability_guard_reconstructed_in_workers(self, rail_design):
        """Workers rebuild the guard from params; results must not drift."""
        for workers in (0, 2):
            params = LegalizerParams(
                routability=True,
                scheduler_capacity=6,
                scheduler_workers=workers,
            )
            placement = MGLegalizer(rail_design, params).run()
            if workers == 0:
                reference = (list(placement.x), list(placement.y))
            else:
                assert (list(placement.x), list(placement.y)) == reference


class TestFailureFallbacks:
    def test_pickle_failure_degrades_to_in_process(
        self, small_design, monkeypatch
    ):
        """A delta that cannot be pickled must not lose any cell."""
        def raising_dumps(*_args, **_kwargs):
            raise RuntimeError("simulated pickle failure")

        monkeypatch.setattr(parallel_mod.pickle, "dumps", raising_dumps)
        params = LegalizerParams(
            routability=False, scheduler_capacity=8, scheduler_workers=3
        )
        legalizer = MGLegalizer(small_design, params)
        placement = legalizer.run()
        assert check_legal(placement).is_legal
        # Every worker's task fell back in-process; both were retired.
        assert legalizer.stats["parallel_fallbacks"] > 0
        assert legalizer.stats["parallel_worker_failures"] == 2
        # And the placement still matches the pure serial path.
        serial = MGLegalizer(
            small_design,
            LegalizerParams(routability=False, scheduler_capacity=8),
        ).run()
        assert placement.x == serial.x and placement.y == serial.y

    def test_killed_worker_degrades_to_in_process(self, small_design):
        """A worker killed mid-run is retired; its share is re-evaluated."""
        params = LegalizerParams(
            routability=False, scheduler_capacity=8, scheduler_workers=3
        )
        legalizer = MGLegalizer(small_design, params)
        placement = Placement(small_design)
        occupancy = Occupancy(small_design, placement)
        scheduler = WindowScheduler(legalizer, occupancy)

        original_evaluate = ParallelEvaluator.evaluate_batch
        killed = []

        def kill_then_evaluate(self, batch, want_payloads=False):
            if not killed:
                self.pool.workers[0].process.terminate()
                self.pool.workers[0].process.join(timeout=5.0)
                killed.append(True)
            return original_evaluate(self, batch, want_payloads)

        try:
            ParallelEvaluator.evaluate_batch = kill_then_evaluate
            scheduler.run()
        finally:
            ParallelEvaluator.evaluate_batch = original_evaluate

        assert killed, "no multi-cell batch was ever formed"
        assert check_legal(placement).is_legal
        assert legalizer.stats["parallel_worker_failures"] >= 1
        serial = MGLegalizer(
            small_design,
            LegalizerParams(routability=False, scheduler_capacity=8),
        ).run()
        assert placement.x == serial.x and placement.y == serial.y

    def test_retired_worker_counted_in_metrics_registry(self, small_design):
        """Worker retirement must be visible in scheduler.worker_retired."""
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.observer import Observer

        registry = MetricsRegistry()
        params = LegalizerParams(
            routability=False, scheduler_capacity=8, scheduler_workers=3
        )
        legalizer = MGLegalizer(
            small_design, params, observer=Observer(metrics=registry)
        )
        placement = Placement(small_design)
        occupancy = Occupancy(small_design, placement)
        scheduler = WindowScheduler(legalizer, occupancy)

        original_evaluate = ParallelEvaluator.evaluate_batch
        killed = []

        def kill_then_evaluate(self, batch, want_payloads=False):
            if not killed:
                self.pool.workers[0].process.terminate()
                self.pool.workers[0].process.join(timeout=5.0)
                killed.append(True)
            return original_evaluate(self, batch, want_payloads)

        try:
            ParallelEvaluator.evaluate_batch = kill_then_evaluate
            scheduler.run()
        finally:
            ParallelEvaluator.evaluate_batch = original_evaluate

        assert killed, "no multi-cell batch was ever formed"
        retired = registry.counters.get("scheduler.worker_retired", 0)
        assert retired >= 1
        assert retired == legalizer.stats["parallel_worker_failures"]

    def test_spawn_failure_falls_back_to_serial(
        self, small_design, monkeypatch
    ):
        """No pool at all: the scheduler silently continues in-process."""
        class BoomContext:
            def Pipe(self):
                raise RuntimeError("no pipes today")

            def Process(self, *args, **kwargs):  # pragma: no cover
                raise RuntimeError("no processes either")

        monkeypatch.setattr(
            parallel_mod, "_pick_context", lambda: BoomContext()
        )
        params = LegalizerParams(
            routability=False, scheduler_capacity=8, scheduler_workers=3
        )
        legalizer = MGLegalizer(small_design, params)
        placement = legalizer.run()
        assert check_legal(placement).is_legal
        serial = MGLegalizer(
            small_design,
            LegalizerParams(routability=False, scheduler_capacity=8),
        ).run()
        assert placement.x == serial.x and placement.y == serial.y

    def test_crash_before_handshake_degrades_to_in_process(
        self, small_design, monkeypatch
    ):
        serial = positions(small_design, 8, workers=0)
        monkeypatch.setattr(
            parallel_mod, "worker_main", crash_before_handshake
        )
        pooled, stats = pooled_run(small_design)
        assert pooled == serial
        assert stats["parallel_worker_failures"] == 2
        assert stats["scheduler_workers_spawned"] == 0

    def test_hung_worker_retired_after_timeout(
        self, small_design, monkeypatch
    ):
        """A worker that never replies costs WORKER_TIMEOUT, not cells."""
        from repro.obs.metrics import MetricsRegistry

        serial = positions(small_design, 8, workers=0)
        monkeypatch.setattr(parallel_mod, "WORKER_TIMEOUT", 0.5)
        monkeypatch.setattr(parallel_mod, "worker_main", hang_after_handshake)
        registry = MetricsRegistry()
        pooled, stats = pooled_run(small_design, registry)
        assert pooled == serial
        assert stats["scheduler_workers_spawned"] == 2
        assert stats["parallel_worker_failures"] == 2
        assert registry.counters["scheduler.worker_retired"] == 2
        # One pooled round, then in process: of its tasks, only lane 0's
        # stripe was not recomputed.
        assert stats["parallel_batches"] == 1
        tasks = stats["parallel_tasks"]
        assert stats["parallel_fallbacks"] == tasks - math.ceil(tasks / 3)
        assert stats["parallel_fallbacks"] > 0

    def test_no_start_method_degrades_to_in_process(
        self, small_design, monkeypatch
    ):
        serial = positions(small_design, 8, workers=0)

        def no_context():
            raise RuntimeError("no multiprocessing today")

        monkeypatch.setattr(parallel_mod, "_pick_context", no_context)
        pooled, stats = pooled_run(small_design)
        assert pooled == serial
        assert stats["parallel_worker_failures"] == 2
        assert stats["scheduler_workers_spawned"] == 0


class TestPoolLifecycle:
    def test_journal_detached_and_workers_reaped(self, small_design):
        params = LegalizerParams(
            routability=False, scheduler_capacity=8, scheduler_workers=2
        )
        legalizer = MGLegalizer(small_design, params)
        placement = Placement(small_design)
        occupancy = Occupancy(small_design, placement)
        scheduler = WindowScheduler(legalizer, occupancy)
        scheduler.run()
        assert occupancy.journal is None
        if scheduler.parallel is not None:
            for worker in scheduler.parallel.pool.workers:
                assert not worker.process.is_alive()

    def test_pooled_run_leaves_no_cyclic_garbage(self, small_design):
        """The parent lane's evaluations are freed as they finish: what a
        run allocates in this process never waits for the cycle collector
        (which would then run during the caller's next allocations)."""
        params = LegalizerParams(
            routability=False, scheduler_capacity=8, scheduler_workers=3
        )
        gc.collect()
        gc.disable()
        try:
            legalizer = MGLegalizer(small_design, params)
            legalizer.run()
            assert legalizer.stats["parallel_tasks"] > 0
            del legalizer
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_journal_records_all_mutation_kinds(self, small_design):
        placement = Placement(small_design)
        occupancy = Occupancy(small_design, placement)
        journal = []
        occupancy.set_journal(journal)
        placement.move(0, 10, 2)
        occupancy.add(0)
        occupancy.update_x(0, 12)
        occupancy.remove(0)
        assert journal == [
            ("a", 0, 10, 2), ("m", 0, 12, 0), ("r", 0, 0, 0)
        ]
        occupancy.set_journal(None)
        placement.move(1, 30, 2)
        occupancy.add(1)
        assert journal == [
            ("a", 0, 10, 2), ("m", 0, 12, 0), ("r", 0, 0, 0)
        ]

    def test_unavailable_when_no_worker_comes_up(self, small_design):
        params = LegalizerParams(routability=False, scheduler_capacity=4)
        legalizer = MGLegalizer(small_design, params)
        placement = Placement(small_design)
        occupancy = Occupancy(small_design, placement)
        local = partial(scheduler_mod.evaluate_member, legalizer, occupancy)
        for lanes in (0, 1):
            with pytest.raises(ParallelUnavailable):
                # No worker lane requested: nothing can come up.
                ParallelEvaluator(legalizer, occupancy, lanes, local)
            assert occupancy.journal is None

    def test_exception_in_the_parent_lane_still_closes_the_pool(
        self, small_design, monkeypatch
    ):
        """MGL raising in lane 0 of a pooled round leaves no worker behind."""
        original_batch = ParallelEvaluator.evaluate_batch
        original_local = scheduler_mod.evaluate_member
        in_round = []
        pooled_calls = []

        def flagged(self, batch, want_payloads=False):
            in_round.append(True)
            try:
                return original_batch(self, batch, want_payloads)
            finally:
                in_round.pop()

        def failing(legalizer, occupancy, task):
            if in_round:
                pooled_calls.append(task)
                if len(pooled_calls) == 5:
                    raise RuntimeError("injected parent-lane failure")
            return original_local(legalizer, occupancy, task)

        monkeypatch.setattr(ParallelEvaluator, "evaluate_batch", flagged)
        monkeypatch.setattr(scheduler_mod, "evaluate_member", failing)
        params = LegalizerParams(
            routability=False, scheduler_capacity=8, scheduler_workers=3
        )
        legalizer = MGLegalizer(small_design, params)
        with pytest.raises(RuntimeError, match="injected parent-lane"):
            legalizer.run()
        assert legalizer.stats["scheduler_workers_spawned"] == 2
        assert multiprocessing.active_children() == []


def echo_lane(conn, init):
    """Toy worker: answers each item with (its lane, its pid, item * scale).

    A stripe holding ``"sleep"`` never gets an answer.
    """
    (scale,) = init
    conn.send(("ready",))
    while True:
        message = conn.recv()
        if message[0] == "stop":
            break
        lane, stripe = message[1]
        if "sleep" in stripe:
            time.sleep(600)  # The pool terminates it.
        conn.send((
            "results", [(lane, os.getpid(), item * scale) for item in stripe],
            0.0,
        ))


TOY_POOL = PoolNames(
    failures="toy_failures", spawned="toy_spawned", fallbacks="toy_fallbacks",
    retired="toy.retired", busy="toy.lane",
)


def toy_owner():
    """What a pool needs of its legalizer: stats and an observer."""
    from types import SimpleNamespace

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.observer import Observer

    return SimpleNamespace(
        stats={}, observer=Observer(metrics=MetricsRegistry())
    )


def local_lane(item):
    return 0, os.getpid(), item * 10


def share_lane(lane, stripe):
    return lane, stripe


class TestWorkerPoolRun:
    def test_lanes_stripes_and_lost_items(self):
        owner = toy_owner()
        pool = WorkerPool(echo_lane, (10,), 3, owner, TOY_POOL)
        parent = os.getpid()
        items = list(range(10))
        expected = [item * 10 for item in items]
        try:
            assert [worker.index for worker in pool.workers] == [1, 2]
            assert owner.stats["toy_spawned"] == 2

            # Item i goes to lane i mod 3; lane 0 runs here.
            results = pool.run(items, local_lane, share_lane)
            assert [value for _, _, value in results] == expected
            assert [lane for lane, _, _ in results] == [i % 3 for i in items]
            for i, (_, pid, _) in enumerate(results):
                assert (pid == parent) == (i % 3 == 0)
            assert owner.stats["toy_fallbacks"] == 0
            timings = owner.observer.metrics.timings
            assert {"toy.lane0", "toy.lane1", "toy.lane2"} <= set(timings)

            # A worker lost mid-round: its items come back from local.
            pool.workers[0].process.terminate()
            pool.workers[0].process.join(timeout=5.0)
            results = pool.run(items, local_lane, share_lane)
            assert [value for _, _, value in results] == expected
            assert [lane for lane, _, _ in results] == [
                2 if i % 3 == 2 else 0 for i in items
            ]
            for i, (_, pid, _) in enumerate(results):
                assert (pid == parent) == (i % 3 != 2)
            assert owner.stats["toy_failures"] == 1
            assert owner.observer.metrics.counters["toy.retired"] == 1
            assert owner.stats["toy_fallbacks"] == 3  # items 1, 4 and 7

            # Later rounds stripe over the two live lanes; lane 0 now
            # computes item 2 of the first six in a worker's place.
            results = pool.run(items, local_lane, share_lane)
            assert [value for _, _, value in results] == expected
            assert [lane for lane, _, _ in results] == [
                2 if i % 2 else 0 for i in items
            ]
            assert owner.stats["toy_fallbacks"] == 3 + (5 - 4)
        finally:
            pool.close()
        assert not any(worker.process.is_alive() for worker in pool.workers)

    def test_one_lane_spawns_nothing(self, monkeypatch):
        def no_context():
            raise AssertionError("a one-lane pool looked for a start method")

        monkeypatch.setattr(parallel_mod, "_pick_context", no_context)
        owner = toy_owner()
        pool = WorkerPool(echo_lane, (10,), 1, owner, TOY_POOL)
        try:
            assert pool.workers == []
            results = pool.run([1, 2, 3], local_lane, share_lane)
        finally:
            pool.close()
        assert results == [(0, os.getpid(), 10), (0, os.getpid(), 20),
                           (0, os.getpid(), 30)]
        assert owner.stats == {
            "toy_failures": 0, "toy_spawned": 0, "toy_fallbacks": 0
        }

    def test_exception_in_lane_0_ends_a_busy_worker(self):
        owner = toy_owner()
        pool = WorkerPool(echo_lane, (1,), 2, owner, TOY_POOL)

        def failing(item):
            raise RuntimeError("lane 0 failed")

        try:
            with pytest.raises(RuntimeError, match="lane 0 failed"):
                pool.run(["sleep", "sleep"], failing, share_lane)
        finally:
            started = time.monotonic()
            pool.close()
        # Terminated, not left to the join timeout (the worker sleeps on).
        assert time.monotonic() - started < 4.0
        assert not pool.workers[0].process.is_alive()
        assert owner.stats["toy_failures"] == 0


class TestSpawnStartMethod:
    def test_both_pool_users_give_the_fork_placement(
        self, small_design, monkeypatch
    ):
        """Spawned workers unpickle their Process arguments: same answer."""
        shard_params = LegalizerParams(
            routability=False, shards=3, shard_halo_rows=2,
            scheduler_workers=3,
        )
        forked, _ = pooled_run(small_design)
        forked_sharded, _ = run_sharded_mgl(small_design, shard_params)
        monkeypatch.setattr(
            parallel_mod, "_pick_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        spawned, stats = pooled_run(small_design)
        assert spawned == forked
        assert stats["scheduler_workers_spawned"] == 2
        assert stats["parallel_worker_failures"] == 0
        assert stats["parallel_tasks"] > 0
        sharded, legalizer = run_sharded_mgl(small_design, shard_params)
        assert sharded.x == forked_sharded.x
        assert sharded.y == forked_sharded.y
        assert legalizer.stats["shard_workers_spawned"] == 2
        assert legalizer.stats["shard_worker_failures"] == 0
        assert legalizer.stats["shard_fallbacks"] == 0
