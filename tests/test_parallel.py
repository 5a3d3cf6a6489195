"""Tests for the process-based parallel scheduler backend (§3.5).

The load-bearing property: for any scheduler capacity, the placement
produced with a process pool is **bit-identical** to the in-process
path's — workers are an execution detail, never a semantic one.  The
failure-handling tests then check that no cell is ever lost to the
parallel infrastructure: crashes before the handshake or mid-run,
hangs past ``WORKER_TIMEOUT``, pickle failures, spawn failures and a
missing start method all degrade to in-process evaluation.
tests/test_shard.py runs the same failures through the shard path.
"""

import random
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.parallel as parallel_mod
from repro.checker import check_legal
from repro.core.mgl import MGLegalizer
from repro.core.occupancy import Occupancy
from repro.core.parallel import ParallelEvaluator, ParallelUnavailable
from repro.core.params import LegalizerParams
from repro.core.scheduler import WindowScheduler
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


def crash_before_handshake(conn):
    """A worker entry point that dies before answering the init message."""
    conn.close()


def hang_after_handshake(conn):
    """A worker entry point that comes up, then never answers its work."""
    conn.recv()
    conn.send(("ready",))
    conn.recv()
    time.sleep(600)  # The pool terminates it on retirement.


def pooled_run(design, registry=None):
    """Capacity-8 MGL on two workers: (positions, stats)."""
    from repro.obs.observer import Observer

    params = LegalizerParams(
        routability=False, scheduler_capacity=8, scheduler_workers=2
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
        """capacity sweep (1, 2, 8) x workers (0, 2): identical hashes."""
        design = build_design(seed, density)
        for capacity in (1, 2, 8):
            serial = positions(design, capacity, workers=0)
            pooled = positions(design, capacity, workers=2)
            assert pooled == serial, (
                f"workers diverged at capacity {capacity}"
            )

    def test_worker_counts_and_stats_agree(self, small_design):
        params = LegalizerParams(routability=False, scheduler_capacity=8)
        serial = MGLegalizer(small_design, params)
        serial_placement = serial.run()

        params2 = LegalizerParams(
            routability=False, scheduler_capacity=8, scheduler_workers=2
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
            routability=False, scheduler_capacity=8, scheduler_workers=2
        )
        legalizer = MGLegalizer(small_design, params)
        placement = legalizer.run()
        assert check_legal(placement).is_legal
        # Every task fell back in-process; both workers were retired.
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
            routability=False, scheduler_capacity=8, scheduler_workers=2
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
            routability=False, scheduler_capacity=8, scheduler_workers=2
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
            routability=False, scheduler_capacity=8, scheduler_workers=2
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
        assert stats["parallel_tasks"] == 0
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
        with pytest.raises(ParallelUnavailable):
            # Zero workers requested: nothing can come up.
            ParallelEvaluator(legalizer, occupancy, 0)
        assert occupancy.journal is None
