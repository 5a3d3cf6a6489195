"""Tests for sharded legalization (``repro.core.shard``).

The contracts, in order of importance:

* ``shards=1`` reproduces the unsharded sequential path **bit-exactly**
  (including against the committed bench hashes);
* for a fixed topology the placement is bit-identical for any worker
  count — shard workers are an execution detail, never a semantic one;
* topology invariants: every movable cell lands in exactly one shard,
  fence regions are never split across bands, halos clamp to the chip;
* sharded placements are legal, and failures (crashed workers,
  over-full bands) degrade to slower, never to wrong or lost cells.
"""

import os
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.parallel as parallel_mod
import repro.core.shard as shard_mod
from repro.benchgen import iccad2017_suite
from repro.checker import check_legal
from repro.core.mgl import MGLegalizer
from repro.core.params import LegalizerParams
from repro.core.shard import (
    compute_topology,
    interior_params,
    run_sharded_mgl,
)
from repro.model.design import Design
from repro.model.fence import FenceRegion
from repro.model.geometry import Rect
from repro.model.placement import Placement
from repro.model.technology import CellType, Technology
from repro.obs.manifest import placement_digest
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.tracer import SpanTracer


def build_design(seed: int, density: float, with_fence: bool) -> Design:
    """A random mixed-height design, optionally with one fence region."""
    rng = random.Random(seed)
    tech = Technology(
        cell_types=[
            CellType("S2", 2, 1),
            CellType("S3", 3, 1),
            CellType("D2", 2, 2),
            CellType("T3", 3, 3),
        ]
    )
    rows = rng.choice([8, 12, 16])
    sites = rng.choice([40, 60])
    design = Design(tech, num_rows=rows, num_sites=sites, name=f"sh{seed}")
    fences = []
    if with_fence:
        ylo = rng.randrange(0, rows - 4)
        fence = FenceRegion(1, "f1", [Rect(4, ylo, sites // 2, ylo + 4)])
        design.add_fence(fence)
        fences.append(fence)
    target = density * rows * sites
    fence_budget = (
        0.5 * sum(r.area for r in fences[0].rects) if fences else 0.0
    )
    area = 0
    index = 0
    while area < target:
        cell_type = rng.choice(tech.cell_types)
        cell_area = cell_type.width * cell_type.height
        fence_id = 0
        if (
            fences and rng.random() < 0.2
            and cell_type.height <= 3 and fence_budget >= cell_area
        ):
            fence_id = 1
            fence_budget -= cell_area
        if fence_id:
            rect = fences[0].rects[0]
            gx = rng.uniform(rect.xlo, rect.xhi - cell_type.width)
            gy = rng.uniform(rect.ylo, rect.yhi - cell_type.height)
        else:
            gx = rng.uniform(0, sites - cell_type.width)
            gy = rng.uniform(0, rows - cell_type.height)
        design.add_cell(f"c{index}", cell_type, gx, gy, fence_id=fence_id)
        area += cell_area
        index += 1
    return design


def sharded_positions(
    design, shards, halo, workers=0, observer=NULL_OBSERVER
):
    params = LegalizerParams(
        routability=False,
        shards=shards,
        shard_halo_rows=halo,
        scheduler_workers=workers,
    )
    placement, legalizer = run_sharded_mgl(design, params, observer)
    return (list(placement.x), list(placement.y)), legalizer


def crash_mid_run(conn):
    """A shard worker that comes up, then dies on its first work message."""
    conn.recv()
    conn.send(("ready",))
    conn.recv()
    os._exit(1)


def hang_after_handshake(conn):
    """A shard worker that comes up, then never answers its work."""
    conn.recv()
    conn.send(("ready",))
    conn.recv()
    time.sleep(600)  # The pool terminates it on retirement.


class TestTopology:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        density=st.floats(0.2, 0.55),
        with_fence=st.booleans(),
        shards=st.integers(1, 6),
        halo=st.integers(0, 3),
    )
    def test_partition_invariants(self, seed, density, with_fence, shards, halo):
        design = build_design(seed, density, with_fence)
        topology = compute_topology(design, shards, halo)

        # Boundaries: strictly increasing, spanning the whole die.
        bounds = topology.boundaries
        assert bounds[0] == 0 and bounds[-1] == design.num_rows
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert len(topology.shards) == len(bounds) - 1
        assert 1 <= len(topology.shards) <= shards

        # Every movable cell in exactly one shard, none lost.
        movable = set(design.movable_cells())
        seen = [cell for s in topology.shards for cell in s.cells]
        assert len(seen) == len(set(seen))
        assert set(seen) == movable

        # Fences are never split: no boundary strictly inside a fence
        # bounding box's row span.
        import math

        for fence in design.fences:
            box = fence.bounding_box
            interior = range(
                int(math.floor(box.ylo)) + 1, int(math.ceil(box.yhi))
            )
            assert not (set(interior) & set(bounds[1:-1]))

        # Halo rows clamp to the chip and match the interiors.
        for s in topology.shards:
            assert s.row_lo == bounds[s.index]
            assert s.row_hi == bounds[s.index + 1]
            assert s.halo_lo == max(0, s.row_lo - halo)
            assert s.halo_hi == min(design.num_rows, s.row_hi + halo)

        # Deterministic: recomputation is bit-identical.
        assert compute_topology(design, shards, halo) == topology

    def test_shard_count_capped_by_tallest_cell(self, small_design):
        # small_design has height-4 cells in 20 rows: at most 5 bands.
        topology = compute_topology(small_design, 50, 1)
        assert len(topology.shards) <= 5

    def test_halo_bands_cover_cut_neighborhoods(self, small_design):
        topology = compute_topology(small_design, 4, 2)
        cuts = topology.boundaries[1:-1]
        bands = topology.halo_bands()
        assert len(bands) == len(cuts)
        for cut, (lo, hi) in zip(cuts, bands):
            assert lo == max(0, cut - 2) and hi == min(20, cut + 2)
        assert compute_topology(small_design, 4, 0).halo_bands() == []

    def test_as_dict_shape(self, fence_design):
        topology = compute_topology(fence_design, 3, 1)
        doc = topology.as_dict()
        assert doc["shards"] == len(topology.shards)
        assert doc["boundaries"] == list(topology.boundaries)
        assert [band["cells"] for band in doc["bands"]] == [
            len(s.cells) for s in topology.shards
        ]


class TestShards1Identity:
    def test_matches_sequential_path(self, small_design, fence_design):
        for design in (small_design, fence_design):
            params = LegalizerParams(routability=False)
            baseline = MGLegalizer(design, params).run()
            sharded, legalizer = sharded_positions(design, shards=1, halo=2)
            assert sharded == (list(baseline.x), list(baseline.y))
            assert legalizer.stats["shard_count"] == 1
            assert legalizer.stats["shard_reconciled"] == 0

    def test_matches_committed_bench_hashes(self):
        """shards=1 reproduces the committed BENCH_mgl.json placements."""
        import json
        from pathlib import Path

        hashes = json.loads(
            (Path(__file__).parent.parent / "BENCH_mgl.json").read_text()
        )["hashes"]
        for name in ("des_perf_b_md2", "fft_a_md2"):
            case = iccad2017_suite(scale=0.004, names=[name])[0]
            placement, _ = run_sharded_mgl(case.build(), LegalizerParams())
            assert placement_digest(placement) == hashes[f"{name}@0.004"]


class TestWorkerInvariance:
    def test_fixed_topology_any_worker_count(self, small_design):
        serial, _ = sharded_positions(small_design, shards=3, halo=2, workers=0)
        for workers in (1, 2):
            pooled, legalizer = sharded_positions(
                small_design, shards=3, halo=2, workers=workers
            )
            assert pooled == serial, f"diverged at workers={workers}"
            assert legalizer.stats["shard_worker_failures"] == 0
            assert legalizer.stats["shard_workers_spawned"] == min(
                workers, legalizer.stats["shard_count"]
            )

    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), density=st.floats(0.25, 0.5))
    def test_worker_invariance_property(self, seed, density):
        design = build_design(seed, density, with_fence=True)
        serial, _ = sharded_positions(design, shards=3, halo=1, workers=0)
        pooled, _ = sharded_positions(design, shards=3, halo=1, workers=2)
        assert pooled == serial

    def test_trace_structure_identical_across_workers(self, small_design):
        hashes = []
        for workers in (0, 2):
            tracer = SpanTracer()
            params = LegalizerParams(
                routability=False, shards=3, shard_halo_rows=2,
                scheduler_workers=workers,
            )
            run_sharded_mgl(
                small_design, params, observer=Observer(tracer=tracer)
            )
            hashes.append(tracer.structure_hash())
            names = [span.name for span in tracer.roots]
            assert names == ["shard_mgl"]
        assert hashes[0] == hashes[1]


class TestShardedLegality:
    def test_legal_and_complete(self, small_design, fence_design):
        for design in (small_design, fence_design):
            for shards, halo in ((2, 2), (3, 1), (4, 0)):
                params = LegalizerParams(
                    routability=False, shards=shards, shard_halo_rows=halo
                )
                placement, legalizer = run_sharded_mgl(design, params)
                report = check_legal(placement)
                assert report.is_legal, report.all_messages()
                movable = sum(1 for _ in design.movable_cells())
                assert legalizer.stats["cells_placed"] == movable

    def test_overfull_band_defers_and_recovers(self):
        """Cells that do not fit their band spill into reconciliation."""
        tech = Technology(cell_types=[CellType("W8", 8, 1)])
        design = Design(tech, num_rows=10, num_sites=40, name="spill")
        for index in range(30):
            design.add_cell(f"c{index}", tech.cell_types[0], 0.0, 0.0)
        # All 30 cells target band 0 (rows [0, 4) at 3 shards, halo 0):
        # 160 sites of capacity against 240 of demand.
        placement, legalizer = run_sharded_mgl(
            design,
            LegalizerParams(routability=False, shards=3, shard_halo_rows=0),
        )
        assert legalizer.stats["shard_count"] == 3
        assert legalizer.stats["shard_deferred"] > 0
        assert legalizer.stats["shard_halo_cells"] == 0
        report = check_legal(placement)
        assert report.is_legal, report.all_messages()
        assert legalizer.stats["cells_placed"] == 30

    def test_reconciled_set_is_halo_plus_deferred(self, small_design):
        _positions, legalizer = sharded_positions(
            small_design, shards=3, halo=2
        )
        stats = legalizer.stats
        assert stats["shard_reconciled"] == (
            stats["shard_halo_cells"] + stats["shard_deferred"]
        )
        assert stats["shard_halo_cells"] > 0  # dense halos are populated


class TestFailureFallbacks:
    def test_crashed_workers_degrade_to_in_process(
        self, small_design, monkeypatch
    ):
        """Every worker dying still yields the exact serial answer."""
        serial, _ = sharded_positions(small_design, shards=3, halo=2, workers=0)

        def crashing_worker(conn):
            raise RuntimeError("injected shard worker crash")

        monkeypatch.setattr(shard_mod, "shard_worker_main", crashing_worker)
        pooled, legalizer = sharded_positions(
            small_design, shards=3, halo=2, workers=2
        )
        assert pooled == serial
        assert legalizer.stats["shard_worker_failures"] >= 1
        assert legalizer.stats["shard_fallbacks"] == 3

    def test_spawn_failure_degrades_to_in_process(
        self, small_design, monkeypatch
    ):
        serial, _ = sharded_positions(small_design, shards=3, halo=2, workers=0)

        def no_context():
            raise RuntimeError("no multiprocessing today")

        monkeypatch.setattr(parallel_mod, "_pick_context", no_context)
        pooled, legalizer = sharded_positions(
            small_design, shards=3, halo=2, workers=2
        )
        assert pooled == serial
        assert legalizer.stats["shard_worker_failures"] == 2
        assert legalizer.stats["shard_workers_spawned"] == 0

    def test_retired_workers_hit_the_metrics_registry(
        self, small_design, monkeypatch
    ):
        def crashing_worker(conn):
            raise RuntimeError("injected shard worker crash")

        monkeypatch.setattr(shard_mod, "shard_worker_main", crashing_worker)
        registry = MetricsRegistry()
        params = LegalizerParams(
            routability=False, shards=3, shard_halo_rows=2,
            scheduler_workers=2,
        )
        run_sharded_mgl(
            small_design, params, observer=Observer(metrics=registry)
        )
        assert registry.counters["shard.worker_retired"] >= 1

    def test_crash_mid_run_degrades_to_in_process(
        self, small_design, monkeypatch
    ):
        serial, _ = sharded_positions(small_design, shards=3, halo=2, workers=0)
        monkeypatch.setattr(shard_mod, "shard_worker_main", crash_mid_run)
        pooled, legalizer = sharded_positions(
            small_design, shards=3, halo=2, workers=2
        )
        assert pooled == serial
        assert legalizer.stats["shard_workers_spawned"] == 2
        assert legalizer.stats["shard_worker_failures"] == 2
        assert legalizer.stats["shard_fallbacks"] == 3

    def test_hung_worker_retired_after_timeout(
        self, small_design, monkeypatch
    ):
        """A worker that never replies costs WORKER_TIMEOUT, not cells."""
        serial, _ = sharded_positions(small_design, shards=3, halo=2, workers=0)
        monkeypatch.setattr(parallel_mod, "WORKER_TIMEOUT", 0.5)
        monkeypatch.setattr(
            shard_mod, "shard_worker_main", hang_after_handshake
        )
        registry = MetricsRegistry()
        pooled, legalizer = sharded_positions(
            small_design, shards=3, halo=2, workers=2,
            observer=Observer(metrics=registry),
        )
        assert pooled == serial
        assert legalizer.stats["shard_workers_spawned"] == 2
        assert legalizer.stats["shard_worker_failures"] == 2
        assert registry.counters["shard.worker_retired"] == 2
        assert legalizer.stats["shard_fallbacks"] == 3

    def test_unpicklable_share_degrades_to_in_process(
        self, small_design, monkeypatch
    ):
        serial, _ = sharded_positions(small_design, shards=3, halo=2, workers=0)

        def refuse(_shard):
            raise TypeError("simulated unpicklable shard")

        monkeypatch.setattr(shard_mod.Shard, "__reduce__", refuse)
        pooled, legalizer = sharded_positions(
            small_design, shards=3, halo=2, workers=2
        )
        assert pooled == serial
        assert legalizer.stats["shard_workers_spawned"] == 2
        assert legalizer.stats["shard_worker_failures"] == 2
        assert legalizer.stats["shard_fallbacks"] == 3


class TestObservability:
    def test_metrics_and_topology_recorded(self, small_design):
        registry = MetricsRegistry()
        params = LegalizerParams(
            routability=False, shards=3, shard_halo_rows=2
        )
        _placement, legalizer = run_sharded_mgl(
            small_design, params, observer=Observer(metrics=registry)
        )
        counters = registry.counters
        assert counters["shard.halo_relegalized"] == (
            legalizer.stats["shard_halo_cells"]
        )
        assert counters["shard.deferred"] == legalizer.stats["shard_deferred"]
        histogram = registry.histogram("shard.occupancy")
        assert histogram.total == legalizer.stats["shard_count"]
        assert legalizer.shard_topology is not None
        assert legalizer.shard_topology.as_dict()["shards"] == 3

    def test_manifest_records_topology(self, small_design, tmp_path):
        from repro.obs.manifest import (
            build_manifest, diff_manifests, load_manifest, write_manifest,
        )

        params = LegalizerParams(
            routability=False, shards=3, shard_halo_rows=2
        )
        placement, legalizer = run_sharded_mgl(small_design, params)
        manifest = build_manifest(
            small_design, params, placement,
            shard_topology=legalizer.shard_topology.as_dict(),
        )
        path = tmp_path / "run.manifest.json"
        write_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded["shard_topology"] == legalizer.shard_topology.as_dict()
        other = dict(manifest)
        other["shard_topology"] = compute_topology(
            small_design, 2, 2
        ).as_dict()
        mismatches = diff_manifests(manifest, other)
        assert any("shard_topology" in line for line in mismatches)

    def test_legalizer_result_carries_topology(self, small_design):
        from repro.core.legalizer import Legalizer

        params = LegalizerParams(
            routability=False, shards=2, shard_halo_rows=1
        )
        result = Legalizer(small_design, params).run()
        assert result.shard_topology is not None
        assert result.shard_topology["shards"] >= 1
        unsharded = Legalizer(
            small_design, LegalizerParams(routability=False)
        ).run()
        assert unsharded.shard_topology is None


class TestParamsAndCli:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            LegalizerParams(shards=0).validate()
        with pytest.raises(ValueError):
            LegalizerParams(shard_halo_rows=-1).validate()
        # Zero would fail deep in a stage (matching's chunking range
        # step) or silently (every window empty until the exhaustive
        # chip-window fallback).
        for knob in (
            "matching_max_group", "max_insertion_points", "max_gaps_per_row"
        ):
            with pytest.raises(ValueError, match=knob):
                LegalizerParams(**{knob: 0}).validate()
        # Negative penalties or a NaN margin would void the dominance
        # cut-off's lower bounds and the best-first stop rule.
        for knob, value in (
            ("io_penalty", -10.0), ("blocked_penalty", -1.0),
            ("prune_margin", float("nan")), ("prune_margin", -1.0),
            ("prune_margin", float("inf")), ("io_penalty", float("nan")),
            ("guard_max_shift", -3), ("feasible_range_limit", -1),
        ):
            with pytest.raises(ValueError, match=knob):
                LegalizerParams(**{knob: value}).validate()
        for knob in (
            "io_penalty", "blocked_penalty", "prune_margin",
            "guard_max_shift", "feasible_range_limit",
        ):
            LegalizerParams(**{knob: 0}).validate()  # zero stays legal

    def test_interior_params_strip_nested_parallelism(self):
        params = LegalizerParams(
            shards=4, shard_halo_rows=3, scheduler_workers=8,
            scheduler_capacity=16,
        )
        inner = interior_params(params)
        assert inner.shards == 1
        assert inner.scheduler_workers == 0
        assert inner.scheduler_capacity == 1
        assert inner.shard_halo_rows == 3  # halo is topology, kept as-is

    def test_cli_shards_flag(self, tmp_path, capsys):
        from repro.cli import main

        design_file = tmp_path / "design.txt"
        assert main([
            "generate", "clishard", "-o", str(design_file),
            "--cells", "1:80", "2:8", "--density", "0.5", "--seed", "3",
        ]) == 0
        placement_file = tmp_path / "placement.txt"
        code = main([
            "legalize", str(design_file), "-o", str(placement_file),
            "--no-routability", "--shards", "2", "--halo-rows", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "shards:" in out
        assert main([
            "check", str(design_file), str(placement_file)
        ]) == 0
