"""Tests for the replication/burst ablations and the phased generator."""

import pytest

from repro.bench.ablations import run_ablation
from repro.sim.kernel import Environment
from repro.sim.workload import PhasedOpenLoopGenerator
from repro.stats import nearest_rank


class TestPhasedGenerator:
    def test_phase_rates_respected(self):
        env = Environment()

        def request(index):
            yield env.timeout(0.001)

        generator = PhasedOpenLoopGenerator(
            env,
            request,
            phases=[(5.0, 10.0), (5.0, 100.0)],
            horizon_s=10.0,
            poisson=False,
        )
        env.run(until=11.0)
        low, high = generator.phase_stats
        assert low.issued == pytest.approx(50, abs=3)
        assert high.issued == pytest.approx(500, abs=5)

    def test_phases_cycle_until_horizon(self):
        env = Environment()

        def request(index):
            yield env.timeout(0.001)

        generator = PhasedOpenLoopGenerator(
            env,
            request,
            phases=[(1.0, 10.0), (1.0, 0.0)],  # on/off
            horizon_s=6.0,
            poisson=False,
        )
        env.run(until=7.0)
        # Three on-phases of ~10 requests each.
        assert generator.stats.issued == pytest.approx(30, abs=4)

    def test_validation(self):
        env = Environment()

        def request(index):
            yield env.timeout(0)

        with pytest.raises(ValueError):
            PhasedOpenLoopGenerator(env, request, phases=[], horizon_s=1.0)
        with pytest.raises(ValueError):
            PhasedOpenLoopGenerator(env, request, phases=[(0, 10)], horizon_s=1.0)

    def test_zero_rate_phase_issues_nothing(self):
        env = Environment()

        def request(index):
            yield env.timeout(0.001)

        generator = PhasedOpenLoopGenerator(
            env, request, phases=[(2.0, 0.0)], horizon_s=2.0, poisson=False
        )
        env.run(until=3.0)
        assert generator.stats.issued == 0


class TestReplicationAblation:
    def test_replication_improves_survival(self):
        from repro.bench.config import Fig3Config

        cfg = Fig3Config(
            nodes_sweep=(3,),
            objects=400,
            clients_per_vm=8,
            horizon_s=2.0,
            warmup_s=1.0,
            cold_start_s=0.2,
            max_pending=2000,
        )
        rows = run_ablation("ABL-REPL", arms=(1, 2), nodes=3, cfg=cfg, probe_objects=150)
        single, double = rows
        assert single.survivors_pct < 95.0
        assert double.survivors_pct > single.survivors_pct
        assert double.survivors_pct >= 99.0


class TestBurstAblation:
    def test_prewarming_absorbs_bursts(self):
        rows = run_ablation(
            "ABL-BURST", arms=(1, 4), base_rate=20.0, burst_rate=200.0, phase_s=8.0, cycles=1
        )
        cold, warm = rows
        assert cold.burst_p99_ms > warm.burst_p99_ms * 2
        assert warm.degradation < 3.0
        assert cold.peak_replicas >= warm.peak_replicas


class TestQosAblation:
    def test_plane_protects_hot_class(self):
        rows = run_ablation(
            "ABL-QOS",
            noisy_backlog=200,
            hot_rps=40.0,
            hot_duration_s=2.0,
            hot_objects=4,
            noisy_objects=8,
        )
        fifo, qos = rows
        assert fifo.hot_completed == qos.hot_completed == 80
        assert not fifo.hot_met  # head-of-line blocking behind the flood
        assert qos.hot_met
        assert qos.hot_p95_ms < fifo.hot_p95_ms / 5
        assert fifo.noisy_shed == 0
        assert fifo.noisy_completed == 200  # baseline drains everything


class TestPercentileRule:
    """Every percentile an ablation reports is the nearest rank."""

    def test_nearest_rank(self):
        samples = [float(rank) for rank in range(1, 25)]
        assert nearest_rank(samples, 99) == 24.0  # ceil(23.76): the largest of 24
        assert nearest_rank(samples, 95) == 23.0  # ceil(22.8)
        assert nearest_rank(samples, 50) == 12.0
        assert nearest_rank(samples, 100) == 24.0
        assert nearest_rank([], 95) == 0.0

    def test_cold_burst_p99_is_its_slowest_request(self):
        # Nine requests onto one warm replica of concurrency 8: eight
        # start at once, the ninth waits for a slot.  The slowest of nine
        # is their p99.
        row = run_ablation("ABL-COLD", arms=(1,), burst=9)[0]
        assert row.first_latency_ms == pytest.approx(22.0)
        assert row.burst_p99_ms == pytest.approx(44.0)
