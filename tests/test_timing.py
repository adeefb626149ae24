"""Cycle-cost model, GPU engine pipelining, interconnect timing."""

import pytest

from repro.config import GPUConfig, SystemConfig
from repro.errors import ConfigError, SimulationError
from repro.sim import Event, Simulator
from repro.stats import (GPUStats, RunStats, STAGE_COMPOSITION,
                         STAGE_FRAGMENT, STAGE_GEOMETRY, TRAFFIC_COMPOSITION)
from repro.timing import CostModel, DrawWork, GPUEngine, Interconnect


@pytest.fixture()
def costs():
    return CostModel(gpu=GPUConfig())


class TestCostModel:
    def test_geometry_scales_with_sms(self, costs):
        assert costs.geometry_cycles(80, vertex_cost=8.0) == 80.0
        wide = CostModel(gpu=GPUConfig(num_sms=16))
        assert wide.geometry_cycles(80, 8.0) == 40.0

    def test_fragment_includes_raster_term(self, costs):
        cycles = costs.fragment_cycles(10, 100, pixel_cost=8.0)
        assert cycles == pytest.approx((10 * 1.0 + 100 * 8.0) / 8)

    def test_projection_fraction(self, costs):
        full = costs.geometry_cycles(100, 10.0)
        proj = costs.projection_cycles(100, 10.0)
        assert proj == pytest.approx(full * costs.projection_fraction)

    def test_compose_cycles(self, costs):
        assert costs.compose_cycles(800) == pytest.approx(
            800 * costs.compose_cost_per_pixel / 8)

    def test_bad_projection_fraction(self):
        with pytest.raises(ConfigError):
            CostModel(gpu=GPUConfig(), projection_fraction=0.0)


class TestGPUEngine:
    def run_engine(self, works, update_interval=1 << 30, on_triangles=None):
        sim = Simulator()
        stats = GPUStats()
        engine = GPUEngine(sim, 0, CostModel(gpu=GPUConfig()), stats,
                           update_interval=update_interval,
                           on_triangles=on_triangles)

        def proc():
            yield from engine.run_draws(works)
            yield engine.drain()

        sim.process(proc())
        return sim.run(), stats

    def test_single_draw_serial_time(self):
        works = [DrawWork(0, 10, geometry_cycles=100, fragment_cycles=50)]
        now, stats = self.run_engine(works)
        assert now == pytest.approx(150)
        assert stats.stage_cycles[STAGE_GEOMETRY] == 100
        assert stats.stage_cycles[STAGE_FRAGMENT] == 50
        assert stats.triangles_processed == 10

    def test_two_stage_overlap(self):
        """Geometry of draw 2 overlaps fragments of draw 1: the total is
        geo1 + max(geo2, frag1) + frag2, not the serial sum."""
        works = [DrawWork(0, 1, geometry_cycles=100, fragment_cycles=300),
                 DrawWork(1, 1, geometry_cycles=100, fragment_cycles=50)]
        now, _ = self.run_engine(works)
        # t=100 geo1 done; frag1 runs 100..400; geo2 runs 100..200;
        # frag2 runs 400..450
        assert now == pytest.approx(450)

    def test_fragment_bound_pipeline(self):
        works = [DrawWork(i, 1, geometry_cycles=10, fragment_cycles=100)
                 for i in range(5)]
        now, _ = self.run_engine(works)
        assert now == pytest.approx(10 + 5 * 100)

    def test_geometry_bound_pipeline(self):
        works = [DrawWork(i, 1, geometry_cycles=100, fragment_cycles=10)
                 for i in range(5)]
        now, _ = self.run_engine(works)
        assert now == pytest.approx(5 * 100 + 10)

    def test_progress_reports_chunked(self):
        reports = []
        works = [DrawWork(0, 100, geometry_cycles=100, fragment_cycles=0)]
        self.run_engine(works, update_interval=32,
                        on_triangles=lambda gpu, n: reports.append(n))
        assert reports == [32, 32, 32, 4]

    def test_progress_reports_every_triangle(self):
        reports = []
        works = [DrawWork(0, 5, geometry_cycles=10, fragment_cycles=0)]
        self.run_engine(works, update_interval=1,
                        on_triangles=lambda gpu, n: reports.append(n))
        assert reports == [1] * 5

    def test_drain_immediate_when_idle(self):
        sim = Simulator()
        engine = GPUEngine(sim, 0, CostModel(gpu=GPUConfig()), GPUStats())
        assert engine.drain().triggered

    def test_busy_work_charges_stage(self):
        sim = Simulator()
        stats = GPUStats()
        engine = GPUEngine(sim, 0, CostModel(gpu=GPUConfig()), stats)

        def proc():
            yield from engine.busy_work(123.0, STAGE_COMPOSITION)

        sim.process(proc())
        assert sim.run() == pytest.approx(123.0)
        assert stats.stage_cycles[STAGE_COMPOSITION] == 123.0


class TestInterconnect:
    def make(self, num_gpus=4, **link_kwargs):
        config = SystemConfig(num_gpus=num_gpus).with_link(**link_kwargs) \
            if link_kwargs else SystemConfig(num_gpus=num_gpus)
        sim = Simulator()
        stats = RunStats(num_gpus=num_gpus)
        return sim, Interconnect(sim, config, stats), stats

    def test_transfer_time_is_occupancy_plus_latency(self):
        sim, icn, _ = self.make()
        done = []

        def proc():
            yield icn.transfer(0, 1, 6400, TRAFFIC_COMPOSITION)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [pytest.approx(6400 / 64 + 200)]

    def test_traffic_recorded_on_sender(self):
        sim, icn, stats = self.make()
        icn.transfer(0, 2, 1000, TRAFFIC_COMPOSITION)
        sim.run()
        assert stats.gpus[0].traffic_bytes[TRAFFIC_COMPOSITION] == 1000
        assert stats.traffic_total(TRAFFIC_COMPOSITION) == 1000

    def test_egress_serializes_sends(self):
        sim, icn, _ = self.make()
        ends = []

        def send(dst):
            yield icn.transfer(0, dst, 6400, TRAFFIC_COMPOSITION)
            ends.append(sim.now)

        sim.process(send(1))
        sim.process(send(2))
        sim.run()
        # occupancies serialize on GPU0's egress; latencies overlap
        assert ends[0] == pytest.approx(100 + 200)
        assert ends[1] == pytest.approx(200 + 200)

    def test_ingress_serializes_receives(self):
        sim, icn, _ = self.make()
        ends = []

        def send(src):
            yield icn.transfer(src, 3, 6400, TRAFFIC_COMPOSITION)
            ends.append(sim.now)

        sim.process(send(0))
        sim.process(send(1))
        sim.run()
        assert ends[1] - ends[0] == pytest.approx(100)

    def test_gate_parks_message_and_blocks_egress(self):
        sim, icn, _ = self.make()
        gate = Event(sim)
        ends = {}

        def gated():
            yield icn.transfer(0, 1, 640, TRAFFIC_COMPOSITION, gate=gate)
            ends["gated"] = sim.now

        def follower():
            yield icn.transfer(0, 2, 640, TRAFFIC_COMPOSITION)
            ends["follower"] = sim.now

        def opener():
            yield sim.timeout(1000)
            gate.succeed()

        sim.process(gated())
        sim.process(follower())
        sim.process(opener())
        sim.run()
        # the parked message pins GPU0's egress until the gate opens, so the
        # ungated follower is head-of-line blocked behind it
        assert ends["gated"] == pytest.approx(1000 + 10 + 200)
        assert ends["follower"] > 1000

    def test_receive_cycles_extend_completion(self):
        sim, icn, _ = self.make()
        done = []

        def proc():
            yield icn.transfer(0, 1, 640, TRAFFIC_COMPOSITION,
                               receive_cycles=500)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [pytest.approx(10 + 200 + 500)]

    def test_ports_released_fires_before_tail(self):
        sim, icn, _ = self.make()
        released = Event(sim)
        times = {}

        def proc():
            yield icn.transfer(0, 1, 640, TRAFFIC_COMPOSITION,
                               receive_cycles=500, ports_released=released)
            times["done"] = sim.now

        def watcher():
            yield released
            times["released"] = sim.now

        sim.process(proc())
        sim.process(watcher())
        sim.run()
        assert times["released"] == pytest.approx(10)
        assert times["done"] == pytest.approx(10 + 200 + 500)

    def test_ideal_link_is_instant_but_counts_traffic(self):
        sim, icn, stats = self.make(ideal=True)
        done = []

        def proc():
            yield icn.transfer(0, 1, 10**9, TRAFFIC_COMPOSITION)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [0.0]
        assert stats.traffic_total(TRAFFIC_COMPOSITION) == 10**9

    def test_transfer_to_self_rejected(self):
        sim, icn, _ = self.make()
        with pytest.raises(SimulationError):
            icn.transfer(1, 1, 100, TRAFFIC_COMPOSITION)

    def test_broadcast_reaches_everyone(self):
        sim, icn, stats = self.make(num_gpus=4)

        def proc():
            yield icn.broadcast(0, 640, TRAFFIC_COMPOSITION)

        sim.process(proc())
        sim.run()
        assert stats.gpus[0].traffic_bytes[TRAFFIC_COMPOSITION] == 3 * 640


class TestSharedBusTopology:
    def make_bus(self, bus_x=1.0):
        from dataclasses import replace
        config = SystemConfig(num_gpus=4)
        config = replace(config, link=replace(
            config.link, topology="bus", bus_bandwidth_x=bus_x))
        sim = Simulator()
        stats = RunStats(num_gpus=4)
        return sim, Interconnect(sim, config, stats), stats

    def test_bus_serializes_disjoint_pairs(self):
        """On p2p, 0->1 and 2->3 run concurrently; on a 1x bus they
        serialize."""
        sim, icn, _ = self.make_bus(bus_x=1.0)
        ends = []

        def send(src, dst):
            yield icn.transfer(src, dst, 6400, TRAFFIC_COMPOSITION)
            ends.append(sim.now)

        sim.process(send(0, 1))
        sim.process(send(2, 3))
        sim.run()
        assert ends[0] == pytest.approx(100 + 200)
        assert ends[1] == pytest.approx(200 + 200)  # waited for the bus

    def test_bus_multiplier_scales_bandwidth(self):
        sim, icn, _ = self.make_bus(bus_x=4.0)
        done = []

        def send():
            yield icn.transfer(0, 1, 6400, TRAFFIC_COMPOSITION)
            done.append(sim.now)

        sim.process(send())
        sim.run()
        assert done == [pytest.approx(6400 / 256 + 200)]

    def test_unknown_topology_rejected(self):
        from dataclasses import replace
        from repro.config import LinkConfig
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            LinkConfig(topology="torus")
        with pytest.raises(ConfigError):
            LinkConfig(bus_bandwidth_x=0.0)


class TestMemoryRoofline:
    def test_disabled_by_default(self):
        costs = CostModel(gpu=GPUConfig())
        assert costs.fragment_memory_cycles(10_000) == 0.0

    def test_compute_bound_unchanged(self):
        costs = CostModel(gpu=GPUConfig(), model_memory=True)
        plain = CostModel(gpu=GPUConfig())
        # Table II bandwidth: compute dominates for realistic pixel costs
        assert costs.fragment_cycles(10, 1000, pixel_cost=100.0) \
            == plain.fragment_cycles(10, 1000, pixel_cost=100.0)

    def test_memory_bound_when_starved(self):
        starved = CostModel(
            gpu=GPUConfig(dram_bandwidth_bytes_per_s=10**9),  # 1 GB/s
            model_memory=True)
        cycles = starved.fragment_cycles(10, 1000, pixel_cost=2.0)
        assert cycles == pytest.approx(
            starved.fragment_memory_cycles(1000))
        assert cycles > 1000 * 2.0 / 8

    def test_l2_filters_traffic(self):
        hot = CostModel(gpu=GPUConfig(dram_bandwidth_bytes_per_s=10**9),
                        model_memory=True, l2_hit_rate=0.9)
        cold = CostModel(gpu=GPUConfig(dram_bandwidth_bytes_per_s=10**9),
                         model_memory=True, l2_hit_rate=0.0)
        assert hot.fragment_memory_cycles(1000) \
            < cold.fragment_memory_cycles(1000)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            CostModel(gpu=GPUConfig(), l2_hit_rate=1.5)
        with pytest.raises(ConfigError):
            CostModel(gpu=GPUConfig(), fragment_memory_bytes=-1)


class TestMsaaConfig:
    def test_effective_pixel_bytes(self):
        from dataclasses import replace
        config = SystemConfig()
        assert config.effective_pixel_bytes == 8
        assert replace(config, msaa_samples=4).effective_pixel_bytes == 32

    def test_invalid_sample_count(self):
        from repro.errors import ConfigError as CfgErr
        with pytest.raises(CfgErr):
            SystemConfig(msaa_samples=3)
