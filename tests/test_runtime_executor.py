"""Tests for the event-driven pipeline executor."""

import dataclasses

import pytest

from repro.core.planner import Hetero2PipePlanner
from repro.core.partition import partition_model
from repro.core.plan import PipelinePlan, StageAssignment
from repro.baselines.mnn_serial import plan_mnn_serial
from repro.hardware.soc import get_soc
from repro.models.zoo import get_model
from repro.profiling.profiler import SocProfiler
from repro.profiling.slowdown import SliceWorkload
from repro.runtime.compiled import CompiledTables
from repro.runtime.executor import (
    ARENA_OVERHEAD_FACTOR,
    ChainTask,
    execute_plan,
    plan_to_chains,
    replicate_chains,
    simulate_chains,
)


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


@pytest.fixture(scope="module")
def profiler(kirin):
    return SocProfiler(kirin)


def make_plan(profiler, kirin, names):
    return PipelinePlan(
        soc=kirin,
        processors=tuple(kirin.processors),
        assignments=[
            StageAssignment(
                profile=profiler.profile(get_model(n)),
                slices=list(
                    partition_model(
                        profiler.profile(get_model(n)), kirin.processors
                    ).slices
                ),
            )
            for n in names
        ],
    )


def simple_chain(kirin, profiler, name, proc, request=0):
    profile = profiler.profile(get_model(name))
    n = profile.model.num_layers
    return [
        ChainTask(
            request=request,
            proc=proc,
            solo_ms=profile.whole_model_ms(proc),
            workload=SliceWorkload(profile, proc, 0, n - 1),
            working_set=profile.working_set_bytes(0, n - 1),
        )
    ]


class TestPrecedenceAndOrdering:
    def test_stages_execute_in_order(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["bert"])
        result = execute_plan(plan)
        records = sorted(
            (r for r in result.records if r.request == 0),
            key=lambda r: r.stage,
        )
        for earlier, later in zip(records, records[1:]):
            assert later.start_ms >= earlier.finish_ms - 1e-6

    def test_single_processor_serializes(self, profiler, kirin):
        plan = plan_mnn_serial(kirin, [get_model("resnet50")] * 3, profiler)
        result = execute_plan(plan)
        recs = sorted(result.records, key=lambda r: r.start_ms)
        for earlier, later in zip(recs, recs[1:]):
            assert later.start_ms >= earlier.finish_ms - 1e-6

    def test_fifo_request_order_per_processor(self, profiler, kirin):
        plan = plan_mnn_serial(
            kirin, [get_model("squeezenet")] * 4, profiler
        )
        result = execute_plan(plan)
        recs = sorted(result.records, key=lambda r: r.start_ms)
        assert [r.request for r in recs] == [0, 1, 2, 3]

    def test_arrivals_delay_start(self, profiler, kirin):
        plan = plan_mnn_serial(kirin, [get_model("squeezenet")] * 2, profiler)
        result = execute_plan(plan, arrivals=[0.0, 500.0])
        second = [r for r in result.records if r.request == 1][0]
        assert second.start_ms >= 500.0

    def test_arrival_length_mismatch(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit"])
        with pytest.raises(ValueError):
            execute_plan(plan, arrivals=[0.0, 1.0])


class TestContention:
    def test_contention_slows_execution(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["bert", "yolov4", "vgg16"])
        with_c = execute_plan(plan, with_contention=True).makespan_ms
        without = execute_plan(plan, with_contention=False).makespan_ms
        assert with_c > without

    def test_solo_execution_matches_profile(self, profiler, kirin):
        chain = simple_chain(kirin, profiler, "resnet50", kirin.cpu_big)
        result = simulate_chains(kirin, [chain])
        assert result.makespan_ms == pytest.approx(chain[0].solo_ms, rel=1e-6)

    def test_observed_slowdown_recorded(self, profiler, kirin):
        chains = [
            simple_chain(kirin, profiler, "bert", kirin.cpu_big, 0),
            simple_chain(kirin, profiler, "vgg16", kirin.gpu, 1),
        ]
        result = simulate_chains(kirin, chains)
        slowdowns = [r.slowdown for r in result.records]
        assert any(s > 0.02 for s in slowdowns)


class TestMemory:
    def test_capacity_violation_raises(self, profiler, kirin):
        profile = profiler.profile(get_model("bert"))
        n = profile.model.num_layers
        huge = ChainTask(
            request=0,
            proc=kirin.cpu_big,
            solo_ms=1.0,
            workload=None,
            working_set=kirin.memory_capacity_bytes * 2,
        )
        with pytest.raises(MemoryError):
            simulate_chains(kirin, [[huge]])

    def test_memory_blocking_serializes(self, profiler, kirin):
        # Two tasks on different processors whose combined working sets
        # exceed capacity must not overlap.
        half = kirin.memory_capacity_bytes * 0.6
        profile = profiler.profile(get_model("squeezenet"))
        n = profile.model.num_layers

        def task(request, proc):
            return ChainTask(
                request=request,
                proc=proc,
                solo_ms=10.0,
                workload=SliceWorkload(profile, proc, 0, n - 1),
                working_set=half,
            )

        chains = [[task(0, kirin.cpu_big)], [task(1, kirin.gpu)]]
        result = simulate_chains(kirin, chains)
        recs = sorted(result.records, key=lambda r: r.start_ms)
        assert recs[1].start_ms >= recs[0].finish_ms - 1e-6

    def test_pressure_fallback_counts_events(self, profiler, kirin):
        # A single request whose two stages each need >50% capacity;
        # arena residency holds stage 1's memory, so stage 2 only starts
        # via the pressure fallback.
        profile = profiler.profile(get_model("squeezenet"))
        n = profile.model.num_layers
        big = kirin.memory_capacity_bytes * 0.6
        chain = [
            ChainTask(0, kirin.cpu_big, 5.0,
                      SliceWorkload(profile, kirin.cpu_big, 0, n - 1), big),
            ChainTask(0, kirin.gpu, 5.0,
                      SliceWorkload(profile, kirin.gpu, 0, n - 1), big,
                      stage=1),
        ]
        result = simulate_chains(kirin, [chain])
        assert result.memory_pressure_events >= 1
        assert result.makespan_ms > 0

    def test_memory_not_enforced_when_disabled(self, profiler, kirin):
        profile = profiler.profile(get_model("squeezenet"))
        n = profile.model.num_layers
        big = kirin.memory_capacity_bytes * 2
        chain = [
            ChainTask(0, kirin.cpu_big, 5.0,
                      SliceWorkload(profile, kirin.cpu_big, 0, n - 1), big)
        ]
        result = simulate_chains(kirin, [chain], enforce_memory=False)
        assert result.makespan_ms > 0


class TestMetricsAndTrace:
    def test_throughput_definition(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit", "resnet50"])
        result = execute_plan(plan)
        assert result.throughput_per_s == pytest.approx(
            2 / (result.makespan_ms / 1e3)
        )

    def test_utilizations_bounded(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["bert", "vit", "yolov4"])
        result = execute_plan(plan)
        for proc in kirin.processors:
            assert 0.0 <= result.utilization(proc.name) <= 1.0 + 1e-9

    def test_trace_collected_when_enabled(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit", "resnet50"])
        result = execute_plan(plan, trace=True)
        assert len(result.trace) >= 2
        times = [t.time_ms for t in result.trace]
        assert times == sorted(times)

    def test_trace_empty_when_disabled(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit"])
        assert execute_plan(plan, trace=False).trace == []

    def test_npu_only_trace_keeps_low_memory_freq(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["mobilenetv2"])
        # mobilenet collapses onto the NPU; governor stays at the floor.
        result = execute_plan(plan, trace=True)
        npu_points = [
            t for t in result.trace if t.active_processors == ("npu",)
        ]
        for point in npu_points:
            assert point.memory_freq_mhz == kirin.memory_freq_mhz[0]

    def test_plan_to_chains_round_trip(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["bert", "vit"])
        chains = plan_to_chains(plan)
        assert len(chains) == 2
        for chain, assignment in zip(chains, plan.assignments):
            occupied = [s for s in assignment.slices if s is not None]
            assert len(chain) == len(occupied)
            for task in chain:
                assert task.working_set >= ARENA_OVERHEAD_FACTOR

    @pytest.mark.parametrize("table", [False, True], ids=["no-table", "table"])
    def test_replicas_keep_every_field_but_request_and_progress(
        self, profiler, kirin, table
    ):
        """Round 0 is also the what-if layer's fresh copy of a run."""
        plan = make_plan(profiler, kirin, ["bert", "vit", "resnet50"])
        chains = plan_to_chains(plan, CompiledTables().slices if table else None)
        simulate_chains(kirin, chains)  # leaves per-run progress behind
        replicas = replicate_chains(chains, 2)
        assert len(replicas) == 2 * len(chains)
        skipped = {"request", "remaining_ms", "start_ms"}
        for r, copied in enumerate(replicas):
            chain = chains[r % len(chains)]
            assert len(copied) == len(chain)
            for task, twin in zip(chain, copied):
                assert twin is not task
                for f in dataclasses.fields(ChainTask):
                    if f.name not in skipped:
                        assert getattr(twin, f.name) == getattr(task, f.name)
                assert twin.request == r
                assert twin.start_ms is None
                assert twin.remaining_ms == twin.solo_ms

    def test_request_latency(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit", "resnet50"])
        result = execute_plan(plan, arrivals=[0.0, 10.0])
        assert result.request_latency_ms(1) == pytest.approx(
            result.request_finish_ms[1] - 10.0
        )

    def test_mean_latency(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit", "resnet50"])
        result = execute_plan(plan)
        expected = sum(
            result.request_latency_ms(i) for i in range(2)
        ) / 2
        assert result.mean_latency_ms() == pytest.approx(expected)

    def test_latency_percentiles_interpolate(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit", "resnet50", "bert"])
        result = execute_plan(plan)
        latencies = sorted(
            result.request_latency_ms(i) for i in range(3)
        )
        # Linear interpolation over the sorted sample, numpy-style:
        # p50 of 3 samples is the middle one, p100/p0 are the extremes.
        assert result.p50_latency_ms == pytest.approx(latencies[1])
        assert result.latency_percentile_ms(0.0) == pytest.approx(
            latencies[0]
        )
        assert result.latency_percentile_ms(100.0) == pytest.approx(
            latencies[-1]
        )
        # p75 of 3 samples: rank 1.5 -> halfway between samples 1 and 2.
        assert result.latency_percentile_ms(75.0) == pytest.approx(
            (latencies[1] + latencies[2]) / 2
        )

    def test_latency_percentiles_ordered(self, profiler, kirin):
        plan = make_plan(
            profiler, kirin, ["vit", "resnet50", "bert", "yolov4"]
        )
        result = execute_plan(plan)
        assert (
            result.p50_latency_ms
            <= result.p95_latency_ms
            <= result.p99_latency_ms
            <= result.makespan_ms
        )

    def test_single_request_percentiles_degenerate(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit"])
        result = execute_plan(plan)
        only = result.request_latency_ms(0)
        assert result.p50_latency_ms == pytest.approx(only)
        assert result.p99_latency_ms == pytest.approx(only)

    def test_latency_percentile_validation(self, profiler, kirin):
        plan = make_plan(profiler, kirin, ["vit"])
        result = execute_plan(plan)
        with pytest.raises(ValueError):
            result.latency_percentile_ms(-1.0)
        with pytest.raises(ValueError):
            result.latency_percentile_ms(100.5)

    def test_unknown_processor_rejected(self, profiler, kirin):
        from repro.hardware.processor import make_gpu

        foreign = make_gpu(name="foreign_gpu")
        chain = [ChainTask(0, foreign, 1.0, None, 0.0)]
        with pytest.raises(ValueError):
            simulate_chains(kirin, [chain])
