"""Tests for the planner hot-path caching layer (core.objective).

Covers the LRU substrate, the plan fingerprint, the memoized objective,
the compiled simulation inputs behind each miss, and the planner-level
guarantees: cached and uncached planners emit byte-identical plans over
the full zoo x SoC grid, and a repeated 20-request mix stops re-running
the event-driven simulation.
"""

import dataclasses

import pytest

from repro import obs
from repro.core.objective import LRUCache, ObjectiveCache, plan_fingerprint
from repro.core.plan import PipelinePlan, StageAssignment
from repro.core.planner import Hetero2PipePlanner, PlannerConfig
from repro.core.partition import partition_model
from repro.core.stealing import move_boundary_layer
from repro.hardware.soc import SOC_NAMES, get_soc
from repro.models.zoo import MODEL_NAMES, get_model
from repro.obs.blame import blame_requests
from repro.profiling.profiler import SocProfiler
from repro.runtime import engine as engine_module
from repro.runtime import compiled
from repro.runtime._legacy_executor import legacy_simulate_chains
from repro.runtime.compiled import CompiledTables
from repro.runtime.executor import execute_plan, plan_to_chains
from repro.runtime.schedule import async_makespan_ms


def canonical(plan: PipelinePlan):
    """Byte-comparable identity of a plan: everything the executor reads."""
    return (
        plan.soc.name,
        tuple(p.name for p in plan.processors),
        plan.order,
        tuple((a.model_name, tuple(a.slices)) for a in plan.assignments),
    )


def build_plan(soc, names):
    profiler = SocProfiler(soc)
    assignments = []
    for name in names:
        profile = profiler.profile(get_model(name))
        part = partition_model(profile, soc.processors)
        assignments.append(
            StageAssignment(profile=profile, slices=list(part.slices))
        )
    return PipelinePlan(
        soc=soc, processors=tuple(soc.processors), assignments=assignments
    )


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, no eviction
        cache.put("c", 3)  # evicts b, not a
        assert cache.get("a") == 10
        assert cache.get("b") is None
        assert len(cache) == 2

    def test_clear_keeps_accounting(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.hits == 1
        assert cache.misses == 1

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


class TestPlanFingerprint:
    @pytest.fixture(scope="class")
    def kirin(self):
        return get_soc("kirin990")

    def test_equal_plans_equal_fingerprints(self, kirin):
        a = build_plan(kirin, ["resnet50", "vit"])
        b = build_plan(kirin, ["resnet50", "vit"])
        assert plan_fingerprint(a) == plan_fingerprint(b)

    def test_slice_change_changes_fingerprint(self, kirin):
        a = build_plan(kirin, ["resnet50"])
        before = plan_fingerprint(a)
        # Move one boundary layer; any slice delta must change the key.
        from repro.core.stealing import move_boundary_layer

        moved = False
        for s in range(a.depth - 1):
            for frm, to in ((s, s + 1), (s + 1, s)):
                if move_boundary_layer(
                    a.assignments[0], frm, to, a.processors
                ):
                    moved = True
                    break
            if moved:
                break
        assert moved
        assert plan_fingerprint(a) != before

    def test_order_changes_fingerprint(self, kirin):
        a = build_plan(kirin, ["resnet50", "vit"])
        b = build_plan(kirin, ["resnet50", "vit"])
        b.order = (1, 0)
        assert plan_fingerprint(a) != plan_fingerprint(b)

    def test_contention_flag_changes_fingerprint(self, kirin):
        a = build_plan(kirin, ["resnet50"])
        assert plan_fingerprint(a, True) != plan_fingerprint(a, False)


class TestObjectiveCache:
    @pytest.fixture(scope="class")
    def kirin(self):
        return get_soc("kirin990")

    def test_hit_returns_identical_value(self, kirin):
        plan = build_plan(kirin, ["resnet50", "squeezenet"])
        objective = ObjectiveCache()
        first = objective(plan)
        second = objective(plan)
        assert first == second
        assert first == async_makespan_ms(plan)
        assert objective.hits == 1
        assert objective.misses == 1

    def test_mutation_invalidates_naturally(self, kirin):
        plan = build_plan(kirin, ["resnet50"])
        objective = ObjectiveCache()
        objective(plan)
        from repro.core.stealing import move_boundary_layer

        for s in range(plan.depth - 1):
            if move_boundary_layer(
                plan.assignments[0], s, s + 1, plan.processors
            ):
                break
        # New configuration -> new fingerprint -> fresh simulation.
        assert objective(plan) == async_makespan_ms(plan)
        assert objective.misses == 2

    def test_counters_flow_through_obs(self, kirin):
        plan = build_plan(kirin, ["squeezenet"])
        objective = ObjectiveCache()
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            objective(plan)
            objective(plan)
            counters = rec.metrics.snapshot()["counters"]
        assert counters["objective_cache_misses"] == 1
        assert counters["objective_cache_hits"] == 1

    def test_bounded(self, kirin):
        plan = build_plan(kirin, ["squeezenet"])
        objective = ObjectiveCache(maxsize=1)
        objective(plan, True)
        objective(plan, False)  # evicts the first key
        objective(plan, True)
        assert objective.evictions >= 1
        assert objective.misses == 3


MIX = ["yolov4", "bert", "squeezenet", "resnet50", "vit"]


class TestPlannerCacheCorrectness:
    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    def test_cached_equals_uncached_over_full_zoo(self, soc_name):
        """Every zoo model on every SoC: caching must not change plans."""
        soc = get_soc(soc_name)
        models = [get_model(n) for n in MODEL_NAMES]
        cached = Hetero2PipePlanner(soc)  # all caches on by default
        uncached = Hetero2PipePlanner(soc, PlannerConfig.uncached())
        with_cache = cached.plan(models)
        without = uncached.plan(models)
        assert canonical(with_cache.plan) == canonical(without.plan)
        assert with_cache.stealing_moves == without.stealing_moves
        assert with_cache.tail_changed == without.tail_changed
        # Warm re-plan returns the identical plan again.
        warm = cached.plan(models)
        assert canonical(warm.plan) == canonical(without.plan)

    def test_cached_report_is_isolated_from_caller_mutation(self):
        soc = get_soc("kirin990")
        models = [get_model(n) for n in ("resnet50", "vit")]
        planner = Hetero2PipePlanner(soc)
        first = planner.plan(models)
        reference = canonical(first.plan)
        # Vandalize the returned plan; the cache must not see it.
        first.plan.order = tuple(reversed(first.plan.order))
        first.plan.assignments.reverse()
        second = planner.plan(models)
        assert canonical(second.plan) == reference

    def test_repeated_20_request_plan_skips_resimulation(self):
        """Acceptance: re-planning a 20-request mix re-runs zero
        event-driven simulations (the objective_evaluations counter is
        flat) and hits the plan cache."""
        soc = get_soc("kirin990")
        names = ("squeezenet", "mobilenetv2", "alexnet", "googlenet")
        models = [get_model(names[i % len(names)]) for i in range(20)]
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            planner = Hetero2PipePlanner(soc)
            first = planner.plan(models)
            cold = rec.metrics.counter("objective_evaluations").value
            assert cold > 0
            second = planner.plan(models)
            warm = rec.metrics.counter("objective_evaluations").value
            counters = rec.metrics.snapshot()["counters"]
        assert warm == cold  # not one more simulation ran
        assert counters["plan_cache_hits"] == 1
        assert canonical(first.plan) == canonical(second.plan)

    def test_objective_cache_reduces_simulations_on_cold_plan(self):
        """Even a single cold plan dedupes re-probed configurations."""
        soc = get_soc("kirin990")
        models = [get_model(n) for n in MIX]
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            Hetero2PipePlanner(soc).plan(models)
            with_cache = rec.metrics.counter("objective_evaluations").value
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            Hetero2PipePlanner(soc, PlannerConfig.uncached()).plan(models)
            without = rec.metrics.counter("objective_evaluations").value
        assert with_cache < without

    def test_partition_and_profile_caches_count_hits(self):
        soc = get_soc("kirin990")
        models = [get_model("resnet50"), get_model("resnet50")]
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            planner = Hetero2PipePlanner(
                soc, PlannerConfig(enable_plan_cache=False)
            )
            planner.plan(models)
            counters = rec.metrics.snapshot()["counters"]
        # Second resnet50 in the mix reuses both profile and partition.
        assert counters["partition_cache_hits"] >= 1
        assert counters["profile_cache_hits"] >= 1

    def test_streaming_recurring_windows_hit_plan_cache(self):
        from repro.core.online import StreamingPlanner

        soc = get_soc("kirin990")
        stream = [
            get_model(n)
            for n in ("squeezenet", "mobilenetv2") * 3  # 3 identical windows
        ]
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            streaming = StreamingPlanner(soc, window_size=2)
            result = streaming.run(stream)
            counters = rec.metrics.snapshot()["counters"]
        assert result.num_requests == 6
        assert counters["plan_cache_hits"] == 2  # windows 2 and 3


def reference_makespan(plan: PipelinePlan, with_contention: bool = True):
    """The frozen legacy loop the compiled objective must reproduce:
    slowdowns re-derived from the workloads on every step."""
    return legacy_simulate_chains(
        plan.soc,
        plan_to_chains(plan),
        with_contention=with_contention,
        enforce_memory=False,
    ).makespan_ms


def boundary_probes(plan: PipelinePlan):
    """Every single-layer boundary move of every request, as plan copies."""
    for i in range(plan.num_requests):
        for s in range(plan.depth - 1):
            for frm, to in ((s, s + 1), (s + 1, s)):
                probe = plan.copy()
                if move_boundary_layer(
                    probe.assignments[i], frm, to, probe.processors
                ):
                    yield probe


def whole_model_on_one_stage(soc, name):
    """A plan whose only request runs entirely on one all-ops unit, so
    every other stage is empty (``None``)."""
    profile = SocProfiler(soc).profile(get_model(name))
    k = next(
        k for k, p in enumerate(soc.processors) if p.supports_all_ops
    )
    slices = [None] * len(soc.processors)
    slices[k] = (0, profile.model.num_layers - 1)
    return PipelinePlan(
        soc=soc,
        processors=tuple(soc.processors),
        assignments=[StageAssignment(profile=profile, slices=slices)],
    )


class TestCompiledObjective:
    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    def test_exact_over_zoo_grid_and_boundary_probes(self, soc_name):
        soc = get_soc(soc_name)
        plan = build_plan(soc, MODEL_NAMES)
        probes = [plan] + list(boundary_probes(plan))
        probes.append(whole_model_on_one_stage(soc, "resnet50"))
        assert len(probes) > 20
        assert any(
            slc is None for p in probes for a in p.assignments for slc in a.slices
        ), "the grid must cover empty stages"
        objective = ObjectiveCache()
        for probe in probes:
            for contention in (True, False):
                assert objective(probe, contention) == reference_makespan(
                    probe, contention
                )
        assert objective.misses == len(probes) * 2
        assert len(objective.tables.rates) > 0

    def test_exact_under_tiny_bounds(self, monkeypatch):
        """Evictions (and compiled slices outliving their table entry in the
        rate memo) never change a value."""
        monkeypatch.setattr(compiled, "DEFAULT_SLICE_TABLE_SIZE", 4)
        monkeypatch.setattr(compiled, "DEFAULT_RATE_MEMO_SIZE", 4)
        soc = get_soc("kirin990")
        plan = build_plan(soc, ["yolov4", "bert", "squeezenet", "resnet50"])
        tables = CompiledTables()
        for probe in [plan] + list(boundary_probes(plan)):
            assert async_makespan_ms(probe, True, tables) == (
                reference_makespan(probe)
            )
            assert len(tables.slices) <= 4
            assert len(tables.rates) <= 4
        assert tables.slices.evictions > 0
        assert tables.rates.evictions > 0

    def test_tables_bounded_and_emptied_by_invalidate(self):
        planner = Hetero2PipePlanner(get_soc("kirin990"))
        planner.plan([get_model(n) for n in MIX])
        tables = planner.objective.tables
        assert 0 < len(tables.slices) <= tables.slices.maxsize
        assert 0 < len(tables.rates) <= tables.rates.maxsize
        planner.invalidate_caches()
        assert len(planner.objective) == 0
        assert len(tables.slices) == 0
        assert len(tables.rates) == 0

    def test_custom_objective_gets_no_tables(self):
        objective = ObjectiveCache(lambda plan, contention=True: 1.0)
        assert objective.tables is None
        assert objective(build_plan(get_soc("kirin990"), ["alexnet"])) == 1.0

    def test_recalibrated_soc_never_reads_other_planners_entries(self):
        soc = get_soc("kirin990")
        slower = dataclasses.replace(
            soc,
            processors=tuple(
                dataclasses.replace(p, peak_gflops=p.peak_gflops / 1.3)
                if p.name == "gpu"
                else p
                for p in soc.processors
            ),
        )
        assert slower.name == soc.name
        models = [get_model(n) for n in MIX]
        first = Hetero2PipePlanner(soc)
        second = Hetero2PipePlanner(slower)
        first.plan(models)
        report = second.plan(models)
        tables = second.objective.tables
        assert tables is not first.objective.tables
        plan = report.plan
        for assignment in plan.assignments:
            for k, slc in enumerate(assignment.slices):
                if slc is None:
                    continue
                tail = (id(plan.processors), id(assignment.profile), k) + slc
                assert (id(slower),) + tail in tables.slices
                assert (id(soc),) + tail not in tables.slices
        uncached = Hetero2PipePlanner(slower, PlannerConfig.uncached())
        assert canonical(report.plan) == canonical(uncached.plan(models).plan)
        assert second.objective(report.plan) == reference_makespan(report.plan)


class TestObjectiveProbesSkipCausality:
    @pytest.fixture
    def engine_causality(self, monkeypatch):
        """Records ``track_causality`` of every engine constructed."""
        seen = []
        original = engine_module.DiscreteEventEngine.__init__

        def spy(self, *args, **kwargs):
            seen.append(kwargs.get("track_causality", True))
            original(self, *args, **kwargs)

        monkeypatch.setattr(engine_module.DiscreteEventEngine, "__init__", spy)
        return seen

    @pytest.mark.parametrize(
        "config", [PlannerConfig(), PlannerConfig.uncached()]
    )
    def test_probes_off_executed_run_on(self, engine_causality, config):
        planner = Hetero2PipePlanner(get_soc("kirin990"), config)
        report = planner.plan([get_model(n) for n in MIX])
        assert engine_causality, "the cold plan must probe the objective"
        assert not any(engine_causality)
        result = execute_plan(report.plan)
        assert engine_causality[-1] is True
        assert result.causality
        blames = blame_requests(result)
        assert len(blames) == report.plan.num_requests
        assert all(abs(b.residue_ms) <= 1e-9 for b in blames)

    @pytest.mark.parametrize(
        "config, evaluations",
        [(PlannerConfig(), 438), (PlannerConfig.uncached(), 477)],
    )
    def test_objective_evaluations_pinned(self, config, evaluations):
        """The overhead guard's five-model Kirin 990 mix runs exactly as
        many simulations as before the compiled path existed."""
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            Hetero2PipePlanner(get_soc("kirin990"), config).plan(
                [get_model(n) for n in MIX]
            )
            counters = rec.metrics.snapshot()["counters"]
        assert counters["objective_evaluations"] == evaluations
