"""Pool-lifetime properties of the pooled BDD manager: placement, scope
lifetime, recycling.

A service owns exactly one pooled manager, the single shard every program
lands on. Results must live on it, recompilations must reuse its warm
variables, scopes must be released on every exit path (success, failure,
``BaseException``, eviction) and recycling must never change generated
code or traces.
"""

import pytest

from repro import CompilationService, compile_source
from repro.bdd import BDDManager
from repro.errors import SignalError
from repro.programs import (
    ACCUMULATOR_SOURCE,
    ALARM_SOURCE,
    COUNTER_SOURCE,
    WATCHDOG_SOURCE,
)
from repro.runtime import ReactiveExecutor, random_oracle

SOURCES = [COUNTER_SOURCE, WATCHDOG_SOURCE, ACCUMULATOR_SOURCE, ALARM_SOURCE]

BROKEN = [
    (
        f"process BAD{index} = ( ? integer A; ! integer X, Y; )"
        " (| X := Y + A | Y := X + A |) end;"
    )
    for index in range(6)
]


def run_trace(result, steps=20, seed=7):
    result.executable.reset()
    executor = ReactiveExecutor(result.executable)
    trace = executor.run(steps, random_oracle(result.types, seed=seed))
    return [(step.inputs, step.outputs, step.observations) for step in trace]


class TestShardedCompilation:
    def test_results_land_on_the_routed_shard(self):
        service = CompilationService()
        for source in SOURCES:
            result = service.compile(source)
            assert result.hierarchy.manager.base is service.manager

    def test_recompilation_reuses_the_shard_and_its_variables(self):
        service = CompilationService()
        first = service.compile(COUNTER_SOURCE)
        manager = first.hierarchy.manager.base
        vars_after_first = manager.num_vars
        service.clear_cache()  # force a real recompilation on the same pool
        again = service.compile(COUNTER_SOURCE)
        assert again.hierarchy.manager.base is manager
        assert manager.num_vars == vars_after_first

    def test_sharded_results_match_unpooled_compiles(self):
        service = CompilationService()
        for source in SOURCES:
            pooled = service.compile(source)
            reference = compile_source(source)
            assert pooled.python_source() == reference.python_source()
            assert run_trace(pooled) == run_trace(reference)

    def test_single_shard_keeps_the_injected_manager(self):
        manager = BDDManager()
        service = CompilationService(manager=manager)
        assert service.manager is manager
        for source in SOURCES:
            assert service.compile(source).hierarchy.manager.base is manager
        assert service.manager is manager


class TestShardScopeLifetime:
    """Scopes release on success, failure, BaseException and eviction."""

    def test_success_scopes_live_on_their_shards_only(self):
        service = CompilationService()
        for source in SOURCES:
            service.compile(source)
        stats = service.statistics()
        assert stats["scopes"] == stats["cache_entries"] == len(SOURCES)

    def test_failed_compilations_release_their_shard_scopes(self):
        service = CompilationService()
        for broken in BROKEN:
            with pytest.raises(SignalError):
                service.compile(broken)
        stats = service.statistics()
        assert stats["scopes"] == 0
        assert stats["cache_entries"] == 0

    def test_base_exception_releases_the_shard_scope(self):
        class Cancelled(BaseException):
            pass

        service = CompilationService()
        service.compile(WATCHDOG_SOURCE)
        original = service._compile_program

        def dying(*args, **kwargs):
            original(*args, **kwargs)
            raise Cancelled()

        service._compile_program = dying
        with pytest.raises(Cancelled):
            service.compile(COUNTER_SOURCE)
        # Only the interrupted program's scope goes; the cached one stays.
        stats = service.statistics()
        assert stats["scopes"] == stats["cache_entries"] == 1

    def test_eviction_releases_scopes_on_a_sharded_pool(self):
        service = CompilationService(max_entries=2)
        for source in SOURCES:
            service.compile(source)
        stats = service.statistics()
        assert stats["cache_entries"] == 2
        assert stats["scopes"] == 2

    def test_mixed_sharded_batch_keeps_only_successful_scopes(self):
        service = CompilationService()
        sources = [COUNTER_SOURCE, BROKEN[0], WATCHDOG_SOURCE, BROKEN[1]]
        with pytest.raises(SignalError) as excinfo:
            service.compile_batch(sources)
        assert excinfo.value.batch_index == 1
        stats = service.statistics()
        assert stats["cache_entries"] == stats["scopes"] == 1


class TestShardRecycling:
    def test_recycling_on_a_sharded_pool_preserves_correctness(self):
        service = CompilationService(max_pool_nodes=30)
        for _ in range(2):  # second round: recompiles after recycling
            for source in SOURCES:
                pooled = service.compile(source)
                reference = compile_source(source)
                assert pooled.python_source() == reference.python_source()
                assert run_trace(pooled) == run_trace(reference)
            service.clear_cache()
        assert service.statistics()["pool_recycles"] >= 2
