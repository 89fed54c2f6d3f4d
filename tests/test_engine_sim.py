"""The epoch simulator."""

import pytest

from repro.engine import Application, Simulator, Tuner
from repro.memsim import FirstTouch, UniformAll, UniformWorkers
from repro.perf.latency import LatencyModel
from repro.units import MiB
from repro.workloads.base import WorkloadSpec
from tests.oracle.epoch_reference import ReferenceSimulator


def wl(**kw):
    base = dict(
        name="t",
        read_bw_node=8.0,
        write_bw_node=2.0,
        private_fraction=0.0,
        latency_weight=0.1,
        shared_bytes=16 * MiB,
        private_bytes_per_thread=0,
        work_bytes=50e9,
    )
    base.update(kw)
    return WorkloadSpec(**base)


class TestBasicRuns:
    def test_app_finishes(self, mach_b):
        sim = Simulator(mach_b)
        sim.add_app(Application("a", wl(), mach_b, (0,), policy=FirstTouch()))
        res = sim.run()
        assert res.execution_time("a") > 0
        assert res.sim_time == pytest.approx(res.execution_time("a"))

    def test_execution_time_sane(self, mach_b):
        # 50 GB at <= 10 GB/s demand: at least 5 seconds.
        sim = Simulator(mach_b)
        sim.add_app(Application("a", wl(), mach_b, (0,), policy=UniformAll()))
        t = sim.run().execution_time("a")
        assert t >= 5.0

    def test_missing_app_raises(self, mach_b):
        sim = Simulator(mach_b)
        sim.add_app(Application("a", wl(), mach_b, (0,), policy=FirstTouch()))
        res = sim.run()
        with pytest.raises(KeyError):
            res.execution_time("ghost")

    def test_no_apps_raises(self, mach_b):
        with pytest.raises(RuntimeError):
            Simulator(mach_b).run()

    def test_duplicate_app_id_rejected(self, mach_b):
        sim = Simulator(mach_b)
        sim.add_app(Application("a", wl(), mach_b, (0,), policy=FirstTouch()))
        with pytest.raises(ValueError):
            sim.add_app(Application("a", wl(), mach_b, (1,), policy=FirstTouch()))

    def test_wrong_machine_rejected(self, mach_a, mach_b):
        sim = Simulator(mach_b)
        with pytest.raises(ValueError):
            sim.add_app(Application("a", wl(), mach_a, (0,), policy=FirstTouch()))

    def test_max_time_bounds_run(self, mach_b):
        sim = Simulator(mach_b)
        sim.add_app(
            Application("a", wl(work_bytes=1e15), mach_b, (0,), policy=FirstTouch())
        )
        res = sim.run(max_time=3.0)
        assert res.sim_time <= 3.0 + 1.0
        assert "a" not in res.execution_times

    def test_rejects_bad_epoch(self, mach_b):
        with pytest.raises(ValueError):
            Simulator(mach_b, epoch_s=0.0)

    @pytest.mark.parametrize("epoch_s", [float("nan"), float("inf")])
    def test_rejects_non_finite_epoch(self, mach_b, epoch_s):
        with pytest.raises(ValueError, match="epoch length"):
            Simulator(mach_b, epoch_s=epoch_s)

    def test_rejects_nan_max_time(self, mach_b):
        sim = Simulator(mach_b)
        sim.add_app(Application("a", wl(), mach_b, (0,), policy=FirstTouch()))
        with pytest.raises(ValueError, match="max_time"):
            sim.run(max_time=float("nan"))
        assert sim.now == 0.0 and sim.epoch == 0

    def test_rejects_subclassed_latency_model(self, mach_b):
        class _Scaled(LatencyModel):
            pass

        with pytest.raises(TypeError, match="LatencyModel"):
            Simulator(mach_b, latency_model=_Scaled())


class TestPlacementEffects:
    def test_uniform_all_beats_first_touch_multiworker(self, mach_a):
        heavy = wl(read_bw_node=18.0, write_bw_node=6.0, work_bytes=200e9)

        def run(policy):
            sim = Simulator(mach_a)
            sim.add_app(Application("a", heavy, mach_a, (0, 1), policy=policy))
            return sim.run().execution_time("a")

        assert run(UniformAll()) < run(FirstTouch())

    def test_uniform_workers_beats_first_touch_multiworker(self, mach_a):
        heavy = wl(read_bw_node=18.0, write_bw_node=6.0, work_bytes=200e9)

        def run(policy):
            sim = Simulator(mach_a)
            sim.add_app(Application("a", heavy, mach_a, (0, 1), policy=policy))
            return sim.run().execution_time("a")

        assert run(UniformWorkers()) < run(FirstTouch())


class TestCoScheduling:
    def test_looping_app_does_not_block_completion(self, mach_b):
        sim = Simulator(mach_b)
        sim.add_app(
            Application("bg", wl(work_bytes=1e9), mach_b, (2, 3),
                        policy=FirstTouch(), looping=True)
        )
        sim.add_app(Application("fg", wl(), mach_b, (0,), policy=FirstTouch()))
        res = sim.run()
        assert "fg" in res.execution_times
        assert "bg" not in res.execution_times
        assert sim.app("bg").completions >= 1

    def test_contention_slows_coscheduled_app(self, mach_b):
        solo = Simulator(mach_b)
        solo.add_app(Application("a", wl(), mach_b, (0,), policy=UniformAll()))
        t_solo = solo.run().execution_time("a")

        shared = Simulator(mach_b)
        shared.add_app(Application("a", wl(), mach_b, (0,), policy=UniformAll()))
        shared.add_app(
            Application("b", wl(work_bytes=1e14), mach_b, (1, 2),
                        policy=UniformAll(), looping=True)
        )
        t_shared = shared.run().execution_time("a")
        assert t_shared > t_solo


class TestTelemetryAndCounters:
    def test_telemetry_accumulates(self, mach_b):
        sim = Simulator(mach_b)
        sim.add_app(Application("a", wl(), mach_b, (0,), policy=UniformAll()))
        res = sim.run()
        tele = res.telemetry["a"]
        assert tele.active_time > 0
        assert tele.mean_throughput_gbps > 0
        assert 0 <= tele.mean_stall_fraction < 1
        assert len(tele.traffic) >= 1

    def test_starved_app_stalls_more(self, mach_a):
        # First-touch on one node starves a two-node deployment.
        heavy = wl(read_bw_node=18.0, write_bw_node=6.0, work_bytes=100e9)
        sim = Simulator(mach_a)
        sim.add_app(Application("a", heavy, mach_a, (0, 1), policy=FirstTouch()))
        starved = sim.run().telemetry["a"].mean_stall_fraction
        sim2 = Simulator(mach_a)
        sim2.add_app(Application("a", heavy, mach_a, (0, 1), policy=UniformAll()))
        fed = sim2.run().telemetry["a"].mean_stall_fraction
        assert starved > fed

    def test_counters_updated(self, mach_b):
        sim = Simulator(mach_b)
        sim.add_app(Application("a", wl(), mach_b, (0,), policy=UniformAll()))
        sim.run()
        assert sim.counters.true_throughput("a") >= 0


class _StepCountingTuner(Tuner):
    def __init__(self):
        self.started = 0
        self.epochs = 0

    def on_start(self, sim):
        self.started += 1

    def on_epoch(self, sim):
        self.epochs += 1


class TestTunerIntegration:
    def test_tuner_hooks_called(self, mach_b):
        sim = Simulator(mach_b)
        sim.add_app(Application("a", wl(), mach_b, (0,), policy=UniformAll()))
        tuner = sim.add_tuner(_StepCountingTuner())
        sim.run()
        assert tuner.started == 1
        assert tuner.epochs >= 1

    def test_unsettled_tuner_forces_epoch_granularity(self, mach_b):
        sim = Simulator(mach_b, epoch_s=0.5)
        sim.add_app(Application("a", wl(), mach_b, (0,), policy=UniformAll()))
        tuner = sim.add_tuner(_StepCountingTuner())
        res = sim.run()
        # Roughly exec_time / epoch_s epochs (within slack).
        assert tuner.epochs >= res.sim_time / 0.5 * 0.8

    def test_migration_charge_delays_app(self, mach_b):
        def run(penalty_pages):
            sim = Simulator(mach_b)
            app = sim.add_app(
                Application("a", wl(), mach_b, (0,), policy=UniformAll())
            )
            if penalty_pages:
                sim.charge_migration(app, penalty_pages)
            return sim.run().execution_time("a")

        assert run(4_000_000) > run(0)

    def test_migration_recorded_in_result(self, mach_b):
        sim = Simulator(mach_b)
        app = sim.add_app(Application("a", wl(), mach_b, (0,), policy=UniformAll()))
        sim.charge_migration(app, 123)
        res = sim.run()
        assert res.migration["a"].pages_moved == 123


class TestSolverCache:
    """The contention-solve replay cache must be invisible in results: the
    kernel matches the scalar reference loop, which solves every epoch."""

    def _run(self, mach, *, cache, build):
        sim = (Simulator if cache else ReferenceSimulator)(mach)
        build(sim, mach)
        return sim, sim.run()

    @staticmethod
    def _static(sim, mach):
        sim.add_app(Application("a", wl(), mach, (0, 1), policy=UniformAll()))
        sim.add_app(Application("b", wl(), mach, (2,), policy=FirstTouch()))

    @staticmethod
    def _coscheduled_epochs(sim, mach):
        sim.add_app(Application("bg", wl(work_bytes=1e13), mach, (2, 3),
                                policy=UniformAll(), looping=True))
        sim.add_app(Application("fg", wl(), mach, (0, 1), policy=UniformAll()))
        sim.add_tuner(_StepCountingTuner())  # never settles: epoch granularity

    @staticmethod
    def _adaptive(sim, mach):
        from repro.memsim import AutoNUMA

        sim.add_app(Application("a", wl(), mach, (0, 1), policy=AutoNUMA()))

    @pytest.mark.parametrize("build", ["_static", "_coscheduled_epochs", "_adaptive"])
    def test_results_bitwise_equal_cache_on_off(self, mach_b, build):
        builder = getattr(self, build)
        _, with_cache = self._run(mach_b, cache=True, build=builder)
        _, without = self._run(mach_b, cache=False, build=builder)
        assert with_cache.execution_times == without.execution_times  # bitwise
        assert with_cache.sim_time == without.sim_time
        for aid, tele in with_cache.telemetry.items():
            assert tele.mean_stall_fraction == without.telemetry[aid].mean_stall_fraction
            assert tele.mean_throughput_gbps == without.telemetry[aid].mean_throughput_gbps

    def test_settled_phases_hit_cache(self, mach_b):
        sim, _ = self._run(mach_b, cache=True, build=self._coscheduled_epochs)
        # Placement never changes while both apps run, so nearly every epoch
        # after the first replays the previous solve.
        assert sim.solver_cache.hits > 0
        assert sim.solver_cache.hit_rate > 0.5

    def test_placement_change_invalidates(self, mach_b):
        sim, _ = self._run(mach_b, cache=True, build=self._adaptive)
        # AutoNUMA migrates pages over its convergence epochs: each changed
        # placement must re-solve.
        assert sim.solver_cache.misses >= 2

    def test_app_finish_invalidates(self, mach_b):
        def build(sim, mach):
            sim.add_app(Application("short", wl(work_bytes=5e9), mach, (0,),
                                    policy=UniformAll()))
            sim.add_app(Application("long", wl(work_bytes=50e9), mach, (1,),
                                    policy=UniformAll()))
            sim.add_tuner(_StepCountingTuner())

        sim, res = self._run(mach_b, cache=True, build=build)
        assert res.execution_time("short") < res.execution_time("long")
        # Departure of the short app changes the consumer set: >= 2 solves.
        assert sim.solver_cache.misses >= 2


class TestMemoryOnlyWorkerNodes:
    """Hybrid (CXL/NVM) topologies: core-less nodes in the worker set."""

    def test_coreless_first_worker_runs(self):
        from repro.topology import hybrid_dram_nvm

        mach = hybrid_dram_nvm()  # nodes 0-1 DRAM+cores, 2-3 memory-only
        sim = Simulator(mach)
        # Worker set deliberately leads with the memory-only node: the
        # counter update used to read .cores[0] of it and IndexError.
        sim.add_app(Application("a", wl(), mach, (2, 0), policy=UniformWorkers()))
        res = sim.run()
        assert res.execution_time("a") > 0
        assert sim.app("a").threads_on(2) == 0
        assert sim.app("a").threads_on(0) == mach.node(0).num_cores

    def test_all_coreless_workers_rejected(self):
        from repro.topology import hybrid_dram_nvm

        mach = hybrid_dram_nvm()
        with pytest.raises(ValueError):
            Application("a", wl(), mach, (2, 3), policy=UniformWorkers())
