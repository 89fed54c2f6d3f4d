"""Benchmarks for the paper's Section VI future-work extensions.

These are *beyond* the paper's evaluation: per-page-class split placement,
dynamic re-tuning across phases, and hybrid DRAM/NVM machines — each
implemented per the conclusion's roadmap and measured against baseline
BWAP / uniform interleaving.
"""

import dataclasses


from repro.core import (
    AdaptiveBWAP,
    BWAPConfig,
    CanonicalTuner,
    bwap_init,
    split_bwap_init,
)
from repro.core.dwp import DWPTuner
from repro.engine import Application, PhasedApplication, Simulator, pick_worker_nodes
from repro.memsim import UniformAll, UniformWorkers
from repro.perf.counters import MeasurementConfig
from repro.topology import hybrid_dram_nvm, machine_a, machine_b
from repro.workloads import (
    canonical_stream,
    ft_c,
    ocean_cp,
    ocean_ncp,
    streamcluster,
    two_phase,
)

QUICK = MeasurementConfig(n=8, c=2, t=0.1)


class BenchSplitPlacement:
    """Per-page-class placement on the private-heavy benchmarks."""

    def test_split_vs_baseline_bwap(self, benchmark, once, capsys):
        machine = machine_a()
        ct = CanonicalTuner(machine)
        workers = pick_worker_nodes(machine, 2)

        def run():
            rows = {}
            for wl in (ocean_cp(), ocean_ncp(), ft_c()):
                sim = Simulator(machine)
                app = sim.add_app(Application("a", wl, machine, workers, policy=None))
                bwap_init(
                    sim, app, canonical_tuner=ct,
                    config=BWAPConfig(measurement=QUICK, warmup_s=0.2),
                )
                t_base = sim.run().execution_time("a")

                sim = Simulator(machine)
                app = sim.add_app(Application("a", wl, machine, workers, policy=None))
                split_bwap_init(sim, app, ct, config=QUICK, warmup_s=0.2)
                t_split = sim.run().execution_time("a")
                rows[wl.name] = (t_base, t_split, t_base / t_split)
            return rows

        rows = once(benchmark, run)
        with capsys.disabled():
            print()
            print(f"{'bench':>6} {'bwap':>8} {'bwap-split':>11} {'speedup':>8}")
            for name, (tb, ts, sp) in rows.items():
                print(f"{name:>6} {tb:>7.1f}s {ts:>10.1f}s {sp:>7.2f}x")
        # Split placement must be competitive on every private-heavy app.
        for name, (_tb, _ts, sp) in rows.items():
            assert sp > 0.9, name


class BenchAdaptiveRetuning:
    """Dynamic re-tuning on a two-phase application."""

    def test_adaptive_vs_oneshot(self, benchmark, once, capsys):
        machine = machine_b()
        ct = CanonicalTuner(machine)
        sc = dataclasses.replace(streamcluster(), work_bytes=700e9)
        oc = dataclasses.replace(ocean_cp(), work_bytes=700e9)

        def run():
            pw = two_phase("sc-then-oc", sc, oc, split=0.5)
            sim = Simulator(machine)
            app = sim.add_app(PhasedApplication("p", pw, machine, (0,), policy=None))
            sim.add_tuner(
                DWPTuner(app, ct.weights((0,)), mode="kernel",
                         config=QUICK, warmup_s=0.2)
            )
            t_oneshot = sim.run().execution_time("p")

            sim = Simulator(machine)
            app = sim.add_app(PhasedApplication("p", pw, machine, (0,), policy=None))
            tuner = sim.add_tuner(
                AdaptiveBWAP(app, ct.weights((0,)),
                             measurement=QUICK, warmup_s=0.2)
            )
            t_adaptive = sim.run().execution_time("p")
            return t_oneshot, t_adaptive, tuner.retunes

        t_oneshot, t_adaptive, retunes = once(benchmark, run)
        with capsys.disabled():
            print()
            print(f"one-shot {t_oneshot:.1f}s vs adaptive {t_adaptive:.1f}s "
                  f"({t_oneshot / t_adaptive:.2f}x, {retunes} re-tune(s))")
        assert retunes >= 1
        assert t_adaptive < t_oneshot * 1.02


class BenchHybridMemory:
    """BWAP on a DRAM + NVM machine."""

    def test_hybrid_placement(self, benchmark, once, capsys):
        machine = hybrid_dram_nvm()
        ct = CanonicalTuner(machine)
        workers = pick_worker_nodes(machine, 2)
        wl = canonical_stream()

        def run():
            out = {}
            for name, policy in (
                ("uniform-workers", UniformWorkers()),
                ("uniform-all", UniformAll()),
            ):
                sim = Simulator(machine)
                sim.add_app(Application("a", wl, machine, workers, policy=policy))
                out[name] = sim.run().execution_time("a")
            sim = Simulator(machine)
            app = sim.add_app(Application("a", wl, machine, workers, policy=None))
            bwap_init(sim, app, canonical_tuner=ct,
                      config=BWAPConfig(measurement=QUICK, warmup_s=0.2))
            out["bwap"] = sim.run().execution_time("a")
            return out

        out = once(benchmark, run)
        with capsys.disabled():
            print()
            for name, t in out.items():
                print(f"{name:>16}: {t:.1f}s")
        # Uniform-all over-commits the slow NVM and loses even to
        # DRAM-only; BWAP's proportional placement wins outright.
        assert out["uniform-all"] > out["uniform-workers"]
        assert out["bwap"] < out["uniform-workers"]
        assert out["bwap"] < out["uniform-all"]
