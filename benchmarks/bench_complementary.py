"""Complementary mechanisms: replication (paper §V) and huge pages (§IV).

The paper positions Carrefour's read-only replication as *orthogonal* to
BWAP and defers huge-page integration as future work. These benchmarks
measure both on the simulated substrate: where replication wins, where
bandwidth-aware interleaving wins, and what 2 MiB pages do to BWAP's
placement accuracy and migration costs.
"""

import dataclasses


from repro.core import BWAPConfig, CanonicalTuner, bwap_init
from repro.engine import Application, Simulator, pick_worker_nodes
from repro.memsim import ReplicatedShared, UniformAll
from repro.perf.counters import MeasurementConfig
from repro.topology import machine_a
from repro.units import MiB, PAGE_SIZE
from repro.workloads import streamcluster
from repro.workloads.base import WorkloadSpec

QUICK = MeasurementConfig(n=8, c=2, t=0.1)


def read_only(latency_weight, read_bw, work=250e9):
    return WorkloadSpec(
        name="ro",
        read_bw_node=read_bw,
        write_bw_node=0.1,
        private_fraction=0.1,
        latency_weight=latency_weight,
        shared_bytes=128 * MiB,
        private_bytes_per_thread=8 * MiB,
        work_bytes=work,
    )


class BenchReplication:
    """Replication vs bandwidth-aware interleaving: two regimes."""

    def test_replication_regimes(self, benchmark, once, capsys):
        machine = machine_a()
        ct = CanonicalTuner(machine)
        workers = pick_worker_nodes(machine, 2)

        def run(wl, policy, use_bwap=False):
            sim = Simulator(machine)
            app = sim.add_app(
                Application("a", wl, machine, workers,
                            policy=None if use_bwap else policy)
            )
            if use_bwap:
                bwap_init(sim, app, canonical_tuner=ct,
                          config=BWAPConfig(measurement=QUICK, warmup_s=0.2))
            return sim.run().execution_time("a")

        def experiment():
            lat_wl = read_only(latency_weight=0.5, read_bw=6.0)
            bw_wl = read_only(latency_weight=0.05, read_bw=22.0)
            return {
                "latency-bound": {
                    "replication": run(lat_wl, ReplicatedShared()),
                    "uniform-all": run(lat_wl, UniformAll()),
                    "bwap": run(lat_wl, None, use_bwap=True),
                },
                "bandwidth-bound": {
                    "replication": run(bw_wl, ReplicatedShared()),
                    "uniform-all": run(bw_wl, UniformAll()),
                    "bwap": run(bw_wl, None, use_bwap=True),
                },
            }

        out = once(benchmark, experiment)
        with capsys.disabled():
            print()
            for regime, res in out.items():
                series = ", ".join(f"{k}={v:.1f}s" for k, v in res.items())
                print(f"{regime:>16}: {series}")

        # Latency-bound read-only data: replication dominates (all local).
        lat = out["latency-bound"]
        assert lat["replication"] < lat["uniform-all"]
        # Bandwidth-bound: confinement to worker controllers loses; the
        # bandwidth-aware placements win — the complementarity the paper
        # argues for in Section V.
        bw = out["bandwidth-bound"]
        assert bw["bwap"] < bw["replication"]
        assert bw["uniform-all"] < bw["replication"]


class BenchHugePages:
    """BWAP at 4 KB vs 2 MiB pages."""

    def test_page_size_effects(self, benchmark, once, capsys):
        machine = machine_a()
        ct = CanonicalTuner(machine)
        workers = pick_worker_nodes(machine, 2)
        wl = dataclasses.replace(streamcluster(), work_bytes=250e9)

        def run(page_size):
            sim = Simulator(machine)
            app = sim.add_app(
                Application("a", wl, machine, workers, policy=None,
                            page_size=page_size)
            )
            bwap_init(sim, app, canonical_tuner=ct,
                      config=BWAPConfig(measurement=QUICK, warmup_s=0.2))
            res = sim.run()
            return (
                res.execution_time("a"),
                res.migration["a"].pages_moved,
                res.migration["a"].time_spent_s,
            )

        def experiment():
            return {PAGE_SIZE: run(PAGE_SIZE), 2 * MiB: run(2 * MiB)}

        out = once(benchmark, experiment)
        with capsys.disabled():
            print()
            for ps, (t, pages, mig_s) in out.items():
                label = "4K" if ps == PAGE_SIZE else "2M"
                print(f"{label}: exec {t:.1f}s, migrated {pages} pages "
                      f"({mig_s * 1000:.1f} ms of migration stall)")

        t4, pages4, _ = out[PAGE_SIZE]
        t2, pages2, _ = out[2 * MiB]
        # Huge pages migrate ~512x fewer pages...
        assert pages2 < pages4 / 100 or pages4 == 0
        # ...and end-to-end performance stays in the same ballpark (the
        # simulator does not model the TLB-reach upside, only placement
        # granularity and migration costs).
        assert t2 < t4 * 1.25
