"""The numactl front end, including the paper's --weighted-interleave."""

import pytest

from repro.engine import Application, Simulator
from repro.memsim import FirstTouch, UniformAll, WeightedInterleave
from repro.oslib import NumactlError, parse_nodes, parse_numactl
from repro.units import MiB
from repro.workloads.base import WorkloadSpec


def wl():
    return WorkloadSpec(
        name="t",
        read_bw_node=8.0,
        write_bw_node=1.0,
        private_fraction=0.0,
        latency_weight=0.1,
        shared_bytes=16 * MiB,
        private_bytes_per_thread=0,
        work_bytes=40e9,
    )


class TestParseNodes:
    def test_single(self, mach_b):
        assert parse_nodes("2", mach_b) == (2,)

    def test_list(self, mach_b):
        assert parse_nodes("0,2", mach_b) == (0, 2)

    def test_range(self, mach_b):
        assert parse_nodes("0-2", mach_b) == (0, 1, 2)

    def test_mixed(self, mach_a):
        assert parse_nodes("0-1,4,6-7", mach_a) == (0, 1, 4, 6, 7)

    def test_all(self, mach_b):
        assert parse_nodes("all", mach_b) == (0, 1, 2, 3)

    @pytest.mark.parametrize("bad", ["", "x", "3-1", "0,0", "9"])
    def test_rejects_malformed(self, bad, mach_b):
        with pytest.raises(NumactlError):
            parse_nodes(bad, mach_b)


class TestParseNumactl:
    def test_interleave_all(self, mach_b):
        inv = parse_numactl(mach_b, ["--interleave=all"])
        assert isinstance(inv.policy, UniformAll)

    def test_interleave_subset_places_only_there(self, mach_b):
        inv = parse_numactl(mach_b, ["--interleave=0,1"])
        app = Application("a", wl(), mach_b, (0,), policy=inv.policy)
        hist = app.space.node_histogram()
        assert hist[2] == 0 and hist[3] == 0

    def test_weighted_interleave_extension(self, mach_b):
        inv = parse_numactl(mach_b, ["--weighted-interleave=0.4,0.3,0.2,0.1"])
        assert isinstance(inv.policy, WeightedInterleave)
        app = Application("a", wl(), mach_b, (0,), policy=inv.policy)
        assert app.space.placement_distribution() == pytest.approx(
            [0.4, 0.3, 0.2, 0.1], abs=0.02
        )

    def test_membind(self, mach_b):
        inv = parse_numactl(mach_b, ["--membind=3"])
        app = Application("a", wl(), mach_b, (0,), policy=inv.policy)
        assert app.space.placement_distribution()[3] == pytest.approx(1.0)

    def test_preferred_single_node_only(self, mach_b):
        with pytest.raises(NumactlError):
            parse_numactl(mach_b, ["--preferred=0,1"])

    def test_localalloc(self, mach_b):
        inv = parse_numactl(mach_b, ["--localalloc"])
        assert isinstance(inv.policy, FirstTouch)

    def test_cpunodebind(self, mach_b):
        inv = parse_numactl(mach_b, ["--cpunodebind=1,2"])
        assert inv.cpu_nodes == (1, 2)
        assert inv.policy is None

    def test_hardware_report(self, mach_a):
        inv = parse_numactl(mach_a, ["--hardware"])
        assert "machine-A" in inv.hardware_report

    def test_conflicting_policies_rejected(self, mach_b):
        with pytest.raises(NumactlError):
            parse_numactl(mach_b, ["--interleave=all", "--membind=0"])

    def test_unknown_flag_rejected(self, mach_b):
        with pytest.raises(NumactlError):
            parse_numactl(mach_b, ["--bogus"])

    def test_weight_count_must_match(self, mach_b):
        with pytest.raises(NumactlError):
            parse_numactl(mach_b, ["--weighted-interleave=1,2"])

    def test_end_to_end_deployment(self, mach_b):
        inv = parse_numactl(
            mach_b, ["--weighted-interleave=0.5,0.5,0,0", "--cpunodebind=0,1"]
        )
        sim = Simulator(mach_b)
        sim.add_app(
            Application("a", wl(), mach_b, inv.cpu_nodes, policy=inv.policy)
        )
        assert sim.run().execution_time("a") > 0
