"""Table II — DWP values found by the iterative search (co-scheduled)."""

from repro.experiments.table2 import SCENARIOS, run_table2


class BenchTable2:
    def test_table2(self, benchmark, once, capsys):
        result = once(benchmark, run_table2)
        with capsys.disabled():
            print()
            print(result.render())

        measured = result.measured
        # Every scenario produced a valid DWP.
        for bench, by_scen in measured.items():
            for scen, dwp in by_scen.items():
                assert 0.0 <= dwp <= 100.0, (bench, scen)

        # Qualitative agreements with the paper's Table II:
        # 1. Streamcluster on machine B wants its pages on the workers
        #    (paper: 100% for 1W).
        assert measured["SC"][("B", 1)] >= 70.0

        # 2. Ocean (the most bandwidth-hungry benchmark) keeps a low DWP —
        #    it needs the non-worker bandwidth (paper: 0-14%).
        for scen in SCENARIOS:
            assert measured["OC"][scen] <= 50.0, scen

        # 3. SC is the most latency-leaning benchmark: its DWP on machine B
        #    dominates the bandwidth-hungry apps'.
        assert measured["SC"][("B", 1)] > measured["OC"][("B", 1)]
        assert measured["SC"][("B", 1)] > measured["ON"][("B", 1)]
