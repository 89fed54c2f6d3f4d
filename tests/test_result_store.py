"""The content-addressed result store: fingerprints, atomicity, corruption
tolerance, schema invalidation, and the bitwise store-vs-recompute
guarantee on real experiment runs."""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.experiments.common as common
import repro.store as store_mod
from repro.experiments.common import (
    RunOutcome,
    ScenarioSpec,
    run_spec,
    run_specs,
    scenario_fingerprint,
)
from repro.faults import DEFAULT_FAULT_PLAN
from repro.store import ResultStore, canonical_bytes, fingerprint, get_default_store
from repro.topology import fully_connected, machine_a
from repro.workloads import paper_benchmarks, streamcluster


def small_spec(**overrides) -> ScenarioSpec:
    wl = dataclasses.replace(streamcluster(), work_bytes=15e9)
    defaults = dict(
        machine="A", workload=wl, num_workers=2, policy="uniform-all", seed=11
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


# --------------------------------------------------------------------- #
# Canonical fingerprinting
# --------------------------------------------------------------------- #


class TestCanonicalBytes:
    def test_type_tags_prevent_cross_type_collisions(self):
        distinct = [None, True, False, 1, 0, 1.0, "1", b"1", (1,), [1, 2], {"a": 1}]
        encodings = [canonical_bytes(v) for v in distinct]
        assert len(set(encodings)) == len(distinct)

    def test_nesting_is_unambiguous(self):
        assert canonical_bytes(((1, 2), 3)) != canonical_bytes((1, (2, 3)))
        assert canonical_bytes(("ab",)) != canonical_bytes(("a", "b"))

    def test_dict_order_is_canonical(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})

    def test_float_bits_encoded(self):
        # 0.0 == -0.0 under ==, but the simulator can observe the sign.
        assert canonical_bytes(0.0) != canonical_bytes(-0.0)
        assert canonical_bytes(float("nan")) == canonical_bytes(float("nan"))

    def test_numpy_arrays_fully_encoded(self):
        a = np.zeros(5000)
        b = np.zeros(5000)
        b[2500] = 1e-9  # invisible to repr(): both print as truncated zeros
        assert repr(a) == repr(b)
        assert canonical_bytes(a) != canonical_bytes(b)
        # dtype and shape are part of the identity, not just the bytes.
        assert canonical_bytes(np.zeros(4, dtype=np.float32)) != canonical_bytes(
            np.zeros(4, dtype=np.float64)
        )
        assert canonical_bytes(np.zeros((2, 2))) != canonical_bytes(np.zeros(4))

    def test_dataclasses_and_machines(self):
        spec_a = small_spec()
        spec_b = small_spec(seed=12)
        assert canonical_bytes(spec_a) == canonical_bytes(small_spec())
        assert canonical_bytes(spec_a) != canonical_bytes(spec_b)
        # Structural machine encoding: two independent constructions of
        # the same topology agree; a different topology does not.
        assert canonical_bytes(machine_a()) == canonical_bytes(machine_a())
        assert canonical_bytes(machine_a()) != canonical_bytes(
            fully_connected(2, cores_per_node=4, local_bw=20.0, remote_bw=10.0)
        )

    def test_machine_encoding_cached_per_instance(self, monkeypatch):
        mach = machine_a()
        uncached = canonical_bytes(mach)
        assert canonical_bytes(machine_a()) == uncached
        pair = canonical_bytes((machine_a(), machine_a()))
        # Later encodings of the same instance must not re-walk the
        # topology, and must equal the first bitwise.
        monkeypatch.setattr(type(mach), "node", lambda *_: pytest.fail("re-walked"))
        assert canonical_bytes(mach) == uncached
        assert canonical_bytes((mach, mach)) == pair
        monkeypatch.undo()
        # Structurally equal machines built separately fingerprint equal
        # whether or not either encoding is cached.
        other = machine_a()
        assert fingerprint("x", other) == fingerprint("x", mach)
        assert fingerprint("x", other) == fingerprint("x", machine_a())
        assert fingerprint("x", mach) != fingerprint(
            "x", fully_connected(2, cores_per_node=4, local_bw=20.0, remote_bw=10.0)
        )

    def test_unsupported_types_raise(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())
        with pytest.raises(TypeError):
            canonical_bytes({1, 2})

    def test_scenario_fingerprint_resolves_machine_names(self):
        by_name = scenario_fingerprint(small_spec())
        by_object = scenario_fingerprint(small_spec(machine=machine_a()))
        assert by_name == by_object
        assert by_name != scenario_fingerprint(small_spec(seed=12))
        assert by_name != scenario_fingerprint(
            small_spec(fault_plan=DEFAULT_FAULT_PLAN)
        )


# --------------------------------------------------------------------- #
# The store itself
# --------------------------------------------------------------------- #


class TestResultStore:
    def test_roundtrip_and_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        fp = fingerprint("x")
        assert store.get(fp) is None
        store.put(fp, {"value": 1.25})
        assert store.get(fp) == {"value": 1.25}
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert store.stats.puts == 1
        assert store.stats.hit_rate == pytest.approx(0.5)
        assert len(store) == 1
        assert store.clear() == 1
        assert store.get(fp) is None

    @pytest.mark.parametrize(
        "raw",
        [
            b"",  # empty file
            b"\x00\xff garbage",  # not JSON at all
            b'{"schema": 1, "fingerprint": "abc", "payload": {"a"',  # truncated
            b"[1, 2, 3]",  # JSON, wrong shape
            b'{"schema": 999, "fingerprint": "FP", "payload": {}}',  # stale schema
            b'{"schema": 1, "fingerprint": "other", "payload": {}}',  # misplaced
            b'{"schema": 1, "fingerprint": "FP", "payload": 7}',  # non-dict payload
        ],
    )
    def test_corrupt_entries_are_misses(self, tmp_path, raw):
        store = ResultStore(tmp_path)
        fp = fingerprint("corrupt-case")
        path = store.path_for(fp)
        path.parent.mkdir(parents=True)
        path.write_bytes(raw.replace(b"FP", fp.encode()))
        assert store.get(fp) is None
        assert store.stats.misses == 1
        # A recompute-and-put then heals the entry in place.
        store.put(fp, {"ok": True})
        assert store.get(fp) == {"ok": True}

    def test_concurrent_writers_never_expose_partial_entries(self, tmp_path):
        """Racing writers on one key (the --jobs scenario): atomic rename
        means a reader sees a complete entry from some writer, never a
        torn file."""
        store = ResultStore(tmp_path)
        fp = fingerprint("contended-key")
        stop = threading.Event()
        seen = []

        def writer(i):
            w = ResultStore(tmp_path)
            for round_no in range(40):
                w.put(fp, {"writer": i, "round": round_no, "pad": "x" * 4096})

        def reader():
            r = ResultStore(tmp_path)
            while not stop.is_set():
                payload = r.get(fp)
                if payload is not None:
                    seen.append(payload)
            assert r.stats.corrupt == 0

        with ThreadPoolExecutor(max_workers=6) as pool:
            readers = [pool.submit(reader) for _ in range(2)]
            writers = [pool.submit(writer, i) for i in range(4)]
            for w in writers:
                w.result()
            stop.set()
            for r in readers:
                r.result()

        assert seen, "readers never observed a committed entry"
        for payload in seen:
            assert set(payload) == {"writer", "round", "pad"}
            assert len(payload["pad"]) == 4096
        # Last writer wins: the surviving entry is one complete payload.
        final = store.get(fp)
        assert final is not None and set(final) == {"writer", "round", "pad"}

    def test_schema_version_bump_invalidates_old_entries(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        spec = small_spec()
        old_fp = scenario_fingerprint(spec)
        store.put(old_fp, {"stale": True})

        bumped = store_mod.SCHEMA_VERSION + 1
        monkeypatch.setattr(store_mod, "SCHEMA_VERSION", bumped)
        monkeypatch.setattr(common, "SCHEMA_VERSION", bumped)
        # The fingerprint moves, so the old entry is simply never keyed...
        new_fp = scenario_fingerprint(spec)
        assert new_fp != old_fp
        assert store.get(new_fp) is None
        # ...and even a direct read of the old key rejects the old layout.
        assert store.get(old_fp) is None
        assert store.stats.corrupt == 1


#: What every stored payload holds at the current ``SCHEMA_VERSION``. A
#: change to any stored field's name, type or meaning must bump the
#: version and re-pin it here, so stale entries are never replayed.
PINNED_SCHEMA_VERSION = 3
PINNED_FIELDS = {
    "RunOutcome": [
        ("exec_time_s", "float"),
        ("mean_stall", "float"),
        ("throughput_gbps", "float"),
        ("pages_moved", "int"),
        ("final_dwp", "Optional[float]"),
        ("tuner_iterations", "Optional[int]"),
        ("pages_failed", "int"),
        ("migration_rejections", "int"),
        ("migration_retries", "int"),
        ("rollbacks", "int"),
        ("degraded", "bool"),
    ],
    "FleetOutcome": [
        ("arrivals", "int"),
        ("placed", "int"),
        ("completed", "int"),
        ("pending_left", "int"),
        ("ticks", "int"),
        ("solver_calls", "int"),
        ("entries_scored", "int"),
        ("end_time", "float"),
        ("p50_slowdown", "float"),
        ("p99_slowdown", "float"),
        ("mean_slowdown", "float"),
        ("p50_wait_s", "float"),
        ("p99_wait_s", "float"),
        ("mean_util", "float"),
        ("min_util", "float"),
        ("max_util", "float"),
        ("util_by_class", "Tuple[Tuple[str, float], ...]"),
        ("requeues", "int"),
        ("stranded", "int"),
        ("admission_rejections", "int"),
        ("completions_lost", "int"),
        ("lost_work_frac", "float"),
        ("slo_violation_rate", "float"),
        ("availability", "float"),
        ("goodput", "float"),
        ("memo_hits", "int"),
    ],
    "learn_row": ["features", "label", "row"],
}


def test_schema_pins_stored_fields():
    from repro.experiments.fleet import FleetOutcome
    from repro.learn.dataset import _compute_row, random_row_specs

    assert store_mod.SCHEMA_VERSION == PINNED_SCHEMA_VERSION, (
        "re-pin PINNED_FIELDS for the new schema version"
    )
    stored = {"RunOutcome": RunOutcome, "FleetOutcome": FleetOutcome}
    for name, cls in stored.items():
        fields = [(f.name, str(f.type)) for f in dataclasses.fields(cls)]
        assert fields == PINNED_FIELDS[name], (
            f"{name} changed: bump store.SCHEMA_VERSION and re-pin"
        )
    row = _compute_row(random_row_specs(1, seed=123)[0])
    assert sorted(row) == PINNED_FIELDS["learn_row"]


# --------------------------------------------------------------------- #
# run_spec wiring: hits, bitwise equality, gating
# --------------------------------------------------------------------- #


@pytest.fixture
def live_store(tmp_path, monkeypatch):
    """An enabled process-default store rooted in tmp_path."""
    monkeypatch.setenv("BWAP_STORE", "1")
    monkeypatch.setenv("BWAP_STORE_DIR", str(tmp_path / "store"))
    return get_default_store()


class TestRunSpecStore:
    def test_store_served_outcome_is_bitwise_identical(self, live_store):
        spec = small_spec()
        cold = common._run_spec_cold(spec)
        first = run_spec(spec)
        second = run_spec(spec)
        assert live_store.stats.hits == 1 and live_store.stats.misses == 1
        for outcome in (first, second):
            assert outcome == cold
            assert outcome.to_payload() == cold.to_payload()
            assert json.dumps(outcome.to_payload(), sort_keys=True) == json.dumps(
                cold.to_payload(), sort_keys=True
            )

    def test_disabled_store_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BWAP_STORE", "0")
        monkeypatch.setenv("BWAP_STORE_DIR", str(tmp_path / "store"))
        assert get_default_store() is None
        run_spec(small_spec())
        assert not (tmp_path / "store").exists()

    def test_wrong_shape_payload_recomputed(self, live_store):
        spec = small_spec()
        fp = scenario_fingerprint(spec)
        live_store.put(fp, {"not": "an outcome"})
        outcome = run_spec(spec)
        assert outcome == common._run_spec_cold(spec)
        assert live_store.stats.corrupt == 1
        # The healed entry now serves hits.
        assert run_spec(spec) == outcome

    def test_explicit_store_argument_overrides_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BWAP_STORE", "0")
        store = ResultStore(tmp_path / "explicit")
        spec = small_spec()
        a = run_spec(spec, store=store)
        b = run_spec(spec, store=store)
        assert a == b
        assert store.stats.hits == 1 and store.stats.puts == 1

    def test_outcome_payload_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            RunOutcome.from_payload({"exec_time_s": 1.0})

    def test_parallel_workers_share_the_store(self, live_store):
        """A --jobs fan-out populates the store across processes; the
        repeat run is served entirely from disk and agrees bitwise."""
        specs = [small_spec(seed=s) for s in (1, 2, 3, 4)]
        first = run_specs(specs, jobs=2)
        # Worker processes wrote their results; this process saw none.
        assert len(live_store) == len(specs)
        second = run_specs(specs, jobs=1)
        assert live_store.stats.hits >= len(specs)
        assert first == second
        for f, s in zip(first, second):
            assert f.to_payload() == s.to_payload()

    def test_table1_suite_with_faults_bitwise(self, live_store):
        """Across the Table-I suite with fault injection, store-served
        outcomes are bitwise-identical to cold recomputes."""
        specs = [
            small_spec(
                workload=dataclasses.replace(wl, work_bytes=15e9),
                policy="bwap",
                fault_plan=dataclasses.replace(DEFAULT_FAULT_PLAN, seed=3),
            )
            for wl in paper_benchmarks()
        ]
        warm_miss = run_specs(specs)  # populates
        warm_hit = run_specs(specs)  # served from disk
        cold = [common._run_spec_cold(s) for s in specs]
        assert warm_hit == warm_miss == cold
        for w, c in zip(warm_hit, cold):
            assert w.to_payload() == c.to_payload()
        assert live_store.stats.hits == len(specs)


class TestFaultMatrixThroughStore:
    def test_repeat_run_mostly_hits_and_output_identical(
        self, tmp_path, monkeypatch
    ):
        """The acceptance scenario: a repeated quick fault-matrix is
        served >= 90% from the store and renders bitwise-identically to a
        store-off run."""
        from repro.experiments.fault_matrix import run_fault_matrix

        monkeypatch.setenv("BWAP_STORE", "0")
        reference = run_fault_matrix(quick=True).render()

        monkeypatch.setenv("BWAP_STORE", "1")
        monkeypatch.setenv("BWAP_STORE_DIR", str(tmp_path / "store"))
        store = get_default_store()
        first = run_fault_matrix(quick=True).render()
        lookups_before = store.stats.lookups
        hits_before = store.stats.hits
        second = run_fault_matrix(quick=True).render()
        lookups = store.stats.lookups - lookups_before
        hits = store.stats.hits - hits_before
        assert lookups > 0
        assert hits / lookups >= 0.90
        assert first == second == reference


class TestStorePrune:
    def _populated(self, tmp_path, n=6):
        store = ResultStore(tmp_path / "store")
        fps = [fingerprint("prune-test", i) for i in range(n)]
        for fp in fps:
            store.put(fp, {"i": fp})
        return store, fps

    def test_age_prune_evicts_only_old_entries(self, tmp_path):
        store, fps = self._populated(tmp_path)
        old = [store.path_for(fp) for fp in fps[:3]]
        for path in old:
            os.utime(path, (1.0, 1.0))  # 1970: far past any age bound
        stats = store.prune(max_age_s=3600.0)
        assert (stats.examined, stats.pruned, stats.kept) == (6, 3, 3)
        assert not any(p.exists() for p in old)
        for fp in fps[3:]:
            assert store.get(fp) == {"i": fp}

    def test_size_prune_keeps_newest_within_budget(self, tmp_path):
        store, fps = self._populated(tmp_path)
        # Stagger mtimes so "oldest first" is unambiguous.
        for i, fp in enumerate(fps):
            os.utime(store.path_for(fp), (i + 1.0, i + 1.0))
        sizes = [store.path_for(fp).stat().st_size for fp in fps]
        budget = sum(sizes[-2:])  # room for exactly the two newest
        stats = store.prune(max_bytes=budget)
        assert stats.pruned == 4 and stats.kept == 2
        assert stats.kept_bytes <= budget
        assert store.path_for(fps[-1]).exists()
        assert store.path_for(fps[-2]).exists()

    def test_dry_run_deletes_nothing(self, tmp_path):
        store, fps = self._populated(tmp_path)
        stats = store.prune(max_bytes=0, dry_run=True)
        assert stats.pruned == 6
        assert len(store) == 6
        assert "pruned 6/6" in stats.summary()

    def test_prune_requires_a_bound(self, tmp_path):
        store, _fps = self._populated(tmp_path, n=1)
        with pytest.raises(ValueError, match="max_age_s and/or max_bytes"):
            store.prune()

    def test_pruned_entries_become_clean_misses(self, tmp_path):
        """The contract the CLI documents: pruning only un-caches — the
        next run recomputes bitwise-equal results and repopulates."""
        store = ResultStore(tmp_path / "store")
        spec = small_spec()
        first = run_spec(spec, store=store)
        assert (store.stats.misses, store.stats.hits) == (1, 0)
        stats = store.prune(max_bytes=0)
        assert stats.pruned == 1 and len(store) == 0
        second = run_spec(spec, store=store)  # clean miss: recompute
        assert store.stats.misses == 2 and store.stats.corrupt == 0
        assert second == first
        assert second.to_payload() == first.to_payload()
        third = run_spec(spec, store=store)  # repopulated: hit again
        assert store.stats.hits == 1
        assert third == first

    def test_cli_store_prune_subcommand(self, tmp_path, capsys):
        from repro.experiments.cli import main

        store, _fps = self._populated(tmp_path)
        assert (
            main(["store-prune", "--max-size-mb", "0", "--dry-run",
                  "--dir", str(store.root)])
            == 0
        )
        assert len(store) == 6  # dry run
        out = capsys.readouterr().out
        assert "dry run" in out and "pruned 6/6" in out
        assert main(["store-prune", "--max-size-mb", "0",
                     "--dir", str(store.root)]) == 0
        assert len(store) == 0

    def test_cli_store_prune_requires_bound(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["store-prune"])


def test_env_gating_values(monkeypatch):
    for off in ("0", "off", "FALSE", "no", ""):
        monkeypatch.setenv("BWAP_STORE", off)
        assert get_default_store() is None
    monkeypatch.setenv("BWAP_STORE", "1")
    monkeypatch.setenv("BWAP_STORE_DIR", str(os.devnull) + "-unused-dir")
    assert get_default_store() is not None
