"""repro.learn: features, dataset generation, model, predictor.

Pins down the subsystem's contracts: stable named feature vectors, the
profiler's characterisation cache, store-resumable dataset builds that
produce byte-identical files, deterministic training and versioned
checkpoint round-trips, and the committed checkpoint staying loadable
and schema-compatible.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.learn import (
    DEFAULT_CHECKPOINT,
    FEATURE_NAMES,
    PROFILE_FEATURE_NAMES,
    TOPOLOGY_FEATURE_NAMES,
    Dataset,
    RidgeModel,
    WarmStartPredictor,
    build_dataset,
    build_row,
    evaluate,
    feature_vector,
    holdout_evaluate,
    load_predictor,
    profile_characterisation,
    random_row_specs,
    row_fingerprint,
    suite_row_specs,
    topology_features,
    train_ridge,
    write_npz,
)
from repro.perf import CHARACTERISATION_FEATURE_NAMES, AccessProfiler, TrafficSample
from repro.store import get_default_store
from repro.topology import random_machine
from repro.workloads import streamcluster

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def live_store(tmp_path, monkeypatch):
    """An enabled process-default store rooted in tmp_path."""
    monkeypatch.setenv("BWAP_STORE", "1")
    monkeypatch.setenv("BWAP_STORE_DIR", str(tmp_path / "store"))
    return get_default_store()


class TestFeatures:
    def test_feature_names_compose(self):
        assert FEATURE_NAMES == (
            CHARACTERISATION_FEATURE_NAMES
            + PROFILE_FEATURE_NAMES
            + TOPOLOGY_FEATURE_NAMES
        )
        assert len(set(FEATURE_NAMES)) == len(FEATURE_NAMES)

    def test_characterisation_features_match_names(self, mach_b):
        char = profile_characterisation(mach_b, streamcluster(), (0,))
        vec = char.features()
        assert vec.shape == (len(CHARACTERISATION_FEATURE_NAMES),)
        assert vec.dtype == np.float64
        named = dict(zip(CHARACTERISATION_FEATURE_NAMES, vec))
        assert named["total_mbps"] == named["reads_mbps"] + named["writes_mbps"]
        assert 0.0 <= named["write_ratio"] <= 1.0
        assert 0.0 <= named["private_fraction"] <= 1.0

    def test_profiler_characterisation_is_cached(self):
        profiler = AccessProfiler("x")
        profiler.record(TrafficSample(1.0, 10.0, 2.0, 0.5))
        first = profiler.characterise()
        assert profiler.characterise() is first  # cache hit, same object
        profiler.record(TrafficSample(1.0, 20.0, 4.0, 0.5))
        second = profiler.characterise()
        assert second is not first  # new sample invalidates the cache
        assert profiler.features() is not None

    def test_topology_features_shape_and_values(self, mach_b):
        vec = topology_features(mach_b, (0, 1))
        assert vec.shape == (len(TOPOLOGY_FEATURE_NAMES),)
        named = dict(zip(TOPOLOGY_FEATURE_NAMES, vec))
        assert named["num_nodes"] == mach_b.num_nodes
        assert named["num_workers"] == 2.0
        assert named["worker_fraction"] == 2.0 / mach_b.num_nodes
        assert named["remote_asymmetry"] >= 1.0
        assert 0.0 < named["canonical_worker_mass"] <= 1.0

    def test_feature_vector_width(self, mach_b):
        vec = feature_vector(mach_b, streamcluster(), (0,))
        assert vec.shape == (len(FEATURE_NAMES),)
        assert np.isfinite(vec).all()


class TestRandomMachine:
    def test_deterministic_and_valid(self):
        a, b = random_machine(7), random_machine(7)
        assert a.name == b.name == "random-7"
        assert np.array_equal(
            a.nominal_bandwidth_matrix(), b.nominal_bandwidth_matrix()
        )
        matrix = a.nominal_bandwidth_matrix()
        diag = np.diag(matrix)
        off = matrix[~np.eye(len(diag), dtype=bool)]
        assert (off < diag.min()).all()  # diagonal dominance

    def test_seeds_vary_topology(self):
        shapes = {random_machine(s).num_nodes for s in range(12)}
        assert len(shapes) > 1

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            random_machine(0, min_nodes=1)


class TestDataset:
    def test_build_row_is_deterministic(self):
        spec = random_row_specs(1, seed=123)[0]
        assert build_row(spec) == build_row(spec)

    def test_row_fingerprint_sensitivity(self):
        spec = suite_row_specs()[0]
        assert row_fingerprint(spec) == row_fingerprint(spec)
        narrower = dataclasses.replace(spec, refine_step=0.02)
        assert row_fingerprint(narrower) != row_fingerprint(spec)

    def test_store_resume_and_byte_identical_file(self, live_store, tmp_path):
        specs = suite_row_specs()[:2] + random_row_specs(3, seed=77)
        first = build_dataset(specs)
        assert live_store.stats.misses == len(specs)
        path_a, path_b = tmp_path / "a.npz", tmp_path / "b.npz"
        first.save(path_a)

        second = build_dataset(specs)
        # Repeat build: >= 90% served from the store (here: all of it).
        assert live_store.stats.hits >= 0.9 * len(specs)
        second.save(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert np.array_equal(first.X, second.X)
        assert np.array_equal(first.y, second.y)

    def test_dataset_roundtrip(self, tmp_path):
        specs = random_row_specs(2, seed=5)
        ds = build_dataset(specs)
        assert ds.X.shape == (2, len(FEATURE_NAMES))
        assert ((ds.y >= 0.0) & (ds.y <= 1.0)).all()
        path = tmp_path / "ds.npz"
        ds.save(path)
        loaded = Dataset.load(path)
        assert np.array_equal(loaded.X, ds.X)
        assert np.array_equal(loaded.y, ds.y)
        assert loaded.feature_names == ds.feature_names
        assert loaded.rows == ds.rows

    def test_write_npz_deterministic(self, tmp_path):
        arrays = {"a": np.arange(5.0), "b": np.array(["x", "y"], dtype=np.str_)}
        p1, p2 = tmp_path / "1.npz", tmp_path / "2.npz"
        write_npz(p1, arrays)
        write_npz(p2, arrays)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.npz"
        write_npz(path, {"version": np.array([99], dtype=np.int64)})
        with pytest.raises(ValueError, match="version"):
            Dataset.load(path)


def _tiny_dataset() -> Dataset:
    return build_dataset(suite_row_specs()[:3] + random_row_specs(5, seed=11))


class TestModel:
    def test_training_is_deterministic(self):
        ds = _tiny_dataset()
        m1, m2 = train_ridge(ds), train_ridge(ds)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.mean, m2.mean)

    def test_checkpoint_roundtrip_and_determinism(self, tmp_path):
        ds = _tiny_dataset()
        model = train_ridge(ds)
        p1, p2 = tmp_path / "m1.npz", tmp_path / "m2.npz"
        model.save(p1)
        model.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = RidgeModel.load(p1)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.feature_names == model.feature_names
        assert np.array_equal(loaded.predict(ds.X), model.predict(ds.X))

    def test_predictions_clipped_and_fit_on_train(self):
        ds = _tiny_dataset()
        model = train_ridge(ds)
        pred = model.predict(ds.X)
        assert ((pred >= 0.0) & (pred <= 1.0)).all()
        metrics = evaluate(model, ds)
        assert metrics["mae"] <= 0.15  # in-sample fit on 8 rows

    def test_holdout_evaluate_validates(self):
        ds = _tiny_dataset()
        with pytest.raises(ValueError):
            holdout_evaluate(ds, test_fraction=0.0)
        metrics = holdout_evaluate(ds, test_fraction=0.25)
        assert metrics["n"] == 2.0

    def test_feature_width_mismatch_raises(self):
        ds = _tiny_dataset()
        model = train_ridge(ds)
        with pytest.raises(ValueError, match="feature width"):
            model.predict(np.zeros((1, 3)))


class TestWarmStartPredictor:
    def test_snap_floors_and_backs_off(self):
        ds = _tiny_dataset()
        model = train_ridge(ds)
        conservative = WarmStartPredictor(model, backoff_steps=1)
        assert conservative.snap(0.37) == pytest.approx(0.2)
        assert conservative.snap(0.05) == 0.0
        exact = WarmStartPredictor(model, backoff_steps=0)
        assert exact.snap(0.37) == pytest.approx(0.3)
        assert exact.snap(0.30) == pytest.approx(0.3)  # grid point stays put
        assert exact.snap(0.0) == 0.0

    def test_schema_mismatch_refused(self):
        ds = _tiny_dataset()
        model = train_ridge(ds)
        stale = dataclasses.replace(model, feature_names=("old_feature",))
        with pytest.raises(ValueError, match="schema"):
            WarmStartPredictor(stale)

    def test_predict_memoises_per_deployment(self, mach_b):
        ds = _tiny_dataset()
        predictor = WarmStartPredictor(train_ridge(ds))
        first = predictor.predict(mach_b, streamcluster(), (0,))
        assert predictor.predict(mach_b, streamcluster(), (0,)) == first
        assert len(predictor._memo) == 1
        assert 0.0 <= first <= 1.0

    def test_committed_checkpoint_loads_and_predicts(self, mach_b):
        path = REPO_ROOT / DEFAULT_CHECKPOINT
        assert path.is_file(), "committed checkpoint missing"
        predictor = load_predictor(path, backoff_steps=0)
        assert predictor.model.feature_names == FEATURE_NAMES
        value = predictor.predict(mach_b, streamcluster(), (0,))
        assert 0.0 <= value <= 1.0
        # B1W streamcluster's oracle optimum is DWP = 1.0; the committed
        # model must put its warm start well past the halfway mark.
        assert value >= 0.5
