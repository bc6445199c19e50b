"""ExperimentSpec, ParameterGrid and canonical fingerprints."""

import math

import pytest

from repro.experiments import (
    ExperimentSpec,
    ParameterGrid,
    canonical_json,
    fingerprint_of,
)


class TestCanonicalJson:
    def test_sorts_keys_and_compacts(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_tuples_become_lists(self):
        assert canonical_json({"kinds": ("x", "y")}) == '{"kinds":["x","y"]}'

    def test_non_finite_floats_are_spelled_out(self):
        text = canonical_json({"a": math.inf, "b": -math.inf, "c": math.nan})
        assert text == '{"a":"Infinity","b":"-Infinity","c":"NaN"}'

    def test_nested_structures_are_sanitized(self):
        text = canonical_json({"outer": {"period": math.inf, "values": [1.5]}})
        assert '"period":"Infinity"' in text

    def test_fingerprint_is_sha256_hex(self):
        digest = fingerprint_of({"x": 1})
        assert len(digest) == 64
        assert fingerprint_of({"x": 1}) == digest
        assert fingerprint_of({"x": 2}) != digest


class TestExperimentSpec:
    def test_name_is_not_part_of_the_fingerprint(self):
        a = ExperimentSpec(name="one", kind="k", params={"x": 1}, seed=3)
        b = ExperimentSpec(name="two", kind="k", params={"x": 1}, seed=3)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_changes_with_kind_params_and_seed(self):
        base = ExperimentSpec(name="t", kind="k", params={"x": 1}, seed=3)
        variants = [
            ExperimentSpec(name="t", kind="k", params={"x": 2}, seed=3),
            ExperimentSpec(name="t", kind="other", params={"x": 1}, seed=3),
            ExperimentSpec(name="t", kind="k", params={"x": 1}, seed=4),
        ]
        for variant in variants:
            assert variant.fingerprint() != base.fingerprint()

    def test_timeout_and_retries_are_not_identity(self):
        a = ExperimentSpec(name="t", kind="k", params={}, timeout=5.0, retries=2)
        b = ExperimentSpec(name="t", kind="k", params={})
        assert a.fingerprint() == b.fingerprint()

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="t", kind="k", retries=-1)
        with pytest.raises(ValueError):
            ExperimentSpec(name="t", kind="k", timeout=0.0)

    @pytest.mark.parametrize("timeout", [math.nan, math.inf])
    def test_non_finite_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            ExperimentSpec(name="t", kind="k", timeout=timeout)


class TestParameterGrid:
    def test_len_and_points(self):
        grid = ParameterGrid({"a": [1, 2], "b": ["x", "y", "z"]})
        assert len(grid) == 6
        points = grid.points()
        assert points[0] == {"a": 1, "b": "x"}
        assert points[-1] == {"a": 2, "b": "z"}

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid({"a": []})

    def test_expand_layers_params_and_names(self):
        base = ExperimentSpec(name="bench", kind="k", params={"c": 0}, seed=7)
        specs = ParameterGrid({"a": [1, 2]}).expand(base)
        assert [spec.name for spec in specs] == ["bench/a=1", "bench/a=2"]
        assert all(spec.params["c"] == 0 for spec in specs)
        assert specs[0].params["a"] == 1

    def test_expand_derives_distinct_deterministic_seeds(self):
        base = ExperimentSpec(name="bench", kind="k", seed=7)
        first = ParameterGrid({"a": [1, 2]}).expand(base)
        second = ParameterGrid({"a": [1, 2]}).expand(base)
        assert [spec.seed for spec in first] == [spec.seed for spec in second]
        assert first[0].seed != first[1].seed

    def test_point_seed_survives_axis_reordering(self):
        base = ExperimentSpec(name="bench", kind="k", seed=7)
        ab = ParameterGrid({"a": [1], "b": [2]}).expand(base)[0]
        ba = ParameterGrid({"b": [2], "a": [1]}).expand(base)[0]
        assert ab.seed == ba.seed
        assert ab.fingerprint() == ba.fingerprint()
