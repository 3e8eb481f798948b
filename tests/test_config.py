"""Tests for strict config validation and loading."""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from avfusion.config import (
    DEFAULT_CONFIG,
    ConfigError,
    load_config,
    validate_config,
)


class TestValidateConfig:
    def test_empty_doc_fills_defaults(self):
        cfg = validate_config({})
        assert cfg["world"]["vocab_size"] == DEFAULT_CONFIG["world"]["vocab_size"]
        assert cfg["snr_grid"] == DEFAULT_CONFIG["snr_grid"]
        assert cfg["training"]["lr0"] == DEFAULT_CONFIG["training"]["lr0"]

    def test_partial_override_keeps_rest(self):
        cfg = validate_config({"world": {"vocab_size": 5}})
        assert cfg["world"]["vocab_size"] == 5
        assert cfg["world"]["states_per_word"] == \
            DEFAULT_CONFIG["world"]["states_per_word"]

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="unknown config key: bogus"):
            validate_config({"bogus": 1})

    def test_unknown_nested_key_has_path(self):
        with pytest.raises(ConfigError, match="world.nonsense"):
            validate_config({"world": {"nonsense": 1}})

    def test_wrong_type_reports_path(self):
        with pytest.raises(ConfigError, match="world.vocab_size"):
            validate_config({"world": {"vocab_size": "four"}})

    def test_non_object_root(self):
        with pytest.raises(ConfigError, match="root"):
            validate_config([1, 2])

    def test_unknown_strategy_listed(self):
        with pytest.raises(ConfigError, match="strategies\\[0\\]"):
            validate_config({"strategies": ["majority-vote"]})

    def test_unknown_noise_kind(self):
        with pytest.raises(ConfigError, match="noise_kinds"):
            validate_config({"noise_kinds": ["pink"]})

    def test_corpus_word_bounds(self):
        with pytest.raises(ConfigError, match="min_words"):
            validate_config({"corpus": {"min_words": 5, "max_words": 2}})

    def test_dfn_width_count(self):
        with pytest.raises(ConfigError, match="widths"):
            validate_config({"dfn": {"widths": [64, 32]}})

    def test_dropout_range(self):
        with pytest.raises(ConfigError, match="dropout"):
            validate_config({"dfn": {"dropout": 1.5}})

    def test_training_rates(self):
        with pytest.raises(ConfigError, match="lr0"):
            validate_config({"training": {"lr0": -1.0}})

    def test_world_constraint_wrapped(self):
        with pytest.raises(ConfigError, match="world"):
            validate_config({"world": {"vocab_size": 1}})

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            validate_config({"seeds": []})


# any JSON value, NaN and infinities included (json.loads accepts them)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
# values near a config's own: small numbers and edge cases weigh as much as
# arbitrary JSON
_value = st.one_of(_json, st.integers(-3, 3), st.floats(-2.0, 2.0),
                   st.sampled_from([0, 1, -1, 0.0, 1.0, float("nan"),
                                    float("inf"), [], {}, "", True]))


def _paths(node, path=()):
    """The path of every node of a config document, the root's first."""
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


_DEFAULT_PATHS = list(_paths(DEFAULT_CONFIG))


def _mutated_default(data) -> dict:
    """DEFAULT_CONFIG with one to three nodes, at any depth, each replaced
    by a random value, deleted, or given an unknown key."""
    doc = copy.deepcopy(DEFAULT_CONFIG)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(_DEFAULT_PATHS), label="path")
        try:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            node = parent[path[-1]] if path else doc
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced the node
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add" and isinstance(node, dict):
            node[data.draw(st.text(max_size=8), label="new key")] = \
                data.draw(_value, label="new value")
        elif action == "delete" and path:
            del parent[path[-1]]
        elif path:
            parent[path[-1]] = data.draw(_value, label="value")
        else:
            doc = data.draw(_value, label="root")
    return doc


class TestValidateConfigFuzz:
    """validate_config returns a config or raises ConfigError, never
    anything else."""

    @staticmethod
    def _validate(doc):
        try:
            validate_config(doc)
        except ConfigError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(_json)
    def test_random_documents(self, doc):
        self._validate(doc)

    @settings(max_examples=1000, deadline=None)
    @given(st.data())
    def test_mutated_default_config(self, data):
        self._validate(_mutated_default(data))


class TestLoadConfig:
    def test_bundled_configs_valid(self):
        for name in ("configs/smoke.json", "configs/trend.json"):
            cfg = load_config(name)
            assert set(cfg) == set(DEFAULT_CONFIG)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(p))

    def test_round_trip_stability(self, tmp_path):
        cfg = validate_config({})
        p = tmp_path / "full.json"
        p.write_text(json.dumps(cfg))
        assert load_config(str(p)) == cfg
