"""Tests for configuration loading and validation."""
import json

import pytest

from eden.config import ConfigError, EngineConfig
from eden.store import InputError, read_json


class TestValidation:
    def test_defaults_are_valid(self):
        EngineConfig().validate()

    def test_all_violations_reported_at_once(self):
        cfg = EngineConfig(dim_xy=0, min_e=-1.0, dr=0.7, payload_decay=2.0)
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        assert len(exc.value.violations) >= 4

    def test_dr_upper_bound_exclusive(self):
        with pytest.raises(ConfigError):
            EngineConfig(dr=0.5).validate()
        EngineConfig(dr=0.499).validate()

    def test_dendrites_must_fit_entry_plane(self):
        with pytest.raises(ConfigError, match="entry-plane"):
            EngineConfig(dim_xy=2, initial_dendrites=5).validate()

    def test_bounds_ordering(self):
        with pytest.raises(ConfigError, match="bounds"):
            EngineConfig(bounds_min=(0, 0, 5), bounds_max=(10, 10, 5)).validate()


class TestLoading:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            EngineConfig.from_dict({"dim_xyz": 4})

    def test_roundtrip(self):
        cfg = EngineConfig(dim_xy=6, seed=99, bounds_max=(20.0, 20.0, 20.0))
        again = EngineConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dim_xy": 5, "dim_z": 6, "seed": 3}))
        cfg = EngineConfig.from_dict(read_json(str(path), InputError))
        assert (cfg.dim_xy, cfg.dim_z, cfg.seed) == (5, 6, 3)

    def test_bad_bounds_shape(self):
        with pytest.raises(ConfigError):
            EngineConfig.from_dict({"bounds_min": [0, 0]})

    @pytest.mark.parametrize("data", [
        {"dim_xy": "4"}, {"dim_xy": 4.5}, {"seed": 1e999},
        {"min_e": 1e999}, {"at_mod": 1e999},
        {"bounds_max": [10, 10, 1e999]}, {"bounds_max": [10, 10, "ten"]},
        {"bounds_max": [10, 10, None]}, [],
    ])
    def test_values_a_run_could_not_use_or_save(self, data):
        with pytest.raises(ConfigError):
            EngineConfig.from_dict(data)
