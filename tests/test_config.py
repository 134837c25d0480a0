import json

import pytest

from plaustraj.config import (
    RunConfig,
    config_from_dict,
    load_config,
    resolved_config_dict,
    save_resolved_config,
)
from plaustraj.errors import ConfigError


def test_defaults_construct():
    cfg = RunConfig()
    assert cfg.predictor.future_frames == 12
    assert cfg.oracle.gamma == 0.95
    assert cfg.eval.threshold == 0.7
    assert cfg.locoval.train.schedule == "cosine"


def test_partial_override():
    cfg = config_from_dict({"predictor": {"n_heads": 20, "alpha": 100.0}})
    assert cfg.predictor.n_heads == 20
    assert cfg.predictor.alpha == 100.0
    # untouched sections keep defaults
    assert cfg.data.n_tracks == 60


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"predictor": {"heads": 5}})
    assert "config.predictor" in str(exc.value)


def test_unknown_top_level_key():
    with pytest.raises(ConfigError):
        config_from_dict({"predictr": {}})


def test_emloco_form_is_an_unknown_key():
    with pytest.raises(ConfigError, match=r"^config\.predictor: unknown keys \['emloco_form'\]$"):
        config_from_dict({"predictor": {"emloco_form": "squared"}})


def test_nested_validation_propagates():
    with pytest.raises(ConfigError):
        config_from_dict({"locoval": {"train": {"learning_rate": -1.0}}})


def test_load_config_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(p)


def test_load_config_normalizes_ranges(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"data": {"synthetic": {"speed_range": [0.5, 1.5]}}}))
    cfg = load_config(p)
    assert cfg.data.synthetic.speed_range == (0.5, 1.5)


def test_resolved_config_roundtrip(tmp_path):
    cfg = config_from_dict({"predictor": {"alpha": 42.0}})
    path = tmp_path / "resolved.json"
    save_resolved_config(cfg, path)
    doc = json.loads(path.read_text())
    # the echoed document must reload to the same config
    reloaded = config_from_dict(doc)
    assert resolved_config_dict(reloaded) == resolved_config_dict(cfg)
    assert doc["predictor"]["alpha"] == 42.0


def test_resolved_config_contains_every_section():
    doc = resolved_config_dict(RunConfig())
    assert set(doc) == {"oracle", "data", "plausibility", "locoval", "predictor", "eval"}


@pytest.mark.parametrize(
    "field, value",
    [
        ("learning_rate", float("inf")),
        ("learning_rate", float("nan")),
        ("min_lr", float("inf")),
        ("min_lr", float("nan")),
        ("beta1", 1.0),
        ("beta1", -0.1),
        ("beta2", 1.0),
        ("beta2", float("nan")),
        ("eps", 0.0),
        ("eps", -1e-8),
        ("eps", float("inf")),
    ],
)
@pytest.mark.parametrize("section", ["locoval", "predictor"])
def test_optimizer_settings_that_can_only_diverge_rejected(section, field, value):
    with pytest.raises(ConfigError, match=rf"^config\.{section}\.train\.{field} must be"):
        config_from_dict({section: {"train": {field: value}}})


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("predictor", "stride", 0),
        ("predictor", "stride", -1),
        ("predictor", "future_frames", 1),
        ("locoval", "holdout_fraction", 1.0),
        ("locoval", "holdout_fraction", 1.5),
        ("locoval", "holdout_fraction", -0.1),
        ("locoval", "hidden", [128, 0]),
        ("predictor", "trunk_hidden", [0]),
        ("predictor", "trunk_hidden", [2.5]),
        ("predictor", "trunk_hidden", "256"),
        ("predictor", "alpha", -1.0),
        ("predictor", "alpha", float("nan")),
        ("predictor", "alpha", float("inf")),
        ("predictor", "stride", "x"),
        ("predictor", "window_seed", None),
        ("data", "n_tracks", 2.5),
        ("data", "seed", True),
        ("locoval", "include_pose", 1),
        ("eval", "threshold", 1.5),
        ("eval", "threshold", float("nan")),
        ("eval", "lambdas", []),
        ("eval", "lambdas", ["x"]),
        ("eval", "lambdas", [0.5, True]),
        ("eval", "lambdas", [-0.1]),
        ("eval", "chi2_bins", 1),
        ("eval", "chi2_bins", 2.5),
        ("eval", "score_bins", 0),
    ],
)
def test_bad_section_fields_rejected(section, field, value):
    with pytest.raises(ConfigError, match=rf"^config\.{section}\.{field} (widths )?must be"):
        config_from_dict({section: {field: value}})


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_plausible", "abc"),
        ("n_plausible", 2.5),
        ("n_plausible", -1),
        ("n_implausible", True),
        ("n_implausible", None),
        ("seed", "s"),
        ("seed", -1),
        ("seed", False),
    ],
)
def test_bad_plausibility_fields_rejected(field, value):
    with pytest.raises(ConfigError, match=rf"^config\.plausibility\.{field} must be"):
        config_from_dict({"plausibility": {field: value}})


@pytest.mark.parametrize(
    "field, value",
    [
        ("speed_range", [2.0]),
        ("speed_range", [2.0, 1.0]),
        ("speed_range", [1.0, 2.0, 3.0]),
        ("accel_range", [0.2, "x"]),
        ("accel_range", [True, 0.5]),
        ("turn_rate_range", [0.3, float("inf")]),
        ("turn_rate_range", [float("nan"), 0.9]),
        ("dt", 0.0),
        ("dt", float("nan")),
        ("noise_sigma", -1),
        ("noise_sigma", float("nan")),
        ("min_reward", 1.5),
        ("min_reward", -0.1),
        ("min_reward", float("nan")),
        ("max_retries", 0),
        ("max_retries", 2.0),
        ("max_retries", True),
    ],
)
def test_bad_synthetic_fields_rejected(field, value):
    with pytest.raises(ConfigError, match=rf"^config\.data\.synthetic\.{field} must be"):
        config_from_dict({"data": {"synthetic": {field: value}}})


@pytest.mark.parametrize(
    "field", ["v_max", "a_max", "turn_rate_max", "gamma", "w_follow", "w_energy", "follow_scale"]
)
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_oracle_params_rejected(field, value):
    with pytest.raises(ConfigError, match=rf"^config\.oracle\.{field} must be finite"):
        config_from_dict({"oracle": {field: value}})


@pytest.mark.parametrize(
    "override, message",
    [
        ({"w_energy": "x"}, "config.oracle.w_energy must be a real number, got 'x'"),
        ({"gamma": None}, "config.oracle.gamma must be a real number, got None"),
        ({"a_max": True}, "config.oracle.a_max must be a real number, got True"),
        ({"v_max": -1}, "config.oracle.v_max must be positive, got -1"),
        ({"turn_rate_max": 0.0}, "config.oracle.turn_rate_max must be positive, got 0.0"),
        ({"follow_scale": -0.5}, "config.oracle.follow_scale must be positive, got -0.5"),
        ({"gamma": 1.5}, "config.oracle.gamma must be in (0, 1], got 1.5"),
        ({"w_follow": -1.0}, "config.oracle.w_follow must be non-negative, got -1.0"),
        ({"w_follow": 0.0, "w_energy": 0.0},
         "config.oracle.w_follow and w_energy must not both be zero"),
    ],
)
def test_bad_oracle_params_name_the_field(override, message):
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"oracle": override})
    assert str(exc.value) == message


def test_section_path_is_prefixed_once():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"data": {"synthetic": {"speed_range": [2, 1]}}})
    assert str(exc.value).startswith("config.data.synthetic.speed_range must be")
    assert str(exc.value).count("config.") == 1
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"predictor": {"train": {"schedule": "linear"}}})
    assert str(exc.value) == ("config.predictor.train.schedule must be constant or cosine, "
                              "got 'linear'")


def test_edge_values_accepted():
    cfg = config_from_dict({
        "locoval": {"holdout_fraction": 0.0, "hidden": [1],
                    "train": {"beta1": 0.0, "beta2": 0.0, "min_lr": -1.0}},
        "predictor": {"stride": 1, "future_frames": 2, "trunk_hidden": [1], "alpha": 0},
        "eval": {"threshold": 1, "lambdas": [0, 1.0], "chi2_bins": 2, "score_bins": 1},
        "plausibility": {"n_plausible": 0, "n_implausible": 0, "seed": 0},
        "data": {"synthetic": {"speed_range": [1, 1], "noise_sigma": 0, "min_reward": 1,
                               "max_retries": 1}},
    })
    assert cfg.predictor.future_frames == 2 and cfg.locoval.train.beta1 == 0.0
    assert cfg.plausibility.n_plausible == 0 and cfg.data.synthetic.speed_range == (1, 1)
    assert config_from_dict({"data": {"synthetic": {"min_reward": 0.0}}})
