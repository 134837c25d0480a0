import dataclasses
import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from plaustraj.config import (
    DataSection,
    EvalSection,
    LocoValSection,
    PlausibilitySection,
    PredictorSection,
    RunConfig,
    config_from_dict,
    load_config,
    override,
    resolved_config_dict,
    save_resolved_config,
)
from plaustraj.datakit import SCENARIOS, SyntheticConfig
from plaustraj.errors import ConfigError
from plaustraj.gradcore import TrainConfig
from plaustraj.oracle import OracleParams


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


def test_partial_nested_section_keeps_the_section_defaults():
    """A train section that gives some fields keeps the other defaults of its
    section (lr 1e-4, batch 32, seed 5 for the predictor; cosine and seed 3
    for the scorer), not TrainConfig's class defaults."""
    cfg = config_from_dict({"predictor": {"train": {"total_steps": 60}},
                            "locoval": {"train": {"batch_size": 16}}})
    assert cfg.predictor.train == dataclasses.replace(PredictorSection().train, total_steps=60)
    assert cfg.locoval.train == dataclasses.replace(LocoValSection().train, batch_size=16)


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


# every setting of a run, as the dotted path of its leaf in the config
# document: a setting added or removed shows here
CONFIG_LEAVES = [
    "oracle.v_max", "oracle.a_max", "oracle.turn_rate_max", "oracle.gamma", "oracle.w_follow",
    "oracle.w_energy", "oracle.follow_scale",
    "data.n_tracks", "data.n_eval_tracks", "data.pose_bank_size", "data.seed", "data.eval_seed",
    "data.synthetic.n_frames", "data.synthetic.dt", "data.synthetic.noise_sigma",
    "data.synthetic.speed_range", "data.synthetic.accel_range",
    "data.synthetic.turn_rate_range", "data.synthetic.scenario_weights",
    "plausibility.n_plausible", "plausibility.n_implausible", "plausibility.seed",
    "locoval.hidden", "locoval.include_pose", "locoval.holdout_fraction",
    "locoval.train.learning_rate", "locoval.train.total_steps", "locoval.train.batch_size",
    "locoval.train.seed", "locoval.train.schedule",
    "predictor.past_frames", "predictor.future_frames", "predictor.stride",
    "predictor.window_seed", "predictor.n_heads", "predictor.alpha", "predictor.trunk_hidden",
    "predictor.train.learning_rate", "predictor.train.total_steps", "predictor.train.batch_size",
    "predictor.train.seed", "predictor.train.schedule",
    "eval.threshold",
]

# settings that are constants now: a document that sets one names the unknown key
REMOVED_SETTINGS = {("data.synthetic", "min_reward"), ("data.synthetic", "max_retries"),
                    ("locoval", "include_velocity"), ("eval", "lambdas"),
                    ("eval", "chi2_bins"), ("eval", "score_bins")}


def _leaves(section, prefix: str = "") -> list[str]:
    """The dotted paths of a config section's leaf fields, in field order."""
    paths = []
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        paths += (_leaves(value, f"{prefix}{f.name}.") if dataclasses.is_dataclass(value)
                  else [prefix + f.name])
    return paths


def test_resolved_config_contains_every_section():
    doc = resolved_config_dict(RunConfig())
    assert set(doc) == {"oracle", "data", "plausibility", "locoval", "predictor", "eval"}
    assert _leaves(RunConfig()) == CONFIG_LEAVES


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
    """The learning rate has a rule; AdamW's betas and eps are constants and
    the cosine schedule's floor is 0.0, so a document that sets one of them
    names an unknown key."""
    if field == "learning_rate":
        message = rf"\.{field} must be"
    else:
        message = rf": unknown keys \['{field}'\]$"
    with pytest.raises(ConfigError, match=rf"^config\.{section}\.train{message}"):
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
        ("data", "seed", -1),
        ("data", "eval_seed", -1),
        ("data", "n_tracks", 0),
        ("data", "n_eval_tracks", 0),
        ("data", "pose_bank_size", 0),
        ("predictor", "window_seed", -1),
        ("predictor", "n_heads", 0),
        ("predictor", "past_frames", 1),
        ("locoval", "train.seed", -1),
        ("predictor", "train.seed", -1),
        ("locoval", "include_velocity", 1),
    ],
)
def test_bad_section_fields_rejected(section, field, value):
    doc = value
    for key in reversed(f"{section}.{field}".split(".")):
        doc = {key: doc}
    if (section, field) in REMOVED_SETTINGS:
        message = rf": unknown keys \['{field}'\]$"
    else:
        message = rf"\.{re.escape(field)} must be"
    with pytest.raises(ConfigError, match=rf"^config\.{re.escape(section)}{message}"):
        config_from_dict(doc)


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
    if ("data.synthetic", field) in REMOVED_SETTINGS:
        message = rf": unknown keys \['{field}'\]$"
    else:
        message = rf"\.{field} must be"
    with pytest.raises(ConfigError, match=rf"^config\.data\.synthetic{message}"):
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
                    "train": {"total_steps": 1, "batch_size": 1}},
        "predictor": {"stride": 1, "future_frames": 2, "trunk_hidden": [1], "alpha": 0,
                      "past_frames": 2, "window_seed": 0, "n_heads": 1, "train": {"seed": 0}},
        "eval": {"threshold": 1},
        "plausibility": {"n_plausible": 0, "n_implausible": 1, "seed": 0},
        "data": {"n_tracks": 1, "n_eval_tracks": 1, "pose_bank_size": 1, "seed": 0,
                 "eval_seed": 0,
                 "synthetic": {"speed_range": [1, 1], "noise_sigma": 0}},
    })
    assert cfg.predictor.future_frames == 2 and cfg.locoval.train.total_steps == 1
    assert cfg.plausibility.n_plausible == 0 and cfg.data.synthetic.speed_range == (1, 1)


# ---------------------------------------------------------------------------
# one rule per field, on every path into a config object

# where each config class sits in a run config document
PATHS = {
    RunConfig: "config",
    OracleParams: "config.oracle",
    DataSection: "config.data",
    SyntheticConfig: "config.data.synthetic",
    PlausibilitySection: "config.plausibility",
    LocoValSection: "config.locoval",
    PredictorSection: "config.predictor",
    EvalSection: "config.eval",
    TrainConfig: "config.predictor.train",
}

# (class, field) -> (a value of the wrong kind, a value out of the field's
# range or None where it has none); a field added without an entry fails
# test_every_config_field_has_bad_values
BAD_VALUES = {
    (RunConfig, "oracle"): ("x", None),
    (RunConfig, "data"): (3, None),
    (RunConfig, "plausibility"): ([], None),
    (RunConfig, "locoval"): (True, None),
    (RunConfig, "predictor"): ("x", None),
    (RunConfig, "eval"): (1.5, None),
    (OracleParams, "v_max"): ("x", -1),
    (OracleParams, "a_max"): (True, 0.0),
    (OracleParams, "turn_rate_max"): ([2.0], 0),
    (OracleParams, "gamma"): ("0.95", 1.5),
    (OracleParams, "w_follow"): (False, -1.0),
    (OracleParams, "w_energy"): ("x", -0.25),
    (OracleParams, "follow_scale"): ({}, 0.0),
    (DataSection, "n_tracks"): (2.5, 0),
    (DataSection, "n_eval_tracks"): ("30", 0),
    (DataSection, "pose_bank_size"): (True, 0),
    (DataSection, "seed"): ("1", -1),
    (DataSection, "eval_seed"): (1001.0, -1),
    (DataSection, "synthetic"): ("x", None),
    (SyntheticConfig, "n_frames"): ("x", 3),
    (SyntheticConfig, "dt"): ("0.4", 0.0),
    (SyntheticConfig, "noise_sigma"): (True, -0.01),
    (SyntheticConfig, "speed_range"): ("fast", [2.0, 1.0]),
    (SyntheticConfig, "accel_range"): (0.2, [0.2]),
    (SyntheticConfig, "turn_rate_range"): ({"low": 0.3}, [0.3, float("inf")]),
    (SyntheticConfig, "scenario_weights"): ([1.0], {"turn": -1.0}),
    (PlausibilitySection, "n_plausible"): ("abc", -1),
    (PlausibilitySection, "n_implausible"): (True, -1),
    (PlausibilitySection, "seed"): (2.0, -1),
    (LocoValSection, "hidden"): ("128", [128, 0]),
    (LocoValSection, "include_pose"): (1, None),
    (LocoValSection, "holdout_fraction"): ("0.1", 1.0),
    (LocoValSection, "train"): ("x", None),
    (PredictorSection, "past_frames"): (9.0, 1),
    (PredictorSection, "future_frames"): ("12", 1),
    (PredictorSection, "stride"): (True, 0),
    (PredictorSection, "window_seed"): ([4], -1),
    (PredictorSection, "n_heads"): (False, 0),
    (PredictorSection, "alpha"): ("0", -1.0),
    (PredictorSection, "trunk_hidden"): (256, [0]),
    (PredictorSection, "train"): (1, None),
    (EvalSection, "threshold"): ("0.7", 1.5),
    (TrainConfig, "learning_rate"): ("x", 0.0),
    (TrainConfig, "total_steps"): (2.5, 0),
    (TrainConfig, "batch_size"): ("64", 0),
    (TrainConfig, "seed"): (False, -1),
    (TrainConfig, "schedule"): (1, "linear"),
}


def test_every_config_field_has_bad_values():
    assert set(BAD_VALUES) == {(cls, f.name) for cls in PATHS for f in dataclasses.fields(cls)}


def _bad_value_cases():
    for (cls, name), (wrong_kind, out_of_range) in BAD_VALUES.items():
        where = f"{cls.__name__}.{name}"
        yield pytest.param(cls, name, wrong_kind, id=f"{where}-kind")
        if out_of_range is not None:
            yield pytest.param(cls, name, out_of_range, id=f"{where}-range")
        if isinstance(getattr(cls(), name), float):
            for value in (float("nan"), float("-inf")):
                yield pytest.param(cls, name, value, id=f"{where}-{value}")


@pytest.mark.parametrize("cls, name, value", _bad_value_cases())
def test_bad_field_value_is_a_config_error_on_every_path(cls, name, value):
    path = PATHS[cls]
    doc = {name: value}
    for key in reversed(path.split(".")[1:]):
        doc = {key: doc}
    # pytest.raises lets any other exception, such as a TypeError, through
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}\.{name} must be "):
        config_from_dict(doc)
    with pytest.raises(ConfigError, match=rf"^{name} must be "):
        cls(**{name: value})
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}\.{name} must be "):
        override(cls(), path, **{name: value})


_SCALARS = st.one_of(st.integers(), st.floats(), st.text(max_size=6), st.booleans(), st.none())
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=4),
    st.dictionaries(st.sampled_from(SCENARIOS) | st.text(max_size=6), _SCALARS, max_size=4),
)


def _documents(cls):
    """Documents for a config class: some of its field names, each with a
    value of any kind, or a document of its own class for a nested section."""
    fields = {}
    for f in dataclasses.fields(cls):
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        nested = dataclasses.is_dataclass(default)
        fields[f.name] = _documents(type(default)) | _VALUES if nested else _VALUES
    return st.fixed_dictionaries({}, optional=fields)


@settings(deadline=None, max_examples=300)
@given(_documents(RunConfig))
@example({"oracle": {"v_max": 10**400}})  # too large for a float
def test_any_document_loads_or_is_a_config_error(doc):
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    assert config_from_dict(resolved_config_dict(cfg)) == cfg
