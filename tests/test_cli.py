import csv
import json
from pathlib import Path

import numpy as np
import pytest

from plaustraj import filtering, locoval, predictor
from plaustraj.cli import main

PREDICTOR_FIXTURE = Path(__file__).parent / "data" / "predictor_k2.json"

TINY = {
    "data": {"n_tracks": 8, "n_eval_tracks": 5, "pose_bank_size": 12},
    "plausibility": {"n_plausible": 30, "n_implausible": 30},
    "locoval": {"hidden": [24, 24], "train": {"total_steps": 150, "batch_size": 32}},
    "predictor": {"train": {"total_steps": 60, "batch_size": 16}},
}


@pytest.fixture
def tiny_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(TINY))
    return str(p)


def run(*args):
    return main(list(args))


@pytest.mark.parametrize(
    "cmd", ["gen-data", "train-locoval", "train-predictor", "eval", "filter", "sweep"]
)
def test_help_exits_zero(cmd, capsys):
    assert run(cmd, "--help") == 0
    assert "Usage" in capsys.readouterr().out


def test_gen_data_writes_files(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert run("gen-data", "--config", tiny_config, "--out", str(out)) == 0
    for name in ("trajectories.tsv", "pose_bank.json", "plausibility.csv",
                 "resolved_config.json"):
        assert (out / name).exists()
    rows = (out / "plausibility.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 60  # header + n_plausible + n_implausible


def test_gen_data_byte_identical_given_seed(tiny_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("gen-data", "--config", tiny_config, "--out", str(a)) == 0
    assert run("gen-data", "--config", tiny_config, "--out", str(b)) == 0
    for name in ("trajectories.tsv", "pose_bank.json", "plausibility.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_output_root_from_environment(tiny_config, tmp_path, monkeypatch):
    monkeypatch.setenv("PLAUSTRAJ_OUT", str(tmp_path / "envout"))
    assert run("gen-data", "--config", tiny_config) == 0
    assert (tmp_path / "envout" / "trajectories.tsv").exists()


def test_train_locoval_requires_data(tiny_config, tmp_path, capsys):
    code = run("train-locoval", "--config", tiny_config, "--out", str(tmp_path / "x"))
    assert code == 2
    assert "gen-data" in capsys.readouterr().err


def test_invalid_config_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    assert run("gen-data", "--config", str(p), "--out", str(tmp_path / "o")) == 1


def test_unknown_config_key_exit_code(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"predictor": {"headz": 3}}))
    assert run("gen-data", "--config", str(p), "--out", str(tmp_path / "o")) == 1


def test_usage_error_exit_code():
    assert run("no-such-command") == 1



@pytest.fixture(scope="module")
def pairs_csv(tmp_path_factory):
    """plausibility.csv of the tiny config (horizon 12, 8 joints), as rows."""
    root = tmp_path_factory.mktemp("pairs")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    assert run("gen-data", "--config", str(cfg), "--out", str(root)) == 0
    with open(root / "plausibility.csv", newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize(
    "column, value, reason",
    [
        (2, "0.0", "dt must be positive"),
        (0, "foo", "unknown label 'foo'"),
        (3, "0", "expected 31 columns for T_f 0, got 55"),
        (1, "nan", "reward must be in [0, 1], got nan"),
        (1, "5", "reward must be in [0, 1], got 5.0"),
        (-1, None, "expected 55 columns for T_f 12, got 54"),
        (-1, "nan", "joint 'right_ankle' must be a finite 3-vector"),
        (3, "13", "expected 57 columns for T_f 13, got 55"),
        (None, None, "no pairs after the header"),
    ],
    ids=["dt-zero", "unknown-label", "horizon-zero", "reward-nan", "reward-five",
         "short-row", "nan-joint", "horizon-one-too-long", "header-only"],
)
def test_train_locoval_bad_row_is_located_data_error(tiny_config, tmp_path, capsys, pairs_csv,
                                                     column, value, reason):
    out = tmp_path / "run"
    out.mkdir()
    path = out / "plausibility.csv"
    rows, where = [list(r) for r in pairs_csv], f"{path}:3"
    if column is None:
        rows, where = rows[:1], str(path)
    elif value is None:
        del rows[2][column]
    else:
        rows[2][column] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert run("train-locoval", "--config", tiny_config, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {where}: ")
    assert reason in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.fixture
def trained_dir(tiny_config, tmp_path):
    out = tmp_path / "run"
    assert run("gen-data", "--config", tiny_config, "--out", str(out)) == 0
    assert run("train-locoval", "--config", tiny_config, "--out", str(out)) == 0
    assert run(
        "train-predictor", "--config", tiny_config, "--out", str(out),
        "--alpha", "10", "--heads", "3",
    ) == 0
    return out


def test_pipeline_and_eval(tiny_config, trained_dir):
    assert run("eval", "--config", tiny_config, "--out", str(trained_dir)) == 0
    report = json.loads((trained_dir / "metrics.json").read_text())
    assert report["n_samples"] > 0
    assert report["ade"] >= report["min_ade"]
    assert (trained_dir / "per_timestep.csv").exists()
    assert (trained_dir / "score_bins.csv").exists()


def test_eval_filter_zero_keeps_everything(tiny_config, trained_dir):
    assert run(
        "eval", "--config", tiny_config, "--out", str(trained_dir), "--filter", "0.0"
    ) == 0
    plain = json.loads((trained_dir / "metrics.json").read_text())
    kept = json.loads((trained_dir / "metrics_kept.json").read_text())
    assert kept["ade"] == pytest.approx(plain["ade"], abs=1e-12)
    assert not (trained_dir / "metrics_rejected.json").exists()


def test_eval_filter_scores_each_case_once(tiny_config, trained_dir, monkeypatch):
    calls = {"predict": 0, "score_batch": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(predictor, "predict", counting("predict", predictor.predict))
    score_batch = counting("score_batch", locoval.score_batch)
    monkeypatch.setattr(locoval, "score_batch", score_batch)
    monkeypatch.setattr(filtering, "score_batch", score_batch)
    assert run(
        "eval", "--config", tiny_config, "--out", str(trained_dir), "--filter", "0.5"
    ) == 0
    assert calls["predict"] > 0
    assert calls["score_batch"] == calls["predict"]


def test_sweep_lambda_writes_csv(tiny_config, trained_dir):
    assert run(
        "sweep", "--config", tiny_config, "--out", str(trained_dir),
        "--param", "lambda", "--values", "0.3,0.6",
    ) == 0
    rows = (trained_dir / "sweep_lambda.csv").read_text().strip().splitlines()
    assert len(rows) == 3


def write_filter_inputs(trained_dir, tmp_path, frames=12, keys=("0", "1")):
    """Candidates TSV (two cases, two heads each) and observables JSON."""
    lines = []
    rng = np.random.default_rng(0)
    for case in range(2):
        for head in range(2):
            pts = np.cumsum(rng.uniform(0.2, 0.5, size=(frames, 2)), axis=0)
            for frame, (x, y) in enumerate(pts):
                lines.append(f"{case} {head} {frame} {x} {y}")
    cand = tmp_path / "cands.tsv"
    cand.write_text("\n".join(lines) + "\n")

    bank = json.loads((trained_dir / "pose_bank.json").read_text())
    obs_doc = {
        key: {
            "joints": bank[i]["joints"],
            "root_velocity": [bank[i]["speed"], 0.0],
        }
        for i, key in enumerate(keys)
    }
    obs_path = tmp_path / "obs.json"
    obs_path.write_text(json.dumps(obs_doc))
    return cand, obs_path


def test_filter_external_candidates(tiny_config, trained_dir, tmp_path):
    cand, obs_path = write_filter_inputs(trained_dir, tmp_path)
    assert run(
        "filter", "--config", tiny_config, "--out", str(trained_dir),
        "--candidates", str(cand), "--observables", str(obs_path),
        "--threshold", "0.5",
    ) == 0
    doc = json.loads((trained_dir / "filter_report.json").read_text())
    assert len(doc) == 2
    for case in doc:
        assert len(case["kept"]) + len(case["rejected"]) == 2
        assert case["lambda"] == 0.5


def test_filter_malformed_candidates(tiny_config, trained_dir, tmp_path):
    cand = tmp_path / "bad.tsv"
    cand.write_text("0 0 0 1.0\n")
    obs = tmp_path / "obs.json"
    obs.write_text("{}")
    code = run(
        "filter", "--config", tiny_config, "--out", str(trained_dir),
        "--candidates", str(cand), "--observables", str(obs),
    )
    assert code == 2


@pytest.mark.parametrize(
    "frames, keys, observables, reason",
    [
        (5, ("0", "1"), None, "trajectory length 5 != layout horizon 12"),
        (12, ("0", "case-1"), None, ": malformed observable for case 'case-1'"),
        (12, ("0", "1"), "{not json", ": invalid JSON"),
    ],
    ids=["wrong-horizon", "non-integer-case-key", "observables-not-json"],
)
def test_filter_bad_input_is_one_line_data_error(tiny_config, trained_dir, tmp_path,
                                                 capsys, frames, keys, observables, reason):
    cand, obs_path = write_filter_inputs(trained_dir, tmp_path, frames=frames, keys=keys)
    if observables is not None:
        obs_path.write_text(observables)
    capsys.readouterr()
    code = run(
        "filter", "--config", tiny_config, "--out", str(trained_dir),
        "--candidates", str(cand), "--observables", str(obs_path),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert reason in err
    if reason.startswith(":"):  # the observables file is named
        assert err.startswith(f"data error: {obs_path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _without_horizon() -> str:
    doc = json.loads(PREDICTOR_FIXTURE.read_text())
    del doc["horizon"]
    return json.dumps(doc)


def _head_weight_short() -> str:
    doc = json.loads(PREDICTOR_FIXTURE.read_text())
    doc["heads"][0]["parameters"][0]["weights"].pop()
    return json.dumps(doc)


def _head_weight_not_a_number() -> str:
    doc = json.loads(PREDICTOR_FIXTURE.read_text())
    doc["heads"][0]["parameters"][0]["weights"][0] = "abc"
    return json.dumps(doc)


@pytest.mark.parametrize(
    "name, content",
    [
        ("predictor.json", "{not json"),
        ("predictor.json", '{"trunk": 1, "heads": [1]}'),
        ("predictor.json", _without_horizon()),
        ("predictor.json", _head_weight_short()),
        ("predictor.json", _head_weight_not_a_number()),
        ("locoval.json", "{not json"),
    ],
    ids=["predictor-not-json", "predictor-wrong-structure", "predictor-no-horizon",
         "predictor-head-weight-short", "predictor-head-weight-not-a-number",
         "locoval-not-json"],
)
def test_eval_corrupt_checkpoint_is_one_line_data_error(tiny_config, tmp_path, capsys,
                                                        name, content):
    out = tmp_path / "run"
    out.mkdir()
    (out / "predictor.json").write_bytes(PREDICTOR_FIXTURE.read_bytes())
    (out / name).write_text(content)
    assert run("eval", "--config", tiny_config, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {out / name}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_train_predictor_zero_heads_is_config_error(tiny_config, tmp_path, capsys):
    code = run("train-predictor", "--config", tiny_config, "--out", str(tmp_path / "o"),
               "--heads", "0")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_train_predictor_warns_once(tiny_config, trained_dir, capsys, caplog):
    capsys.readouterr()
    assert run(
        "train-predictor", "--config", tiny_config, "--out", str(trained_dir),
        "--alpha", "10000", "--heads", "3",
    ) == 0
    out = capsys.readouterr().out
    rows = (trained_dir / "predictor_curve.csv").read_text().strip().splitlines()[1:]
    flagged = sum(row.endswith(",1") for row in rows)
    assert flagged > 0
    assert out.count("warning:") == 1
    assert f" on {flagged} of {len(rows)} curve intervals " in out
    last_ratio = float(rows[-1].split(",")[3])
    assert f"(last interval ratio {last_ratio:.3g})" in out
    assert not [r for r in caplog.records if r.levelname == "WARNING"]


@pytest.mark.parametrize(
    "command, override, message",
    [
        ("train-locoval", {"locoval": {"train": {"learning_rate": 1e400}}},
         "locoval.train.learning_rate must be"),
        ("train-locoval", {"locoval": {"train": {"learning_rate": float("nan")}}},
         "locoval.train.learning_rate must be"),
        ("train-locoval", {"locoval": {"train": {"beta1": 1.0}}}, "locoval.train.beta1 must be"),
        ("train-locoval", {"locoval": {"train": {"eps": 0}}}, "locoval.train.eps must be"),
        ("gen-data", {"predictor": {"stride": 0}}, "predictor.stride must be"),
        ("gen-data", {"predictor": {"stride": -1}}, "predictor.stride must be"),
        ("gen-data", {"predictor": {"future_frames": 1}}, "predictor.future_frames must be"),
        ("train-locoval", {"locoval": {"holdout_fraction": 1.5}},
         "locoval.holdout_fraction must be"),
        ("train-locoval", {"locoval": {"hidden": [0]}}, "locoval.hidden widths must be"),
        ("train-predictor", {"predictor": {"trunk_hidden": [0]}},
         "predictor.trunk_hidden widths must be"),
        ("gen-data", {"plausibility": {"n_plausible": "abc"}},
         "plausibility.n_plausible must be"),
        ("gen-data", {"plausibility": {"n_plausible": 2.5}}, "plausibility.n_plausible must be"),
        ("gen-data", {"plausibility": {"n_implausible": True}},
         "plausibility.n_implausible must be"),
        ("gen-data", {"plausibility": {"seed": "s"}}, "plausibility.seed must be"),
        ("gen-data", {"data": {"synthetic": {"speed_range": [2.0]}}},
         "data.synthetic.speed_range must be"),
        ("gen-data", {"data": {"synthetic": {"speed_range": [2.0, 1.0]}}},
         "data.synthetic.speed_range must be"),
        ("gen-data", {"data": {"synthetic": {"accel_range": [0.2, "x"]}}},
         "data.synthetic.accel_range must be"),
        ("gen-data", {"data": {"synthetic": {"noise_sigma": -1}}},
         "data.synthetic.noise_sigma must be"),
        ("gen-data", {"data": {"synthetic": {"min_reward": 1.5}}},
         "data.synthetic.min_reward must be"),
        ("gen-data", {"data": {"synthetic": {"max_retries": 0}}},
         "data.synthetic.max_retries must be"),
        ("gen-data", {"oracle": {"a_max": float("inf")}}, "oracle.a_max must be finite"),
        ("gen-data", {"oracle": {"v_max": float("nan")}}, "oracle.v_max must be finite"),
        ("gen-data", {"oracle": {"w_energy": "x"}},
         "oracle.w_energy must be a real number, got 'x'"),
        ("gen-data", {"oracle": {"v_max": -1}}, "oracle.v_max must be positive"),
        ("train-predictor", {"predictor": {"alpha": float("nan")}},
         "predictor.alpha must be finite and >= 0, got nan"),
        ("train-predictor", {"predictor": {"alpha": -1}},
         "predictor.alpha must be finite and >= 0, got -1"),
        ("train-predictor --alpha nan", {}, "predictor.alpha must be finite and >= 0, got nan"),
        ("train-predictor --alpha -0.5", {}, "predictor.alpha must be finite and >= 0, got -0.5"),
        ("gen-data", {"eval": {"threshold": 1.5}}, "eval.threshold must be in [0, 1]"),
        ("sweep", {"eval": {"lambdas": ["x"]}}, "eval.lambdas must be numbers, got 'x'"),
        ("sweep", {"eval": {"lambdas": [0.5, 2]}}, "eval.lambdas must be in [0, 1], got 2"),
        ("eval", {"eval": {"chi2_bins": 1}}, "eval.chi2_bins must be an integer >= 2, got 1"),
        ("eval", {"eval": {"score_bins": 0}}, "eval.score_bins must be an integer >= 1, got 0"),
        ("gen-data", {"predictor": {"stride": "x"}},
         "predictor.stride must be an integer, got 'x'"),
        ("gen-data", {"data": {"n_tracks": 2.5}}, "data.n_tracks must be an integer, got 2.5"),
        ("train-locoval", {"locoval": {"train": {"learning_rate": "x"}}},
         "locoval.train.learning_rate must be a real number, got 'x'"),
        ("train-locoval", {"locoval": {"holdout_fraction": None}},
         "locoval.holdout_fraction must be a real number, got None"),
        ("gen-data", {"predictor": {"n_heads": True}},
         "predictor.n_heads must be an integer, got True"),
        ("gen-data", {"locoval": {"include_pose": 1}},
         "locoval.include_pose must be true or false, got 1"),
        ("sweep --values a,b", {}, "--values: 'a' is not a number"),
    ],
    ids=["lr-1e400", "lr-nan", "beta1-one", "eps-zero", "stride-zero", "stride-negative",
         "future-one", "holdout-1.5", "hidden-zero", "trunk-hidden-zero",
         "n-plausible-string", "n-plausible-float", "n-implausible-bool", "pair-seed-string",
         "speed-range-one-value", "speed-range-reversed", "accel-range-string",
         "noise-negative", "min-reward-above-one", "max-retries-zero", "a-max-infinite",
         "v-max-nan", "w-energy-string", "v-max-negative", "alpha-nan", "alpha-negative",
         "alpha-option-nan", "alpha-option-negative", "threshold-1.5", "lambdas-string",
         "lambdas-above-one", "chi2-bins-one", "score-bins-zero", "stride-string", "n-tracks-float",
         "lr-string", "holdout-null", "n-heads-bool", "include-pose-int",
         "sweep-values-not-a-number"],
)
def test_bad_config_field_is_one_line_config_error(tmp_path, capsys, command, override,
                                                   message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    assert run(*command.split(), "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    # the section path and the field (or the option), then what is wrong with it
    where = "" if message.startswith("--") else "config."
    assert err.startswith(f"config error: {where}{message}")
    assert err.count("\n") == 1 and "Traceback" not in err
