import base64
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import SCHEMA_2_LOCOVAL
import plaustraj
from plaustraj import filtering, gradcore, locoval, predictor
from plaustraj.cli import _build_instances, main
from plaustraj.config import load_config

PREDICTOR_FIXTURE = Path(__file__).parent / "data" / "predictor_k2.json"
REMOVED_TRAIN_KEYS = ("weight_decay", "min_lr", "beta1", "beta2", "eps")
WEIGHTS_RULE = ("an object mapping some of straight, accelerate, turn, stop_and_go to finite "
                "weights >= 0, not all zero")

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


def python(*args):
    """A fresh interpreter run with args, importing this checkout's package."""
    src = str(Path(plaustraj.__file__).parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize(
    "cmd", ["gen-data", "train-locoval", "train-predictor", "eval", "filter", "sweep"]
)
def test_help_exits_zero(cmd, capsys):
    assert run(cmd, "--help") == 0
    assert "Usage" in capsys.readouterr().out


def test_cli_import_leaves_out_the_training_pool():
    """Only sweep --param alpha trains in worker processes; importing the CLI,
    which every command pays for, does not import their machinery."""
    code = ("import sys, plaustraj.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("kind, code", [("usage error", 1), ("config error", 1),
                                        ("data error", 2), ("numeric failure", 3)],
                         ids=["usage", "config", "data", "numeric"])
def test_module_entry_exit_status(tiny_config, tmp_path, kind, code):
    """python -m plaustraj.cli makes each failure arm of main the process's
    exit status, and the interpreter adds nothing to its one stderr line: a
    RuntimeWarning, which pytest records in-process, would print two more."""
    out = tmp_path / "run"
    cfg = tmp_path / "case.json"
    if kind == "usage error":
        args = ["train-locoval", "--data", "x"]
    elif kind == "config error":
        cfg.write_text(json.dumps({"predictor": {"train": {"weight_decay": 0.1}}}))
        args = ["train-predictor", "--config", str(cfg)]
    elif kind == "data error":  # no plausibility.csv
        out.mkdir()
        args = ["train-locoval", "--config", tiny_config]
    else:  # the fit's second step overflows
        assert run("gen-data", "--config", tiny_config, "--out", str(out)) == 0
        cfg.write_text(json.dumps(merged(TINY, {"locoval": {"train": {"learning_rate": 1e300}}})))
        args = ["train-locoval", "--config", str(cfg)]
    proc = python("-m", "plaustraj.cli", *args, "--out", str(out))
    assert proc.returncode == code
    err = proc.stderr
    assert err.startswith(f"{kind}: ") and err.endswith("\n") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (out / "locoval.json").exists()


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


@pytest.mark.parametrize("command, missing, kind", [
    ("eval", "predictor.json", "I/O error"),
    ("filter", "locoval.json", "I/O error"),
    ("sweep", "predictor.json", "I/O error"),
    ("train-locoval", "plausibility.csv", "data error"),
    ("train-predictor --alpha 100", "locoval.json", "data error"),
], ids=["eval", "filter", "sweep", "train-locoval", "train-predictor-alpha-100"])
def test_missing_input_makes_no_output_dir(tiny_config, tmp_path, capsys, command, missing,
                                           kind):
    """A command whose input under --out is missing exits 2 with one line
    naming it, and leaves no empty output directory behind."""
    out = tmp_path / "fresh"
    args = [*command.split(), "--config", tiny_config, "--out", str(out)]
    if command == "filter":
        for name in ("cands.tsv", "obs.json"):
            (tmp_path / name).write_text("")
        args += ["--candidates", str(tmp_path / "cands.tsv"),
                 "--observables", str(tmp_path / "obs.json")]
    assert run(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{kind}: ") and str(out / missing) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "command, option",
    [("train-locoval --data x", "--data"),
     ("train-predictor --seed 3", "--seed"),
     ("filter --candidates {tmp}/c.tsv --observables {tmp}/o.json --threshold 0.5",
      "--threshold")],
    ids=["train-locoval-data", "train-predictor-seed", "filter-threshold"],
)
def test_removed_option_is_one_line_usage_error(tmp_path, capsys, command, option):
    """train-locoval reads plausibility.csv from its output directory only,
    and the training seed and the filter threshold come from the config
    (predictor.train.seed, eval.threshold)."""
    (tmp_path / "c.tsv").write_text("")
    (tmp_path / "o.json").write_text("{}")
    args = command.format(tmp=tmp_path).split()
    assert run(*args, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: No such option") and option in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "o").exists()



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
        (2, "0.0", "T_f 12 at dt 0.0 differs from the first row's T_f 12 at dt 0.4: "
                   "a pair set has one horizon and one dt"),
        (2, "0.2", "T_f 12 at dt 0.2 differs from the first row's T_f 12 at dt 0.4"),
        (0, "foo", "unknown label 'foo'"),
        (3, "0", "T_f 0 at dt 0.4 differs from the first row's T_f 12 at dt 0.4"),
        (1, "nan", "reward must be in [0, 1], got nan"),
        (1, "5", "reward must be in [0, 1], got 5.0"),
        (-1, None, "expected 55 columns for T_f 12, got 54"),
        (-1, "nan", "joint 'right_ankle' must be a finite 3-vector"),
        (29, "nan", "root_velocity must be a finite 2-vector"),  # root_vx, after 12 points
        (3, "13", "T_f 13 at dt 0.4 differs from the first row's T_f 12 at dt 0.4"),
        (None, None, "no pairs after the header"),
    ],
    ids=["dt-zero", "dt-other", "unknown-label", "horizon-zero", "reward-nan", "reward-five",
         "short-row", "nan-joint", "nan-root-vx", "horizon-one-too-long", "header-only"],
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


def test_train_locoval_dt_zero_on_every_row_is_located_at_the_first(tiny_config, tmp_path,
                                                                    capsys, pairs_csv):
    out = tmp_path / "run"
    out.mkdir()
    rows = [pairs_csv[0]] + [[*r[:2], "0.0", *r[3:]] for r in pairs_csv[1:]]
    path = out / "plausibility.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert run("train-locoval", "--config", tiny_config, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"data error: {path}:2: malformed row (dt must be positive)\n"


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


def test_eval_filter_reports_use_the_config_chi2_bins(tmp_path, trained_dir):
    cfg = tmp_path / "bins.json"
    cfg.write_text(json.dumps({**TINY, "eval": {"chi2_bins": 20}}))
    assert run("eval", "--config", str(cfg), "--out", str(trained_dir), "--filter", "0.0") == 0
    # lambda 0 keeps every head, so the kept report is the full one, bins and all
    assert ((trained_dir / "metrics_kept.json").read_bytes()
            == (trained_dir / "metrics.json").read_bytes())


@pytest.mark.parametrize(
    "value, message",
    [
        ("2", "--filter must be in [0, 1], got 2.0"),
        ("-1", "--filter must be in [0, 1], got -1.0"),
        ("nan", "--filter must be finite, got nan"),
    ],
    ids=["2", "-1", "nan"],
)
def test_eval_filter_out_of_range_fails_before_writing(tiny_config, trained_dir, capsys, value,
                                                        message):
    assert run("eval", "--config", tiny_config, "--out", str(trained_dir)) == 0
    before = (trained_dir / "metrics.json").read_bytes()
    capsys.readouterr()
    assert run("eval", "--config", tiny_config, "--out", str(trained_dir),
               "--filter", value) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""
    assert (trained_dir / "metrics.json").read_bytes() == before


def test_eval_filter_predicts_and_scores_the_window_set_once(tiny_config, trained_dir,
                                                             monkeypatch):
    """eval --filter predicts every window with one predict_heads call and
    scores every head with one score_heads call; the per-case predict and
    score_batch are not called."""
    calls = {"predict": 0, "score_batch": 0, "predict_heads": 0, "score_heads": 0}

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((predictor, "predict"), (predictor, "predict_heads"),
                        (locoval, "score_batch"), (filtering, "score_batch"),
                        (filtering, "score_heads")):
        counting(owner, name)
    assert run(
        "eval", "--config", tiny_config, "--out", str(trained_dir), "--filter", "0.5"
    ) == 0
    assert calls == {"predict": 0, "score_batch": 0, "predict_heads": 1, "score_heads": 1}


def merged(base: dict, changes: dict) -> dict:
    """base with changes applied section by section."""
    out = dict(base)
    for key, value in changes.items():
        out[key] = merged(base[key], value) if isinstance(value, dict) and key in base else value
    return out


@pytest.mark.parametrize("command, output", [("eval", "metrics.json"),
                                             ("sweep --param lambda", "sweep_lambda.csv")],
                         ids=["eval", "sweep-lambda"])
@pytest.mark.parametrize("changes, message", [
    ({"data": {"synthetic": {"n_frames": 10}}},
     "the window set has 0 windows; evaluation needs at least 1"),
    ({"predictor": {"past_frames": 5}}, "the windows have 5 past frames; the predictor takes 9"),
    ({"predictor": {"future_frames": 8}},
     "the windows have 8 future frames; the predictor predicts 12"),
], ids=["no-windows", "past-frames", "future-frames"])
def test_eval_windows_checked_against_the_predictor(tmp_path, trained_dir, capsys, command,
                                                     output, changes, message):
    """Eval windows that the trained predictor cannot take are one data error
    naming both numbers, raised before any output is written."""
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps(merged(TINY, changes)))
    capsys.readouterr()
    assert run(*command.split(), "--config", str(cfg), "--out", str(trained_dir)) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not (trained_dir / output).exists()


def test_sweep_lambda_writes_csv(tiny_config, trained_dir):
    assert run(
        "sweep", "--config", tiny_config, "--out", str(trained_dir),
        "--param", "lambda", "--values", "0.3,0.6",
    ) == 0
    rows = (trained_dir / "sweep_lambda.csv").read_text().strip().splitlines()
    assert len(rows) == 3


def test_sweep_alpha_trains_the_saved_predictor_head_count(tiny_config, tmp_path, capsys):
    """The grid trains in worker processes, so the head count is read from
    the row: it is the evaluation of a 2-head model trained in-process."""
    out = tmp_path / "run"
    for stage in (["gen-data"], ["train-locoval"], ["train-predictor", "--heads", "2"]):
        assert run(*stage, "--config", tiny_config, "--out", str(out)) == 0
    sweep = ("sweep", "--config", tiny_config, "--out", str(out), "--param", "alpha",
             "--values", "0")
    assert run(*sweep) == 0
    with open(out / "sweep_alpha.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    cfg = load_config(tiny_config)
    model = predictor.train_predictor(
        _build_instances(cfg, cfg.data.seed, cfg.data.n_tracks),
        locoval.load_locoval(out / "locoval.json"), cfg.predictor.train, alpha=0.0, n_heads=2,
        trunk_hidden=tuple(cfg.predictor.trunk_hidden)).model
    report = filtering.evaluate_windows(
        model, _build_instances(cfg, cfg.data.eval_seed, cfg.data.n_eval_tracks),
        n_bins=cfg.eval.chi2_bins).report
    assert row == {"value": "0.0", "ade": repr(report.ade), "fde": repr(report.fde),
                   "min_ade": repr(report.min_ade), "min_fde": repr(report.min_fde),
                   "chi2_velocity": repr(report.chi2["velocity"])}
    assert report.min_ade < report.ade
    # without predictor.json there is no head count: one line, exit 2, as for eval
    (out / "predictor.json").unlink()
    capsys.readouterr()
    assert run(*sweep) == 2
    err = capsys.readouterr().err
    assert "predictor.json" in err and err.count("\n") == 1 and "Traceback" not in err


def write_filter_inputs(trained_dir, tmp_path, frames=12, keys=("0", "1")):
    """Candidates TSV (two cases, two heads each, at frames 0 to frames - 1,
    or at the given frame numbers) and observables JSON."""
    frames = range(frames) if isinstance(frames, int) else frames
    lines = []
    rng = np.random.default_rng(0)
    for case in range(2):
        for head in range(2):
            pts = np.cumsum(rng.uniform(0.2, 0.5, size=(len(frames), 2)), axis=0)
            for frame, (x, y) in zip(frames, pts):
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


def test_filter_external_candidates(trained_dir, tmp_path):
    cand, obs_path = write_filter_inputs(trained_dir, tmp_path)
    cfg = tmp_path / "cfg-threshold.json"
    cfg.write_text(json.dumps({**TINY, "eval": {"threshold": 0.5}}))
    assert run(
        "filter", "--config", str(cfg), "--out", str(trained_dir),
        "--candidates", str(cand), "--observables", str(obs_path),
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


def _edit_observables(change):
    def corrupt(cand, obs):
        doc = json.loads(obs.read_text())
        change(doc)
        obs.write_text(json.dumps(doc))
    return corrupt


def _nan_candidate(cand, obs):
    """Case 0 head 0's frame 3 at x = nan."""
    lines = cand.read_text().splitlines()
    lines[3] = " ".join(lines[3].split()[:3] + ["nan", "0.5"])
    cand.write_text("\n".join(lines) + "\n")


def _renumber_case_0_head_1_to_2(cand, obs):
    lines = [line.split() for line in cand.read_text().splitlines()]
    cand.write_text("".join(" ".join([c, "2" if (c, h) == ("0", "1") else h, *rest]) + "\n"
                            for c, h, *rest in lines))


def _case_0_pelvis_twice(cand, obs):
    """Case 0's joints object with a second pelvis ahead of its first."""
    text = obs.read_text()
    at = text.index('{"joints": {') + len('{"joints": {')
    obs.write_text(text[:at] + '"pelvis": [9.0, 9.0, 0.9], ' + text[at:])


def _drop_last_frame_of_case_0_head_0(cand, obs):
    lines = cand.read_text().splitlines()
    cand.write_text("\n".join(lines[:11] + lines[12:]) + "\n")


@pytest.mark.parametrize(
    "frames, keys, corrupt, message",
    [
        (5, ("0", "1"), None, "{cand}, {obs}: case 0: trajectory length 5 != layout horizon 12"),
        (12, ("0", "case-1"), None, "{obs}: malformed observable for case 'case-1'"),
        (12, ("0", "1"), lambda cand, obs: obs.write_text("{not json"), "{obs}: invalid JSON"),
        ([*range(6), *range(5, 11)], ("0", "1"), None, "{cand}: case 0 head 0: frame 5 repeated"),
        ([*range(5), *range(6, 13)], ("0", "1"), None, "{cand}: case 0 head 0: frame 5 missing"),
        (12, ("0", "1"), _edit_observables(lambda doc: doc["0"].update(joints=[1, 2, 3])),
         "{obs}: malformed observable for case '0' ('list' object has no attribute 'items')"),
        (12, ("0", "1"), _edit_observables(lambda doc: doc["0"]["joints"].pop("pelvis")),
         "{obs}: malformed observable for case '0' (missing required joints: ['pelvis'])"),
        (12, ("0", "1"), _nan_candidate,
         "{cand}: case 0: trajectory contains non-finite coordinates"),
        (12, ("0",), None, "{obs}: no observable state for case 1"),
        (12, ("0", "1"), lambda cand, obs: cand.write_text(""),
         "{cand}: no candidate rows"),
        (12, ("0", "1"), _drop_last_frame_of_case_0_head_0,
         "{cand}: case 0: trajectory set points must be (K, T, 2), got rows of unequal "
         "length or non-numbers"),
        (12, ("0", "1"), _renumber_case_0_head_1_to_2,
         "{cand}: case 0: head 1 missing (head ids run 0..K-1)"),
        (12, ("0", "1"), _case_0_pelvis_twice, "{obs}: case 0: joint 'pelvis' is given twice"),
        (12, ("0", "1"),
         _edit_observables(lambda doc: doc["0"]["joints"].update(neck=[0.0, 0.0, 1.5])),
         "{obs}: malformed observable for case '0' (unknown joints: ['neck'])"),
    ],
    ids=["wrong-horizon", "non-integer-case-key", "observables-not-json", "frame-repeated",
         "frame-missing", "joints-a-list", "joint-missing", "nan-candidate", "case-not-observed",
         "no-candidate-rows", "heads-of-two-lengths", "head-id-missing", "joint-given-twice",
         "extra-joint"],
)
def test_filter_bad_input_is_one_line_data_error(tiny_config, trained_dir, tmp_path,
                                                 capsys, frames, keys, corrupt, message):
    """Each bad filter input exits 2 with one stderr line naming the file,
    and the case where there is one."""
    cand, obs_path = write_filter_inputs(trained_dir, tmp_path, frames=frames, keys=keys)
    if corrupt is not None:
        corrupt(cand, obs_path)
    capsys.readouterr()
    code = run(
        "filter", "--config", tiny_config, "--out", str(trained_dir),
        "--candidates", str(cand), "--observables", str(obs_path),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: " + message.format(cand=cand, obs=obs_path))
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("second", ["01", "1"], ids=["1-and-01", "1-twice"])
def test_filter_case_given_twice_is_one_line_data_error(tiny_config, trained_dir, tmp_path,
                                                        capsys, second):
    """Two observables of case 1, by two keys of one integer or by one key
    repeated, would leave the filter to score the case against the last."""
    cand, obs_path = write_filter_inputs(trained_dir, tmp_path, keys=("0", "1", "second"))
    obs_path.write_text(obs_path.read_text().replace('"second"', f'"{second}"'))
    capsys.readouterr()
    code = run(
        "filter", "--config", tiny_config, "--out", str(trained_dir),
        "--candidates", str(cand), "--observables", str(obs_path),
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"data error: {obs_path}: case 1 is given twice ('1' and '{second}')\n")
    assert not (trained_dir / "filter_report.json").exists()


def _without_horizon() -> str:
    doc = json.loads(PREDICTOR_FIXTURE.read_text())
    del doc["horizon"]
    return json.dumps(doc)


def _horizon_not_a_number() -> str:
    doc = json.loads(PREDICTOR_FIXTURE.read_text())
    doc["horizon"] = "twelve"
    return json.dumps(doc)


def _with_head_params(change) -> str:
    """The fixture with its head's params payload replaced by change(payload)."""
    doc = json.loads(PREDICTOR_FIXTURE.read_text())
    doc["head"]["params"] = change(doc["head"]["params"])
    return json.dumps(doc)


def _trunk_hidden_sigmoid() -> str:
    """The fixture with an activation that no hidden layer has."""
    doc = json.loads(PREDICTOR_FIXTURE.read_text())
    doc["trunk"]["hidden_activation"] = "sigmoid"
    return json.dumps(doc)


def _head_weight_short() -> str:
    """A payload one float short."""
    return _with_head_params(
        lambda p: base64.b64encode(base64.b64decode(p)[:-8]).decode("ascii"))


def _head_weight_not_a_number() -> str:
    """A payload with a character outside the base64 alphabet."""
    return _with_head_params(lambda p: "*" + p[1:])


@pytest.mark.parametrize(
    "name, content",
    [
        ("predictor.json", "{not json"),
        ("predictor.json", '{"schema_version": 3, "trunk": 1, "head": 1}'),
        ("predictor.json", _without_horizon()),
        ("predictor.json", _horizon_not_a_number()),
        ("predictor.json", _head_weight_short()),
        ("predictor.json", _head_weight_not_a_number()),
        ("predictor.json", _with_head_params(lambda p: "AA==")),
        ("predictor.json", _with_head_params(lambda p: [0.0, 1.0])),
        ("predictor.json", _trunk_hidden_sigmoid()),
        ("locoval.json", "{not json"),
    ],
    ids=["predictor-not-json", "predictor-wrong-structure", "predictor-no-horizon",
         "predictor-horizon-not-a-number", "predictor-head-weight-short",
         "predictor-head-weight-not-a-number", "predictor-head-params-one-byte",
         "predictor-head-params-not-a-string", "predictor-trunk-hidden-sigmoid",
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


def test_eval_nan_checkpoint_parameter_is_one_line_numeric_failure(tiny_config, tmp_path,
                                                                   capsys):
    def with_nan(payload):
        flat = np.frombuffer(base64.b64decode(payload), "<f8").copy()
        flat[3] = np.nan
        return base64.b64encode(flat.tobytes()).decode("ascii")

    out = tmp_path / "run"
    out.mkdir()
    (out / "predictor.json").write_text(_with_head_params(with_nan))
    assert run("eval", "--config", tiny_config, "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numeric failure: {out / 'predictor.json'}: non-finite parameter")
    assert err.count("\n") == 1 and "Traceback" not in err


def _schema_2_predictor() -> str:
    """The fixture with its version where schema 2 kept it."""
    doc = json.loads(PREDICTOR_FIXTURE.read_text())
    del doc["schema_version"]
    doc["predictor_schema_version"] = 2
    return json.dumps(doc)


@pytest.mark.parametrize("name, content", [("predictor.json", _schema_2_predictor()),
                                           ("locoval.json", json.dumps(SCHEMA_2_LOCOVAL))],
                         ids=["predictor", "locoval"])
def test_eval_schema_2_checkpoint_is_one_line_config_error(tiny_config, tmp_path, capsys,
                                                           name, content):
    out = tmp_path / "run"
    out.mkdir()
    (out / "predictor.json").write_bytes(PREDICTOR_FIXTURE.read_bytes())
    (out / name).write_text(content)
    assert run("eval", "--config", tiny_config, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {out / name}: checkpoint schema 2")
    assert "retrain" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def _with_field(doc: dict, field: str, value) -> str:
    """doc with field, a key of it or of its layout entry, set to value."""
    layout = doc.get("input_layout", doc.get("feature_layout"))
    (doc if field in doc else layout)[field] = value
    return json.dumps(doc)


def _scorer_doc() -> dict:
    """An untrained scorer of the fixture's horizon."""
    net = locoval.build_locoval(locoval.FeatureLayout(horizon=12)).net
    return {"schema_version": 3, "net": gradcore.model_to_dict(net), "train_config": None,
            "feature_layout": {"horizon": 12, "joint_count": 8, "include_pose": True,
                               "include_velocity": True}}


@pytest.mark.parametrize("name, field, value, message", [
    ("predictor.json", "horizon", 12.5, "horizon must be an integer, got 12.5"),
    ("predictor.json", "horizon", True, "horizon must be an integer, got True"),
    ("predictor.json", "include_pose", "no",
     "input_layout.include_pose must be true or false, got 'no'"),
    ("locoval.json", "horizon", 12.0, "feature_layout.horizon must be an integer, got 12.0"),
    ("locoval.json", "include_pose", None,
     "feature_layout.include_pose must be true or false, got None"),
], ids=["horizon-real", "horizon-bool", "include-pose-string", "scorer-horizon-real",
        "scorer-include-pose-null"])
def test_eval_checkpoint_field_of_wrong_kind_is_one_line_data_error(tiny_config, tmp_path,
                                                                     capsys, name, field,
                                                                     value, message):
    out = tmp_path / "run"
    out.mkdir()
    docs = {"predictor.json": json.loads(PREDICTOR_FIXTURE.read_text()),
            "locoval.json": _scorer_doc()}
    for path, doc in docs.items():
        (out / path).write_text(_with_field(doc, field, value) if path == name
                                else json.dumps(doc))
    assert run("eval", "--config", tiny_config, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"data error: {out / name}: malformed checkpoint ({message})\n"


@pytest.fixture(scope="module")
def alpha_100_run(tmp_path_factory):
    """A tiny run trained at alpha 100 with 3 heads, to be copied, not changed."""
    out = tmp_path_factory.mktemp("alpha_100") / "run"
    cfg = out.parent / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    for command in (["gen-data"], ["train-locoval"],
                    ["train-predictor", "--alpha", "100", "--heads", "3"]):
        assert run(*command, "--config", str(cfg), "--out", str(out)) == 0
    return out


def _nan_trunk_parameter(doc):
    flat = np.frombuffer(base64.b64decode(doc["trunk"]["params"]), "<f8").copy()
    flat[0] = np.nan
    doc["trunk"]["params"] = base64.b64encode(flat.tobytes()).decode("ascii")


# (file, a corruption that edits its document in place or returns the one to
# write, or None to copy locoval.json over it, exit code)
BAD_CHECKPOINTS = {
    "schema-2": ("predictor.json", lambda d: d.update(schema_version=2), 1),
    "head-params-cut": ("predictor.json",
                        lambda d: d["head"].update(params=d["head"]["params"][:-4]), 2),
    "trunk-sigmoid": ("predictor.json",
                      lambda d: d["trunk"].update(hidden_activation="sigmoid"), 2),
    "past-frames-8": ("predictor.json", lambda d: d["input_layout"].update(past_frames=8), 2),
    "horizon-11": ("predictor.json", lambda d: d.update(horizon=11), 2),
    "scorer-as-predictor": ("predictor.json", None, 2),
    "scorer-joint-count-7": ("locoval.json",
                             lambda d: d["feature_layout"].update(joint_count=7), 2),
    "empty-list": ("predictor.json", lambda d: [], 2),
    "nan-trunk-parameter": ("predictor.json", _nan_trunk_parameter, 3),
}


@pytest.mark.parametrize("name, corrupt, code", BAD_CHECKPOINTS.values(),
                         ids=BAD_CHECKPOINTS.keys())
def test_eval_bad_checkpoint_exit_codes(alpha_100_run, tiny_config, tmp_path, capsys,
                                        name, corrupt, code):
    """load_checkpoint alone decides how a bad checkpoint fails: another schema
    is a config error, a non-finite parameter a numeric failure, and any other
    fault a data error; each is one stderr line naming the file."""
    out = tmp_path / "run"
    shutil.copytree(alpha_100_run, out)
    if corrupt is None:
        shutil.copyfile(out / "locoval.json", out / name)
    else:
        doc = json.loads((out / name).read_text())
        changed = corrupt(doc)
        (out / name).write_text(json.dumps(doc if changed is None else changed))
    assert run("eval", "--config", tiny_config, "--out", str(out)) == code
    err = capsys.readouterr().err
    kind = {1: "config error", 2: "data error", 3: "numeric failure"}[code]
    assert err.startswith(f"{kind}: {out / name}: ")
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("param", ["lambda", "alpha"])
def test_sweep_empty_values_is_one_line_config_error(alpha_100_run, tiny_config, tmp_path,
                                                     capsys, param):
    """An empty --values is parsed like any other: it does not fall back to
    the config's grid, and the last sweep's file keeps its bytes."""
    out = tmp_path / "run"
    shutil.copytree(alpha_100_run, out)
    sweep_path = out / f"sweep_{param}.csv"
    sweep_path.write_text("value,ade\n0.5,1.0\n")
    assert run("sweep", "--config", tiny_config, "--out", str(out), "--param", param,
               "--values", "") == 1
    assert capsys.readouterr().err == "config error: --values: '' is not a number\n"
    assert sweep_path.read_text() == "value,ade\n0.5,1.0\n"


def test_train_predictor_records_the_scorer_hash(trained_dir):
    """predictor.json records the sha256 of the bytes that locoval.json's
    params base64-encodes."""
    pred = json.loads((trained_dir / "predictor.json").read_text())
    net = json.loads((trained_dir / "locoval.json").read_text())["net"]
    assert pred["locoval_checksum"] == hashlib.sha256(base64.b64decode(net["params"])).hexdigest()


@pytest.mark.parametrize("command", ["eval", "sweep --param lambda",
                                     "sweep --param alpha --values 0"])
def test_other_scorer_is_one_line_data_error(tiny_config, trained_dir, capsys, command):
    """A scorer that is not the one the predictor trained against, with one
    parameter changed, is refused before any output is written."""
    scorer_path = trained_dir / "locoval.json"
    doc = json.loads(scorer_path.read_text())
    flat = np.frombuffer(base64.b64decode(doc["net"]["params"]), "<f8").copy()
    flat[0] += 1e-3
    doc["net"]["params"] = base64.b64encode(flat.tobytes()).decode("ascii")
    scorer_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(*command.split(), "--config", tiny_config, "--out", str(trained_dir)) == 2
    assert capsys.readouterr().err == (
        f"data error: {scorer_path} is not the scorer that {trained_dir / 'predictor.json'} "
        f"was trained against; retrain the predictor\n")
    assert not {"metrics.json", "sweep_lambda.csv", "sweep_alpha.csv"} & {
        f.name for f in trained_dir.iterdir()}


def test_predictor_trained_without_a_scorer_evaluates_against_any(tiny_config, tmp_path):
    out = tmp_path / "run"
    for stage in (["train-predictor"], ["gen-data"], ["train-locoval"]):
        assert run(*stage, "--config", tiny_config, "--out", str(out)) == 0
    assert json.loads((out / "predictor.json").read_text())["locoval_checksum"] is None
    assert run("eval", "--config", tiny_config, "--out", str(out), "--filter", "0.5") == 0
    assert run("sweep", "--config", tiny_config, "--out", str(out)) == 0


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


@pytest.mark.parametrize("command, scorer_lr, step, op", [
    ("train-predictor --alpha 1e30 --heads 3", None, 1, ""),
    ("train-predictor --alpha 1e300 --heads 3", None, 1, ""),
    ("sweep --param alpha --values 1e300", None, 1, ""),
    ("train-locoval", 1e30, 2, "exp"),
    ("train-locoval", 1e300, 2, "matmul"),
], ids=["alpha-1e30", "alpha-1e300", "sweep-alpha-1e300", "scorer-lr-1e30", "scorer-lr-1e300"])
def test_training_overflow_is_one_line_numeric_failure(tmp_path, trained_dir, capfd, command,
                                                       scorer_lr, step, op):
    """At alpha 1e30 AdamW's second moment overflows, at 1e300 the
    regularizer's gradient does; in-process or in a sweep worker, whose
    stderr is this process's file descriptor 2, the run stops at once with
    one line. The scorer fit follows the same rule: at a learning rate of
    1e30 its first step drives the sigmoid's exp to overflow on the next,
    at 1e300 the next step's matmul overflows. Nothing is written."""
    config = json.loads(json.dumps(TINY))
    if scorer_lr is not None:
        config["locoval"]["train"]["learning_rate"] = scorer_lr
    config_path = tmp_path / "blowup.json"
    config_path.write_text(json.dumps(config))
    outputs = ("predictor.json", "predictor_curve.csv", "locoval.json", "locoval_curve.csv")
    before = [(trained_dir / name).read_bytes() for name in outputs]
    capfd.readouterr()
    assert run(*command.split(), "--config", str(config_path), "--out", str(trained_dir)) == 3
    err = capfd.readouterr().err
    assert err.startswith(f"numeric failure: training step {step}: overflow encountered in {op}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert [(trained_dir / name).read_bytes() for name in outputs] == before
    assert not (trained_dir / "sweep_alpha.csv").exists()


@pytest.mark.parametrize(
    "command, override, message",
    [
        ("train-locoval", {"locoval": {"train": {"learning_rate": 1e400}}},
         "locoval.train.learning_rate must be"),
        ("train-locoval", {"locoval": {"train": {"learning_rate": float("nan")}}},
         "locoval.train.learning_rate must be"),
        ("gen-data", {"predictor": {"stride": 0}}, "predictor.stride must be"),
        ("gen-data", {"predictor": {"stride": -1}}, "predictor.stride must be"),
        ("gen-data", {"predictor": {"future_frames": 1}}, "predictor.future_frames must be"),
        ("train-locoval", {"locoval": {"holdout_fraction": 1.5}},
         "locoval.holdout_fraction must be"),
        ("train-locoval", {"locoval": {"hidden": [0]}},
         "locoval.hidden must be a list of integers >= 1, got [0]"),
        ("train-predictor", {"predictor": {"trunk_hidden": [0]}},
         "predictor.trunk_hidden must be a list of integers >= 1, got [0]"),
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
         "predictor.alpha must be finite, got nan"),
        ("train-predictor", {"predictor": {"alpha": -1}},
         "predictor.alpha must be non-negative, got -1"),
        ("train-predictor --alpha nan", {}, "predictor.alpha must be finite, got nan"),
        ("train-predictor --alpha -0.5", {}, "predictor.alpha must be non-negative, got -0.5"),
        ("gen-data", {"eval": {"threshold": 1.5}}, "eval.threshold must be in [0, 1]"),
        ("sweep", {"eval": {"lambdas": ["x"]}},
         "eval.lambdas must be a non-empty list of numbers in [0, 1], got ['x']"),
        ("sweep", {"eval": {"lambdas": [0.5, 2]}},
         "eval.lambdas must be a non-empty list of numbers in [0, 1], got [0.5, 2]"),
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
        ("gen-data", {"data": {"seed": -1}}, "data.seed must be an integer >= 0, got -1"),
        ("gen-data", {"data": {"eval_seed": -1}}, "data.eval_seed must be an integer >= 0"),
        ("gen-data", {"predictor": {"window_seed": -1}},
         "predictor.window_seed must be an integer >= 0"),
        ("gen-data", {"locoval": {"train": {"seed": -1}}},
         "locoval.train.seed must be an integer >= 0, got -1"),
        ("gen-data", {"predictor": {"train": {"seed": -1}}},
         "predictor.train.seed must be an integer >= 0, got -1"),
        ("gen-data", {"data": {"pose_bank_size": 0}},
         "data.pose_bank_size must be an integer >= 1, got 0"),
        ("gen-data", {"predictor": {"n_heads": 0}}, "predictor.n_heads must be an integer >= 1"),
        ("train-predictor --heads 0", {}, "predictor.n_heads must be an integer >= 1, got 0"),
        ("gen-data", {"data": {"n_tracks": 0}}, "data.n_tracks must be an integer >= 1"),
        ("gen-data", {"data": {"n_eval_tracks": 0}},
         "data.n_eval_tracks must be an integer >= 1"),
        ("gen-data", {"predictor": {"past_frames": 1}},
         "predictor.past_frames must be an integer >= 2, got 1"),
        ("gen-data", {"data": {"synthetic": {"scenario_weights": {"turn": "x"}}}},
         f"data.synthetic.scenario_weights must be {WEIGHTS_RULE}, got {{'turn': 'x'}}"),
        ("gen-data", {"data": {"synthetic": {"scenario_weights": {"turn": -1.0}}}},
         f"data.synthetic.scenario_weights must be {WEIGHTS_RULE}, got {{'turn': -1.0}}"),
        ("gen-data", {"data": {"synthetic": {"scenario_weights": {"turn": float("nan")}}}},
         f"data.synthetic.scenario_weights must be {WEIGHTS_RULE}, got {{'turn': nan}}"),
        ("gen-data", {"data": {"synthetic": {"scenario_weights": {"turn": 0.0, "straight": 0}}}},
         f"data.synthetic.scenario_weights must be {WEIGHTS_RULE}, "
         "got {'turn': 0.0, 'straight': 0}"),
        ("sweep --param lambda --values 0.5,2", {}, "--values must be in [0, 1], got 2.0"),
        ("sweep --param alpha --values 0,-1", {}, "--values must be non-negative, got -1.0"),
        ("sweep --param alpha --values 0,nan", {}, "--values must be finite, got nan"),
        # AdamW's betas and eps are constants, and weight decay and the cosine
        # floor are gone: a config that names one, such as a
        # resolved_config.json written before they went, names the unknown key
        *[(f"train-{section}", {section: {"train": {key: 0.1}}},
           f"{section}.train: unknown keys ['{key}']")
          for section in ("locoval", "predictor") for key in REMOVED_TRAIN_KEYS],
    ],
    ids=["lr-1e400", "lr-nan", "stride-zero", "stride-negative",
         "future-one", "holdout-1.5", "hidden-zero", "trunk-hidden-zero",
         "n-plausible-string", "n-plausible-float", "n-implausible-bool", "pair-seed-string",
         "speed-range-one-value", "speed-range-reversed", "accel-range-string",
         "noise-negative", "min-reward-above-one", "max-retries-zero", "a-max-infinite",
         "v-max-nan", "w-energy-string", "v-max-negative", "alpha-nan", "alpha-negative",
         "alpha-option-nan", "alpha-option-negative", "threshold-1.5", "lambdas-string",
         "lambdas-above-one", "chi2-bins-one", "score-bins-zero", "stride-string", "n-tracks-float",
         "lr-string", "holdout-null", "n-heads-bool", "include-pose-int",
         "sweep-values-not-a-number", "data-seed-negative", "eval-seed-negative",
         "window-seed-negative", "locoval-train-seed-negative", "predictor-train-seed-negative",
         "pose-bank-zero", "n-heads-zero", "heads-option-zero",
         "n-tracks-zero", "n-eval-tracks-zero", "past-frames-one", "weights-string",
         "weights-negative", "weights-nan", "weights-all-zero", "sweep-lambda-above-one",
         "sweep-alpha-negative", "sweep-alpha-nan",
         *[f"{section}-{key}" for section in ("locoval", "predictor")
           for key in REMOVED_TRAIN_KEYS]],
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
    # every bad value is caught before the output directory is made
    assert not (tmp_path / "o").exists()
