"""Command-line surface: data generation, the two training stages,
evaluation, filtering, and parameter sweeps.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
The output root comes from --out or the PLAUSTRAJ_OUT environment variable.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import datakit, filtering, gradcore, locoval as locoval_mod, metrics, oracle, study
from . import predictor as predictor_mod
from .config import RunConfig, load_config, override, save_resolved_config
from .errors import (NON_NEGATIVE, UNIT, ConfigError, DataError, InputShapeError, NumericError,
                     check_value)
from .metrics import pearson_r

OUT_ENV_VAR = "PLAUSTRAJ_OUT"


def _out_dir(out) -> Path:
    """The output root, not made here: a command that only reads from it
    fails on the missing input and leaves no empty directory behind."""
    return Path(out or os.environ.get(OUT_ENV_VAR, "runs"))


def _load_run_config(config_path) -> RunConfig:
    return RunConfig() if config_path is None else load_config(config_path)


def _build_instances(cfg: RunConfig, seed: int, n_tracks: int) -> datakit.WindowSet:
    """The predictor's windows over n_tracks synthetic tracks drawn from seed."""
    dataset = datakit.generate_synthetic(cfg.data.synthetic, n_tracks, seed=seed, params=cfg.oracle)
    bank = datakit.generate_pose_bank(cfg.data.pose_bank_size, seed=cfg.data.seed + 7)
    p = cfg.predictor
    return datakit.make_training_instances(dataset, bank, p.past_frames, p.future_frames,
                                           stride=p.stride, seed=p.window_seed)


@click.group()
def cli():
    """Plausibility-aware trajectory prediction toolkit."""


@cli.command("gen-data")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default=None, help="Output directory (default $PLAUSTRAJ_OUT or ./runs).")
def cmd_gen_data(config_path, out):
    """Write the synthetic trajectory TSV, pose bank, and oracle-labeled
    plausibility dataset."""
    cfg = _load_run_config(config_path)
    out_dir = _out_dir(out)

    dataset = datakit.generate_synthetic(cfg.data.synthetic, cfg.data.n_tracks,
                                         seed=cfg.data.seed, params=cfg.oracle)
    out_dir.mkdir(parents=True, exist_ok=True)
    datakit.save_tsv(dataset, out_dir / "trajectories.tsv")

    bank = datakit.generate_pose_bank(cfg.data.pose_bank_size, seed=cfg.data.seed + 7)
    datakit.save_pose_bank(bank, out_dir / "pose_bank.json")

    traj_bank = datakit.future_slices(dataset, cfg.predictor.future_frames, cfg.predictor.stride)
    pairs = oracle.build_plausibility_dataset(
        bank, traj_bank, cfg.plausibility.n_plausible, cfg.plausibility.n_implausible,
        params=cfg.oracle, seed=cfg.plausibility.seed)
    oracle.save_plausibility_csv(pairs, out_dir / "plausibility.csv")
    save_resolved_config(cfg, out_dir / "resolved_config.json")

    click.echo(f"tracks: {len(dataset.tracks)}  pose bank: {len(bank)}  pairs: {len(pairs)}")
    means = {}
    for label, mask in zip(oracle.LABELS, (~pairs.plausible, pairs.plausible)):
        if mask.any():
            means[label] = np.mean(pairs.rewards[mask])
            click.echo(f"  {label}: n={mask.sum()} mean_reward={means[label]:.3f}")
    if len(means) == 2:
        gap = means["plausible_pair"] - means["implausible_pair"]
        click.echo(f"  reward gap (plausible - implausible): {gap:.3f}")


@cli.command("train-locoval")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default=None)
def cmd_train_locoval(config_path, out):
    """Train the plausibility scorer against the oracle-labeled dataset in
    the output directory."""
    cfg = _load_run_config(config_path)
    out_dir = _out_dir(out)

    csv_path = out_dir / "plausibility.csv"
    if not csv_path.exists():
        raise DataError(f"missing {csv_path}; run gen-data first")
    pairs = oracle.load_plausibility_csv(csv_path)
    layout = locoval_mod.FeatureLayout(pairs.horizon, include_pose=cfg.locoval.include_pose,
                                       include_velocity=cfg.locoval.include_velocity)
    result = locoval_mod.train_locoval(pairs, cfg.locoval.train, layout=layout,
                                       hidden=tuple(cfg.locoval.hidden),
                                       holdout_fraction=cfg.locoval.holdout_fraction)
    locoval_mod.save_locoval(result.model, out_dir / "locoval.json",
                             train_config=cfg.locoval.train)
    metrics.save_csv(out_dir / "locoval_curve.csv", ["step", "lr", "train_mse", "holdout_mse"],
                     [[p.step, repr(p.lr), repr(p.train_mse), repr(p.holdout_mse)]
                      for p in result.curve])
    save_resolved_config(cfg, out_dir / "resolved_config.json")

    X_ho, y_ho = locoval_mod.features_and_targets(pairs.subset(result.holdout_indices),
                                                  result.model.layout)
    corr = pearson_r(gradcore.forward(result.model.net, X_ho)[:, 0], y_ho)
    click.echo(f"best holdout MSE: {result.best_holdout_mse:.5f}  "
               f"holdout correlation(score, reward): {corr:.3f}")


@cli.command("train-predictor")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default=None)
@click.option("--alpha", type=float, default=None, help="Override the regularizer weight.")
@click.option("--heads", type=int, default=None, help="Override the head count.")
def cmd_train_predictor(config_path, out, alpha, heads):
    """Train the trajectory predictor (regularized when alpha > 0)."""
    cfg = _load_run_config(config_path)
    cfg.predictor = override(cfg.predictor, "config.predictor", alpha=alpha, n_heads=heads)
    out_dir = _out_dir(out)

    instances = _build_instances(cfg, cfg.data.seed, cfg.data.n_tracks)
    scorer_path = out_dir / "locoval.json"
    if cfg.predictor.alpha > 0 and not scorer_path.exists():
        raise DataError(f"alpha > 0 requires {scorer_path}; run train-locoval first")
    scorer = locoval_mod.load_locoval(scorer_path) if scorer_path.exists() else None

    result = predictor_mod.train_predictor(
        instances, scorer, cfg.predictor.train, alpha=cfg.predictor.alpha,
        n_heads=cfg.predictor.n_heads, trunk_hidden=tuple(cfg.predictor.trunk_hidden))
    checksum = None if scorer is None else gradcore.params_sha256(scorer.net)
    out_dir.mkdir(parents=True, exist_ok=True)
    predictor_mod.save_predictor(result, out_dir / "predictor.json",
                                 locoval_checksum=checksum, train_config=cfg.predictor.train)
    metrics.save_csv(out_dir / "predictor_curve.csv",
                     ["step", "loss_gt", "loss_plaus", "ratio", "regularizer_dominates"],
                     [[p.step, repr(p.loss_gt), repr(p.loss_plaus), repr(p.ratio),
                       int(p.regularizer_dominates)] for p in result.curve])
    save_resolved_config(cfg, out_dir / "resolved_config.json")
    last = result.curve[-1]
    click.echo(f"trained {result.n_heads}-head predictor (alpha={result.alpha}): "
               f"loss_gt={last.loss_gt:.4f} loss_plaus={last.loss_plaus:.4f}")
    flagged = sum(p.regularizer_dominates for p in result.curve)
    if flagged:
        click.echo(f"warning: alpha * plausibility loss exceeded the ground-truth "
                   f"loss on {flagged} of {len(result.curve)} curve intervals "
                   f"(last interval ratio {last.ratio:.3g}); consider lowering alpha")


@cli.command("eval")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default=None)
@click.option("--filter", "threshold", type=float, default=None,
              help="Apply the plausibility filter at this threshold first.")
def cmd_eval(config_path, out, threshold):
    """Evaluate the trained predictor on a fresh synthetic evaluation set."""
    if threshold is not None:
        check_value("--filter", threshold, 0.0, UNIT)
    cfg = _load_run_config(config_path)
    out_dir = _out_dir(out)

    model, scorer = _load_checkpoints(out_dir, scorer_needed=threshold is not None)

    instances = _build_instances(cfg, cfg.data.eval_seed, cfg.data.n_eval_tracks)
    evaluation = filtering.evaluate_windows(model, instances, scorer, cfg.eval.chi2_bins)
    report = evaluation.report
    metrics.save_report_json(report, out_dir / "metrics.json")
    metrics.save_report_csv(report, out_dir / "metrics.csv")
    metrics.save_per_timestep_csv(report, out_dir / "per_timestep.csv")
    click.echo(
        f"ADE={report.ade:.3f} FDE={report.fde:.3f} "
        f"minADE={report.min_ade:.3f} minFDE={report.min_fde:.3f} "
        f"chi2_vel={report.chi2['velocity']:.4f}"
    )

    if scorer is not None:
        bins = metrics.bin_by_plausibility(evaluation.scores.ravel(), evaluation.ades.ravel(),
                                           n_bins=cfg.eval.score_bins)
        metrics.save_bins_csv(bins, out_dir / "score_bins.csv")

    if threshold is not None:
        entry = filtering.sweep_lambda(evaluation, [threshold])[0]
        metrics.save_report_json(entry.kept_report, out_dir / "metrics_kept.json")
        if entry.rejected_report is not None:
            metrics.save_report_json(entry.rejected_report, out_dir / "metrics_rejected.json")
        rejected = f"{entry.rejected_report.ade:.3f}" if entry.rejected_report else "n/a"
        click.echo(f"filter lambda={threshold}: kept ADE={entry.kept_report.ade:.3f} "
                   f"rejected ADE={rejected} rejection rate={entry.rejection_rate:.1%}")


@cli.command("filter")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default=None)
@click.option("--candidates", "candidates_path", type=click.Path(exists=True), required=True,
              help="TSV of externally produced candidates: case head frame x y.")
@click.option("--observables", "observables_path", type=click.Path(exists=True), required=True,
              help="JSON mapping case id to pose-bank-style observable state.")
def cmd_filter(config_path, out, candidates_path, observables_path):
    """Score and partition externally produced candidate trajectories at the
    config's eval.threshold."""
    cfg = _load_run_config(config_path)
    out_dir = _out_dir(out)
    lam = cfg.eval.threshold

    scorer = locoval_mod.load_locoval(out_dir / "locoval.json")
    cases = load_candidates_tsv(candidates_path, dt=cfg.data.synthetic.dt)
    observables = load_observables_json(observables_path)

    reports = []
    for case_id in sorted(cases):
        if case_id not in observables:
            raise DataError(f"{observables_path}: no observable state for case {case_id}")
        try:
            result = filtering.locoval_filter(scorer, cases[case_id], observables[case_id], lam)
        except InputShapeError as exc:  # the case's heads or pose do not fit the scorer
            raise DataError(f"{candidates_path}, {observables_path}: case {case_id}: {exc}")
        doc = result.to_json_dict()
        doc["case"] = case_id
        reports.append(doc)
    with open(out_dir / "filter_report.json", "w") as fh:
        json.dump(reports, fh, indent=2)
    n_kept = sum(len(r["kept"]) for r in reports)
    n_rej = sum(len(r["rejected"]) for r in reports)
    click.echo(f"cases: {len(reports)}  kept: {n_kept}  rejected: {n_rej}  lambda={lam}")


@cli.command("sweep")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default=None)
@click.option("--param", type=click.Choice(["lambda", "alpha"]), default="lambda")
@click.option("--values", default=None, help="Comma-separated grid; defaults from config.")
def cmd_sweep(config_path, out, param, values):
    """Grid sweep over the filter threshold or the regularizer weight."""
    grid = None if values is None else _parse_grid(values)
    for value in grid or ():  # a threshold in [0, 1], or a finite alpha >= 0
        check_value("--values", value, 0.0, UNIT if param == "lambda" else NON_NEGATIVE)
    cfg = _load_run_config(config_path)
    out_dir = _out_dir(out)
    if grid is None:
        grid = list(cfg.eval.lambdas if param == "lambda" else [0.0, 1.0, 10.0, 100.0])

    # the lambda sweep filters this predictor's heads; the alpha sweep trains
    # models with as many heads
    model, scorer = _load_checkpoints(out_dir, scorer_needed=True)
    instances = _build_instances(cfg, cfg.data.eval_seed, cfg.data.n_eval_tracks)

    rows = []
    if param == "lambda":
        evaluation = filtering.evaluate_windows(model, instances, scorer, cfg.eval.chi2_bins)
        for entry in filtering.sweep_lambda(evaluation, grid):
            rejected = entry.rejected_report
            rows.append({"value": entry.threshold, "kept_ade": entry.kept_report.ade,
                         "kept_fde": entry.kept_report.fde,
                         "rejected_ade": rejected.ade if rejected else "",
                         "rejected_fde": rejected.fde if rejected else "",
                         "rejection_rate": entry.rejection_rate,
                         "fallback_cases": entry.fallback_cases})
    else:
        train_instances = _build_instances(cfg, cfg.data.seed, cfg.data.n_tracks)
        jobs = [dict(dataset=train_instances, scorer=scorer, config=cfg.predictor.train,
                     alpha=alpha, n_heads=model.n_heads,
                     trunk_hidden=tuple(cfg.predictor.trunk_hidden)) for alpha in grid]
        for alpha, trained in zip(grid, study.train_jobs(jobs)):
            report = filtering.evaluate_windows(trained, instances,
                                                n_bins=cfg.eval.chi2_bins).report
            rows.append({"value": alpha, "ade": report.ade, "fde": report.fde,
                         "min_ade": report.min_ade, "min_fde": report.min_fde,
                         "chi2_velocity": report.chi2["velocity"]})

    sweep_path = out_dir / f"sweep_{param}.csv"
    metrics.save_csv(sweep_path, list(rows[0]), [list(row.values()) for row in rows])
    for row in rows:
        click.echo("  ".join(f"{k}={v}" for k, v in row.items()))
    click.echo(f"wrote {sweep_path}")


def _load_checkpoints(out_dir: Path, scorer_needed: bool):
    """The predictor and scorer (None when absent and not needed) of out_dir; a
    DataError unless the predictor's locoval_checksum is null or this scorer's.
    predictor.json is parsed once, for the model and the checksum."""
    model_path, scorer_path = out_dir / "predictor.json", out_dir / "locoval.json"
    with_scorer = scorer_needed or scorer_path.exists()
    model, recorded = gradcore.load_checkpoint(model_path, lambda doc: (
        predictor_mod.predictor_from_dict(doc), doc["locoval_checksum"] if with_scorer else None))
    if not with_scorer:
        return model, None
    scorer = locoval_mod.load_locoval(scorer_path)
    if recorded not in (None, gradcore.params_sha256(scorer.net)):
        raise DataError(f"{scorer_path} is not the scorer that {model_path} was trained "
                        f"against; retrain the predictor")
    return model, scorer


def _parse_grid(values: str) -> list[float]:
    grid = []
    for v in values.split(","):
        try:
            grid.append(float(v))
        except ValueError:
            raise ConfigError(f"--values: {v!r} is not a number")
    return grid


# ---------------------------------------------------------------------------
# External candidate files


def load_candidates_tsv(path, dt: float) -> dict:
    """Rows of "case head frame x y"; returns case id -> a TrajectorySet of
    its heads, head h at row h. A case's head ids must run 0..K-1, each head's
    frames consecutively, each given once, and its heads must share one length."""
    raw = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 5:
                raise DataError(f"{path}:{line_no}: expected 5 fields, got {len(parts)}")
            try:
                case, head, frame = int(parts[0]), int(parts[1]), int(parts[2])
                x, y = float(parts[3]), float(parts[4])
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: {exc}")
            raw.setdefault(case, {}).setdefault(head, []).append((frame, x, y))
    if not raw:
        raise DataError(f"{path}: no candidate rows")
    cases = {}
    for case, heads in raw.items():
        points = []
        for head in range(len(heads)):  # K ids that are not 0..K-1 miss one of them
            if head not in heads:
                raise DataError(f"{path}: case {case}: head {head} missing (head ids run 0..K-1)")
            rows = sorted(heads[head])
            for (prev, _, _), (frame, _, _) in zip(rows, rows[1:]):
                if frame != prev + 1:
                    gap = f"frame {prev} repeated" if frame == prev else f"frame {prev + 1} missing"
                    raise DataError(f"{path}: case {case} head {head}: {gap}")
            points.append([(x, y) for _, x, y in rows])
        try:
            cases[case] = oracle.TrajectorySet(points, dt)
        except InputShapeError as exc:
            raise DataError(f"{path}: case {case}: {exc}")
    return cases


class _JsonObject(dict):
    """A JSON object as a dict that keeps its (key, value) pairs, repeats too."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs


def load_observables_json(path) -> dict:
    """Case id -> ObservableState. Each case is given once: a key repeated,
    or two keys of one integer such as "1" and "01", is a DataError, and so
    is a joint given twice in one case."""
    with open(path) as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_JsonObject)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON ({exc})")
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected an object mapping case id to state")
    observables, keys = {}, {}
    for key, entry in doc.pairs:
        try:
            case = int(key)
            joints = {k: np.array(v, dtype=float) for k, v in entry["joints"].items()}
            velocity = np.array(entry["root_velocity"], dtype=float)
            observable = oracle.ObservableState(joints=joints, root_velocity=velocity)
        except (AttributeError, KeyError, TypeError, ValueError, InputShapeError) as exc:
            raise DataError(f"{path}: malformed observable for case {key!r} ({exc})")
        names = [name for name, _ in entry["joints"].pairs]
        if len(names) > len(observable.joints):
            twice = next(n for i, n in enumerate(names) if n in names[:i])
            raise DataError(f"{path}: case {case}: joint {twice!r} is given twice")
        if case in keys:
            raise DataError(f"{path}: case {case} is given twice ({keys[case]!r} and {key!r})")
        observables[case], keys[case] = observable, key
    return observables


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:  # a UsageError too
        print(f"usage error: {exc.format_message()}", file=sys.stderr)
        return 1
    except click.Abort:
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, InputShapeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
