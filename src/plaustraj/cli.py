"""Command-line surface: data generation, the two training stages,
evaluation, filtering, and parameter sweeps.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
The output root comes from --out or the PLAUSTRAJ_OUT environment variable.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import datakit, filtering, gradcore, locoval as locoval_mod, metrics, oracle
from . import predictor as predictor_mod
from .config import RunConfig, load_config, override, save_resolved_config
from .errors import ConfigError, DataError, InputShapeError, NumericError
from .metrics import pearson_r

OUT_ENV_VAR = "PLAUSTRAJ_OUT"


def _out_dir(out) -> Path:
    root = Path(out or os.environ.get(OUT_ENV_VAR, "runs"))
    root.mkdir(parents=True, exist_ok=True)
    return root


def _load_run_config(config_path) -> RunConfig:
    if config_path is None:
        return RunConfig()
    return load_config(config_path)


def _future_slices(dataset: datakit.TrajectoryDataset, horizon: int,
                   stride: int) -> list[oracle.Trajectory]:
    slices = []
    for tid in sorted(dataset.tracks):
        pts = dataset.tracks[tid].points
        for start in range(0, len(pts) - horizon + 1, stride):
            slices.append(oracle.Trajectory(pts[start : start + horizon], dataset.dt))
    return slices


def _build_instances(cfg: RunConfig, seed: int, n_tracks: int):
    dataset = datakit.generate_synthetic(
        cfg.data.synthetic, n_tracks, seed=seed, params=cfg.oracle
    )
    bank = datakit.generate_pose_bank(cfg.data.pose_bank_size, seed=cfg.data.seed + 7)
    return datakit.make_training_instances(
        dataset,
        bank,
        cfg.predictor.past_frames,
        cfg.predictor.future_frames,
        stride=cfg.predictor.stride,
        seed=cfg.predictor.window_seed,
    )


def _eval_cases(model, scorer, instances):
    """(candidates, per-head scores or None, ground truth) triples, the cases
    filtering.sweep_lambda takes."""
    cases = []
    for inst in instances:
        pred = predictor_mod.predict(model, inst.past, inst.observable)
        scores = (
            locoval_mod.score_batch(scorer, pred.trajectories, inst.observable)
            if scorer is not None
            else None
        )
        cases.append((pred.trajectories, scores, inst.future))
    return cases


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

    dataset = datakit.generate_synthetic(
        cfg.data.synthetic, cfg.data.n_tracks, seed=cfg.data.seed, params=cfg.oracle
    )
    datakit.save_tsv(dataset, out_dir / "trajectories.tsv")

    bank = datakit.generate_pose_bank(cfg.data.pose_bank_size, seed=cfg.data.seed + 7)
    datakit.save_pose_bank(bank, out_dir / "pose_bank.json")

    traj_bank = _future_slices(dataset, cfg.predictor.future_frames, cfg.predictor.stride)
    samples = oracle.build_plausibility_dataset(
        bank,
        traj_bank,
        cfg.plausibility.n_plausible,
        cfg.plausibility.n_implausible,
        params=cfg.oracle,
        seed=cfg.plausibility.seed,
    )
    oracle.save_plausibility_csv(samples, out_dir / "plausibility.csv")
    save_resolved_config(cfg, out_dir / "resolved_config.json")

    by_label = {}
    for s in samples:
        by_label.setdefault(s.label, []).append(s.reward)
    click.echo(f"tracks: {len(dataset.tracks)}  pose bank: {len(bank)}  pairs: {len(samples)}")
    for label in sorted(by_label):
        vals = by_label[label]
        click.echo(f"  {label}: n={len(vals)} mean_reward={np.mean(vals):.3f}")
    if len(by_label) == 2:
        gap = np.mean(by_label["plausible_pair"]) - np.mean(by_label["implausible_pair"])
        click.echo(f"  reward gap (plausible - implausible): {gap:.3f}")


@cli.command("train-locoval")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default=None)
@click.option("--data", "data_dir", default=None,
              help="Directory holding plausibility.csv (default: the output dir).")
def cmd_train_locoval(config_path, out, data_dir):
    """Train the plausibility scorer against the oracle-labeled dataset."""
    cfg = _load_run_config(config_path)
    out_dir = _out_dir(out)
    data_dir = Path(data_dir) if data_dir else out_dir

    csv_path = data_dir / "plausibility.csv"
    if not csv_path.exists():
        raise DataError(f"missing {csv_path}; run gen-data first")
    samples = oracle.load_plausibility_csv(csv_path)
    if not samples:
        raise DataError(f"{csv_path}: no pairs after the header")

    layout = locoval_mod.FeatureLayout(
        horizon=len(samples[0].trajectory),
        joint_count=len(samples[0].observable.joints),
        include_pose=cfg.locoval.include_pose,
        include_velocity=cfg.locoval.include_velocity,
    )
    result = locoval_mod.train_locoval(
        samples,
        cfg.locoval.train,
        layout=layout,
        hidden=tuple(cfg.locoval.hidden),
        holdout_fraction=cfg.locoval.holdout_fraction,
    )
    locoval_mod.save_locoval(
        result.model, out_dir / "locoval.json",
        seed=cfg.locoval.train.seed, train_config=cfg.locoval.train,
    )
    with open(out_dir / "locoval_curve.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "lr", "train_mse", "holdout_mse"])
        for p in result.curve:
            writer.writerow([p.step, repr(p.lr), repr(p.train_mse), repr(p.holdout_mse)])
    save_resolved_config(cfg, out_dir / "resolved_config.json")

    X_ho, y_ho = locoval_mod.features_and_targets(
        [samples[i] for i in result.holdout_indices], result.model.layout
    )
    corr = pearson_r(gradcore.forward(result.model.net, X_ho)[:, 0], y_ho)
    click.echo(
        f"best holdout MSE: {result.best_holdout_mse:.5f}  "
        f"holdout correlation(score, reward): {corr:.3f}"
    )


@cli.command("train-predictor")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default=None)
@click.option("--alpha", type=float, default=None, help="Override the regularizer weight.")
@click.option("--heads", type=int, default=None, help="Override the head count.")
@click.option("--seed", type=int, default=None, help="Override the training seed.")
def cmd_train_predictor(config_path, out, alpha, heads, seed):
    """Train the trajectory predictor (regularized when alpha > 0)."""
    cfg = _load_run_config(config_path)
    cfg.predictor = override(cfg.predictor, "config.predictor", alpha=alpha, n_heads=heads)
    if seed is not None:
        cfg.predictor.train.seed = seed
    out_dir = _out_dir(out)

    instances = _build_instances(cfg, cfg.data.seed, cfg.data.n_tracks)
    scorer = None
    scorer_path = out_dir / "locoval.json"
    if cfg.predictor.alpha > 0:
        if not scorer_path.exists():
            raise DataError(f"alpha > 0 requires {scorer_path}; run train-locoval first")
        scorer = locoval_mod.load_locoval(scorer_path)
    elif scorer_path.exists():
        scorer = locoval_mod.load_locoval(scorer_path)

    result = predictor_mod.train_predictor(
        instances,
        scorer,
        cfg.predictor.train,
        alpha=cfg.predictor.alpha,
        n_heads=cfg.predictor.n_heads,
        trunk_hidden=tuple(cfg.predictor.trunk_hidden),
    )
    predictor_mod.save_predictor(
        result, out_dir / "predictor.json", train_config=cfg.predictor.train
    )
    with open(out_dir / "predictor_curve.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss_gt", "loss_plaus", "ratio", "regularizer_dominates"])
        for p in result.curve:
            writer.writerow(
                [p.step, repr(p.loss_gt), repr(p.loss_plaus), repr(p.ratio),
                 int(p.regularizer_dominates)]
            )
    save_resolved_config(cfg, out_dir / "resolved_config.json")
    last = result.curve[-1]
    click.echo(
        f"trained {result.n_heads}-head predictor (alpha={result.alpha}): "
        f"loss_gt={last.loss_gt:.4f} loss_plaus={last.loss_plaus:.4f}"
    )
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
    cfg = _load_run_config(config_path)
    out_dir = _out_dir(out)

    model = predictor_mod.load_predictor(out_dir / "predictor.json")
    scorer_path = out_dir / "locoval.json"
    scorer = locoval_mod.load_locoval(scorer_path) if scorer_path.exists() else None
    if threshold is not None and scorer is None:
        raise DataError(f"--filter requires {scorer_path}")

    instances = _build_instances(cfg, cfg.data.eval_seed, cfg.data.n_eval_tracks)
    cases = _eval_cases(model, scorer, instances)

    report = metrics.evaluate_predictions(
        [c[0] for c in cases], [c[2] for c in cases], n_bins=cfg.eval.chi2_bins
    )
    metrics.save_report_json(report, out_dir / "metrics.json")
    metrics.save_report_csv(report, out_dir / "metrics.csv")
    metrics.save_per_timestep_csv(report, out_dir / "per_timestep.csv")
    click.echo(
        f"ADE={report.ade:.3f} FDE={report.fde:.3f} "
        f"minADE={report.min_ade:.3f} minFDE={report.min_fde:.3f} "
        f"chi2_vel={report.chi2['velocity']:.4f}"
    )

    if scorer is not None:
        scores, ades = [], []
        for candidates, case_scores, gt in cases:
            for traj, s in zip(candidates, case_scores):
                scores.append(s)
                ades.append(metrics.ade(traj, gt))
        bins = metrics.bin_by_plausibility(scores, ades, n_bins=cfg.eval.score_bins)
        metrics.save_bins_csv(bins, out_dir / "score_bins.csv")

    if threshold is not None:
        entry = filtering.sweep_lambda(cases, [threshold])[0]
        metrics.save_report_json(entry.kept_report, out_dir / "metrics_kept.json")
        if entry.rejected_report is not None:
            metrics.save_report_json(entry.rejected_report, out_dir / "metrics_rejected.json")
        click.echo(
            f"filter lambda={threshold}: kept ADE={entry.kept_report.ade:.3f} "
            + (
                f"rejected ADE={entry.rejected_report.ade:.3f} "
                if entry.rejected_report
                else "rejected ADE=n/a "
            )
            + f"rejection rate={entry.rejection_rate:.1%}"
        )


@cli.command("filter")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", default=None)
@click.option("--candidates", "candidates_path", type=click.Path(exists=True), required=True,
              help="TSV of externally produced candidates: case head frame x y.")
@click.option("--observables", "observables_path", type=click.Path(exists=True), required=True,
              help="JSON mapping case id to pose-bank-style observable state.")
@click.option("--threshold", type=float, default=None, help="Override config threshold.")
def cmd_filter(config_path, out, candidates_path, observables_path, threshold):
    """Score and partition externally produced candidate trajectories."""
    cfg = _load_run_config(config_path)
    out_dir = _out_dir(out)
    lam = cfg.eval.threshold if threshold is None else threshold

    scorer = locoval_mod.load_locoval(out_dir / "locoval.json")
    cases = load_candidates_tsv(candidates_path, dt=cfg.data.synthetic.dt)
    observables = load_observables_json(observables_path)

    reports = []
    for case_id in sorted(cases):
        if case_id not in observables:
            raise DataError(f"no observable state for case {case_id}")
        result = filtering.locoval_filter(scorer, cases[case_id], observables[case_id], lam)
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
    cfg = _load_run_config(config_path)
    out_dir = _out_dir(out)
    grid = (
        _parse_grid(values)
        if values
        else list(cfg.eval.lambdas if param == "lambda" else [0.0, 1.0, 10.0, 100.0])
    )

    scorer = locoval_mod.load_locoval(out_dir / "locoval.json")
    instances = _build_instances(cfg, cfg.data.eval_seed, cfg.data.n_eval_tracks)

    rows = []
    if param == "lambda":
        model = predictor_mod.load_predictor(out_dir / "predictor.json")
        for entry in filtering.sweep_lambda(_eval_cases(model, scorer, instances), grid):
            rows.append(
                {
                    "value": entry.threshold,
                    "kept_ade": entry.kept_report.ade,
                    "kept_fde": entry.kept_report.fde,
                    "rejected_ade": entry.rejected_report.ade if entry.rejected_report else "",
                    "rejected_fde": entry.rejected_report.fde if entry.rejected_report else "",
                    "rejection_rate": entry.rejection_rate,
                    "fallback_cases": entry.fallback_cases,
                }
            )
    else:
        train_instances = _build_instances(cfg, cfg.data.seed, cfg.data.n_tracks)
        for alpha in grid:
            result = predictor_mod.train_predictor(
                train_instances,
                scorer,
                cfg.predictor.train,
                alpha=alpha,
                n_heads=cfg.predictor.n_heads,
                trunk_hidden=tuple(cfg.predictor.trunk_hidden),
            )
            cases = _eval_cases(result.model, None, instances)
            report = metrics.evaluate_predictions(
                [c[0] for c in cases], [c[2] for c in cases], n_bins=cfg.eval.chi2_bins
            )
            rows.append(
                {
                    "value": alpha,
                    "ade": report.ade,
                    "fde": report.fde,
                    "min_ade": report.min_ade,
                    "min_fde": report.min_fde,
                    "chi2_velocity": report.chi2["velocity"],
                }
            )

    sweep_path = out_dir / f"sweep_{param}.csv"
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    for row in rows:
        click.echo("  ".join(f"{k}={v}" for k, v in row.items()))
    click.echo(f"wrote {sweep_path}")


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
    """Rows of "case head frame x y"; returns case id -> list of trajectories
    ordered by head index."""
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
    cases = {}
    for case, heads in raw.items():
        trajectories = []
        for head in sorted(heads):
            pts = np.array([[x, y] for _, x, y in sorted(heads[head])])
            trajectories.append(oracle.Trajectory(pts, dt))
        lengths = {len(t) for t in trajectories}
        if len(lengths) != 1:
            raise DataError(f"{path}: case {case} has heads of differing lengths")
        cases[case] = trajectories
    return cases


def load_observables_json(path) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON ({exc})")
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected an object mapping case id to state")
    observables = {}
    for key, entry in doc.items():
        try:
            case = int(key)
            joints = {k: np.array(v, dtype=float) for k, v in entry["joints"].items()}
            velocity = np.array(entry["root_velocity"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed observable for case {key!r} ({exc})")
        observables[case] = oracle.ObservableState(joints=joints, root_velocity=velocity)
    return observables


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except (click.UsageError,) as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
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
