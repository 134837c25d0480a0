"""The three benchmark workloads, their output checks and their metrics.

Each workload has a set-up, a timed operation repeated for the run length,
and (except filter-eval, whose operation is the pass) one serve pass: every
eval window goes through ``predictor.predict`` then
``filtering.locoval_filter``, and the pass ends with
``metrics.evaluate_predictions`` over the kept and the full candidate sets.
The program is driven only through ``plaustraj.cli.main`` and the public
module functions; every stage reads a config JSON written here.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from plaustraj import cli, config, datakit, filtering, locoval, metrics, oracle, predictor

import calib
import spans

THRESHOLD = 0.7
HEADS = 20
ALPHA = 100.0
QUALITY = ("ade", "min_ade", "heads_oracle_reward", "scorer_holdout_mse")
REFERENCE = Path(__file__).with_name("reference.json")

# Sizes per workload. "quick" keeps every code path but is small enough for
# the benchmark's own schema test; its values are not comparable.
SIZES = {
    False: {
        "rounds": 3,             # rounds (each with its own set-up) per untraced run
        "eval_tracks": 500,      # two eval windows per track: 1000 cases
        "oracle_cases": 50,      # cases whose K heads the oracle rolls out
        "tr_steps": 80,          # train-predictor steps per train-regularized op
        "fe_steps": 200,         # filter-eval set-up predictor steps (alpha 0)
        "fe_scorer_steps": 1500, # filter-eval set-up scorer steps
        "lf_steps": 100,         # label-fit set-up predictor steps (alpha 0)
        "lf_pairs": 5000,        # plausible and implausible pairs each
        "min_cases": 3000,       # latency samples: three passes of 1000 windows
    },
    True: {
        "rounds": 1, "eval_tracks": 4, "oracle_cases": 2, "tr_steps": 5,
        "fe_steps": 5, "fe_scorer_steps": 20, "lf_steps": 5, "lf_pairs": 20, "min_cases": 1,
    },
}


class StageFailed(RuntimeError):
    """A CLI stage exited with an error, so the run has nothing to measure."""


class Checks:
    """Output checks. Every failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def derive_seeds(seed: int) -> list[int]:
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(6) % (2**31)]


def make_config(workload: str, seed: int, quick: bool) -> dict:
    """Default config with seeds derived from the workload seed and the
    workload's sizes applied."""
    size = SIZES[quick]
    cfg = config.resolved_config_dict(config.RunConfig())
    data_seed, eval_seed, pair_seed, scorer_seed, window_seed, pred_seed = derive_seeds(seed)
    cfg["data"].update(seed=data_seed, eval_seed=eval_seed, n_eval_tracks=size["eval_tracks"])
    cfg["plausibility"]["seed"] = pair_seed
    cfg["locoval"]["train"]["seed"] = scorer_seed
    cfg["predictor"].update(window_seed=window_seed, n_heads=HEADS)
    cfg["predictor"]["train"]["seed"] = pred_seed
    cfg["eval"]["threshold"] = THRESHOLD
    steps = {"train-regularized": "tr_steps", "filter-eval": "fe_steps", "label-fit": "lf_steps"}
    cfg["predictor"]["train"]["total_steps"] = size[steps[workload]]
    if workload == "label-fit":
        cfg["plausibility"]["n_plausible"] = size["lf_pairs"]
        cfg["plausibility"]["n_implausible"] = size["lf_pairs"]
    if workload == "filter-eval":
        cfg["locoval"]["train"]["total_steps"] = size["fe_scorer_steps"]
    if quick:
        cfg["data"]["n_tracks"] = 6
        cfg["locoval"]["train"]["total_steps"] = 20
        if workload != "label-fit":
            cfg["plausibility"].update(n_plausible=20, n_implausible=20)
    return cfg


def cli_stage(args: list[str], tracer, speed: calib.Speed) -> tuple:
    """Run one CLI stage; returns its timed segment (calib.Speed.split). The
    stage's own stdout is captured so the benchmark's last output line stays
    the result."""
    mark = speed.mark()
    if tracer:
        i = tracer.begin(f"cli.{args[0]}", new_op=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    if tracer:
        tracer.finish(i)
    segment = speed.split(mark)
    if code != 0:
        raise StageFailed(f"`{' '.join(args)}` exited with code {code}")
    return segment


def eval_cases(cfg) -> list:
    """The eval windows, built as the CLI's eval command builds them."""
    dataset = datakit.generate_synthetic(
        cfg.data.synthetic, cfg.data.n_eval_tracks, seed=cfg.data.eval_seed, params=cfg.oracle
    )
    bank = datakit.generate_pose_bank(cfg.data.pose_bank_size, seed=cfg.data.seed + 7)
    return datakit.make_training_instances(
        dataset, bank, cfg.predictor.past_frames, cfg.predictor.future_frames,
        stride=cfg.predictor.stride, seed=cfg.predictor.window_seed,
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def curve_finite(path: Path, columns) -> bool:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return bool(rows) and all(math.isfinite(float(r[c])) for r in rows for c in columns)


def best_holdout_mse(out: Path) -> float:
    with open(out / "locoval_curve.csv", newline="") as fh:
        return min(float(r["holdout_mse"]) for r in csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Serve pass


def serve_cases(model, scorer, cases, tracer, speed: calib.Speed) -> dict:
    """Predict then filter each case; latency is per case, kept as a timed
    segment."""
    latencies, results, sets = [], [], []
    start = speed.mark()
    if tracer:
        root = tracer.begin("bench.serve")
    for inst in cases:
        mark = speed.mark()
        if tracer:
            i = tracer.begin("bench.case", new_op=True)
        pred = predictor.predict(model, inst.past, inst.observable)
        result = filtering.locoval_filter(scorer, pred.trajectories, inst.observable, THRESHOLD)
        if tracer:
            tracer.finish(i)
        latencies.append(speed.split(mark))
        results.append(result)
        sets.append(pred.trajectories)
    if tracer:
        tracer.finish(root)
    wall = speed.split(start)[2]
    return {"wall": wall, "latencies": latencies, "results": results, "sets": sets}


def evaluate(results, sets, cases, tracer, speed: calib.Speed) -> dict:
    """evaluate_predictions over the kept sets and over the full sets."""
    mark = speed.mark()
    if tracer:
        root = tracer.begin("bench.evaluate", new_op=True)
    truths = [inst.future for inst in cases]
    kept = metrics.evaluate_predictions([[t for _, t, _ in r.kept] for r in results], truths)
    full = metrics.evaluate_predictions(sets, truths)
    if tracer:
        tracer.finish(root)
    segment = speed.split(mark)
    return {"wall": segment[2], "segment": segment, "kept": kept, "full": full}


def check_filter_results(results, checks: Checks):
    """Scores lie in [0, 1]; every case keeps at least one candidate; the
    fallback keeps only the argmax and is taken only when no candidate
    clears the threshold."""
    for n, r in enumerate(results):
        scores = {k: s for k, _, s in r.kept + r.rejected}
        cleared = {k for k, s in scores.items() if s >= THRESHOLD}
        if r.fallback_used:
            best = max(scores.values())
            argmax = min(k for k, s in scores.items() if s == best)
            ok = not cleared and r.kept_indices() == [argmax]
        else:
            ok = bool(cleared) and set(r.kept_indices()) == cleared
        ok = ok and bool(r.kept) and len(scores) == HEADS
        ok = ok and all(0.0 <= s <= 1.0 for s in scores.values())
        checks.check(ok, f"case {n}: filter output violates the threshold/fallback rule")


def heads_oracle_reward(sets, cases, n_cases: int, checks: Checks) -> float:
    """Mean oracle reward of the predicted heads on the first n_cases cases,
    each rolled out from the case's observed pose."""
    rewards = []
    for heads, inst in zip(sets[:n_cases], cases[:n_cases]):
        obs = inst.observable
        state = oracle.HumanoidState(joints=obs.joints, heading=obs.heading(),
                                     root_velocity=obs.root_velocity)
        rewards.extend(oracle.rollout(t, state) for t in heads)
    checks.check(all(0.0 <= r <= 1.0 for r in rewards), "oracle reward outside [0, 1]")
    return float(np.mean(rewards))


def check_reload(path: Path, model, cases, sets, scratch: Path, checks: Checks):
    """The served model, loaded from predictor.json, saves and reloads to
    bit-identical predictions."""
    predictor.save_predictor(model, scratch)
    again = predictor.load_predictor(scratch)
    for n, inst in enumerate(cases[:20]):
        pred = predictor.predict(again, inst.past, inst.observable)
        same = all(np.array_equal(a.points, b.points) for a, b in zip(pred.trajectories, sets[n]))
        checks.check(same, f"{path.name} does not reload to identical predictions")


def check_quality(name: str, seed: int, quality: dict, checks: Checks):
    """Quality stays within the fixed tolerance of the value recorded for this
    seed on the reference commit. For a seed with no record, it must lie
    within the recorded range widened by that range's width on each side."""
    ref = json.loads(REFERENCE.read_text())
    recorded = ref["values"].get(name, {})
    for key in QUALITY:
        v = quality[key]
        if not checks.check(math.isfinite(v), f"{key} is not finite"):
            continue
        tol = ref["tolerance"][key]
        if str(seed) in recorded:
            r = recorded[str(seed)][key]
            ok = abs(v - r) <= tol.get("abs", 0.0) + tol.get("rel", 0.0) * abs(r)
            checks.check(ok, f"{key} = {v!r}, recorded {r!r} for seed {seed}")
        elif recorded:
            vals = [entry[key] for entry in recorded.values()]
            lo, hi = min(vals), max(vals)
            ok = 2 * lo - hi <= v <= 2 * hi - lo
            checks.check(ok, f"{key} = {v!r}, outside the widened recorded range [{lo!r}, {hi!r}]")


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Shared run logic; subclasses define the set-up stages and the timed
    operation.

    An untraced run is a sequence of rounds. Each round sets up from scratch
    and repeats the timed operation for its share of the run length (at least
    once). Once a model and a scorer exist, the eval windows are served in
    chunks between the stages, `passes` times over; filter-eval then ends
    with evaluate_predictions over the first pass. Spreading the timed work
    over the run keeps a few seconds of unusually fast or slow machine state
    from deciding a whole run's figures.
    """

    name = ""
    setup_stages: tuple = ()  # (CLI stage, extra args) of the set-up
    op_rounds = None          # rounds that run the operation; None means all
    ready_after_setup = False # a model and scorer exist once set-up is done
    passes = 3                # serve passes over the eval windows per run
    evaluates = False         # the run ends with evaluate_predictions

    def __init__(self, seed: int, quick: bool, work: Path, rounds: int, speed: calib.Speed):
        self.size = SIZES[quick]
        self.speed = speed
        self.work = work
        self.rounds = rounds
        self.cfg_dict = make_config(self.name, seed, quick)
        self.checks = Checks()
        self.stage_times: dict[str, list[tuple]] = {}  # timed segments
        self.op_times: dict[str, list[tuple]] = {}
        self.op_walls: list[float] = []   # raw time of each operation's stages
        self.serves: list[dict] = []
        self.evaluations: list[dict] = []
        self.op_hashes: dict[str, str] = {}
        self.served = None                # (model, scorer, cases) once ready
        self.queue: list[slice] = []      # chunks still to serve
        self.interleave = True            # serve chunks between stages
        self.tick_s = 0.0

    # -- set-up --------------------------------------------------------------

    def setup(self, out: Path, tracer) -> tuple:
        """Write the config and build this workload's inputs in `out`; returns
        the set-up's timed segment, not counting the serving done between its
        stages."""
        mark, ticked = self.speed.mark(), self.tick_s
        out.mkdir(parents=True)
        self.out = out
        self.cfg_path = out / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg_dict, indent=1))
        self.cfg = config.load_config(self.cfg_path)
        for stage in self.setup_stages:
            self.stage(stage[0], tracer, *stage[1:])
            self.tick()
        if tracer:
            i = tracer.begin("bench.eval_cases", new_op=True)
        self.cases = eval_cases(self.cfg)
        if tracer:
            tracer.finish(i)
        t0, t1, raw = self.speed.split(mark)
        segment = (t0, t1, raw - (self.tick_s - ticked))
        if self.ready_after_setup:
            self.make_ready(tracer)
        self.tick()
        return segment

    def stage(self, name: str, tracer, *extra: str) -> tuple:
        t = cli_stage([name, "--config", str(self.cfg_path), "--out", str(self.out), *extra],
                      tracer, self.speed)
        self.stage_times.setdefault(name, []).append(t)
        return t

    # -- timed work ----------------------------------------------------------

    def op(self, tracer):
        raise NotImplementedError

    def same_output(self, path: Path):
        """Repeated operations on the same inputs write identical files."""
        digest = sha256(path)
        first = self.op_hashes.setdefault(path.name, digest)
        self.checks.check(digest == first, f"{path.name} differs between repeats")

    def scorer_path(self) -> Path:
        return self.out / "locoval.json"

    def ticks_after_ready(self) -> int:
        """Serving points from readiness (in the first round) to the end of
        the run: one where it becomes ready, then one after each later stage
        and operation."""
        op_rounds = self.rounds if self.op_rounds is None else min(self.op_rounds, self.rounds)
        return 1 + (self.rounds - 1) * (len(self.setup_stages) + 1) + max(op_rounds - 1, 0)

    def make_ready(self, tracer):
        """Load the model and scorer to serve and queue the serve chunks."""
        if self.served is not None:
            return
        with tracer.paused() if tracer else contextlib.nullcontext():
            model = predictor.load_predictor(self.out / "predictor.json")
            scorer = locoval.load_locoval(self.scorer_path())
        self.served = (model, scorer, self.cases)
        per_pass = -(-self.ticks_after_ready() // self.passes)
        n = len(self.cases)
        bounds = [(j * n // per_pass, (j + 1) * n // per_pass) for j in range(per_pass)]
        self.queue = [slice(a, b) for _ in range(self.passes) for a, b in bounds]

    def tick(self):
        """Serve the next queued chunk, if any."""
        if self.interleave and self.served is not None and self.queue:
            mark = self.speed.mark()
            self.serve(self.queue.pop(0), None)
            self.tick_s += self.speed.split(mark)[2]

    def serve(self, chunk: slice, tracer):
        model, scorer, cases = self.served
        result = serve_cases(model, scorer, cases[chunk], tracer, self.speed)
        result["chunk"] = chunk
        check_filter_results(result["results"], self.checks)
        earlier = next((s for s in self.serves if s["chunk"] == chunk), None)
        if earlier is not None:
            same = [a.kept_indices() == b.kept_indices()
                    for a, b in zip(earlier["results"], result["results"])]
            self.checks.check(all(same), "a repeated serve of the same windows kept different candidates")
        self.serves.append(result)

    def round(self, k: int, seconds: float, count: int | None, tracer) -> int:
        """Timed operations of round k: `count` of them, or repeated until
        `seconds` pass (at least once). Returns how many ran."""
        n = 0
        if self.op_rounds is None or k < self.op_rounds:
            t0 = perf_counter()
            while n == 0 or (n < count if count is not None else perf_counter() - t0 < seconds):
                self.op(tracer)
                n += 1
            self.make_ready(tracer)
            self.tick()
        return n

    def finish(self, seconds: float, tracer):
        """Serve what is left in the queue, then whole passes until the serve
        time reaches `seconds`, then evaluate the first pass."""
        while self.queue:
            self.serve(self.queue.pop(0), tracer)
        n = len(self.served[2])
        while sum(s["wall"] for s in self.serves) < seconds:
            self.serve(slice(0, n), tracer)
        first = {}
        for s in self.serves:
            first.setdefault(s["chunk"].start, s)
        chunks = [first[k] for k in sorted(first)]
        results = [r for c in chunks for r in c["results"]][:n]
        self.first_sets = [h for c in chunks for h in c["sets"]][:n]
        if self.evaluates:
            self.evaluations.append(evaluate(results, self.first_sets, self.served[2], tracer,
                                             self.speed))

    def timed_wall(self, ops_before: int, serves_before: int, evals_before: int) -> float:
        """Wall time of the timed work since the counts given."""
        return (sum(self.op_walls[ops_before:])
                + sum(s["wall"] for s in self.serves[serves_before:])
                + sum(e["wall"] for e in self.evaluations[evals_before:]))

    # -- results -------------------------------------------------------------

    def quality(self) -> dict:
        model, _, cases = self.served
        sets = self.first_sets
        hor = heads_oracle_reward(sets, cases, self.size["oracle_cases"], self.checks)
        check_reload(self.out / "predictor.json", model, cases, sets,
                     self.work / "reloaded_predictor.json", self.checks)
        ades = [[metrics.ade(t, inst.future) for t in heads] for heads, inst in zip(sets, cases)]
        return {
            "ade": float(np.mean([a for case in ades for a in case])),
            "min_ade": float(np.mean([min(case) for case in ades])),
            "heads_oracle_reward": hor,
            "scorer_holdout_mse": best_holdout_mse(self.scorer_path().parent),
        }

    def serve_metrics(self) -> dict:
        n = len(self.served[2])
        per_case = [[] for _ in range(n)]
        for s in self.serves:
            for i, x in zip(range(s["chunk"].start, s["chunk"].stop), s["latencies"]):
                per_case[i].append(self.speed.scaled(x))
        samples = sum(len(v) for v in per_case)
        self.checks.check(samples >= self.size["min_cases"], f"only {samples} latency samples")
        # Each window is served at three separate times in the run. The
        # machine's speed switches between states for seconds at a time: a
        # window's mean latency moves with the share of time spent in each
        # state, where a median of three would jump between them. The tail
        # takes each window's median instead, so that one interrupted serve
        # does not make a window count as slow.
        mean_ms = [1e3 * statistics.fmean(v) for v in per_case]
        median_ms = [1e3 * statistics.median(v) for v in per_case]
        # one pass over every window at its mean latency, plus the final
        # evaluate where the workload has one
        evaluate_s = sum(self.speed.scaled(e["segment"]) for e in self.evaluations)
        pass_wall = 1e-3 * sum(mean_ms) + evaluate_s
        return {
            "candidates_per_s": HEADS * n / pass_wall,
            "case_ms_p50": float(np.percentile(mean_ms, 50)),
            "case_ms_p99": float(np.percentile(median_ms, 99)),
            "case_samples": samples,
        }


class TrainRegularized(Workload):
    """train-predictor at alpha 100, K 20; set-up is gen-data and train-locoval."""

    name = "train-regularized"
    setup_stages = (("gen-data",), ("train-locoval",))

    def op(self, tracer):
        t = self.stage("train-predictor", tracer, "--alpha", str(ALPHA), "--heads", str(HEADS))
        self.op_times.setdefault("train-predictor", []).append(t)
        self.op_walls.append(t[2])
        self.checks.check(curve_finite(self.out / "predictor_curve.csv", ("loss_gt", "loss_plaus")),
                          "non-finite predictor training loss")
        self.same_output(self.out / "predictor.json")


class LabelFit(Workload):
    """gen-data and train-locoval with 5000 + 5000 oracle-labelled pairs. The
    set-up trains a short alpha-0 predictor so that the new scorer can be
    served. An untraced run fits the pairs in its first round only: one fit
    takes longer than a whole run's timed share."""

    name = "label-fit"
    setup_stages = (("train-predictor",),)
    op_rounds = 1

    def scorer_path(self) -> Path:
        return self.fit_dir / "locoval.json"

    def op(self, tracer):
        self.fit_dir = self.out
        wall = 0.0
        for name in ("gen-data", "train-locoval"):
            t = self.stage(name, tracer)
            self.op_times.setdefault(name, []).append(t)
            wall += t[2]
        self.op_walls.append(wall)
        pairs = 2 * self.size["lf_pairs"]
        with open(self.out / "plausibility.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        self.checks.check(len(rows) == pairs, f"plausibility.csv has {len(rows)} rows, not {pairs}")
        self.checks.check(all(0.0 <= float(r[1]) <= 1.0 for r in rows), "oracle label outside [0, 1]")
        self.checks.check(curve_finite(self.out / "locoval_curve.csv", ("train_mse", "holdout_mse")),
                          "non-finite scorer training loss")
        self.same_output(self.out / "plausibility.csv")
        self.same_output(self.out / "locoval.json")


class FilterEval(Workload):
    """Per-case predict then filter over the eval windows with an alpha-0
    predictor, whose spread scores exercise the reject and fallback paths.
    The serving is the timed work; there is no other operation."""

    name = "filter-eval"
    setup_stages = (("gen-data",), ("train-locoval",), ("train-predictor",))
    op_rounds = 0
    ready_after_setup = True
    evaluates = True


CLASSES = {cls.name: cls for cls in (TrainRegularized, LabelFit, FilterEval)}


# ---------------------------------------------------------------------------
# Running


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool, work: Path,
        import_segment: tuple) -> dict:
    """Untraced: the rounds with serving spread between their stages.
    Traced: an untraced round then a traced round with the same plan, each
    serving every eval window once at its end, so that their difference is
    the tracing overhead. Only untraced runs sample the reference kernel and
    report their times at the reference speed (calib.py)."""
    rounds = 2 if trace else SIZES[quick]["rounds"]
    speed = calib.Speed(enabled=not trace)
    w = CLASSES[name](seed, quick, work, rounds, speed)
    setups, n_ops = [], []
    result = {}
    if not trace:
        speed.start()
        try:
            for k in range(rounds):
                setups.append(w.setup(work / f"round{k}", None))
                n_ops.append(w.round(k, seconds / rounds, None, None))
            w.finish(seconds, None)
        finally:
            speed.stop()
        result["metrics"] = end_to_end(w, import_segment, setups)
    else:
        w.interleave = False
        w.op_rounds = None if w.op_rounds else w.op_rounds
        walls = []
        for k in range(rounds):
            w.served = None
            tracer = spans.Tracer() if k == rounds - 1 else None
            if tracer:
                tracer.install()
                root = tracer.begin("bench.setup", new_op=True)
            setups.append(w.setup(work / f"round{k}", tracer))
            if tracer:
                tracer.finish(root)
                tracer.uninstall()
                setup_tracer, tracer = tracer, spans.Tracer()
                tracer.install()
            before = (len(w.op_walls), len(w.serves), len(w.evaluations))
            try:
                n_ops.append(w.round(k, seconds / rounds, n_ops[0] if k else None, tracer))
                w.make_ready(tracer)
                w.queue = [slice(0, len(w.cases))]
                w.finish(0.0, tracer)
            finally:
                if tracer:
                    tracer.uninstall()
            walls.append(w.timed_wall(*before))
        result["metrics"] = per_layer(w, tracer, setup_tracer, walls[0], walls[1],
                                      [s[2] for s in setups])
        result["tracers"] = (tracer, setup_tracer)

    def times(segments, scaled=True):
        return [speed.scaled(s) if scaled else s[2] for s in segments]

    result.update(setup_runs_s=times(setups), raw_setup_runs_s=times(setups, False), ops=n_ops,
                  op_times_s={k: times(v) for k, v in w.op_times.items()},
                  stage_times_s={k: times(v) for k, v in w.stage_times.items()},
                  raw_stage_times_s={k: times(v, False) for k, v in w.stage_times.items()},
                  raw_serve_walls_s=[s["wall"] for s in w.serves],
                  evaluate_walls_s=times(e["segment"] for e in w.evaluations),
                  reference_kernel=speed.summary())
    quality = w.quality()
    if not quick:
        check_quality(name, seed, quality, w.checks)
    result["quality"] = quality
    result["checks"] = w.checks
    if trace:
        result["metrics"].update(quality)
    return result


def end_to_end(w: Workload, import_segment: tuple, setups: list[tuple]) -> dict:
    """Stage rates are total work over total time of the run's repeats of the
    stage: a mean over windows spread across the run, which a few seconds of
    unusual machine speed move less than they move a median of three. Every
    time is taken at the reference speed."""

    def mean(segments):
        return statistics.fmean(w.speed.scaled(s) for s in segments)

    st, ops = w.stage_times, w.op_times
    steps = w.cfg_dict["predictor"]["train"]["total_steps"]
    scorer_steps = w.cfg_dict["locoval"]["train"]["total_steps"]
    pairs = w.cfg_dict["plausibility"]["n_plausible"] + w.cfg_dict["plausibility"]["n_implausible"]
    gen = ops.get("gen-data") or st["gen-data"]
    fit = ops.get("train-locoval") or st["train-locoval"]
    if w.name == "label-fit":
        train_steps_per_s = scorer_steps / mean(fit)
    else:
        train_steps_per_s = steps / mean(ops.get("train-predictor") or st["train-predictor"])
    out = {
        "setup_s": w.speed.scaled(import_segment) + statistics.median(map(w.speed.scaled, setups)),
        "train_steps_per_s": train_steps_per_s,
        "label_pairs_per_s": pairs / mean(gen),
        "train_locoval_s": mean(fit),
    }
    out.update(w.serve_metrics())
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(w: Workload, tracer, setup_tracer, untraced: float, traced: float,
              setups: list[float]) -> dict:
    """Per-layer metrics of the traced operations (and self time per layer of
    the traced set-up)."""
    s = tracer.summary()
    c = tracer.counts
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def get(name):
        return s.get(name, zero)

    m = {}
    roll = get("oracle.rollout")
    m["oracle.rollout.calls"] = roll["calls"]
    m["oracle.rollout.self_s"] = roll["self_s"]
    m["oracle.rollout.us_per_call"] = 1e6 * _ratio(roll["total_s"], roll["calls"])
    for fn in ("save_plausibility_csv", "load_plausibility_csv"):
        m[f"oracle.{fn}.s"] = get(f"oracle.{fn}")["total_s"]
        m[f"oracle.{fn}.rows"] = c[f"oracle.{fn}.rows"]
        m[f"oracle.{fn}.bytes"] = c[f"oracle.{fn}.bytes"]
    m["datakit.generate_synthetic.s"] = get("datakit.generate_synthetic")["total_s"]
    m["datakit.track_accept_ratio"] = _ratio(c["datakit.generate_synthetic.tracks"],
                                             c["datakit.generate_synthetic.rollouts"])
    m["datakit.make_training_instances.s"] = get("datakit.make_training_instances")["total_s"]
    canon = get("locoval.canonicalize")
    m["locoval.canonicalize.calls"] = canon["calls"]
    m["locoval.canonicalize.us_per_call"] = 1e6 * _ratio(canon["total_s"], canon["calls"])
    m["locoval.score_batch.us_per_candidate"] = 1e6 * _ratio(
        get("locoval.score_batch")["total_s"], c["locoval.score_batch.candidates"])
    m["locoval.features_and_targets.s"] = get("locoval.features_and_targets")["total_s"]
    m["locoval.train_locoval.s"] = get("locoval.train_locoval")["total_s"]
    for fn in ("forward_cached", "backward"):
        for role in spans.ROLES:
            name = f"gradcore.{fn}.{role}"
            e = get(name)
            m[f"{name}.calls"] = e["calls"]
            m[f"{name}.self_s"] = e["self_s"]
            m[f"{name}.rows_per_call"] = _ratio(c[f"{name}.rows"], e["calls"])
    backward_calls = sum(get(f"gradcore.backward.{r}")["calls"] for r in spans.ROLES)
    m["gradcore.backward.weight_grad_used_ratio"] = _ratio(
        c["gradcore.backward.weight_grads_used"], backward_calls)
    train_steps = c["predictor.train_predictor.steps"] + c["locoval.train_locoval.steps"]
    adam = get("gradcore.AdamW.step")
    m["gradcore.AdamW.step.calls_per_train_step"] = _ratio(adam["calls"], train_steps)
    m["gradcore.AdamW.step.self_s"] = adam["self_s"]
    m["predictor.train_predictor.ms_per_step"] = 1e3 * _ratio(
        get("predictor.train_predictor")["total_s"], c["predictor.train_predictor.steps"])
    m["predictor.save_predictor.s"] = get("predictor.save_predictor")["total_s"]
    m["predictor.save_predictor.bytes"] = c["predictor.save_predictor.bytes"]
    pred = get("predictor.predict")
    m["predictor.predict.us_per_call"] = 1e6 * _ratio(pred["total_s"], pred["calls"])
    filt = get("filtering.locoval_filter")
    m["filtering.locoval_filter.calls"] = filt["calls"]
    m["filtering.locoval_filter.self_s"] = filt["self_s"]
    m["filtering.rejection_ratio"] = _ratio(c["filtering.rejected"], c["filtering.candidates"])
    m["filtering.fallback_cases"] = c["filtering.fallback_cases"]
    m["metrics.evaluate_predictions.s"] = get("metrics.evaluate_predictions")["total_s"]
    for stage in ("gen-data", "train-locoval", "train-predictor"):
        m[f"cli.{stage}.s"] = get(f"cli.{stage}")["total_s"]
    for layer, v in tracer.layer_self(s).items():
        m[f"layer.{layer}.self_s"] = v
    for layer, v in setup_tracer.layer_self(setup_tracer.summary()).items():
        m[f"setup.layer.{layer}.self_s"] = v
    self_sum = sum(m[f"layer.{layer}.self_s"] for layer in spans.LAYERS)
    m["trace.untraced_s"] = untraced
    m["trace.traced_s"] = traced
    m["trace.overhead_s"] = traced - untraced
    m["trace.overhead_ratio"] = _ratio(traced - untraced, untraced)
    m["trace.self_sum_s"] = self_sum
    m["trace.setup.untraced_s"] = setups[0]
    m["trace.setup.traced_s"] = setups[-1]
    m["trace.setup.overhead_ratio"] = _ratio(setups[-1] - setups[0], setups[0])
    m["trace.spans"] = len(tracer.start) + len(setup_tracer.start)
    return m
