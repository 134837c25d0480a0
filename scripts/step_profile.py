"""Per-part times of the predictor's training step.

Runs predictor.train_predictor on a run directory's resolved config, windows
and locoval.json, once at alpha 0 and once at alpha 100, with timers around
gradcore.forward_cached, gradcore.backward, gradcore.input_grad and
gradcore.AdamW.step (each split by the net it runs on: trunk, head or scorer)
and locoval.encode_steps, and around each step of gradcore.TrainingSteps. It
prints each part's median and mean ms per step (a step that does not call a
part counts 0 ms), the rest of the step outside those parts, the EmLoco term
(encode_steps plus the scorer's forward and input gradient, summed per step)
and the whole step's median. The training loop is train_predictor's own;
nothing is copied.

Usage:
    python scripts/step_profile.py --out runs/pipeline [--steps 500]
"""

import argparse
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from plaustraj import cli, config, gradcore, locoval, predictor

ALPHAS = (0.0, 100.0)
# the parts of a step that locoval.EmLocoTerm runs
TERM_PARTS = ("encode_steps", "forward_cached.scorer", "input_grad.scorer")


def net_role(model) -> str:
    """The scorer is the only sigmoid-headed net and the head layer is one layer."""
    if model.output_activation == "sigmoid":
        return "scorer"
    return "head" if model.n_layers == 1 else "trunk"


class StepTimer:
    """Per-step totals of each timed part, and each step's wall time."""

    def __init__(self):
        self.steps: list[dict] = []
        self.walls: list[float] = []
        self._current = defaultdict(float)

    def timed(self, name, fn, role_of=None):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                part = name if role_of is None else f"{name}.{net_role(role_of(args))}"
                self._current[part] += perf_counter() - t0
        return wrapper

    def install(self):
        """Wrap the timed parts where train_predictor looks them up."""
        for name in ("forward_cached", "backward", "input_grad"):
            setattr(gradcore, name, self.timed(name, getattr(gradcore, name),
                                               lambda args: args[0]))
        gradcore.AdamW.step = self.timed("AdamW.step", gradcore.AdamW.step,
                                         lambda args: args[1])
        locoval.encode_steps = self.timed("encode_steps", locoval.encode_steps)
        timer, steps_class = self, gradcore.TrainingSteps

        class TimedSteps(steps_class):
            def __iter__(self):
                for item in super().__iter__():
                    t0 = perf_counter()
                    yield item
                    timer.walls.append(perf_counter() - t0)
                    timer.steps.append(dict(timer._current))
                    timer._current.clear()

        gradcore.TrainingSteps = TimedSteps

    def report(self, label: str):
        walls = 1e3 * np.array(self.walls)
        parts = sorted({p for step in self.steps for p in step})
        per_part = {p: 1e3 * np.array([step.get(p, 0.0) for step in self.steps]) for p in parts}
        per_part["rest of step"] = walls - sum(per_part.values())
        per_part["EmLoco term"] = sum(per_part.get(p, np.zeros_like(walls)) for p in TERM_PARTS)
        print(f"{label}: {len(walls)} steps, median step {np.median(walls):.3f} ms")
        print(f"  {'part':<26}{'median ms':>10}{'mean ms':>10}")
        for part, ms in per_part.items():
            print(f"  {part:<26}{np.median(ms):>10.3f}{np.mean(ms):>10.3f}")
        self.steps.clear()
        self.walls.clear()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True,
                    help="Run directory holding resolved_config.json and locoval.json.")
    ap.add_argument("--steps", type=int, default=None,
                    help="Training steps per run (default: the config's).")
    ns = ap.parse_args()

    out = Path(ns.out)
    cfg = config.load_config(out / "resolved_config.json")
    p = cfg.predictor
    train = config.override(p.train, "config.predictor.train", total_steps=ns.steps)
    windows = cli._build_instances(cfg, cfg.data.seed, cfg.data.n_tracks)
    scorer = locoval.load_locoval(out / "locoval.json")

    timer = StepTimer()
    timer.install()
    for alpha in ALPHAS:
        predictor.train_predictor(windows, scorer, train, alpha=alpha, n_heads=p.n_heads,
                                  trunk_hidden=tuple(p.trunk_hidden))
        timer.report(f"alpha {alpha:g}, K={p.n_heads}, B={train.batch_size}")


if __name__ == "__main__":
    main()
