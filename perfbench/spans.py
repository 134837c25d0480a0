"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into each plaustraj module's public functions.
A wrapper is installed at the attribute the caller looks up: the module
function itself, the module that imported a name by value
(``filtering.score_batch``, ``predictor.canonical_frame``, ``datakit.rollout``)
and the class for ``AdamW.step``. Each span stores its name, start, end,
parent and the id of the operation it belongs to. Counts (rows, bytes,
candidates, steps) are recorded by the same wrappers.
"""

from __future__ import annotations

import contextlib
import os
from array import array
from collections import defaultdict
from time import perf_counter

from plaustraj import datakit, filtering, gradcore, locoval, metrics, oracle, predictor

LAYERS = ("oracle", "datakit", "locoval", "gradcore", "predictor", "filtering",
          "metrics", "cli", "bench")
ROLES = ("trunk", "head", "scorer")

# (module, attribute, span name) for wrappers that only record a span
_PLAIN = (
    (oracle, "build_plausibility_dataset", "oracle.build_plausibility_dataset"),
    (datakit, "generate_pose_bank", "datakit.generate_pose_bank"),
    (datakit, "save_tsv", "datakit.save_tsv"),
    (datakit, "save_pose_bank", "datakit.save_pose_bank"),
    (datakit, "make_training_instances", "datakit.make_training_instances"),
    (locoval, "canonicalize", "locoval.canonicalize"),
    (locoval, "score", "locoval.score"),
    (locoval, "features_and_targets", "locoval.features_and_targets"),
    (locoval, "save_locoval", "locoval.save_locoval"),
    (locoval, "load_locoval", "locoval.load_locoval"),
    (predictor, "canonical_frame", "locoval.canonical_frame"),
    (predictor, "predict", "predictor.predict"),
    (predictor, "load_predictor", "predictor.load_predictor"),
    (metrics, "evaluate_predictions", "metrics.evaluate_predictions"),
)

# marker set on a Gradients object by the backward wrapper, read by AdamW.step
_GRAD_MARK = "_perfbench_backward"


def model_role(model) -> str:
    """Role of an MlpModel in the pipeline, read from its structure: the scorer
    is the only sigmoid-headed net and each prediction head is one layer."""
    if model.output_activation == "sigmoid":
        return "scorer"
    return "head" if model.n_layers == 1 else "trunk"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1
        self._n_ops = 0
        self._synth_depth = 0
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, new_op: bool = False) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        if new_op:
            self._op = self._n_ops
            self._n_ops += 1
        idx = len(self.start)
        self.name_idx.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _plain(self, name, fn):
        def wrapper(*args, **kwargs):
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(i)
        return wrapper

    def install(self):
        """Patch the program's call sites; undo with uninstall()."""
        counts = self.counts
        for module, attr, name in _PLAIN:
            self._patch(module, attr, self._plain(name, getattr(module, attr)))

        rollout = oracle.rollout

        def rollout_w(*args, **kwargs):
            i = self.begin("oracle.rollout")
            try:
                return rollout(*args, **kwargs)
            finally:
                self.finish(i)
                if self._synth_depth:
                    counts["datakit.generate_synthetic.rollouts"] += 1
        self._patch(oracle, "rollout", rollout_w)
        self._patch(datakit, "rollout", rollout_w)

        generate_synthetic = datakit.generate_synthetic

        def generate_synthetic_w(*args, **kwargs):
            i = self.begin("datakit.generate_synthetic")
            self._synth_depth += 1
            try:
                dataset = generate_synthetic(*args, **kwargs)
            finally:
                self._synth_depth -= 1
                self.finish(i)
            counts["datakit.generate_synthetic.tracks"] += len(dataset.tracks)
            return dataset
        self._patch(datakit, "generate_synthetic", generate_synthetic_w)

        save_csv = oracle.save_plausibility_csv

        def save_csv_w(samples, path):
            i = self.begin("oracle.save_plausibility_csv")
            try:
                save_csv(samples, path)
            finally:
                self.finish(i)
            counts["oracle.save_plausibility_csv.rows"] += len(samples)
            counts["oracle.save_plausibility_csv.bytes"] += os.path.getsize(path)
        self._patch(oracle, "save_plausibility_csv", save_csv_w)

        load_csv = oracle.load_plausibility_csv

        def load_csv_w(path):
            i = self.begin("oracle.load_plausibility_csv")
            try:
                samples = load_csv(path)
            finally:
                self.finish(i)
            counts["oracle.load_plausibility_csv.rows"] += len(samples)
            counts["oracle.load_plausibility_csv.bytes"] += os.path.getsize(path)
            return samples
        self._patch(oracle, "load_plausibility_csv", load_csv_w)

        score_batch = locoval.score_batch

        def score_batch_w(model, candidates, obs):
            i = self.begin("locoval.score_batch")
            try:
                return score_batch(model, candidates, obs)
            finally:
                self.finish(i)
                counts["locoval.score_batch.candidates"] += len(candidates)
        self._patch(locoval, "score_batch", score_batch_w)
        self._patch(filtering, "score_batch", score_batch_w)

        locoval_filter = filtering.locoval_filter

        def locoval_filter_w(scorer, candidates, obs, threshold):
            i = self.begin("filtering.locoval_filter")
            try:
                result = locoval_filter(scorer, candidates, obs, threshold)
            finally:
                self.finish(i)
            counts["filtering.candidates"] += len(candidates)
            counts["filtering.rejected"] += len(result.rejected)
            counts["filtering.fallback_cases"] += int(result.fallback_used)
            return result
        self._patch(filtering, "locoval_filter", locoval_filter_w)

        forward_cached = gradcore.forward_cached
        fwd_names = {r: f"gradcore.forward_cached.{r}" for r in ROLES}

        def forward_cached_w(model, x):
            role = model_role(model)
            i = self.begin(fwd_names[role])
            try:
                return forward_cached(model, x)
            finally:
                self.finish(i)
                counts[fwd_names[role] + ".rows"] += len(x) if getattr(x, "ndim", 1) == 2 else 1
        self._patch(gradcore, "forward_cached", forward_cached_w)

        backward = gradcore.backward
        bwd_names = {r: f"gradcore.backward.{r}" for r in ROLES}

        def backward_w(model, cache, upstream):
            role = model_role(model)
            i = self.begin(bwd_names[role])
            try:
                grads = backward(model, cache, upstream)
            finally:
                self.finish(i)
            counts[bwd_names[role] + ".rows"] += len(cache["activations"][0])
            setattr(grads, _GRAD_MARK, True)
            return grads
        self._patch(gradcore, "backward", backward_w)

        adamw_step = gradcore.AdamW.step

        def adamw_step_w(opt, model, grads, *args, **kwargs):
            i = self.begin("gradcore.AdamW.step")
            try:
                return adamw_step(opt, model, grads, *args, **kwargs)
            finally:
                self.finish(i)
                if getattr(grads, _GRAD_MARK, False):
                    counts["gradcore.backward.weight_grads_used"] += 1
                    setattr(grads, _GRAD_MARK, False)
        self._patch(gradcore.AdamW, "step", adamw_step_w)

        train_predictor = predictor.train_predictor

        def train_predictor_w(dataset, scorer, config, *args, **kwargs):
            i = self.begin("predictor.train_predictor")
            try:
                return train_predictor(dataset, scorer, config, *args, **kwargs)
            finally:
                self.finish(i)
                counts["predictor.train_predictor.steps"] += config.total_steps
        self._patch(predictor, "train_predictor", train_predictor_w)

        train_locoval = locoval.train_locoval

        def train_locoval_w(dataset, config, *args, **kwargs):
            i = self.begin("locoval.train_locoval")
            try:
                return train_locoval(dataset, config, *args, **kwargs)
            finally:
                self.finish(i)
                counts["locoval.train_locoval.steps"] += config.total_steps
        self._patch(locoval, "train_locoval", train_locoval_w)

        save_predictor = predictor.save_predictor

        def save_predictor_w(result_or_model, path, *args, **kwargs):
            i = self.begin("predictor.save_predictor")
            try:
                save_predictor(result_or_model, path, *args, **kwargs)
            finally:
                self.finish(i)
            counts["predictor.save_predictor.bytes"] += os.path.getsize(path)
        self._patch(predictor, "save_predictor", save_predictor_w)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run work that is not part of the measured operation untraced."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict:
        """name -> {calls, total_s, self_s}; self time is span time minus the
        time covered by its direct children."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_idx[i]]]
            entry["calls"] += 1
            entry["total_s"] += dur[i]
            entry["self_s"] += dur[i] - child[i]
        return out

    def layer_self(self, summary: dict) -> dict:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, entry in summary.items():
            totals[name.split(".", 1)[0]] += entry["self_s"]
        return totals

    def write(self, path):
        """One line per span: id, name, start, end, parent, operation."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_idx[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t{self.op[i]}\n")
