"""Run the full pipeline end to end with one config.

gen-data -> train-locoval -> train-predictor -> eval (optionally filtered),
all through the CLI entry points so the run matches what a shell invocation
would produce. Timing for each stage is printed at the end, then the sha256
of every file in the output directory (in `sha256sum` format), so two runs'
outputs can be compared with `diff`.

Usage:
    python scripts/run_pipeline.py --out runs/demo [--config cfg.json]
        [--alpha 100] [--heads 20] [--filter 0.7]
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

from plaustraj.cli import main as cli_main


def stage(label, args, timings):
    t0 = time.perf_counter()
    code = cli_main(args)
    timings.append((label, time.perf_counter() - t0))
    if code != 0:
        print(f"{label} failed with exit code {code}", file=sys.stderr)
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=None)
    ap.add_argument("--out", default="runs/pipeline")
    ap.add_argument("--alpha", type=float, default=None)
    ap.add_argument("--heads", type=int, default=None)
    ap.add_argument("--filter", dest="threshold", type=float, default=None)
    ns = ap.parse_args()

    base = ["--out", ns.out]
    if ns.config:
        base += ["--config", ns.config]

    timings = []
    stage("gen-data", ["gen-data"] + base, timings)
    stage("train-locoval", ["train-locoval"] + base, timings)
    train_args = ["train-predictor"] + base
    if ns.alpha is not None:
        train_args += ["--alpha", str(ns.alpha)]
    if ns.heads is not None:
        train_args += ["--heads", str(ns.heads)]
    stage("train-predictor", train_args, timings)
    eval_args = ["eval"] + base
    if ns.threshold is not None:
        eval_args += ["--filter", str(ns.threshold)]
    stage("eval", eval_args, timings)

    total = sum(t for _, t in timings)
    print("\nstage timings:")
    for label, t in timings:
        print(f"  {label:16s} {t:7.1f} s")
    print(f"  {'total':16s} {total:7.1f} s")

    out = Path(ns.out)
    print("\noutput sha256:")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")


if __name__ == "__main__":
    main()
