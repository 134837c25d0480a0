"""Record the quality values of finished full-size runs as the reference
that later runs are checked against.

    python3 perfbench/record_reference.py

Reads every .perfbench_runs/*/result.json and adds each (workload, seed) to
perfbench/reference.json; values already recorded are kept.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).with_name("reference.json")


def main() -> int:
    ref = json.loads(REFERENCE.read_text())
    found = {}
    for path in sorted((ROOT / ".perfbench_runs").glob("*/result.json")):
        details = json.loads(path.read_text())["details"]
        if details["quick"]:
            continue
        key = (details["workload"], str(details["seed"]))
        if key in found and found[key] != details["quality"]:
            print(f"{path}: quality differs from another run of {key}", file=sys.stderr)
            return 1
        found[key] = details["quality"]
    for (workload, seed), quality in sorted(found.items()):
        ref["values"].setdefault(workload, {}).setdefault(seed, quality)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    counts = {w: len(v) for w, v in ref["values"].items()}
    print(f"recorded seeds per workload: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
