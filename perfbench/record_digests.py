"""Record the canonical output digests that run.py checks items against.

    python3 perfbench/record_digests.py

Run from the root of a checkout whose outputs are trusted.  It runs the
first ITEMS[workload] items of every workload for each seed in SEEDS, in
the same worker processes as a benchmark run, fails if any item fails its
own checks, and rewrites perfbench/digests.json.  Items past the recorded
count are checked by their invariants only.
"""

from __future__ import annotations

import json
import os
import shutil

import run

# The default seed, and one seed left out while the benchmark was tuned.
SEEDS = (0, 17)
# Well over what a --seconds 30 run measures (90, 28 and 56 items).
ITEMS = {"check-batch": 240, "extend-large": 64, "analyze-narrow": 160}


def record(workload: str, seed: int) -> list[str]:
    directory = os.path.join(run.WORK, f"record-{workload}-seed{seed}")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    inputs = run.Inputs(workload, seed, directory)
    batch = run.BATCH[workload]
    digests: list[str] = []
    try:
        for first in range(0, ITEMS[workload], batch):
            inputs.ensure(first + batch)
            for item in run.run_batch(workload, seed, first, batch, directory)["items"]:
                if not item["ok"]:
                    raise SystemExit(f"{workload} seed {seed} item {item['index']}: {item['error']}")
                digests.append(item["digest"])
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return digests


def main() -> None:
    recorded = {w: {str(s): record(w, s) for s in SEEDS} for w in run.BATCH}
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
