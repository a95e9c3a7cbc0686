"""Record the row digests the benchmark's correctness gate checks.

Runs one pass of a sweep workload per seed and stores the sha256 of its
canonical rows in ``perfbench/digests.json``::

    python3 perfbench/record_digests.py --workload sweep-cold-reference \\
        --scale full --seeds 0-63

Rows are a pure function of (tables, seed), so a digest changes only when
the program's results change; re-record only after deciding the new rows
are right.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-cold-reference", "sweep-fastpath-side200"))
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--seeds", required=True, help="e.g. 0-63 or 1,5,9")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads as wl

    recorded = {}
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for seed in parse_seeds(args.seeds):
            session = wl.SweepSession(args.workload, args.scale, seed,
                                      Path(tmp) / str(seed))
            outcome = wl.Outcome()
            session.run_pass(outcome)
            session.close()
            if outcome.errors or outcome.failed:
                print(f"seed {seed}: not recorded: {outcome.errors}")
                return 1
            recorded[str(seed)] = outcome.digests[0]
            print(f"seed {seed}: {outcome.digests[0]}", flush=True)
    # read just before writing, so recorders for two workloads can run at once
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table.setdefault(args.workload, {}).setdefault(args.scale, {}).update(recorded)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
