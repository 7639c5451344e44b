"""Check the generated benchmark inputs at seeds 1 and 2.

    python3 bench/check_inputs.py

For each seed and workload, one round runs exactly as in `run.py`:
every generated profile must parse and every invocation must give its
expected exit status and verdict fields.  The relabelled input files must
also differ between the seeds.  Takes about a minute per seed.  Exits 1 and
names each mismatch if there is one.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import RUN_LIMIT_S, Run  # noqa: E402
from inputs import WORKLOADS  # noqa: E402

SEEDS = (1, 2)


def main(seeds):
    problems = []
    texts = {}  # input file name -> its text at each seed
    for seed in seeds:
        for workload in WORKLOADS:
            run = Run(workload, seed, time.perf_counter() + RUN_LIMIT_S)
            run.round()
            print(f"seed {seed} {workload:<8} {run.attempted} invocations, "
                  f"{len(run.failures)} failed")
            problems += [f"seed {seed} {line}" for line in run.failures]
            for path in run.workdir.glob("*.profile"):
                texts.setdefault(path.name, set()).add(path.read_text())
    varied = sorted(name for name, versions in texts.items() if len(versions) > 1)
    print(f"{len(varied)} of {len(texts)} input files differ between seeds "
          f"{seeds}: {', '.join(varied)}")
    if not varied:
        problems.append("no generated input depends on the seed")
    for line in problems:
        print(f"FAILED {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(SEEDS))
