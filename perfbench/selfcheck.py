"""Check that the traced runs count the same work every time.

    python3 perfbench/selfcheck.py

For every workload, runs ``run.py --trace 1`` for SECONDS with seed 1 under
PYTHONHASHSEED=1, again under PYTHONHASHSEED=1, under PYTHONHASHSEED=2, and
with seed 2 under PYTHONHASHSEED=1.  Requires every count metric (calls,
steps, hits, vertices, ambiguities found) to be identical across the four,
no job to fail, and ``check.outputs_changed`` to be 0: the engine's output
must not depend on the relabelling a seed makes, and must match the outputs
recorded in reference.json.  Each traced run also checks that traced and
untraced jobs print identical output.  Exits 1 on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SECONDS = 1
# (run seed, PYTHONHASHSEED) of the traced runs made for each workload.
RUNS = (("1", "1"), ("1", "1"), ("1", "2"), ("2", "1"))
TIMED_UNITS = ("ms/job", "ratio")  # everything else is a count


def traced_run(workload: str, seed: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", seed, "--seconds", str(SECONDS), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, env=env, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        runs = [traced_run(workload, seed, hash_seed) for seed, hash_seed in RUNS]
        for (seed, hash_seed), result in zip(RUNS, runs):
            where = f"{workload} (seed {seed}, PYTHONHASHSEED={hash_seed})"
            if not result["correct"]:
                print(f"{where}: {result['failed']} of {result['attempted']} jobs failed")
                ok = False
            changed = result["metrics"]["check.outputs_changed"]["value"]
            if changed:
                print(f"{where}: {changed} outputs differ from reference.json")
                ok = False
        counts = [
            {k: m["value"] for k, m in r["metrics"].items() if m["unit"] not in TIMED_UNITS}
            for r in runs
        ]
        differing = sorted(k for k in counts[0] if len({c[k] for c in counts}) > 1)
        status = "identical" if not differing else "DIFFER: " + ", ".join(differing)
        print(f"{workload}: {len(counts[0])} counts {status}; "
              f"rewrite.steps {counts[0]['rewrite.steps']}")
        ok = ok and not differing
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
