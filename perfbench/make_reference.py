"""Record the output of every job any seed can produce in reference.json.

    python3 perfbench/make_reference.py

Run at the commit whose outputs the benchmark's traced runs compare
against (``check.outputs_changed``).  The file maps each job key to the
job's exit code and the first 16 hex digits of the SHA-256 of its output.
It stops with exit code 1, writing nothing, if any job fails its check.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import all_jobs, check_output


def main() -> int:
    os.chdir(run.ROOT)
    os.environ.pop("NETRW_THREADS", None)
    sys.path.insert(0, str(run.ROOT / "src"))
    import netrw.cli  # noqa: F401  imported before the jobs fork

    reference = {}
    failed = 0
    for job in sorted(all_jobs(), key=lambda j: j.key):
        result = run.run_job(job, traced=False)
        reason = result.get("error") or check_output(job, result["code"], result["out"], 0)
        if reason is not None:
            print(f"FAILED {job.key}: {reason}", file=sys.stderr)
            failed += 1
        reference[job.key] = run.output_digest(result)
    if failed:
        return 1
    path = run.HERE / "reference.json"
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(reference.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(reference)} jobs recorded in {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
