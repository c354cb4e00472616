"""Run one workload of the netrw benchmark and print its metrics.

    python3 perfbench/run.py --workload circle-powers --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  A job is one ``netrw`` command
line, run by ``netrw.cli.main(argv)`` in a child forked from this process
after ``netrw`` is imported, so no state carries from one job to the next,
as for real command-line use.  Load is a closed loop with one client: the
next job starts when the previous one has been reaped.  The seed fixes one
round of jobs (see workloads.py); whole rounds repeat until ``--seconds``
have passed and at least MIN_JOBS jobs ran, so every run sees the same mix.

Times are scaled to the speed of a reference machine by a calibration loop
timed between jobs; README.md beside this file explains why.  With
``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds alternate
and it holds the per-layer metrics, and the spans are written under
``perfbench/out/``.  A run in which any job failed exits with code 1 and
reports no job times.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import io
import json
import marshal
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing
from tracing import NAMES
from workloads import WORKLOADS, check_output, round_jobs, workload_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB_TIMEOUT_S = 60.0
# Rounds continue past --seconds until this many jobs ran, so that at least
# ten lie beyond the 90th percentile.
MIN_JOBS = 100
SETUP_REPEATS = 15

# CPU time of calibrate() on the reference machine (2 shared x86-64 vCPUs,
# CPython 3.11) when quiet: 8.4 times the 1.27 ms one pass of the loop takes
# there.  Every job time is scaled by REF_CAL_NS over the calibration time
# measured alongside it.
REF_CAL_NS = 10_700_000
CAL_LOOPS = 8
# Calibration runs after a job once this much job CPU time has passed since
# it last ran, so millisecond jobs are not dominated by calibration.
CAL_EVERY_NS = 100_000_000
# About the CPU time of a bare ``python3 -c pass`` on the reference machine
# when quiet.  setup_s is the set-up process's CPU time over a bare process's,
# times this: process start-up drifts along with a bare start-up far more
# closely than with the calibration loop.
REF_BARE_NS = 44_000_000

SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, 'src')\n"
    "import netrw, netrw.cli\n"
    "for path in sys.argv[1:]:\n"
    "    open(path, encoding='utf-8').read()\n"
)


def _loop() -> None:
    items = [(i % 97, (i * 31) % 1009, i % 50) for i in range(1000)]
    table: dict = {}
    for item in items:
        table.setdefault(item[0], []).append(item)
    ratios = {item: Fraction(item[1], item[2] + 1) for item in items}
    for group in table.values():
        group.sort()
    sorted(ratios)


def calibrate() -> int:
    """CPU time of CAL_LOOPS passes of a fixed pure-Python loop that
    allocates and sorts tuples, dicts, lists and fractions, the kind of work
    the engine does.  It is taken as a job's time is: inside a forked child,
    so it counts the child's copy-on-write page faults, but not the fork,
    whose cost grows with the parent's heap."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            os.close(rfd)
            start = time.process_time_ns()
            for _ in range(CAL_LOOPS):
                _loop()
            os.write(wfd, (time.process_time_ns() - start).to_bytes(8, "little"))
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    try:
        data = os.read(rfd, 8)
    finally:
        os.close(rfd)
        os.waitpid(pid, 0)
    if len(data) != 8:
        raise RuntimeError("the calibration child failed")
    return int.from_bytes(data, "little")


def _child(job, traced: bool, wfd: int) -> None:
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    start = time.process_time_ns()
    try:
        code = sys.modules["netrw.cli"].main(list(job.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = "exception"
        err.write(traceback.format_exc())
    cpu = time.process_time_ns() - start
    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    result = {
        "code": code,
        "out": out.getvalue(),
        "err": err.getvalue()[-2000:],
        "cpu_ns": cpu,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        # As bytes the spans are one object the garbage collector skips, so
        # the parent's growing span log does not slow later job children.
        result["spans"] = marshal.dumps(tracer.spans)
    with os.fdopen(wfd, "wb") as pipe:
        pipe.write(marshal.dumps(result))


def run_job(job, traced: bool) -> dict:
    """Fork a child that runs the job; return its result, or an "error"
    entry when it crashed or overran JOB_TIMEOUT_S (it is then killed)."""
    rfd, wfd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            os.close(rfd)
            _child(job, traced, wfd)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    chunks = []
    deadline = time.monotonic() + JOB_TIMEOUT_S
    timed_out = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([rfd], [], [], left)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status = os.waitpid(pid, 0)
    if timed_out:
        return {"error": f"timed out after {JOB_TIMEOUT_S:.0f} s"}
    if status != 0 or not chunks:
        return {"error": f"child ended with status {status}"}
    return marshal.loads(b"".join(chunks))


def cpu_ns() -> int:
    """CPU time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime) * 1e9)


def spawn_ns(args: list[str]) -> int:
    """CPU time of a fresh ``python3`` process run with ``args``."""
    start = cpu_ns()
    subprocess.run([sys.executable, *args], check=True, cwd=ROOT)
    return cpu_ns() - start


def output_digest(result: dict) -> list:
    return [result.get("code"), hashlib.sha256(result.get("out", "").encode()).hexdigest()[:16]]


class Run:
    """The job results of one run, round by round."""

    def __init__(self, workload: str, seed: int, jobs):
        self.workload = workload
        self.seed = seed
        self.jobs = jobs
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_kb = 0
        self.cal_ns: list[int] = []

    def round(self, traced: bool) -> list[dict]:
        """Run every job once.  Each result's "scale" is REF_CAL_NS over the
        median of the five calibrations nearest to the job in the round."""
        results, cals = [], []
        since_cal = CAL_EVERY_NS
        for i, job in enumerate(self.jobs):
            start = cpu_ns()
            result = run_job(job, traced)
            result["busy_ns"] = cpu_ns() - start
            since_cal += result["busy_ns"]
            if since_cal >= CAL_EVERY_NS:
                cals.append((i, calibrate()))
                since_cal = 0
            self.attempted += 1
            reason = result.get("error")
            if reason is None:
                try:
                    reason = check_output(job, result["code"], result["out"], self.seed)
                except Exception as exc:  # a malformed output fails its job, not the run
                    reason = f"unreadable output: {exc!r}"
            if reason is not None:
                self.failures.append(f"{job.key}: {reason}; stderr: {result.get('err', '')[-300:]!r}")
            self.peak_rss_kb = max(self.peak_rss_kb, result.get("rss_kb", 0))
            results.append(result)
        for i, result in enumerate(results):
            near = sorted(cals, key=lambda cal: abs(cal[0] - i))[:5]
            result["scale"] = REF_CAL_NS / statistics.median(ns for _, ns in near)
        self.cal_ns += [ns for _, ns in cals]
        return results


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(run: Run, seconds: float) -> dict:
    # A fresh process up to its first job: start Python, import netrw and
    # its CLI, read the workload's files once.
    setup_args = ["-c", SETUP_CODE, *workload_files(run.workload)]
    spawn_ns(setup_args)  # warm the bytecode cache; users run installed code
    setups, bares = [], []
    for _ in range(SETUP_REPEATS):
        setups.append(spawn_ns(setup_args))
        bares.append(spawn_ns(["-c", "pass"]))

    job_ms, busy_s = [], 0.0
    start = time.perf_counter()
    while True:
        for r in run.round(traced=False):
            if "cpu_ns" in r:
                job_ms.append(r["cpu_ns"] * r["scale"] / 1e6)
            busy_s += r["busy_ns"] * r["scale"] / 1e9
        if time.perf_counter() - start >= seconds and run.attempted >= MIN_JOBS:
            break
    metrics = {}
    if not run.failures:
        # A run with a failed job reports no job times: the times of the
        # correct jobs alone would read as a gain when the slow jobs fail.
        metrics["jobs_per_s"] = (len(job_ms) / busy_s, "1/s")
        metrics["job_ms.p50"] = (statistics.median(job_ms), "ms")
        metrics["job_ms.p90"] = (percentile_90(job_ms), "ms")
    peak_kb = max(run.peak_rss_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    setup_s = statistics.median(setups) / statistics.median(bares) * REF_BARE_NS / 1e9
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    return metrics


def _layer_metrics(totals: dict, jobs: int, scaled_self: list, derived: dict) -> dict:
    """Every per-layer metric BENCHMARK.json names, with its unit there.
    Span metrics are per-job means of the traced rounds: ``calls``,
    ``self_ms`` (summed from ``scaled_self``, each job's self times already
    scaled to the reference machine), or the span's extra field per call
    (``vertices``, ``hits``, ``found``).  ``derived`` holds the rest."""
    at = {name: i for i, name in enumerate(NAMES)}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    metrics = {}
    for entry in spec:
        name = entry["name"]
        if name in derived:
            value = derived[name]
        else:
            span, kind = name.rsplit(".", 1)
            i = at[span]
            if kind == "calls":
                value = totals["calls"][i] / jobs
            elif kind == "self_ms":
                value = scaled_self[i] / 1e6 / jobs
            else:
                calls = totals["calls"][i]
                value = totals["extra"][i] / calls if calls else 0.0
        metrics[name] = (value, entry["unit"])
    return metrics


def per_layer(run: Run, seconds: float) -> dict:
    """Alternate untraced and traced rounds; the traced ones give the layer
    metrics, the pairs give the tracing overhead."""
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    n = len(NAMES)
    totals = {"calls": [0] * n, "extra": [0] * n, "in_step": [0] * n}
    scaled_self = [0.0] * n
    plain_ns = traced_ns = traced_jobs = 0
    changed = 0
    span_log = []
    start = time.perf_counter()
    rounds = 0
    while True:
        plain = run.round(traced=False)
        traced = run.round(traced=True)
        for job, a, b in zip(run.jobs, plain, traced):
            if "error" in a or "error" in b:
                continue
            if (a["code"], a["out"]) != (b["code"], b["out"]):
                run.failures.append(f"{job.key}: traced output differs from untraced output")
            plain_ns += a["cpu_ns"] * a["scale"]
            traced_ns += b["cpu_ns"] * b["scale"]
            traced_jobs += 1
            layers = tracing.summarize(marshal.loads(b["spans"]))
            for field in totals:
                totals[field] = [x + y for x, y in zip(totals[field], layers[field])]
            scaled_self = [x + y * b["scale"] for x, y in zip(scaled_self, layers["self_ns"])]
            span_log.append((job.key, b["spans"]))
            if rounds == 0 and reference.get(job.key) != output_digest(a):
                changed += 1
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{run.workload}-{run.seed}.json.gz"
    with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as fh:
        jobs = [{"job": i, "key": key, "spans": marshal.loads(spans)} for i, (key, spans) in enumerate(span_log)]
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "extra"], "names": NAMES, "jobs": jobs}, fh)
    steps = totals["extra"][NAMES.index("rewrite.reduce_once")]

    def per_step(name):
        return totals["in_step"][NAMES.index(name)] / steps if steps else 0.0

    derived = {
        "rewrite.steps": steps / max(traced_jobs, 1),
        "rewrite.find_per_step": per_step("match.find_embeddings"),
        "rewrite.complement_per_step": per_step("match.complement"),
        "trace.overhead_frac": traced_ns / plain_ns - 1 if plain_ns else 0.0,
        "check.outputs_changed": changed,
        "check.fail_frac": len(run.failures) / run.attempted,
    }
    return _layer_metrics(totals, max(traced_jobs, 1), scaled_self, derived)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "netrw" / "cli.py").is_file():
        print(f"error: no netrw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ.pop("NETRW_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import netrw  # noqa: F401  imported once here, inherited by every job
    import netrw.cli  # noqa: F401

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    run = Run(args.workload, args.seed, round_jobs(args.workload, args.seed))
    metrics = per_layer(run, args.seconds) if args.trace else end_to_end(run, args.seconds)

    for reason in run.failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    print(f"jobs {run.attempted} attempted, {len(run.failures)} failed"
          + (f"; job_ms from {run.attempted} jobs" if "job_ms.p50" in metrics else ""))
    print(f"calibration median {statistics.median(run.cal_ns) / 1e6:.2f} ms"
          f" (reference {REF_CAL_NS / 1e6:.2f} ms)")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if run.failures else 0

if __name__ == "__main__":
    sys.exit(main())
