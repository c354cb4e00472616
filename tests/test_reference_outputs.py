"""The command line's output on the benchmark's workloads against the
outputs recorded in ``perfbench/reference.json``.

``perfbench/workloads.py`` writes one round of command lines per workload;
each is run here in process through ``netrw.cli.main``, from the
repository root where the job's file paths start, and its exit code and
the hash of its standard output are compared with the recorded ones.  The
engine's output must stay byte-identical; this test reads ``perfbench/``
and changes nothing there."""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import netrw.network
from netrw import cli

from conftest import swap_everywhere

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def reference():
    return json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def digest(argv) -> list:
    """``[exit code, sha256(stdout)[:16]]``, as the benchmark records a job."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]]


@pytest.mark.parametrize("workload", ["circle-powers", "large-terms", "corpus-confluence", "random-hopf"])
def test_round_matches_reference(workloads, reference, monkeypatch, workload):
    assert workload in workloads.WORKLOADS
    monkeypatch.chdir(ROOT)
    jobs = workloads.round_jobs(workload, 1)
    changed = [job.key for job in jobs if digest(job.argv) != reference[job.key]]
    assert not changed, f"{len(changed)} of {len(jobs)} outputs differ: {changed[:5]}"


def test_circle_powers_rebuilds_few_reps(workloads, monkeypatch):
    """A class is evaluated on the network it holds, so an order
    comparison rebuilds no representative: one seed-1 round of
    circle-powers calls ``from_code`` 551 times, where evaluating each
    compared class's representative made 591 calls."""
    monkeypatch.chdir(ROOT)
    calls = []
    real = netrw.network.from_code

    def counting(code):
        calls.append(code)
        return real(code)

    swap_everywhere(monkeypatch, real, counting)
    for job in workloads.round_jobs("circle-powers", 1):
        digest(job.argv)
    assert len(calls) == 551
