"""The benchmark's tracer against the package it wraps.

``perfbench/tracing.py`` wraps the functions of its ``WRAPPED`` table by
name and measures some results by ``len``.  A renamed function, or one
that comes to return a generator, would break only traced benchmark runs;
these tests read the table, change nothing in ``perfbench/``, and fail
instead."""

import importlib
import importlib.util
from collections.abc import Sized
from pathlib import Path

import pytest

from netrw.ainparse import parse_rules, parse_term
from netrw.core import parse_signature

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_exist(tracing):
    for mod, fn in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(f"netrw.{mod}"), fn, None)), f"{mod}.{fn}"


def test_measured_results_are_sized(tracing):
    sig = parse_signature("gen m 1 2\n")
    (rule,) = parse_rules("rule assoc sharp: m^a_bc m^c_de -> m^a_ce m^c_bd", sig)
    comb = parse_term("m^a_bc m^c_de m^e_fg", sig).monomials()[0].rep
    pattern = rule.lhs.rep
    args = {
        "match.find_embeddings": (pattern, comb, comb.inner_vertices()[0]),
        "ambiguity.enumerate_decisive": (rule, rule),
    }
    measured = {name for name, extra in tracing.EXTRA.items() if extra is tracing._length}
    assert measured == set(args)
    for name, call_args in args.items():
        mod, fn = tracing.WRAPPED[tracing.NAMES.index(name)]
        result = getattr(importlib.import_module(f"netrw.{mod}"), fn)(*call_args)
        assert isinstance(result, Sized), name
        assert tracing.EXTRA[name](call_args, result) == len(result) > 0, name
