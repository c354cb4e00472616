"""Spans around the public functions of each ``netrw`` layer, recorded from
outside the package.

``install`` swaps every binding of each wrapped function, in every loaded
``netrw`` module and the package namespace, for a wrapper: ``from .match
import find_embeddings`` copies the name into ``rewrite``, ``ambiguity``
and ``cli``, so wrapping ``match`` alone would miss those calls.  A job
installs the wrappers in its own forked child, so untraced jobs of the same
run never see them.
"""

from __future__ import annotations

import sys
import time

# (module, function) pairs; the span name is "<module>.<function>".
WRAPPED = (
    ("cli", "main"),
    ("ainparse", "parse_rules"),
    ("ainparse", "parse_term"),
    ("ainparse", "format_term"),
    ("network", "canonical_code"),
    ("network", "from_code"),
    ("network", "transference"),
    ("network", "smoothen"),
    ("network", "evaluate"),
    ("freeprop", "class_of"),
    ("freeprop", "sym_join"),
    ("freeprop", "lc_annex"),
    ("match", "find_embeddings"),
    ("match", "strong_embeddings"),
    ("match", "complement"),
    ("rewrite", "reduce_once"),
    ("rewrite", "normalize"),
    ("rewrite", "joinable"),
    ("rewrite", "all_single_steps"),
    ("ambiguity", "enumerate_decisive"),
    ("ambiguity", "resolve"),
    ("ambiguity", "complete"),
    ("order", "compare"),
    ("order", "rule_compatible"),
    ("order", "check_strictness"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in WRAPPED)


def _inner_vertices(args, result):
    return len(args[0].vertices) - 2


def _length(args, result):
    return len(result)


def _found_redex(args, result):
    return int(result is not None)


# A span's "extra" field: inner vertices canonicalized, embeddings or
# ambiguities returned, or whether reduce_once applied a step.
EXTRA = {
    "network.canonical_code": _inner_vertices,
    "match.find_embeddings": _length,
    "ambiguity.enumerate_decisive": _length,
    "rewrite.reduce_once": _found_redex,
}


class Tracer:
    """Records spans as [name index, start ns, end ns, parent span, extra];
    a span's parent is the innermost wrapped call open when it started."""

    def __init__(self):
        self.spans: list[list[int]] = []
        self._open = [-1]

    def _wrap(self, index: int, fn, extra):
        spans, open_, clock = self.spans, self._open, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [index, 0, 0, open_[-1], 0]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if extra is not None:
                span[4] = extra(args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        swap = {}
        for index, (mod, fn_name) in enumerate(WRAPPED):
            fn = getattr(sys.modules[f"netrw.{mod}"], fn_name)
            swap[id(fn)] = self._wrap(index, fn, EXTRA.get(NAMES[index]))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "netrw" or name.startswith("netrw.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in swap:
                    setattr(module, attr, swap[id(value)])


def summarize(spans) -> dict:
    """Per-name totals over one job's spans: calls, self ns, extra, and the
    calls made inside rewrite.reduce_once."""
    n = len(NAMES)
    calls, self_ns, extra, in_step = [0] * n, [0] * n, [0] * n, [0] * n
    reduce_once = NAMES.index("rewrite.reduce_once")
    child_ns = [0] * len(spans)
    under = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            under[i] = under[parent] or spans[parent][0] == reduce_once
    for i, (name, start, end, parent, x) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
        extra[name] += x
        in_step[name] += under[i]
    return {"calls": calls, "self_ns": self_ns, "extra": extra, "in_step": in_step}
