"""netrw: a symbolic rewriting engine for free linear PROPs.

Expressions are networks (decorated acyclic port-graphs); the engine
normalizes terms, enumerates and resolves ambiguities, and decides
confluence for sharp systems, with pluggable evaluation targets and
termination orders.
"""

from .core import BoolMat, Perm, Signature, Symbol, cross, parse_signature, same
from .freeprop import (
    JoinUndefinedError,
    LinComb,
    NetClass,
    annex,
    class_of,
    compose,
    free_feedback,
    generator,
    identity,
    lc_annex,
    lc_sym_join,
    phi,
    sym_join,
    tensor,
)
from .network import Network, evaluate, smoothen, transference, validate
from .props import matrix_feedback
from .ainparse import format_term, parse_rules, parse_term
from .rewrite import Rule, is_irreducible, joinable, make_rule, normalize, reduce_once
from .ambiguity import complete, confluence_report, enumerate_decisive, resolve
from .order import OrderSpec, check_strictness, compare, lex_compose, rule_compatible

__all__ = [
    "BoolMat",
    "Perm",
    "Signature",
    "Symbol",
    "cross",
    "same",
    "parse_signature",
    "JoinUndefinedError",
    "LinComb",
    "NetClass",
    "annex",
    "class_of",
    "compose",
    "free_feedback",
    "generator",
    "identity",
    "lc_annex",
    "lc_sym_join",
    "phi",
    "sym_join",
    "tensor",
    "Network",
    "evaluate",
    "smoothen",
    "transference",
    "validate",
    "matrix_feedback",
    "format_term",
    "parse_rules",
    "parse_term",
    "Rule",
    "is_irreducible",
    "joinable",
    "make_rule",
    "normalize",
    "reduce_once",
    "complete",
    "confluence_report",
    "enumerate_decisive",
    "resolve",
    "OrderSpec",
    "check_strictness",
    "compare",
    "lex_compose",
    "rule_compatible",
]

__version__ = "0.1.0"
