"""The public API: the names `ecckernel` exports, whichever module defines them."""

import ecckernel

PUBLIC = [
    "App", "CUMULATIVITY_VIOLATION", "Context", "DEFAULT_FUEL", "Derivation", "DerivationError",
    "Fuel", "FuelExhausted", "INVALID_CONTEXT", "InferOutcome", "Judgment", "Lam",
    "NOT_A_FUNCTION", "NOT_A_PAIR", "NOT_A_UNIVERSE", "PROP", "Pair", "ParseError", "Pi", "Proj1",
    "Proj2", "Prop", "Sigma", "StratClass", "StratKind", "Term", "Type", "TypeCheckError",
    "UNBOUND_VARIABLE", "Var", "alpha_eq", "check_context", "check_type", "classify", "conv",
    "descending_chain", "free_vars", "fresh_name", "infer_type", "infer_universe",
    "level_transfer_triple", "measure", "min_subtype_level", "normalize", "parse_context",
    "parse_term", "principal_of", "print_term", "self_application", "step", "strict_subtype",
    "subst", "subtype", "subtype_at_level", "to_full", "trace_to_derivation", "type_typing",
    "universe_level", "verify", "whnf",
]


def test_all_is_the_pinned_sorted_list():
    assert len(PUBLIC) == 60 and PUBLIC == sorted(PUBLIC)
    assert ecckernel.__all__ == PUBLIC


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ecckernel import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    for name in PUBLIC:
        assert namespace[name] is getattr(ecckernel, name), name
