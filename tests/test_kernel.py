import ast
import copy
import dataclasses
import json
import pathlib
import pickle
import random
import re

import pytest

import ecckernel
from ecckernel import (
    PROP,
    Context,
    Derivation,
    DerivationError,
    Judgment,
    Prop,
    Type,
    alpha_eq,
    check_context,
    infer_type,
    parse_context,
    parse_term,
    principal_of,
    subtype,
    to_full,
    trace_to_derivation,
    type_typing,
    verify,
)
from ecckernel.kernel import KERNEL_RULES
from ecckernel.terms import SHAPES, Var, free_vars, fresh_name, subst

from corpus import context_chain, typed_corpus
from genterms import strict_above


def test_axiom_accepts():
    d = Derivation("Ax", Judgment(Context(), PROP, Type(0)))
    assert verify(d)


def test_type_rule_requires_strict_increase():
    bad = Derivation(
        "T",
        Judgment(Context(), Type(0), Type(0)),
        (Derivation("Ax", Judgment(Context(), PROP, Type(0))),),
        level=0,
    )
    with pytest.raises(DerivationError):
        verify(bad)


def test_universe_derivations_verify():
    assert verify(type_typing(Context(), Type(2)))
    assert verify(type_typing(Context(), PROP))
    g = parse_context("x : Prop")
    d = type_typing(g, Type(0))
    assert verify(d)
    assert d.conclusion == Judgment(g, Type(0), Type(1))


def test_universe_derivation_conclusions():
    d = type_typing(Context(), Type(2))
    assert d.conclusion == Judgment(Context(), Type(2), Type(3))
    d = type_typing(Context(), PROP)
    assert d.conclusion == Judgment(Context(), PROP, Type(0))


def test_type_typing_lifts_prop_level_types():
    g = parse_context("p : Prop")
    d = type_typing(g, parse_term("p"))
    assert verify(d)
    assert d.conclusion.type == Type(0)
    assert d.rule == "Cum"


def test_trace_materialization_shapes():
    # each syntax-directed rule expands to its kernel rule; leaves get the validity chain
    tr = infer_type(Context(), parse_term("Sig x : Prop . Type0")).trace
    assert (tr.rule, tr.level) == ("Sigma'", 1)
    d = to_full(tr)
    assert (d.rule, d.level, d.conclusion) == ("Sigma", 1, tr.conclusion)
    dom, body = d.premises
    assert (dom.rule, dom.conclusion.type, dom.premises[0].rule) == ("Cum", Type(1), "Ax")
    assert (body.rule, body.level, body.premises[0].rule) == ("T", 0, "C")
    g = parse_context("f : Pi x : Type1 . Prop")
    check_context(g)
    tr = infer_type(g, parse_term("f Prop")).trace
    assert tr.rule == "App'"
    # a trace is a derivation, but the kernel knows none of its algorithmic rules
    with pytest.raises(DerivationError) as err:
        verify(tr)
    assert str(err.value) == "root: unknown rule \"App'\""
    # and a kernel-only rule is no trace rule
    with pytest.raises(ValueError, match="^unknown trace rule: 'Cum'$"):
        to_full(type_typing(parse_context("p : Prop"), Var("p")))
    d = to_full(tr)
    assert (d.rule, d.conclusion.type) == ("App", PROP)
    fn, arg = d.premises
    assert (fn.rule, fn.premises[0].rule) == ("var", "C")
    assert (arg.rule, arg.conclusion.type) == ("Cum", Type(1))


def _unlifted(a, f):
    # the builder wraps a premise in a Cum only where its type changes
    if f.conclusion == a.conclusion:
        return f
    assert f.rule == "Cum"
    return f.premises[0]


def _expansion(tr):
    # each trace node with the kernel node it expands to, lifts stepped over
    pairs, stack = [], [(tr, to_full(tr))]
    while stack:
        a, f = stack.pop()
        pairs.append((a, f))
        if a.rule in ("Pi2'", "Sigma'"):
            stack.append((a.premises[0], _unlifted(a.premises[0], f.premises[0])))
            stack.append((a.premises[1], _unlifted(a.premises[1], f.premises[1])))
        elif a.rule == "App'":
            stack.append((a.premises[0], f.premises[0]))
            stack.append((a.premises[1], _unlifted(a.premises[1], f.premises[1])))
        elif a.rule == "Pair'":
            stack.append((a.premises[0], _unlifted(a.premises[0], f.premises[0])))
            stack.append((a.premises[1], _unlifted(a.premises[1], f.premises[1])))
            stack.append((a.premises[2], f.premises[2]))
        else:
            stack.extend(zip(a.premises, f.premises))
    return pairs


def _conv_expansions():
    g = parse_context("p2 : Sig g : Type0 . (fn Y : Type1 . Pi Z : Y . Prop) Type0")
    check_context(g)
    found = [(a, f) for a, f in _expansion(infer_type(g, parse_term("snd p2 Prop")).trace) if a.rule == "Conv"]
    assert found, "expected a conversion node in this trace"
    return found


def test_conv_nodes_carry_rho():
    # a conversion expands to a Cum from its premise's type to its target
    for a, f in _conv_expansions():
        assert f.rule == "Cum"
        assert f.premises[0].conclusion == a.premises[0].conclusion
        assert (f.sub, f.sup) == (a.premises[0].conclusion.type, a.conclusion.type)


def test_expansion_preserves_conclusions():
    rules = set()
    for g, m in typed_corpus():
        for a, f in _expansion(infer_type(g, m).trace):
            assert type(a) is Derivation  # one node type from inference to the verifier
            assert f.conclusion == a.conclusion
            rules.add(a.rule)
    assert rules == {"Ax", "C", "T", "var", "Pi1", "Pi2'", "Sigma'", "Lam", "App'", "Pair'",
                     "Proj1", "Proj2", "Conv"}


def test_conv_expansion_reuses_rho_verbatim():
    # the Cum's target typing is the one type_typing builds for the conversion target
    for a, f in _conv_expansions():
        rho = f.premises[1]
        assert verify(rho)
        assert rho == type_typing(a.conclusion.ctx, a.conclusion.type)


def test_end_to_end_soundness_on_corpus():
    for g, m in typed_corpus():
        outcome = infer_type(g, m)
        full = to_full(trace_to_derivation(outcome))
        assert verify(full)
        assert full.conclusion == Judgment(g, m, outcome.principal)


def test_principal_of_examples():
    tau, d = principal_of(Context(), PROP)
    assert tau == Type(0) and verify(d)
    tau, d = principal_of(Context(), parse_term("fn x : Prop . x"))
    assert alpha_eq(tau, parse_term("Pi x : Prop . Prop")) and verify(d)
    g = parse_context("f : Pi x : Type1 . Prop")
    check_context(g)
    tau, d = principal_of(g, parse_term("f Prop"))
    assert tau == PROP and verify(d)


def test_principality_under_deliberate_lifts():
    rng = random.Random(107)
    lifted = 0
    for g, m in typed_corpus():
        tau_prime, d = principal_of(g, m)
        tau = strict_above(rng, tau_prime)
        if tau is None:
            continue
        lift = Derivation(
            "Cum",
            Judgment(g, m, tau),
            (d, type_typing(g, tau)),
            sub=tau_prime,
            sup=tau,
        )
        assert verify(lift)
        again, _ = principal_of(g, m)
        assert again == tau_prime
        assert subtype(tau_prime, tau)
        lifted += 1
    assert lifted >= 20


def _mutations(d: Derivation):
    # structural single-node corruptions
    other_rule = {"App": "Pair", "Pair": "App", "Pi2": "Sigma", "Sigma": "Pi2"}.get(d.rule, "Cum" if d.rule != "Cum" else "App")
    yield Derivation(other_rule, d.conclusion, d.premises, d.level, d.sub, d.sup)
    if d.level is not None:
        yield Derivation(d.rule, d.conclusion, d.premises, d.level + 1, d.sub, d.sup)
    if len(d.premises) >= 2 and d.premises[0] != d.premises[1]:
        swapped = (d.premises[1], d.premises[0]) + d.premises[2:]
        yield Derivation(d.rule, d.conclusion, swapped, d.level, d.sub, d.sup)
    c = d.conclusion
    if c.type != Type(7):
        yield Derivation(d.rule, Judgment(c.ctx, c.subject, Type(7)), d.premises, d.level, d.sub, d.sup)


def test_single_node_corruption_is_rejected():
    g = parse_context("f : Pi x : Type1 . Prop")
    check_context(g)
    _, d = principal_of(g, parse_term("f Prop"))
    assert verify(d)

    rejected = 0
    for mutant in _mutations(d):
        with pytest.raises(DerivationError):
            verify(mutant)
        rejected += 1
    # corrupt a premise deep in the tree as well
    deep = d
    while deep.premises:
        deep = deep.premises[0]
        for mutant in _mutations(deep):
            rebuilt = _replace_first(d, deep, mutant)
            with pytest.raises(DerivationError):
                verify(rebuilt)
            rejected += 1
    assert rejected >= 8


def _replace_first(root: Derivation, target: Derivation, replacement: Derivation) -> Derivation:
    if root is target:
        return replacement
    new_premises = tuple(_replace_first(p, target, replacement) for p in root.premises)
    return Derivation(root.rule, root.conclusion, new_premises, root.level, root.sub, root.sup)


def test_app_requires_exact_domain_not_mere_conversion():
    # the argument premise types N at a redex convertible to the domain;
    # the kernel rule demands the domain itself, with conversion explicit
    g = parse_context("f : Pi x : Type1 . Prop")
    check_context(g)
    _, good = principal_of(g, parse_term("f Prop"))
    arg_cum = good.premises[1]
    convertible = parse_term("(fn a : Type2 . a) Type1")
    loosened = Derivation(
        "Cum",
        Judgment(g, arg_cum.conclusion.subject, convertible),
        (arg_cum.premises[0], type_typing(g, convertible)),
        sub=arg_cum.sub,
        sup=convertible,
    )
    bad = Derivation(good.rule, good.conclusion, (good.premises[0], loosened))
    with pytest.raises(DerivationError) as err:
        verify(bad)
    assert err.value.path == "root"
    assert "exactly at the domain" in err.value.reason


def test_foreign_side_data_is_rejected():
    g = parse_context("f : Pi x : Type1 . Prop")
    check_context(g)
    _, d = principal_of(g, parse_term("f Prop"))
    decorated = Derivation(d.rule, d.conclusion, d.premises, d.level, sub=Type(3), sup=Type(4))
    with pytest.raises(DerivationError) as err:
        verify(decorated)
    assert "side pair" in err.value.reason
    leveled = Derivation(d.rule, d.conclusion, d.premises, level=2)
    with pytest.raises(DerivationError) as err:
        verify(leveled)
    assert "universe index" in err.value.reason


_PARSED = {"ctx": parse_context, "subject": parse_term, "type": parse_term, "sub": parse_term, "sup": parse_term}
_PAIR = "< Prop , Type0 > : Sig x : Type1 . Type1"
_FN = "f : Pi x : Type1 . Prop"
_PQ = "p : Prop\nq : p"  # q is a proof, not a type
_SIG = "p : Sig x : Prop . Prop\nq : Sig x : Type0 . Type0"


def _derived(term: str, at: str = "") -> Derivation:
    return principal_of(parse_context(at), parse_term(term))[1]


def _mutant(term: str | Derivation, at: str = "", path: tuple[int, ...] = (), premise=None, **change) -> Derivation:
    # term's derivation in context `at` (or a derivation given as it is) with
    # one node changed, the one at `path`: its premise `premise[0]` replaced by
    # `premise[1]`, and the conclusion parts or node fields given in `change`,
    # terms and contexts as text
    change = {k: _PARSED[k](v) if k in _PARSED and isinstance(v, str) else v for k, v in change.items()}
    parts = {k: change.pop(k) for k in ("ctx", "subject", "type") if k in change}

    def put(node: Derivation, path: tuple[int, ...]) -> Derivation:
        ps = node.premises
        if path:
            return dataclasses.replace(node, premises=ps[: path[0]] + (put(ps[path[0]], path[1:]),) + ps[path[0] + 1 :])
        if premise is not None:
            ps = ps[: premise[0]] + (premise[1],) + ps[premise[0] + 1 :]
        return dataclasses.replace(node, conclusion=dataclasses.replace(node.conclusion, **parts), premises=ps, **change)

    return put(_derived(term, at) if isinstance(term, str) else term, path)


# (id, changed derivation, failing path, reason): every node the verifier
# rejects passes each earlier clause of its rule and fails the named one; a
# case whose node would fail two clauses pins the order in which they run
_ONE_CHECK = [
    ("unknown-rule", lambda: _mutant("Prop", rule="Ax'"), "root", "unknown rule \"Ax'\""),
    ("context-entries", lambda: _mutant("Type0", "x : Prop", ctx="x : fn y : Prop . y"),
     "root", "T premise 0 context mismatch"),
    ("T-premise-before-subject", lambda: _mutant("Type0", subject="Prop", premise=(0, _derived("Type0"))),
     "root", "T premise must be the context validity judgment"),
    ("T-subject", lambda: _mutant("Type0", subject="Prop"), "root", "T concludes a Type universe"),
    ("C-premise-entry", lambda: _mutant("Prop", "x : Prop", ctx="x : Type0"), "root", "C premise must type the new entry"),
    ("C-entry-universe", lambda: _mutant("Prop", _PQ + "\nx : Prop", ctx=_PQ + "\nx : q", premise=(0, _derived("q", _PQ))),
     "root", "C entry type must live in a universe"),
    ("C-fresh-before-conclusion", lambda: _mutant("Prop", "x : Prop\ny : Prop", ctx="x : Prop\nx : Prop", type="Type1"),
     "root", "C entry name must be fresh"),
    ("C-conclusion", lambda: _mutant("Prop", "x : Prop", type="Type1"), "root", "C types Prop at Type 0"),
    ("var-premise-before-subject", lambda: _mutant("x", "x : Prop", subject="Prop", premise=(0, _derived("x", "x : Prop"))),
     "root", "var premise must be the context validity judgment"),
    ("var-subject", lambda: _mutant("x", "x : Prop", subject="Prop"), "root", "var concludes a variable"),
    ("var-unbound", lambda: _mutant("x", "x : Prop", subject="y"), "root", "var not bound in the context"),
    ("Ax-context-before-conclusion", lambda: _mutant("Prop", ctx="x : Prop", type="Type1"),
     "root", "Ax requires the empty context"),
    ("Ax-conclusion", lambda: _mutant("Prop", type="Type1"), "root", "Ax types Prop at Type 0"),
    ("cum-sub", lambda: _mutant(_PAIR, path=(0,), sub="Prop"), "root.0", "Cum recorded subtype mismatch"),
    ("Cum-conclusion", lambda: _mutant(type_typing(parse_context("p : Prop"), Var("p")), type="Type1"),
     "root", "Cum must conclude at the target type"),
    ("Cum-side-pair", lambda: _mutant(_PAIR, path=(0,), sub=None), "root.0", "Cum side pair missing"),
    ("Cum-sup", lambda: _mutant(_PAIR, path=(0,), sup="Type2"), "root.0", "Cum recorded supertype mismatch"),
    # every structural check passes; only the semantic side condition fails
    ("Cum-side-condition", lambda: Derivation("Cum", Judgment(Context(), Type(0), Type(0)), (_derived("Type0"),) * 2,
                                              sub=Type(1), sup=Type(0)),
     "root", "Cum side condition fails: not below the target"),
    ("formation-domain-entry", lambda: _mutant("Pi x : Prop . x", premise=(0, _derived("Type0"))),
     "root", "formation body premise must extend by the domain"),
    ("formation-subject", lambda: _mutant("Pi x : Prop . x", subject="Pi x : Prop . Prop"),
     "root", "formation subject must bind the body premise subject"),
    # the body premise is never checked: its parent fails first
    ("formation-domain-universe", lambda: Derivation(
        "Pi1", Judgment(parse_context(_PQ), parse_term("Pi x : q . p"), PROP),
        (_derived("q", _PQ), Derivation("var", Judgment(parse_context(_PQ + "\nx : q"), Var("p"), PROP)))),
     "root", "formation domain must live in a universe"),
    ("formation-index", lambda: _mutant("Pi x : Type0 . Type0", level=None), "root", "formation side index missing"),
    ("App-subject", lambda: _mutant("f Prop", _FN, subject="Prop"), "root", "App concludes an application"),
    ("App-parts", lambda: _mutant("f Prop", _FN, subject="f Type0"), "root", "App subject must apply the premise subjects"),
    ("Lam-subject", lambda: _mutant("fn x : Prop . x", subject="Prop"), "root", "Lam concludes an abstraction"),
    ("Lam-binding", lambda: _mutant("fn x : Prop . x", subject="fn x : Prop . Prop"),
     "root", "Lam subject must bind the premise subject"),
    ("Pair-subject", lambda: _mutant(_PAIR, subject="Prop"), "root", "Pair concludes a pair"),
    ("Pair-annotation", lambda: _mutant(_PAIR, subject="< Prop , Type0 > : Type1"),
     "root", "Pair annotation must be a Sigma type"),
    ("Pair-second", lambda: _mutant(_PAIR, subject="< Prop , Type1 > : Sig x : Type1 . Type1"),
     "root", "Pair second premise mismatch"),
    ("pair-family", lambda: _mutant(_PAIR, premise=(2, _derived("Pi z : Type1 . Type1", "x : Type1"))),
     "root", "Pair family premise must type the annotation family"),
    ("Pair-family-universe", lambda: _mutant(_PAIR, path=(2,), type="Prop"),
     "root", "Pair family must land in a Type universe"),
    ("proj1-subject", lambda: _mutant("fst p", _SIG, subject="fst q"), "root", "Proj1 subject mismatch"),
    ("proj2-subject", lambda: _mutant("snd p", _SIG, subject="snd q"), "root", "Proj2 subject mismatch"),
    ("Proj1-projection", lambda: _mutant("fst p", _SIG, subject="snd p"), "root", "Proj1 concludes its projection"),
    ("Proj2-projection", lambda: _mutant("snd p", _SIG, subject="fst p"), "root", "Proj2 concludes its projection"),
]


@pytest.mark.parametrize("mutant, path, reason", [case[1:] for case in _ONE_CHECK], ids=[case[0] for case in _ONE_CHECK])
def test_verify_rejects_a_node_that_one_check_alone_catches(mutant, path, reason):
    with pytest.raises(DerivationError) as err:
        verify(mutant())
    assert (err.value.path, err.value.reason) == (path, reason)


def test_every_rejection_clause_of_the_kernel_is_pinned():
    # each `_fail` template of kernel.py, its conversions read as wildcards,
    # gives a reason of the table above or of golden_verify.json
    tree = ast.parse(pathlib.Path(ecckernel.kernel.__file__).read_text(encoding="utf-8"))
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_fail"]
    templates = [call.args[1].value for call in calls]
    assert len(templates) > 40 and all(type(t) is str for t in templates)
    golden = json.loads((pathlib.Path(__file__).parent / "golden_verify.json").read_text(encoding="utf-8"))
    reasons = {case[3] for case in _ONE_CHECK}
    reasons |= {outcome[1] for item in golden for _, outcomes in item["outcomes"] for outcome in outcomes if outcome}
    unpinned = [t for t in templates
                if not any(re.fullmatch(".*".join(map(re.escape, re.split("%[sdr]", t))), r) for r in reasons)]
    assert unpinned == []


@pytest.mark.parametrize(
    "subject, rule, levels, reason",
    [
        ("Type0", "T", (False, 0.0), "T side index mismatch"),
        ("Pi x : Type0 . Type0", "Pi2", (True, 1.0), "formation side index missing"),
        ("Sig x : Type0 . Type0", "Sigma", (True, 1.0), "formation side index missing"),
        ("< Prop , Prop > : Sig x : Type0 . Type0", "Pair", (True, 1.0), "Pair side index mismatch"),
    ],
    ids=["T", "Pi2", "Sigma", "Pair"],
)
def test_verify_rejects_a_universe_index_that_is_not_an_int(subject, rule, levels, reason):
    # each bool or float index equals the int the node carries, so only its
    # type is wrong; the file reader rejects the same values as malformed
    _, d = principal_of(Context(), parse_term(subject))
    assert d.rule == rule and verify(d)
    for level in levels:
        assert level == d.level
        with pytest.raises(DerivationError) as err:
            verify(dataclasses.replace(d, level=level))
        assert (err.value.path, err.value.reason) == ("root", reason)


def test_verifier_checks_node_contexts():
    # a context whose entry is not a type must be rejected wherever it appears
    bad_ctx = Context.of(("x", parse_term("fn y : Prop . y")))
    d = Derivation("C", Judgment(bad_ctx, PROP, Type(0)),
                   (Derivation("Ax", Judgment(Context(), PROP, Type(0))),))
    with pytest.raises(DerivationError):
        verify(d)


def _relative_imports(module: str) -> set[str]:
    path = pathlib.Path(ecckernel.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


# the two records' dataclass surface: (class, field names, their defaults)
_RECORDS = [
    (Judgment, ("ctx", "subject", "type"), (dataclasses.MISSING,) * 3),
    (Derivation, ("rule", "conclusion", "premises", "level", "sub", "sup"),
     (dataclasses.MISSING, dataclasses.MISSING, (), None, None, None)),
]


def _record_samples():
    j = Judgment(Context.of(("A", Type(0))), PROP, Type(0))
    t = Derivation("T", Judgment(Context(), Type(0), Type(1)), level=0)
    return j, Derivation("C", j, (t,)), t


@pytest.mark.parametrize("cls, names, defaults", _RECORDS, ids=["Judgment", "Derivation"])
def test_record_fields_defaults_and_match_args(cls, names, defaults):
    fields = dataclasses.fields(cls)
    assert tuple(f.name for f in fields) == names == cls.__match_args__
    assert tuple(f.default for f in fields) == defaults
    assert all(f.default_factory is dataclasses.MISSING for f in fields)


def test_record_repr_eq_and_hash():
    j, d, t = _record_samples()
    assert repr(j) == "Judgment(ctx=Context.of(('A', Type(level=0)),), subject=Prop(), type=Type(level=0))"
    assert repr(t) == (
        "Derivation(rule='T', conclusion=Judgment(ctx=Context.of(), subject=Type(level=0), type=Type(level=1)),"
        " premises=(), level=0, sub=None, sup=None)"
    )
    assert repr(d) == f"Derivation(rule='C', conclusion={j!r}, premises=({t!r},), level=None, sub=None, sup=None)"
    j2, d2, _ = _record_samples()
    assert j2 is not j and j2 == j and hash(j2) == hash(j) == hash((j.ctx, j.subject, j.type))
    assert d2 is not d and d2 == d and hash(d2) == hash(d)
    assert j != Judgment(j.ctx, PROP, Type(1)) and d != Derivation("C", j, (t, t)) and d != t
    assert j != (j.ctx, j.subject, j.type) and d != j


@pytest.mark.parametrize("which", [0, 1], ids=["Judgment", "Derivation"])
def test_records_are_frozen(which):
    record = _record_samples()[which]
    for name in ("rule", "ctx", "premises", "unknown"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert record == _record_samples()[which]


def test_records_replace_copy_and_pickle():
    j, d, t = _record_samples()
    assert dataclasses.replace(j, type=Type(1)) == Judgment(j.ctx, PROP, Type(1))
    assert dataclasses.replace(d, premises=()) == Derivation("C", j)
    assert dataclasses.replace(t, level=1, sub=PROP) == Derivation("T", t.conclusion, (), 1, PROP)
    with pytest.raises(TypeError):
        dataclasses.replace(j, rule="T")
    for record in (j, d, t):
        copies = [copy.copy(record), copy.deepcopy(record)]
        copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is type(record) and other == record and repr(other) == repr(record)
    shallow = copy.copy(d)
    assert shallow is not d and shallow.conclusion is j and shallow.premises is d.premises


def test_kernel_imports_only_terms_and_reduction():
    # the trusted base: the verifier and what it imports, transitively
    trusted = {"terms", "reduction"}
    assert _relative_imports("kernel") <= trusted
    for module in trusted:
        assert _relative_imports(module) <= trusted


def test_every_cum_changes_the_type_and_types_its_target_by_type_typing():
    apps = cums = 0
    for g, m in typed_corpus():
        _, d = principal_of(g, m)
        stack = [d]  # every tree occurrence, shared node objects included
        while stack:
            node = stack.pop()
            stack.extend(node.premises)
            apps += node.rule == "App"
            if node.rule == "Cum":
                assert not alpha_eq(node.sub, node.sup)
                assert node.premises[1] == type_typing(node.conclusion.ctx, node.sup)
                cums += 1
    assert apps >= 20
    assert cums >= 20


def _objects(d: Derivation) -> list[Derivation]:
    seen, stack = {}, [d]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.premises)
    return list(seen.values())


def test_trace_expansion_builds_as_many_node_objects_as_principal_of():
    # one call, one memo: conversion targets and lifts share their typings
    for g, m in typed_corpus():
        expanded = to_full(trace_to_derivation(infer_type(g, m)))
        assert len(_objects(expanded)) == len(_objects(principal_of(g, m)[1]))


def test_term_objects_over_the_corpus():
    # term objects reachable from one principal_of call per corpus item, counted
    # per derivation; atoms are interned, so each level and name is one object
    count = 0
    for g, m in typed_corpus():
        nodes, seen = _objects(principal_of(g, m)[1]), set()
        stack = [t for node in nodes for _, t in node.conclusion.ctx]
        stack += [t for node in nodes for t in (node.conclusion.subject, node.conclusion.type, node.sub, node.sup)]
        while stack:
            t = stack.pop()
            if t is not None and id(t) not in seen:
                seen.add(id(t))
                stack += [getattr(t, field) for field in SHAPES[type(t)]]
        count += len(seen)
    assert count == 466


def _node_contexts(d: Derivation) -> tuple[int, int]:
    # the context objects d's nodes conclude in, and how many are distinct by value
    contexts = {id(node.conclusion.ctx): node.conclusion.ctx for node in _objects(d)}
    return len(contexts), len(set(contexts.values()))


def test_context_objects_over_the_chain_and_the_corpus():
    # extend shares its parent, so each prefix of a context is one object: 194
    # objects for the chain's 130 contexts, and 268 over the corpus, while a
    # context was a tuple that extend and its inverse copied
    assert _node_contexts(principal_of(*context_chain(64))[1]) == (130, 130)
    counts = [_node_contexts(principal_of(g, m)[1]) for g, m in typed_corpus()]
    assert [sum(column) for column in zip(*counts)] == [212, 211]


def test_node_and_cum_objects_over_the_corpus():
    # deterministic counters of what one principal_of call per corpus item builds
    built = [node for g, m in typed_corpus() for node in _objects(principal_of(g, m)[1])]
    assert len(built) == 615
    assert sum(node.rule == "Cum" for node in built) == 57


def _first_node_of_each_rule(d: Derivation) -> dict[str, tuple[tuple[int, ...], Derivation]]:
    # pre-order, the order in which the verifier checks nodes
    first, stack = {}, [((), d)]
    while stack:
        path, node = stack.pop()
        first.setdefault(node.rule, (path, node))
        stack.extend((path + (i,), p) for i, p in reversed(list(enumerate(node.premises))))
    return first


def test_every_rule_checks_its_premise_contexts_and_arity():
    axiom = Derivation("Ax", Judgment(Context(), PROP, Type(0)))
    rules, variants = set(), 0
    for g, m in typed_corpus():
        _, d = principal_of(g, m)
        for rule, (path, node) in _first_node_of_each_rule(d).items():
            rules.add(rule)
            ps = node.premises
            mutants = []
            for i, p in enumerate(ps):
                c = p.conclusion
                moved = Derivation(p.rule, Judgment(c.ctx.extend("zz", PROP), c.subject, c.type),
                                   p.premises, p.level, p.sub, p.sup)
                mutants.append(ps[:i] + (moved,) + ps[i + 1 :])
            if ps:
                mutants.append(ps[:-1])
            mutants.append(ps + (axiom,))
            for premises in mutants:
                bad = Derivation(node.rule, node.conclusion, premises, node.level, node.sub, node.sup)
                with pytest.raises(DerivationError) as err:
                    verify(_replace_first(d, node, bad))
                assert err.value.path == ".".join(("root",) + tuple(map(str, path)))
                variants += 1
    assert rules == KERNEL_RULES
    assert variants >= 1000


def _replaced(d: Derivation, old: Derivation, new: Derivation) -> Derivation:
    # a new object for every node of d, one per node object, with new for old
    built = {id(old): new}

    def rebuild(node):
        if id(node) not in built:
            built[id(node)] = dataclasses.replace(node, premises=tuple(map(rebuild, node.premises)))
        return built[id(node)]

    return rebuild(d)


def test_equality_compares_each_pair_of_node_objects_once():
    # the k = 32 chain's derivation is a tree of 38,654,705,659 nodes over a
    # few hundred objects; walked as a tree, one comparison would never end
    d, again = principal_of(*context_chain(32))[1], principal_of(*context_chain(32))[1]
    assert d is not again and d == again and hash(d) == hash(again)
    leaf = d.premises[0]
    while leaf.premises:
        leaf = leaf.premises[-1]
    assert leaf.rule == "Ax"  # under every context entry's typing, shared by all of them
    copy = _replaced(d, leaf, dataclasses.replace(leaf))
    assert copy is not d and copy == d and hash(copy) == hash(d)
    changed = _replaced(d, leaf, dataclasses.replace(leaf, level=0))
    assert changed != d and d != changed
    assert d != d.conclusion


_BIND = "formation subject must bind the body premise subject"
# (rule, binder) -> the reason a node is rejected for each change of that
# binder in its conclusion; a Pair's binder is its annotation, which is also
# its type
_BINDER_REJECTIONS = {
    ("Lam", "subject"): dict.fromkeys(("captured", "domain", "body"), "Lam subject must bind the premise subject"),
    ("Lam", "type"): dict.fromkeys(("captured", "domain", "body"), "Lam type must be the Pi over the premise type"),
    ("Pi1", "subject"): dict.fromkeys(("captured", "domain", "body"), _BIND),
    ("Pi2", "subject"): dict.fromkeys(("captured", "domain", "body"), _BIND),
    ("Sigma", "subject"): dict.fromkeys(("captured", "domain", "body"), _BIND),
    ("Pair", "annotation"): {
        "domain": "Pair first component must be typed at the annotation domain",
        "body": "Pair second component must be typed at the instantiated family",
    },
}


def _bumped(t):
    # t with its first leaf in pre-order changed: Prop to Type0, Type i to
    # Type i+1, a variable to a free one no term here uses; so the same shape,
    # and never alpha-equivalent to t
    cls = type(t)
    if cls is Prop or cls is Type:
        return Type(0 if cls is Prop else t.level + 1)
    if cls is Var:
        return Var("nowhere")
    first = SHAPES[cls][0]
    return dataclasses.replace(t, **{first: _bumped(getattr(t, first))})


def _binder_variants(t):
    # t renamed to a fresh name, which is alpha-equivalent; to a name free in
    # its body, which captures it; and with its domain or its body changed
    cls, (first, second) = type(t), SHAPES[type(t)]
    dom, body = getattr(t, first), getattr(t, second)
    fresh = fresh_name(t.var, free_vars(body) | {t.var})
    yield "fresh", cls(fresh, dom, subst(body, t.var, Var(fresh)))
    for name in sorted(free_vars(body) - {t.var})[:1]:
        yield "captured", cls(name, dom, subst(body, t.var, Var(name)))
    yield "domain", cls(t.var, _bumped(dom), body)
    yield "body", cls(t.var, dom, _bumped(body))


def _with_binder(node: Derivation, binder: str, t) -> Derivation:
    c = node.conclusion
    if binder == "annotation":
        return dataclasses.replace(node, conclusion=Judgment(c.ctx, dataclasses.replace(c.subject, annotation=t), t))
    return dataclasses.replace(node, conclusion=dataclasses.replace(c, **{binder: t}))


def test_binder_rules_compare_the_binder_with_the_premise_entry_up_to_alpha():
    # each changed node is checked as the root of its own derivation, so the
    # first failing node is the changed one
    nodes = {}
    for g, m in typed_corpus():
        for node in _objects(principal_of(g, m)[1]):
            nodes.setdefault(node, node)
    cases = set()
    for node in nodes:
        for (rule, binder), reasons in _BINDER_REJECTIONS.items():
            if rule != node.rule:
                continue
            c = node.conclusion
            t = c.subject.annotation if binder == "annotation" else getattr(c, binder)
            for case, changed in _binder_variants(t):
                assert alpha_eq(changed, t) == (case == "fresh")
                bad = _with_binder(node, binder, changed)
                if case == "fresh":
                    assert verify(bad)
                else:
                    with pytest.raises(DerivationError) as err:
                        verify(bad)
                    assert (err.value.path, err.value.reason) == ("root", reasons[case])
                cases.add((rule, binder, case))
    # every change of every binder is met, but a name free in the body: no Pi2
    # or Pair in the corpus binds over a body with a free name of its own
    every = {(rule, binder, case) for (rule, binder), reasons in _BINDER_REJECTIONS.items() for case in ("fresh", *reasons)}
    assert cases == every - {("Pi2", "subject", "captured")}
