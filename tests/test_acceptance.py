"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. Sample counts and tolerances are fixed here; every
count is a hard minimum and every tolerance is zero violations.
"""

import dataclasses
import random
import time

import pytest

from ecckernel import (
    Derivation,
    FuelExhausted,
    Judgment,
    Type,
    alpha_eq,
    classify,
    conv,
    infer_type,
    level_transfer_triple,
    measure,
    min_subtype_level,
    normalize,
    parse_term,
    principal_of,
    self_application,
    step,
    strict_subtype,
    subtype,
    subtype_at_level,
    to_full,
    trace_to_derivation,
    type_typing,
    verify,
)
from ecckernel.cli import EXIT_REJECTED, run_command, save_derivation

from corpus import typed_corpus
from genterms import alpha_rename, bump, descend_moves, expand, normal_type, strict_above

FUEL = 10**4


def _report(number, text):
    print(f"PASS criterion {number}: {text}", flush=True)


def test_criterion_01_level_transfer_reproduction(capsys):
    start = time.perf_counter()
    c, a, b = level_transfer_triple()
    assert subtype(c, a, FUEL) is True
    assert subtype_at_level(a, b, 1, FUEL) is True
    assert strict_subtype(a, b, FUEL) is True
    assert subtype_at_level(c, a, 1, FUEL) is False
    assert min_subtype_level(c, a, FUEL) == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, f"level-transfer triple verdicts exact ({elapsed:.3f}s)")


def test_criterion_02_descending_chain_reproduction(capsys):
    start = time.perf_counter()
    assert run_command(["demo", "prop3", "--steps", "16"]) == 0
    out = capsys.readouterr().out
    printed = [line.split(" = ", 1)[1] for line in out.splitlines() if line.startswith("A")]
    assert len(printed) == 16
    chain = [parse_term(text) for text in printed]
    for lower, upper in zip(chain[1:], chain):
        assert strict_subtype(lower, upper, FUEL)
    loop = self_application()
    assert alpha_eq(chain[0], parse_term(
        "Sig x : Type0 . (fn y : Type0 . Sig x : Type0 . y y) (fn y : Type0 . Sig x : Type0 . y y)"))
    assert alpha_eq(chain[1], parse_term(
        "Sig x : Prop . (fn y : Type0 . Sig x : Type0 . y y) (fn y : Type0 . Sig x : Type0 . y y)"))
    with pytest.raises(FuelExhausted):
        normalize(loop, 10000)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _report(2, f"16-step descending chain, first two shapes exact, loop exhausts fuel ({elapsed:.3f}s)")


def test_criterion_03_measure_table(capsys):
    from ecckernel import PROP, Type

    assert measure(PROP) == 2
    for j in range(6):
        assert measure(Type(j)) == 3 + j
    c, a, b = level_transfer_triple()
    assert (measure(c), measure(a), measure(b)) == (8, 12, 18)
    assert measure(c) < measure(a) < measure(b)
    assert strict_subtype(c, a, FUEL) and strict_subtype(a, b, FUEL)
    with capsys.disabled():
        _report(3, "measure table exact: Prop=2, Type j=3+j, triple = 8 < 12 < 18")


def test_criterion_04_measure_monotonicity(capsys):
    rng = random.Random(2024)
    strict_pairs = 0
    conv_pairs = 0
    while strict_pairs < 1000:
        t = normal_type(rng, 3)
        raised = strict_above(rng, t)
        if raised is None:
            continue
        lo, hi = expand(rng, t, 0.15), expand(rng, raised, 0.15)
        assert strict_subtype(lo, hi, FUEL)
        assert measure(lo, FUEL) < measure(hi, FUEL)
        strict_pairs += 1
    while conv_pairs < 1000:
        t = normal_type(rng, 3)
        e = expand(rng, t)
        assert conv(t, e, FUEL)
        assert measure(t, FUEL) == measure(e, FUEL)
        assert classify(t, FUEL) == classify(e, FUEL)
        conv_pairs += 1
    with capsys.disabled():
        _report(4, f"{strict_pairs} strict pairs strictly increase, {conv_pairs} conversion pairs tie")


def test_criterion_05_stratification_properties(capsys):
    rng = random.Random(2025)
    total = 0
    while total < 1000:
        t = expand(rng, normal_type(rng, 3, ("u",)), 0.2)
        cls = classify(t, FUEL)  # totality on witnessed-normalizing terms
        assert cls.measure >= 1
        assert (cls.level == 0) == (cls.kind.value == "Base")
        cur = t
        hops = 0
        while hops < 40:
            nxt = step(cur)
            if nxt is None:
                break
            assert classify(nxt, FUEL) == cls  # invariance along the path
            cur = nxt
            hops += 1
        total += 1
    with capsys.disabled():
        _report(5, f"{total} terms classify totally, invariantly along reduction, single-headed")


def test_criterion_06_substitution_and_universe_bound(capsys):
    rng = random.Random(2026)
    from ecckernel import Type, subst, universe_level

    subst_cases = 0
    while subst_cases < 500:
        a = normal_type(rng, 2, ("x", "u"))
        raised, _ = bump(rng, a)
        n = normal_type(rng, 2)
        assert subtype(a, raised, FUEL)
        assert subtype(subst(a, "x", n), subst(raised, "x", n), FUEL)
        subst_cases += 1

    bound_cases = 0
    positives = 0
    while bound_cases < 500:
        u = Type(rng.randrange(4)) if rng.random() < 0.5 else normal_type(rng, 2)
        candidate = expand(rng, u)
        j = rng.randrange(2, 6)
        if subtype(candidate, Type(j), FUEL):
            nf = normalize(candidate, FUEL)
            lvl = universe_level(nf)
            assert lvl is not None and lvl <= j
            positives += 1
        bound_cases += 1
    assert positives >= 100
    with capsys.disabled():
        _report(6, f"{subst_cases} substitution instances, {bound_cases} universe-bound instances ({positives} positive)")


def test_criterion_07_descent_bound(capsys):
    rng = random.Random(2027)
    checked = 0
    while checked < 200:
        t = normal_type(rng, 3)
        bound = measure(t, FUEL)
        chain = [t]
        cur = t
        while True:
            moves = list(descend_moves(cur))
            if not moves:
                break
            nxt = rng.choice(moves)
            assert strict_subtype(nxt, cur, FUEL)
            chain.append(nxt)
            assert len(chain) <= bound
            cur = nxt
        checked += 1
    with capsys.disabled():
        _report(7, f"{checked} greedy descent chains all terminate within the measure bound")


def test_criterion_08_principal_types_end_to_end(capsys):
    start = time.perf_counter()
    corpus = typed_corpus()
    assert len(corpus) >= 50

    rule_counts: dict[str, int] = {}

    def count(tr):
        rule_counts[tr.rule] = rule_counts.get(tr.rule, 0) + 1
        for p in tr.premises:
            count(p)

    rng = random.Random(2028)
    lifted = 0
    for g, m in corpus:
        outcome = infer_type(g, m, FUEL)
        count(outcome.trace)
        full = to_full(trace_to_derivation(outcome, FUEL), FUEL)
        assert verify(full, FUEL)
        assert full.conclusion == Judgment(g, m, outcome.principal)

        tau = strict_above(rng, outcome.principal)
        if tau is not None:
            lift = Derivation(
                "Cum", Judgment(g, m, tau), (full, type_typing(g, tau, FUEL)),
                sub=outcome.principal, sup=tau,
            )
            assert verify(lift, FUEL)
            assert subtype(outcome.principal, tau, FUEL)
            lifted += 1

    for rule in ("Pi1", "Pi2'", "Sigma'", "Lam", "App'", "Pair'", "Proj1", "Proj2", "Conv", "T", "var"):
        assert rule_counts.get(rule, 0) >= 3, f"clause {rule} not covered 3 times"
    assert rule_counts.get("Ax", 0) + rule_counts.get("C", 0) >= 3
    assert lifted >= 20
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _report(8, f"{len(corpus)} terms verified end-to-end, {lifted} deliberate lifts principal ({elapsed:.2f}s)")


def test_criterion_09_uniqueness_and_determinism(capsys):
    corpus = typed_corpus()
    first = [infer_type(g, m, FUEL) for g, m in corpus]
    for _ in range(2):
        assert [infer_type(g, m, FUEL) for g, m in corpus] == first
    for (g, m), outcome in zip(corpus, first):
        renamed = alpha_rename(m, "7")
        assert alpha_eq(m, renamed)
        other = infer_type(g, renamed, FUEL)
        assert conv(outcome.principal, other.principal, FUEL)
    with capsys.disabled():
        _report(9, f"3 runs identical on {len(corpus)} terms; alpha-varied inputs convertible")


def _mutate(rng, d):
    """One structured single-node mutation of a derivation.

    The node is drawn from its occurrences in pre-order, one per path, and
    the ancestors on its path are rebuilt, so a node shared with another
    path changes on the drawn path only.
    """
    paths, stack = [], [((), d)]
    while stack:
        path, node = stack.pop()
        paths.append((path, node))
        stack.extend((path + (i,), p) for i, p in reversed(list(enumerate(node.premises))))
    path, node = rng.choice(paths)
    choices = []
    other_rules = ["Ax", "C", "T", "var", "Pi1", "Pi2", "Sigma", "Lam", "App", "Pair", "Proj1", "Proj2", "Cum"]
    choices.append(("rule", rng.choice([r for r in other_rules if r != node.rule])))
    if node.level is not None:
        choices.append(("level", node.level + 1))
    if len(node.premises) >= 2 and node.premises[0] != node.premises[1]:
        choices.append(("swap", None))
    if node.conclusion.type != Type(7):
        choices.append(("type", Type(7)))
    if node.sub is None:
        choices.append(("junk_side", None))
    kind, value = rng.choice(choices)
    if kind == "rule":
        changed = dataclasses.replace(node, rule=value)
    elif kind == "level":
        changed = dataclasses.replace(node, level=value)
    elif kind == "swap":
        ps = node.premises
        changed = dataclasses.replace(node, premises=(ps[1], ps[0]) + ps[2:])
    elif kind == "junk_side":
        changed = dataclasses.replace(node, sub=Type(3), sup=Type(4))
    else:
        changed = dataclasses.replace(node, conclusion=dataclasses.replace(node.conclusion, type=value))
    ancestors = [d]
    for i in path[:-1]:
        ancestors.append(ancestors[-1].premises[i])
    for parent, i in reversed(list(zip(ancestors, path))):
        ps = parent.premises
        changed = dataclasses.replace(parent, premises=ps[:i] + (changed,) + ps[i + 1:])
    return changed


def test_criterion_10_verifier_independence(tmp_path, capsys):
    subjects = [
        ("", "fn x : Prop . x"),
        ("", "< Prop , Type0 > : Sig x : Type1 . Type1"),
        ("f : Pi x : Type1 . Prop", "f Prop"),
        ("", "Sig x : Prop . Type0"),
    ]
    originals = []
    for i, (ctx_text, term_text) in enumerate(subjects):
        from ecckernel import check_context, parse_context

        g = parse_context(ctx_text)
        check_context(g)
        _, d = principal_of(g, parse_term(term_text), FUEL)
        assert verify(d, FUEL)
        originals.append(d)

    rng = random.Random(2030)
    files = set()  # each mutant's file, so no two count as one
    attempts = 0
    while len(files) < 100:
        attempts += 1
        assert attempts < 500, "could not build 100 distinct effective mutations"
        base = originals[rng.randrange(len(originals))]
        mutated = _mutate(rng, base)
        if mutated == base:
            continue
        path = tmp_path / f"mut{len(files)}.json"
        save_derivation(mutated, str(path))
        text = path.read_text(encoding="utf-8")
        if text in files:
            continue
        files.add(text)
        capsys.readouterr()
        assert run_command(["verify", str(path)]) == EXIT_REJECTED
        # the kernel rejects a node, never the reader the file
        err = capsys.readouterr().err
        assert err.startswith("rejected: root") and "malformed derivation file" not in err, err
    with capsys.disabled():
        _report(10, f"{len(files)} distinct single-node mutations all rejected by the kernel with exit {EXIT_REJECTED}")
