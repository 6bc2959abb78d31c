import collections
import random
import re
import sys

import pytest

from ecckernel import (
    PROP,
    App,
    Fuel,
    FuelExhausted,
    Lam,
    Pair,
    Pi,
    Proj1,
    Sigma,
    Type,
    Var,
    conv,
    descending_chain,
    level_transfer_triple,
    min_subtype_level,
    normalize,
    self_application,
    step,
    strict_subtype,
    subst,
    subtype,
    subtype_at_level,
    universe_level,
)

from ecckernel import reduction, terms

from genterms import alpha_rename, at_level, expand, normal_type, oracle_relate, strict_above

FUEL = 10**4


def test_level_transfer_triple_verdicts():
    c, a, b = level_transfer_triple()
    assert subtype(c, a, FUEL)
    assert subtype_at_level(a, b, 1, FUEL)
    assert strict_subtype(a, b, FUEL)
    assert not subtype_at_level(c, a, 1, FUEL)


def test_level_two_closes_the_gap():
    c, a, _ = level_transfer_triple()
    assert subtype_at_level(c, a, 2, FUEL)


def test_min_levels():
    c, a, b = level_transfer_triple()
    assert min_subtype_level(a, b, FUEL) == 1
    assert min_subtype_level(c, a, FUEL) == 2
    assert min_subtype_level(PROP, PROP, FUEL) == 0
    assert min_subtype_level(b, c, FUEL) is None


def test_universe_ordering():
    assert subtype(PROP, Type(0), 10)
    assert subtype(PROP, Type(5), 10)
    assert subtype(Type(1), Type(4), 10)
    assert not subtype(Type(1), Type(0), 10)
    assert not subtype(Type(0), PROP, 10)
    assert strict_subtype(PROP, Type(0), 10)
    assert not strict_subtype(PROP, PROP, 10)


def test_universe_level_helper():
    assert universe_level(PROP) == -1
    assert universe_level(Type(3)) == 3
    assert universe_level(Var("x")) is None


def test_reflexive_on_divergent_terms():
    loop = self_application()
    assert subtype(loop, loop, 100)
    assert not strict_subtype(loop, loop, 100)


def test_descending_chain_is_strict_without_normalization():
    with pytest.raises(ValueError, match="^steps must be positive$"):
        descending_chain(0)
    chain = descending_chain(6)
    for lower, upper in zip(chain[1:], chain):
        assert strict_subtype(lower, upper, 100)
        assert subtype(lower, upper, 100)
        assert not strict_subtype(upper, lower, 100)


def test_pi_domains_compared_by_conversion_only():
    # a strictly smaller domain must not make the Pi comparable
    small = Pi("x", PROP, PROP)
    large = Pi("x", Type(0), PROP)
    assert not subtype(small, large, FUEL)
    assert not subtype(large, small, FUEL)
    # covariant codomain
    assert subtype(Pi("x", PROP, Type(0)), Pi("y", PROP, Type(3)), FUEL)
    assert strict_subtype(Pi("x", PROP, Type(0)), Pi("y", PROP, Type(3)), FUEL)


def test_sigma_covariant_in_both_components():
    assert subtype(Sigma("x", PROP, PROP), Sigma("x", Type(0), Type(1)), FUEL)
    assert strict_subtype(Sigma("x", PROP, PROP), Sigma("x", PROP, Type(0)), FUEL)


def test_level_must_be_non_negative():
    with pytest.raises(ValueError):
        subtype_at_level(PROP, PROP, -1, 10)
    # a level that is no int is rejected, as Type and Fuel reject one
    for level in (True, False, 0.5, 1.0, "1", None):
        with pytest.raises(TypeError, match="level must be an int"):
            subtype_at_level(PROP, Type(0), level, 10)


def test_the_walk_rejects_a_non_term():
    # on either side, at the top and under a binder; the message names the object
    shared = Proj1(Pair(Var("x"), None, PROP))
    pairs = (
        (None, PROP, None),
        (PROP, None, None),
        (3, PROP, 3),
        (Pi("x", PROP, None), Pi("x", PROP, PROP), None),
        (Pi("x", PROP, PROP), Pi("y", PROP, 7), 7),
        # one object under renamed binders: every mode reads its free variables
        (Pi("x", PROP, shared), Pi("y", PROP, shared), None),
    )
    for a, b, bad in pairs:
        for decide in (conv, subtype, strict_subtype, min_subtype_level):
            with pytest.raises(TypeError, match=f"^not a term: {re.escape(repr(bad))}$"):
                decide(a, b, FUEL)


def test_monotone_in_level():
    rng = random.Random(43)
    c, a, b = level_transfer_triple()
    pairs = [(c, a), (a, b), (c, b)]
    for _ in range(120):
        t = normal_type(rng, 2)
        raised = strict_above(rng, t)
        if raised is not None:
            pairs.append((t, raised))
    for lo, hi in pairs:
        held = False
        for i in range(6):
            now = at_level(lo, hi, i, FUEL)
            assert not (held and not now), "level-indexed relation must be monotone"
            assert subtype_at_level(lo, hi, i, FUEL) == now
            held = held or now


def test_structural_subtype_agrees_with_level_unfolding():
    # oracle: exhaustive search over levels up to the nesting depth
    rng = random.Random(47)
    from genterms import _head_depth

    checked = 0
    for _ in range(300):
        x = normal_type(rng, 2)
        y = normal_type(rng, 2) if rng.random() < 0.5 else strict_above(rng, x) or x
        bound = max(_head_depth(x), _head_depth(y)) + 1
        levels = [i for i in range(bound + 1) if at_level(x, y, i, FUEL)]
        assert [i for i in range(bound + 1) if subtype_at_level(x, y, i, FUEL)] == levels
        oracle = bool(levels)
        assert subtype(x, y, FUEL) == oracle
        assert min_subtype_level(x, y, FUEL) == (levels[0] if levels else None)
        assert strict_subtype(x, y, FUEL) == (oracle and not conv(x, y, FUEL))
        checked += 1
    assert checked == 300


def test_strict_part_skips_conversion_of_divergent_neutral_heads():
    # both sides are stuck applications of a variable whose arguments
    # diverge; conversion would exhaust the fuel, strictness never asks it
    loop = self_application()
    z = Var("z")
    assert not strict_subtype(App(z, loop), App(z, step(loop)), 1000)


def test_min_level_on_the_descending_chain():
    # level 1 unfolds the shared Sigma head: Prop below Type 0 in the
    # first component, the same divergent term in the second
    chain = descending_chain(2)
    assert min_subtype_level(chain[1], chain[0], 1000) == 1


def test_preorder_reflexive_transitive():
    rng = random.Random(53)
    for _ in range(100):
        t = normal_type(rng, 2)
        assert subtype(t, t, FUEL)
        up1 = strict_above(rng, t)
        if up1 is None:
            continue
        up2 = strict_above(rng, up1) or up1
        assert subtype(t, up1, FUEL) and subtype(up1, up2, FUEL)
        assert subtype(t, up2, FUEL)


def test_congruence_under_conversion():
    rng = random.Random(59)
    for _ in range(100):
        a = normal_type(rng, 2)
        b = strict_above(rng, a) or a
        a2, b2 = expand(rng, a), expand(rng, b)
        assert conv(a, a2, FUEL) and conv(b, b2, FUEL)
        assert subtype(a, b, FUEL) == subtype(a2, b2, FUEL)
        assert strict_subtype(a, b, FUEL) == strict_subtype(a2, b2, FUEL)


def test_substitution_preserves_subtype():
    rng = random.Random(61)
    for _ in range(200):
        a = normal_type(rng, 2, ("x", "u"))
        b, _ = __import__("genterms").bump(rng, a)
        n = normal_type(rng, 2)
        assert subtype(a, b, FUEL)
        assert subtype(subst(a, "x", n), subst(b, "x", n), FUEL)


def test_below_a_universe_normalizes_to_a_universe():
    rng = random.Random(67)
    for _ in range(200):
        u = Type(rng.randrange(4)) if rng.random() < 0.7 else PROP
        candidate = expand(rng, u) if rng.random() < 0.6 else expand(rng, normal_type(rng, 2))
        bound = Type(rng.randrange(2, 6))
        if subtype(candidate, bound, FUEL):
            nf = normalize(candidate, FUEL)
            assert universe_level(nf) is not None
            assert universe_level(nf) <= bound.level


def test_strictness_excludes_conversion():
    rng = random.Random(71)
    for _ in range(150):
        t = normal_type(rng, 2)
        e = expand(rng, t)
        assert subtype(t, e, FUEL)
        assert not strict_subtype(t, e, FUEL)
        assert not strict_subtype(e, t, FUEL)


@pytest.mark.parametrize("budget", [10_000, 100_000])
def test_a_divergent_pair_runs_out_of_fuel_before_the_interpreter_stack(budget):
    # self-applications that differ only in a binder annotation: each
    # contraction unfolds one more Sigma on a side, so the walk goes one
    # level deeper per contraction until the fuel is gone
    fn = Lam("y", Type(1), Sigma("x", Type(0), App(Var("y"), Var("y"))))
    a, b = self_application(), App(fn, fn)
    for decide in (conv, subtype, strict_subtype, min_subtype_level):
        f = Fuel(budget)
        with pytest.raises(FuelExhausted):
            decide(a, b, f)
        assert f.remaining == 0, decide.__name__


def test_min_level_zero_via_alpha_on_divergent_terms():
    loop = self_application()
    assert min_subtype_level(loop, loop, 100) == 0


_OPS = (
    (subtype, False, lambda related: related is not None),
    (strict_subtype, True, lambda related: related is not None and related[1]),
    (min_subtype_level, False, lambda related: None if related is None else related[0]),
)


def _spent(call, budget: int):
    # (answer, or "exhausted", and the fuel spent) of call on a fresh budget
    f = Fuel(budget)
    try:
        answer = call(f)
    except FuelExhausted:
        answer = "exhausted"
    return answer, budget - f.remaining


def test_walk_answers_as_the_renaming_oracle_on_no_more_fuel():
    rng = random.Random(83)
    pairs = []
    for _ in range(60):
        t = normal_type(rng, 3, ("u", "v"))
        up = strict_above(rng, t) or t
        pairs += [
            (t, up),
            (up, t),
            (expand(rng, t), expand(rng, up)),
            (alpha_rename(t, "'"), expand(rng, up)),
            (expand(rng, up), alpha_rename(t, "'")),
            (t, normal_type(rng, 3, ("u", "v"))),
        ]
    outcomes = collections.Counter()
    for a, b in pairs:
        for budget in (1, 2, 3, 5, 8, 30, 10_000):
            for op, strict_only, read in _OPS:
                want, allowed = _spent(lambda f: read(oracle_relate(a, b, f, strict_only)), budget)
                if want == "exhausted":
                    outcomes["oracle exhausted"] += 1
                    continue
                got, spent = _spent(lambda f: op(a, b, f), budget)
                assert got == want and spent <= allowed, (op.__name__, a, b, budget, want, allowed, got, spent)
                outcomes["unrelated" if want is None or want is False else "related"] += 1
    # not vacuous: both verdicts occur, and so do budgets the oracle runs out of
    assert min(outcomes["related"], outcomes["unrelated"], outcomes["oracle exhausted"]) > 100, outcomes


def _alpha_guarded_pairs():
    # each right side differs from its left only by renamed binders, Prop
    # for `red`, and a second copy of the divergent term, so only `red` needs
    # a contraction; a conv reaching `loop` against `loop_` runs out of fuel
    red = App(Lam("w", Type(1), Var("w")), PROP)
    loop, loop_ = self_application(), self_application()
    return [
        (
            Pi("x", red, Lam("y", PROP, App(Var("y"), loop))),
            Pi("z", PROP, Lam("v", PROP, App(Var("v"), loop_))),
        ),
        (Pi("x", red, App(Var("x"), loop)), Pi("z", PROP, App(Var("z"), loop_))),
        (Pi("x", red, Pi("q", App(Var("x"), loop), PROP)), Pi("z", PROP, Pi("q", App(Var("z"), loop_), PROP))),
        (
            Sigma("x", red, Sigma("q", App(Var("x"), loop), PROP)),
            Sigma("z", PROP, Sigma("q", App(Var("z"), loop_), PROP)),
        ),
    ]


@pytest.mark.parametrize("pair", range(4))
def test_alpha_equal_parts_under_renamed_binders_cost_no_fuel(pair):
    # the walk tests alpha under its environments before it would hand a
    # part to conv, so each call spends the one contraction of `red`
    a, b = _alpha_guarded_pairs()[pair]
    for op, want in ((subtype, True), (strict_subtype, False), (min_subtype_level, 0)):
        assert _spent(lambda f: op(a, b, f), 50) == (want, 1), op.__name__


def test_a_reduced_head_is_tested_for_alpha_before_conversion():
    # the left side contracts to `g loop`, alpha-equal to the right, `g` on
    # a second copy of the loop: one contraction decides, where converting
    # the two heads would reduce the loops until the fuel is gone
    loop, loop_ = self_application(), self_application()
    a, b = App(Lam("w", Type(1), Var("w")), App(Var("g"), loop)), App(Var("g"), loop_)
    for op, want in ((subtype, True), (strict_subtype, False), (min_subtype_level, 0)):
        assert _spent(lambda f: op(a, b, f), 50) == (want, 1), op.__name__


def test_an_object_shared_under_renamed_binders_is_not_reduced():
    # `shared` is one object on both sides, and neither renamed binder is
    # free in it, so it is convertible with itself: only `red` is contracted
    shared = App(Lam("w", Type(1), Var("w")), PROP)
    red = App(Lam("w", Type(1), Var("w")), Type(0))
    g = Var("g")
    a = Pi("x", PROP, Pi("u", App(App(App(g, Var("x")), shared), red), PROP))
    b = Pi("y", PROP, Pi("u", App(App(App(g, Var("y")), shared), Type(0)), PROP))
    assert _spent(lambda f: subtype(a, b, f), 50) == (True, 1)
    assert _spent(lambda f: conv(a, b, f), 50) == (True, 1)


def _parts_shared_under_renamed_binders(binder) -> list:
    # (pair, answers of conv, subtype, strict_subtype and min_subtype_level,
    # fuel each spends); the second parts are one object on both sides
    red, red0 = App(Lam("w", Type(1), Var("w")), PROP), App(Lam("w", Type(1), Var("w")), Type(0))
    closed, open_x = Sigma("z", red0, PROP), Pi("q", red0, Var("x"))
    return [
        # the left first part contracts; the shared second part needs none
        ((binder("x", red, closed), binder("y", PROP, closed)), (True, True, False, 0), 1),
        # x is bound in the shared part on the left and free in it on the right
        ((binder("x", PROP, open_x), binder("y", PROP, open_x)), (False, False, False, None), 0),
        # alpha-equal, with every part shared
        ((binder("x", red0, closed), binder("y", red0, closed)), (True, True, False, 0), 0),
    ]


@pytest.mark.parametrize("case", range(3))
@pytest.mark.parametrize("binder", [Pi, Sigma])
def test_parts_shared_under_renamed_binders_in_every_mode(binder, case):
    (a, b), wants, spent = _parts_shared_under_renamed_binders(binder)[case]
    for op, want in zip((conv, subtype, strict_subtype, min_subtype_level), wants):
        assert _spent(lambda f: op(a, b, f), 50) == (want, spent), op.__name__


def _renamed_chains(binder, n: int, mention: bool) -> tuple:
    # n Prop binders over `red`, against n binders named apart over Type 0;
    # with `mention` the innermost body names every bound variable, so a
    # walk that renamed each level would copy it each time
    red = App(Lam("w", Type(1), Var("w")), PROP)

    def chain(stem, leaf):
        if mention:
            spine = Var("f")
            for i in range(n):
                spine = App(spine, Var(f"{stem}{i}"))
            leaf = binder("u", spine, leaf)
        for i in reversed(range(n)):
            leaf = binder(f"{stem}{i}", PROP, leaf)
        return leaf

    return chain("x", red), chain("y", Type(0))


@pytest.mark.parametrize("binder", [Pi, Sigma])
def test_relate_calls_grow_linearly_in_depth(monkeypatch, binder):
    # deterministic counters, not wall time: no whole-term alpha test or
    # renaming copy per level
    calls = collections.Counter()
    for module, name in ((terms, "_alpha"), (reduction, "_alpha"), (terms, "_subst"), (reduction, "_whnf")):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, name=name, original=original: calls.update((name,)) or original(*args)
        )
    counts, limit = [], sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)  # each counted call is two frames
    try:
        for n in (150, 300):
            calls.clear()
            assert min_subtype_level(*_renamed_chains(binder, n, True)) == n + 1
            counts.append(dict(calls))
    finally:
        sys.setrecursionlimit(limit)
    small, big = counts
    assert small.keys() == big.keys() >= {"_alpha", "_whnf"}
    for name, count in big.items():
        assert count <= 2 * small[name], (name, small[name], count)
    # the one substitution is the contraction of `red`: nothing is renamed
    assert small["_subst"] == big["_subst"] == 1
    monkeypatch.undo()
    # an explicit work stack, no interpreter frame per level: deep chains
    # answer at the default limit
    deep = _renamed_chains(binder, 5_000, False)
    assert subtype(*deep) and min_subtype_level(*deep) == 5_000


def _universe_chains(binder, n: int) -> tuple:
    # n binders over Prop against n binders over Type 0; a Pi pair's domains
    # are equal universes, a Sigma pair's first parts Prop and Type 0
    lo, hi = PROP, Type(0)
    for i in reversed(range(n)):
        if binder is Sigma:
            lo, hi = Sigma(f"x{i}", PROP, lo), Sigma(f"y{i}", Type(0), hi)
        else:
            u = Type(i % 3)
            lo, hi = Pi(f"x{i}", u, lo), Pi(f"y{i}", u, hi)
    return lo, hi


@pytest.mark.parametrize("binder", [Pi, Sigma])
def test_chains_of_universes_make_no_whnf_call(monkeypatch, binder):
    # no head redex can hide under a universe or a binder head, so the walk
    # never weak-head-reduces one
    calls = collections.Counter()
    original = reduction._whnf
    monkeypatch.setattr(reduction, "_whnf", lambda *args: calls.update(("_whnf",)) or original(*args))
    lo, hi = _universe_chains(binder, 40)
    assert subtype(lo, hi) and strict_subtype(lo, hi) and not subtype(hi, lo)
    assert min_subtype_level(lo, hi) == 40 and min_subtype_level(hi, lo) is None
    if binder is Pi:  # domains compared by conversion: unlike universes are not convertible
        assert not subtype(Pi("x", PROP, PROP), Pi("x", Type(0), PROP))
    assert calls["_whnf"] == 0
