import collections
import random
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
    Proj2,
    Sigma,
    Type,
    Var,
    alpha_eq,
    conv,
    descending_chain,
    normalize,
    self_application,
    step,
    whnf,
)
from ecckernel import reduction, terms

from genterms import expand, normal_type, oracle_parts, oracle_rebuild


def test_step_beta():
    assert step(App(Lam("x", PROP, Var("x")), Type(0))) == Type(0)


def test_step_projection():
    ann = Sigma("x", Type(1), Type(1))
    assert step(Proj1(Pair(PROP, Type(0), ann))) == PROP
    assert step(Proj2(Pair(PROP, Type(0), ann))) == Type(0)


def test_step_none_on_normal_forms():
    assert step(PROP) is None
    assert step(Pi("x", PROP, Var("x"))) is None
    assert step(App(Var("f"), Var("x"))) is None


def test_step_self_application_unfolds_once():
    loop = self_application()
    unfolded = step(loop)
    assert isinstance(unfolded, Sigma)
    assert unfolded.first == Type(0)
    assert alpha_eq(unfolded.second, loop)


def test_normalize_already_normal():
    assert normalize(PROP, 1) == PROP


def test_normalize_one_beta_step():
    assert normalize(App(Lam("x", PROP, Var("x")), PROP), 10) == PROP


def test_normalize_counts_each_contraction():
    redex = App(Lam("x", PROP, Var("x")), PROP)
    assert normalize(redex, 1) == PROP
    nested = App(Lam("x", PROP, Var("x")), redex)
    with pytest.raises(FuelExhausted):
        normalize(nested, 1)
    assert normalize(nested, 2) == PROP


def test_normalize_self_application_exhausts():
    with pytest.raises(FuelExhausted):
        normalize(self_application(), 10000)


def test_normalize_walks_a_neutral_spine_once(monkeypatch):
    # a stable elimination's spine part is stable too: only the top calls _whnf
    spine = Var("f")
    for _ in range(2000):
        spine = App(spine, Var("a"))
    spine = Proj2(spine)
    calls = []
    whnf_once = reduction._whnf
    monkeypatch.setattr(reduction, "_whnf", lambda t, f: calls.append(t) or whnf_once(t, f))
    assert normalize(spine) is spine
    assert calls == [spine]


def test_whnf_exposes_sigma_of_self_application():
    loop = self_application()
    head = whnf(loop, 10)
    assert isinstance(head, Sigma)
    assert head.first == Type(0)
    assert alpha_eq(head.second, loop)


def test_whnf_stops_at_stable_head():
    t = Pi("x", PROP, App(Lam("y", PROP, Var("y")), PROP))
    assert whnf(t, 10) == t


def test_whnf_iterates_head_redexes():
    t = App(Lam("x", PROP, Var("x")), App(Lam("x", PROP, Var("x")), PROP))
    assert whnf(t, 10) == PROP


def test_conv_alpha_shortcut_on_divergent_terms():
    loop = self_application()
    assert conv(loop, loop, 10)


def test_conv_runs_out_of_fuel_on_unfoldings_that_stay_alpha_equal():
    # every unfolding of the loop is a Sigma over Type 0 whose second part
    # is the loop again, alpha-equal to stage 1 but tested for alpha only at
    # the top, so each level spends a contraction until the fuel is gone
    f = Fuel(10_000)
    with pytest.raises(FuelExhausted):
        conv(descending_chain(1)[0], self_application(), f)
    assert f.remaining == 0


def test_conv_beta():
    assert conv(App(Lam("x", PROP, Var("x")), PROP), PROP, 10)


def test_conv_rejects_distinct_normal_forms():
    from ecckernel import level_transfer_triple

    _, a, b = level_transfer_triple()
    assert not conv(a, b, 10**4)


def test_conv_answers_on_unlike_heads_over_divergent_parts():
    # neither side has a normal form, but their heads differ
    loop = self_application()
    assert not conv(App(Var("f"), loop), App(Var("g"), loop), 100)
    assert not conv(Pi("x", loop, Var("x")), Sigma("x", loop, Var("x")), 100)


def test_conv_compares_bound_variables_by_depth():
    # x is shared, one object, bound by the outer binder on one side and the
    # inner on the other; the redex keeps the top-level alpha shortcut off
    x, redex = Var("x"), App(Lam("w", Type(1), Var("w")), PROP)
    assert not conv(Pi("x", redex, Pi("y", PROP, x)), Pi("y", PROP, Pi("x", PROP, x)), 100)
    assert conv(Pi("x", redex, Pi("y", PROP, x)), Pi("z", PROP, Pi("x", PROP, Var("z"))), 100)
    # bound on one side, free on the other
    assert not conv(Lam("x", redex, App(Var("f"), x)), Lam("y", PROP, App(Var("f"), x)), 100)
    assert conv(Lam("x", redex, App(Var("f"), x)), Lam("y", PROP, App(Var("f"), Var("y"))), 100)


@pytest.mark.parametrize(
    "a, b, want, spent",
    [
        (PROP, Type(0), False, 0),  # Prop is below Type 0 in the preorder only
        (Type(1), Type(1), True, 0),  # two objects
        (App(Lam("w", Type(2), Var("w")), Type(1)), Type(1), True, 1),
        (App(Lam("w", Type(1), Var("w")), PROP), Type(0), False, 1),
        (Type(0), App(Lam("w", Type(1), Var("w")), PROP), False, 1),
    ],
)
def test_conv_on_universes(a, b, want, spent):
    f = Fuel(50)
    assert conv(a, b, f) is want
    assert 50 - f.remaining == spent


def _differing_by_one_innermost_redex(n: int) -> dict:
    # a neutral spine n long, and chains of n renamed binders over such a
    # spine applied to every bound variable
    redex = App(Lam("w", PROP, Var("w")), PROP)

    def spine(first, stem):
        t = App(Var("f"), first)
        for i in range(n):
            t = App(t, Var(f"{stem}{i}"))
        return t

    def chain(binder, stem, first):
        t = spine(first, stem)
        for i in reversed(range(n)):
            t = binder(f"{stem}{i}", PROP, t)
        return t

    return {
        "spine": (spine(redex, "a"), spine(PROP, "a")),
        "pi": (chain(Pi, "x", redex), chain(Pi, "y", PROP)),
        "lam": (chain(Lam, "x", redex), chain(Lam, "y", PROP)),
    }


@pytest.mark.parametrize("family", ["spine", "pi", "lam"])
def test_conv_calls_grow_linearly_in_depth(monkeypatch, family):
    # deterministic counters, not wall time: no walk per level
    calls = collections.Counter()
    for module, name in ((terms, "_alpha"), (terms, "_subst"), (reduction, "_whnf")):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, name=name, original=original: calls.update((name,)) or original(*args)
        )
    counts, limit = [], sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)  # each counted call is two frames
    try:
        for n in (150, 300):
            calls.clear()
            assert conv(*_differing_by_one_innermost_redex(n)[family])
            counts.append(dict(calls))
    finally:
        sys.setrecursionlimit(limit)
    small, big = counts
    assert small.keys() == big.keys() >= {"_alpha", "_whnf"}
    for name, count in big.items():
        assert count <= 2 * small[name], (name, small[name], count)
    # only the eliminations at the top and the one redex reach _whnf: a
    # stable spine part is not reduced again
    assert big["_whnf"] == small["_whnf"]


def test_fuel_validation():
    # a budget that is not an int would never read exactly 0, so it would
    # never run out
    for budget in (0, 1.5, 2.0, True):
        with pytest.raises(ValueError, match="fuel budget must be a positive integer"):
            Fuel(budget)
    with pytest.raises(ValueError):
        normalize(self_application(), 2.5)
    shared = Fuel(3)
    assert Fuel.coerce(shared) is shared


def test_normalize_is_fixed_point_of_step():
    rng = random.Random(23)
    for _ in range(150):
        t = expand(rng, normal_type(rng, 3, ("u", "v")))
        nf = normalize(t, 10**4)
        assert step(nf) is None


def test_normalize_agrees_with_iterated_step():
    rng = random.Random(29)
    for _ in range(100):
        t = expand(rng, normal_type(rng, 2, ("u",)))
        nf = normalize(t, 10**4)
        cur = t
        for _ in range(10**4):
            nxt = step(cur)
            if nxt is None:
                break
            cur = nxt
        assert alpha_eq(nf, cur)


def _step_rightmost_innermost(t):
    parts = oracle_parts(t)
    for i in range(len(parts) - 1, -1, -1):
        reduced = _step_rightmost_innermost(parts[i])
        if reduced is not None:
            return oracle_rebuild(t, parts[:i] + (reduced,) + parts[i + 1 :])
    match t:
        case App(Lam(x, _, body), arg):
            from ecckernel import subst

            return subst(body, x, arg)
        case Proj1(Pair(first, _, _)):
            return first
        case Proj2(Pair(_, second, _)):
            return second
    return None


def test_church_rosser_at_desk_scale():
    # leftmost-outermost and rightmost-innermost meet at the same normal form
    rng = random.Random(31)
    for _ in range(120):
        t = expand(rng, normal_type(rng, 2, ("u", "v")))
        lo = normalize(t, 10**4)
        cur = t
        for _ in range(10**4):
            nxt = _step_rightmost_innermost(cur)
            if nxt is None:
                break
            cur = nxt
        assert alpha_eq(lo, cur)


def test_step_introduces_no_new_free_variables():
    rng = random.Random(37)
    from ecckernel import free_vars

    for _ in range(150):
        t = expand(rng, normal_type(rng, 3, ("u", "v")))
        reduced = step(t)
        if reduced is not None:
            assert free_vars(reduced) <= free_vars(t)


def test_conv_is_equivalence_on_normalizing_corpus():
    rng = random.Random(41)
    base = [normal_type(rng, 2, ("u",)) for _ in range(12)]
    variants = [(t, expand(rng, t)) for t in base]
    for t, e in variants:
        assert conv(t, e, 10**4)
        assert conv(e, t, 10**4)
    for (t1, e1), (t2, e2) in zip(variants, variants[1:]):
        if conv(t1, t2, 10**4) and conv(t2, e2, 10**4):
            assert conv(e1, e2, 10**4)
