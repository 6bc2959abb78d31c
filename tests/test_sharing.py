"""Term operations keep what they do not change.

The sharing `free_vars`, `subst`, `whnf` and `normalize` are checked
against the oracles in `genterms`, which walk and rebuild the whole term:
equal results, the same fuel left and exhaustion at the same budgets.
`conv`, which walks head first, answers as the normal-form oracle does
wherever that answers, on no more fuel, and as the head-first oracle does
where it answers and that one runs out.
Then the sharing itself, the invisibility of the free-variable cache, and
the interned atoms: one object per universe level, per name and `PROP`.
"""

import copy
import dataclasses
import pickle
import random
import re

import pytest

from ecckernel import (
    PROP,
    App,
    Context,
    Fuel,
    FuelExhausted,
    Lam,
    Pair,
    Pi,
    Proj1,
    Prop,
    Sigma,
    Type,
    Var,
    alpha_eq,
    conv,
    descending_chain,
    free_vars,
    infer_type,
    normalize,
    parse_term,
    print_term,
    self_application,
    subst,
    whnf,
)
from ecckernel.cli import _read_terms
from genterms import (
    expand,
    normal_type,
    oracle_conv,
    oracle_free_vars,
    oracle_lazy_conv,
    oracle_normalize,
    oracle_parts,
    oracle_subst,
    oracle_whnf,
    strict_above,
)

# free names that collide with the generator's binders force renaming
NAMES = ("u", "a", "b", "w7", "zz")
REPLACEMENTS = (PROP, Var("a"), Var("b"), Var("u"), Pi("a", Var("b"), Var("a")), App(Var("c"), Var("u")))
BUDGETS = (1, 2, 3, 5, 8, 13, 100)


def _terms(seed: int) -> list:
    """Generated normal pairs, their expansions and the descending chain; fresh objects per call."""
    rng = random.Random(seed)
    out = []
    for depth in range(6):
        for _ in range(20):
            a = normal_type(rng, depth, ("u", "a", "b"))
            b = strict_above(rng, a)
            out += [a, expand(rng, a)]
            if b is not None:
                out += [b, expand(rng, b)]
    return out + descending_chain(16)


def _subterms(t):
    yield t
    for part in oracle_parts(t):
        yield from _subterms(part)


def _run(op, t, budget):
    f = Fuel(budget)
    try:
        return op(t, f), f.remaining
    except FuelExhausted:
        return FuelExhausted, f.remaining


def test_free_vars_and_subst_equal_the_oracles():
    for t in _terms(53):
        for s in _subterms(t):
            assert free_vars(s) == oracle_free_vars(s)
        for name in NAMES:
            for r in REPLACEMENTS:
                assert subst(t, name, r) == oracle_subst(t, name, r)


@pytest.mark.parametrize("binder", [Pi, Sigma, Lam])
def test_subst_renames_under_every_binder_as_the_oracle_does(binder):
    # a is free in each replacement and u in the body, so the binder a is renamed
    for t in _terms(71):
        under = binder("a", t, App(App(Var("u"), Var("a")), t))
        for r in (Var("a"), App(Var("c"), Var("a")), Pi("b", Var("a"), Var("b"))):
            got = subst(under, "u", r)
            assert got == oracle_subst(under, "u", r)
            assert type(got) is binder and got.var != "a"
            assert subst(Pi("y", PROP, under), "u", r) == oracle_subst(Pi("y", PROP, under), "u", r)


def test_whnf_and_normalize_equal_the_oracles_in_result_and_fuel():
    outcomes, conv_outcomes, lazy_answers = set(), set(), 0
    terms = _terms(59)
    # conv compares each term with the next, the last with the first: a term
    # and its expansion, or two unrelated terms
    for i, t in enumerate(terms):
        u = terms[(i + 1) % len(terms)]
        for budget in BUDGETS:
            for op, oracle in ((whnf, oracle_whnf), (normalize, oracle_normalize)):
                got = _run(op, t, budget)
                assert got == _run(oracle, t, budget)
                outcomes.add(got[0] is FuelExhausted)
            # conv walks head first: where comparing normal forms answers in
            # the budget, conv answers the same on no more fuel; where that
            # runs out, conv may still answer, as the head-first oracle does
            got = _run(lambda a, f: conv(a, u, f), t, budget)
            eager = _run(lambda a, f: oracle_conv(a, u, f), t, budget)
            if eager[0] is not FuelExhausted:
                assert got[0] == eager[0] and got[1] >= eager[1]
            elif got[0] is not FuelExhausted:
                assert got[0] == oracle_lazy_conv(t, u, budget)
                lazy_answers += 1
            conv_outcomes.add(got[0])
    assert outcomes == {True, False}
    assert conv_outcomes == {True, False, FuelExhausted}
    assert lazy_answers > 0


def _loops() -> dict:
    """Divergent terms, fresh objects per call; normalize cuts all but the
    last short."""
    loop = self_application()
    ann = Sigma("z", PROP, PROP)
    return {
        "self application": loop,
        # two distinct fn objects: the loop closes one round later
        "parsed": parse_term(print_term(loop)),
        "under a neutral head": parse_term("(fn x : Prop . f (x x)) (fn x : Prop . f (x x))"),
        "through fst": parse_term(
            "fst <(fn x : Prop . Sig y : Prop . x x) (fn x : Prop . Sig y : Prop . x x), Prop> : Sig z : Prop . Prop"
        ),
        "under Pi": Pi("z", PROP, loop),
        "in a Pair component": Pair(PROP, loop, ann),
        "x x": parse_term("(fn x : Prop . x x) (fn x : Prop . x x)"),
        "x x x": parse_term("(fn x : Prop . x x x) (fn x : Prop . x x x)"),
    }


def test_divergent_normalize_exhausts_at_the_same_budgets_as_the_oracle():
    for budget in [*range(1, 51), 10_000]:
        for name, loop in _loops().items():
            got = _run(normalize, loop, budget)
            assert got == _run(oracle_normalize, loop, budget) == (FuelExhausted, 0), name
            assert _run(whnf, loop, budget) == _run(oracle_whnf, loop, budget), name


class _Counting(Fuel):
    """A budget that counts its spend calls, the one that raises included."""

    def __init__(self, budget: int):
        super().__init__(budget)
        self.calls = 0

    def spend(self) -> None:
        self.calls += 1
        super().spend()


def test_a_loop_normalize_meets_again_spends_the_rest_in_one_call():
    # contracting to the end would take 10,001 calls
    for name, loop in _loops().items():
        f = _Counting(10_000)
        with pytest.raises(FuelExhausted, match="reduction step budget exhausted"):
            normalize(loop, f)
        assert f.remaining == 0
        if name == "self application":
            assert f.calls <= 3
        elif name == "x x":  # _whnf meets a reduct that is its own redex
            assert f.calls <= 3
        elif name == "x x x":  # only _whnf meets this loop, and its spine grows
            assert f.calls == 10_001
        else:
            assert f.calls <= 5, name


def test_whnf_spends_the_rest_at_a_reduct_that_is_its_own_redex():
    # the first round rebuilds "x x" from the argument's fn, the second from the same objects
    loops = _loops()
    for name, calls in (("x x", 3), ("x x x", 10_001)):
        f = _Counting(10_000)
        with pytest.raises(FuelExhausted, match="reduction step budget exhausted"):
            whnf(loops[name], f)
        assert f.remaining == 0
        assert f.calls == calls, name
    # the same fn applied to a new argument is no loop: L L -> L y -> y y
    lam = parse_term("fn x : Prop . x y")
    t = App(lam, lam)
    assert whnf(t, 10) == App(Var("y"), Var("y"))
    for budget in (1, 2, 3):
        assert _run(whnf, t, budget) == _run(oracle_whnf, t, budget)


def test_only_open_redexes_cut_normalization_short():
    # one shared redex object in two places, with an atomic reduct and with
    # one whose normal form is built, and its key closed, before its twin
    atomic = App(Lam("x", Type(1), Var("x")), Type(0))
    built = App(Lam("x", Type(1), Pi("y", Var("x"), Var("x"))), Type(0))
    ann = Sigma("z", Type(1), Type(1))
    for r in (atomic, built):
        for t in (App(App(Var("g"), r), r), Pair(r, r, ann), Pi("y", r, App(Var("y"), r))):
            for budget in (1, 2, 3, 4, 10_000):
                assert _run(normalize, t, budget) == _run(oracle_normalize, t, budget)
            assert normalize(t) == oracle_normalize(t) != t


def test_operations_return_what_they_do_not_change():
    rng = random.Random(61)
    head_normal = 0
    for t in _terms(67):
        for name in NAMES:
            if name not in free_vars(t):
                for r in REPLACEMENTS:
                    assert subst(t, name, r) is t
        f = Fuel(10_000)
        oracle_whnf(t, f)
        if f.remaining == 10_000:  # no head redex
            head_normal += 1
            assert whnf(t) is t
    assert head_normal > 100
    for depth in range(6):
        for _ in range(20):
            a = normal_type(rng, depth, ("u", "a", "b"))
            assert normalize(a) is a
            assert whnf(a) is a
    # a contraction in one part leaves the other parts as they were
    a = normal_type(rng, 4, ("u",))
    redex = App(Lam("x", PROP, Var("x")), Type(0))
    reduced = normalize(Pi("y", a, redex))
    assert reduced == Pi("y", a, Type(0)) and reduced.domain is a


def _observed(t) -> tuple:
    return (
        repr(t),
        hash(t),
        print_term(t),
        copy.deepcopy(t),
        pickle.loads(pickle.dumps(t)),
        dataclasses.fields(t),
        type(t).__match_args__,
    )


def test_the_free_variable_cache_is_invisible():
    for t in _terms(71):
        before = _observed(t)
        fv = free_vars(t)
        assert vars(t).keys() - {f.name for f in dataclasses.fields(t)}  # the cache is there
        assert _observed(t) == before
        assert copy.deepcopy(t) == t and pickle.loads(pickle.dumps(t)) == t
        assert free_vars(copy.deepcopy(t)) == fv == free_vars(pickle.loads(pickle.dumps(t)))
    # at the top, or inside a term (where the printer wants an atom)
    not_terms = (
        "x", None, ("x",), App(Var("f"), None), App(Var("f"), 3), Proj1("x"), Pair(PROP, PROP, None),
        Pair(PROP, PROP, 0),
    )
    for not_a_term in not_terms:
        for operation in (free_vars, lambda t: subst(t, "x", PROP), normalize, print_term):
            with pytest.raises(TypeError):
                operation(not_a_term)
    # subst rejects a replacement that is no term, or holds one anywhere, where it would place it
    for not_a_term in ("x", None, ("x",), App(Var("f"), None)):
        with pytest.raises(TypeError, match="not a term"):
            subst(App(Var("x"), Var("x")), "x", not_a_term)
    # whnf reads only the spine, so it rejects a non-term at the head it stops at
    for not_a_term in ("x", None, ("x",), Proj1("x"), App(Lam("y", PROP, Var("y")), None)):
        with pytest.raises(TypeError):
            whnf(not_a_term)
    # so does inference, which reads the head before the context
    for not_a_term in ("x", None, ("x",)):
        with pytest.raises(TypeError, match=f"^not a term: {re.escape(repr(not_a_term))}$"):
            infer_type(Context(), not_a_term)
    # conv rejects one where it reads, a pair of unlike heads included
    for not_a_term in ("x", None, 3, ("x",), Proj1("x")):
        for a, b in ((not_a_term, PROP), (PROP, not_a_term), (Pi("x", PROP, not_a_term), Pi("x", PROP, PROP))):
            with pytest.raises(TypeError, match="not a term"):
                conv(a, b)
    # alpha_eq answers rather than raises: a non-term equals only itself
    for a, b in zip(not_terms, copy.deepcopy(not_terms)):
        assert alpha_eq(a, a) and alpha_eq(a, b) is (a is b)
        assert not alpha_eq(a, PROP) and not alpha_eq(PROP, a)


def test_atoms_are_interned_however_they_are_made():
    for level in (0, 1, 7, 10**30):
        assert Type(level) is Type(level) is dataclasses.replace(Type(level + 1), level=level)
    assert Var("x") is Var("x") is dataclasses.replace(Var("y"), name="x")
    assert Var("x") is not Var("y") and Type(1) is not Type(2)
    assert Prop() is PROP is dataclasses.replace(PROP)
    parsed = parse_term("Pi x : Type3 . x Prop (fn y : Type3 . x)")
    assert parsed.domain is Type(3) and parsed.codomain.fn.fn is Var("x") and parsed.codomain.fn.arg is PROP
    assert parsed.codomain.arg.annotation is Type(3) and parsed.codomain.arg.body is Var("x")
    read, _ = _read_terms([["Prop"], ["Type", 3], ["Var", "x"], ["App", 2, 0], ["Var", "x"], ["Type", 3]])
    assert read[0] is PROP and read[1] is read[5] is Type(3) and read[2] is read[4] is read[3].fn is Var("x")


def test_interned_atoms_look_and_fail_as_before():
    assert (repr(Type(2)), repr(Var("x")), repr(PROP)) == ("Type(level=2)", "Var(name='x')", "Prop()")
    assert [f.name for f in dataclasses.fields(Type)] == ["level"] and Type.__match_args__ == ("level",)
    assert [f.name for f in dataclasses.fields(Var)] == ["name"] and Var.__match_args__ == ("name",)
    assert dataclasses.fields(Prop) == () and Prop.__match_args__ == ()
    assert hash(Type(2)) == hash((2,)) and Type(2) == Type(2) != Type(3) and Var("x") != Type(0)
    match Pi("x", Type(4), Var("x")):
        case Pi(_, Type(level), Var(name)):
            assert (level, name) == (4, "x")
    for level, error, text in (
        (-1, ValueError, "universe levels are non-negative"),
        (True, TypeError, "universe level must be an int, got True"),
        (1.0, TypeError, "universe level must be an int, got 1.0"),
        ("1", TypeError, "universe level must be an int, got '1'"),
        (None, TypeError, "universe level must be an int, got None"),
    ):
        with pytest.raises(error) as err:
            Type(level)
        assert str(err.value) == text
    # a name that is no str is not interned: each call makes a new Var
    for name in (1, True, ("x",), ["x"], None):
        v = Var(name)
        assert type(v) is Var and v.name is name and v == Var(name)
    assert Var(True).name is True and Var(1).name == 1


def test_copies_and_pickles_of_an_atom_are_the_atom():
    for atom in (PROP, Type(2), Var("x"), Var("a1")):
        free_vars(atom)  # fill the cache, so vars() holds more than the fields
        before = dict(vars(atom))
        copies = [copy.copy(atom), copy.deepcopy(atom), dataclasses.replace(atom)]
        copies += [pickle.loads(pickle.dumps(atom, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        assert all(c is atom for c in copies)
        assert vars(atom) == before
    # inside a term too, where a copy of the term shares the one atom
    t = Pi("x", Type(2), App(Var("f"), Var("x")))
    for c in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert c == t and c is not t and c.domain is Type(2) and c.codomain.fn is Var("f")
