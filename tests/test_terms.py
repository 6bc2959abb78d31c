import dataclasses
import os
import pathlib
import random
import subprocess
import sys

from ecckernel import (
    PROP,
    App,
    Lam,
    Pair,
    Pi,
    Sigma,
    Term,
    Type,
    Var,
    alpha_eq,
    free_vars,
    fresh_name,
    subst,
    terms,
)
from ecckernel.terms import BINDERS, SHAPES, _alpha

from genterms import alpha_rename, expand, normal_type, oracle_alpha_eq


def test_subst_direct_hit():
    assert subst(Var("x"), "x", PROP) == PROP


def test_subst_no_capture_needed():
    t = Pi("y", PROP, Var("x"))
    assert subst(t, "x", Type(0)) == Pi("y", PROP, Type(0))


def test_subst_capture_forces_renaming():
    t = Lam("y", PROP, Var("x"))
    result = subst(t, "x", Var("y"))
    assert isinstance(result, Lam)
    assert result.var != "y"
    assert result.body == Var("y")
    assert alpha_eq(result, Lam("z", PROP, Var("y")))


def test_subst_shadowing_binder_blocks():
    t = Lam("x", PROP, Var("x"))
    assert subst(t, "x", Type(0)) == t


def test_subst_reaches_annotations():
    t = Lam("y", Var("x"), Var("y"))
    assert subst(t, "x", PROP) == Lam("y", PROP, Var("y"))


def test_fresh_name_skips_taken_suffixes():
    assert fresh_name("y", {"y"}) == "y1"
    assert fresh_name("y", {"y", "y1"}) == "y2"
    assert fresh_name("y1", {"y1"}) == "y2"


def test_alpha_eq_renaming():
    assert alpha_eq(Lam("x", PROP, Var("x")), Lam("y", PROP, Var("y")))


def test_alpha_eq_distinct_constructors():
    assert not alpha_eq(PROP, Type(0))


def test_alpha_eq_distinct_bodies():
    assert not alpha_eq(Pi("x", PROP, Var("x")), Pi("x", PROP, PROP))


def test_alpha_eq_free_variables_by_name():
    assert alpha_eq(Var("x"), Var("x"))
    assert not alpha_eq(Var("x"), Var("y"))
    # bound on one side, free on the other
    assert not alpha_eq(Lam("x", PROP, Var("x")), Lam("y", PROP, Var("x")))


def test_free_vars_examples():
    assert free_vars(Lam("x", PROP, Var("x"))) == frozenset()
    assert free_vars(App(Var("x"), Var("y"))) == {"x", "y"}
    assert free_vars(Pi("x", Var("z"), Var("x"))) == {"z"}


def test_free_vars_annotation_counts():
    assert free_vars(Lam("x", Var("a"), Var("x"))) == {"a"}


def test_alpha_eq_is_equivalence_on_corpus():
    rng = random.Random(7)
    terms = [expand(rng, normal_type(rng, 3, ("u", "v"))) for _ in range(40)]
    for t in terms:
        assert alpha_eq(t, t)
    for a in terms[:15]:
        for b in terms[:15]:
            assert alpha_eq(a, b) == alpha_eq(b, a)
    # transitivity through alpha-variants
    for t in terms:
        a = alpha_rename(t, "0")
        b = alpha_rename(t, "00")
        assert alpha_eq(t, a) and alpha_eq(a, b) and alpha_eq(t, b)


def test_alpha_eq_agrees_with_de_bruijn_forms():
    rng = random.Random(13)
    generated = []
    for _ in range(60):
        t = expand(rng, normal_type(rng, 3, ("u", "a", "b")))
        # the generator also binds "a" and "b", so bound names meet free ones
        generated += [t, alpha_rename(t, "1"), alpha_rename(t, "2")]
    x, y, p = Var("x"), Var("y"), PROP
    cases = [
        # one name bound at two depths
        (Pi("x", p, Pi("x", p, x)), Pi("y", p, Pi("x", p, x))),
        (Pi("x", p, Pi("x", p, x)), Pi("x", p, Pi("y", p, x))),
        (Lam("x", p, App(Lam("x", x, x), x)), Lam("y", p, App(Lam("x", y, x), y))),
        (Lam("x", p, App(Lam("x", x, x), x)), Lam("y", p, App(Lam("y", y, y), x))),
        # a comparison fails inside a binder, and a later part reads a free x
        (App(Lam("x", p, x), x), App(Lam("y", p, p), x)),
        (Pair(Lam("x", p, x), x, p), Pair(Lam("y", p, y), y, p)),
        (App(Pi("x", p, Pi("y", x, y)), x), App(Pi("y", p, Pi("x", x, x)), x)),
        (App(Pi("x", p, Pi("y", x, y)), x), App(Pi("y", p, Pi("x", y, x)), x)),
        # a bound name equals a free one
        (Pi("x", x, x), Pi("y", x, y)),
        (Pi("x", p, x), Pi("y", p, x)),
        (Lam("x", y, App(x, y)), Lam("y", y, App(y, y))),
        (Lam("x", y, App(x, y)), Lam("z", y, App(Var("z"), y))),
    ]
    for i, a in enumerate(generated):
        for b in generated[max(0, i - 3) : i + 4]:
            cases.append((a, b))
    verdicts = set()
    for a, b in cases:
        verdict = oracle_alpha_eq(a, b)
        verdicts.add(verdict)
        assert alpha_eq(a, b) is verdict is alpha_eq(b, a), (a, b)
        # a binder gives back the names it bound on every exit, a False one included
        env_a, env_b = {}, {}
        assert _alpha(a, b, env_a, env_b, 0) is verdict
        assert set(env_a.values()) <= {None} and set(env_b.values()) <= {None}
    assert verdicts == {True, False}


def test_substitution_composition_lemma():
    # [v/x]([u/x]t) == [([v/x]u)/x]t when t's binders avoid the traffic
    rng = random.Random(11)
    for _ in range(60):
        t = normal_type(rng, 2, ("x", "h"))
        u = normal_type(rng, 2, ("x",))
        v = normal_type(rng, 1)
        lhs = subst(subst(t, "x", u), "x", v)
        rhs = subst(t, "x", subst(u, "x", v))
        assert alpha_eq(lhs, rhs)


def test_free_vars_of_subst_bound():
    rng = random.Random(13)
    for _ in range(60):
        t = normal_type(rng, 3, ("x", "u", "v"))
        r = normal_type(rng, 2, ("u",))
        fv = free_vars(subst(t, "x", r))
        assert fv <= (free_vars(t) - {"x"}) | free_vars(r)


def test_context_invariant_checks():
    import pytest

    from ecckernel import Context

    g = Context.of(("x", PROP), ("y", Type(0)))
    assert g.lookup("x") == PROP
    assert g.lookup("missing") is None
    assert list(g) == [("x", PROP), ("y", Type(0))]
    assert g.name == "y" and g.type == Type(0) and g.parent == Context.of(("x", PROP))
    # the first entry with a name answers, as when a context was a tuple
    assert Context.of(("x", PROP), ("x", Type(0))).lookup("x") == PROP
    for change in (lambda: setattr(g, "name", "z"), lambda: delattr(g, "parent")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            change()


def test_universe_levels_non_negative():
    import pytest

    with pytest.raises(ValueError):
        Type(-1)
    # bool is an int subclass: Type(True) printed as the variable TypeTrue,
    # Type(1.5) as Type1.5, which does not parse, and Type(True) was alpha-equal to Type(1)
    for level in (True, False, 1.5, 2.0, "1", None):
        with pytest.raises(TypeError, match="universe level must be an int"):
            Type(level)


def test_every_constructor_has_one_shape_entry():
    constructors = [c for c in vars(terms).values() if isinstance(c, type) and issubclass(c, Term) and c is not Term]
    assert len(constructors) == 10 and set(SHAPES) == set(constructors)
    for cls in constructors:
        # the term-valued fields, in field order; binders alone carry a `var`
        fields = dataclasses.fields(cls)
        assert SHAPES[cls] == tuple(f.name for f in fields if f.type == "Term")
        assert (cls in BINDERS) == ("var" in {f.name for f in fields})
    assert BINDERS == {Pi, Sigma, Lam}


_DEPTH_SCRIPT = """
from ecckernel import PROP, App, Pair, Pi, Proj1, Var, alpha_eq, free_vars, subst
wrap = {
    "App": lambda t: App(t, Var("u")),
    "Proj1": Proj1,
    "Pair": lambda t: Pair(t, PROP, PROP),
    "Pi": lambda t: Pi("x", PROP, t),
}
def chain(kind):
    t = Var("u")
    for _ in range(900):
        t = wrap[kind](t)
    return t
for kind in wrap:
    free_vars(chain(kind))
    subst(chain(kind), "u", Var("w"))
    assert alpha_eq(chain(kind), chain(kind))
"""


def test_term_operations_take_one_frame_per_level():
    # a fresh interpreter at the default recursion limit of 1,000: each
    # operation reaches a depth of about 993 on each chain, and one that
    # took two frames per level would stop near 500
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _DEPTH_SCRIPT],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
