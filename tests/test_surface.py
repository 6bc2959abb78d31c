import random
import re

import pytest

from ecckernel import (
    PROP,
    App,
    Lam,
    Pair,
    Pi,
    ParseError,
    Proj1,
    Proj2,
    Sigma,
    Type,
    Var,
    alpha_eq,
    parse_context,
    parse_term,
    print_term,
)

from genterms import expand, normal_type


def test_parse_pi():
    assert parse_term("Pi x : Prop . x") == Pi("x", PROP, Var("x"))


def test_parse_level_transfer_term():
    t = parse_term("Sig x : (Sig y : Prop . Prop) . Prop")
    assert t == Sigma("x", Sigma("y", PROP, PROP), PROP)


def test_parse_self_application_constant():
    t = parse_term("fn y : Type0 . (Sig x : Type0 . y y)")
    assert t == Lam("y", Type(0), Sigma("x", Type(0), App(Var("y"), Var("y"))))


def test_application_left_associative():
    assert parse_term("f a b") == App(App(Var("f"), Var("a")), Var("b"))
    assert parse_term("f (a b)") == App(Var("f"), App(Var("a"), Var("b")))


def test_binder_bodies_extend_right():
    t = parse_term("fn x : Prop . f x x")
    assert t == Lam("x", PROP, App(App(Var("f"), Var("x")), Var("x")))


def test_type_levels_fused_and_spaced():
    assert parse_term("Type0") == Type(0)
    assert parse_term("Type 0") == Type(0)
    assert parse_term("Type12") == Type(12)
    # a word continuing past the digits is an ordinary identifier
    assert parse_term("Type0x") == Var("Type0x")


def test_projections_parse_as_atoms():
    assert parse_term("fst x") == Proj1(Var("x"))
    assert parse_term("snd fst x") == Proj2(Proj1(Var("x")))
    assert parse_term("g fst x") == App(Var("g"), Proj1(Var("x")))


def test_comments_and_whitespace():
    assert parse_term("Prop -- the small universe") == PROP
    assert parse_term("  Pi x :\n  Prop . x") == Pi("x", PROP, Var("x"))


def test_pair_round_trip_verbatim():
    text = "< Prop , Prop > : Sig x : Type0 . Type0"
    t = parse_term(text)
    assert isinstance(t, Pair)
    assert print_term(t) == text


def test_print_examples():
    assert print_term(Pi("x", PROP, Var("x"))) == "Pi x : Prop . x"
    assert print_term(App(App(Var("f"), Var("a")), Var("b"))) == "f a b"
    assert print_term(App(Var("f"), App(Var("a"), Var("b")))) == "f (a b)"


# each constructor in each position the printer knows: a whole term, a
# binder's domain, a pair's annotation, an application's function, an atom
_PLACES = (
    lambda t: t,
    lambda t: Pi("y", t, PROP),
    lambda t: Pair(PROP, PROP, t),
    lambda t: App(t, Var("y")),
    lambda t: App(Var("g"), t),
)


@pytest.mark.parametrize(
    "t, printed",
    [
        (Var("x"), ["x", "Pi y : x . Prop", "< Prop , Prop > : x", "x y", "g x"]),
        (PROP, ["Prop", "Pi y : Prop . Prop", "< Prop , Prop > : Prop", "Prop y", "g Prop"]),
        (Type(2), ["Type2", "Pi y : Type2 . Prop", "< Prop , Prop > : Type2", "Type2 y", "g Type2"]),
        (
            Pi("x", PROP, Var("x")),
            [
                "Pi x : Prop . x",
                "Pi y : (Pi x : Prop . x) . Prop",
                "< Prop , Prop > : Pi x : Prop . x",
                "(Pi x : Prop . x) y",
                "g (Pi x : Prop . x)",
            ],
        ),
        (
            Sigma("x", PROP, Var("x")),
            [
                "Sig x : Prop . x",
                "Pi y : (Sig x : Prop . x) . Prop",
                "< Prop , Prop > : Sig x : Prop . x",
                "(Sig x : Prop . x) y",
                "g (Sig x : Prop . x)",
            ],
        ),
        (
            Lam("x", PROP, Var("x")),
            [
                "fn x : Prop . x",
                "Pi y : (fn x : Prop . x) . Prop",
                "< Prop , Prop > : fn x : Prop . x",
                "(fn x : Prop . x) y",
                "g (fn x : Prop . x)",
            ],
        ),
        (App(Var("f"), Var("x")), ["f x", "Pi y : f x . Prop", "< Prop , Prop > : (f x)", "f x y", "g (f x)"]),
        (
            Pair(Var("x"), PROP, Sigma("z", PROP, PROP)),
            [
                "< x , Prop > : Sig z : Prop . Prop",
                "Pi y : (< x , Prop > : Sig z : Prop . Prop) . Prop",
                "< Prop , Prop > : < x , Prop > : (Sig z : Prop . Prop)",
                "< x , Prop > : (Sig z : Prop . Prop) y",
                "g < x , Prop > : (Sig z : Prop . Prop)",
            ],
        ),
        (Proj1(Var("p")), ["fst p", "Pi y : fst p . Prop", "< Prop , Prop > : fst p", "fst p y", "g fst p"]),
        (Proj2(Var("p")), ["snd p", "Pi y : snd p . Prop", "< Prop , Prop > : snd p", "snd p y", "g snd p"]),
    ],
    ids=["Var", "Prop", "Type", "Pi", "Sigma", "Lam", "App", "Pair", "Proj1", "Proj2"],
)
def test_print_each_constructor_in_each_position(t, printed):
    for place, text in zip(_PLACES, printed, strict=True):
        assert print_term(place(t)) == text
        assert parse_term(text) == place(t)


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as err:
        parse_term("Pi x Prop . x")
    assert err.value.line == 1
    assert err.value.col > 1
    with pytest.raises(ParseError, match=r"^expected '\)', found end of input \(line 1, column 6\)$"):
        parse_term("(Prop")
    with pytest.raises(ParseError):
        parse_term("Prop Prop)")
    with pytest.raises(ParseError):
        parse_term("Type")
    with pytest.raises(ParseError):
        parse_term("")


def test_parse_error_reports_later_lines():
    with pytest.raises(ParseError) as err:
        parse_term("Pi x : Prop .\n  .")
    assert err.value.line == 2
    # context files count lines and columns in the whole file
    with pytest.raises(ParseError) as err:
        parse_context("A : Type0\n-- a comment line\nx : (A")
    assert (err.value.line, err.value.col) == (3, 7)
    with pytest.raises(ParseError) as err:
        parse_context("A : Type0\n  x : Pi y Prop . y")
    assert (err.value.line, err.value.col) == (2, 12)


def test_context_files():
    g = parse_context("x : Prop\n-- a comment line\ny : Pi a : Prop . Prop\n")
    assert [name for name, _ in g] == ["x", "y"]
    assert g.lookup("y") == Pi("a", PROP, PROP)
    assert len(parse_context("")) == 0


def test_context_file_rejects_garbage():
    with pytest.raises(ParseError):
        parse_context("x Prop")
    with pytest.raises(ParseError):
        parse_context("x : Prop Prop extra :")


def test_context_entries_end_at_newline_only():
    # "\r\n" files keep working: "\r" is lexer whitespace
    assert [name for name, _ in parse_context("x : Prop\r\ny : Type0\r\n")] == ["x", "y"]
    # a lone "\r" joins two lines into one entry, and the error is on that line
    with pytest.raises(ParseError, match=r"^trailing input ':' in context entry \(line 1, column 13\)$"):
        parse_context("A : Type0\rB : Type0")


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"], ids=repr)
def test_other_line_breaks_in_a_context_are_errors_where_they_stand(brk):
    # as in a term file, where they are parse errors too
    with pytest.raises(ParseError):
        parse_term(f"Prop{brk}")
    # between two entries, in one, and at either end of one
    for text, line, col in (
        (f"A : Type0{brk}B : Type0", 1, 10),
        (f"A : Type0\nB : {brk} A", 2, 5),
        (f"A : Type0\n{brk}B : Type0", 2, 1),
        (f"A : Type0{brk}\nB : Type0", 1, 10),
    ):
        with pytest.raises(ParseError, match="^" + re.escape(f"unexpected character {brk!r}")) as err:
            parse_context(text)
        assert (err.value.line, err.value.col) == (line, col), text


def test_round_trip_on_random_terms():
    rng = random.Random(109)
    for _ in range(300):
        t = expand(rng, normal_type(rng, 3, ("u", "v")))
        assert alpha_eq(parse_term(print_term(t)), t)


def test_round_trip_nested_binders_and_pairs():
    samples = [
        Pi("x", Pi("y", PROP, PROP), Var("x")),
        Lam("x", PROP, Pair(Var("x"), PROP, Sigma("z", PROP, Type(0)))),
        App(Lam("x", PROP, Var("x")), Proj1(Pair(PROP, PROP, Sigma("z", Type(0), Type(0))))),
        App(Var("f"), Pair(PROP, PROP, Sigma("z", Type(0), Type(0)))),
        Proj2(Pair(PROP, Type(0), Sigma("z", Type(1), Type(1)))),
        Sigma("x", Pair(PROP, PROP, Sigma("z", Type(0), Type(0))), Var("x")),
    ]
    for t in samples:
        assert alpha_eq(parse_term(print_term(t)), t)


def test_print_is_deterministic():
    rng = random.Random(113)
    for _ in range(50):
        t = expand(rng, normal_type(rng, 2))
        assert print_term(t) == print_term(t)
