import pytest

from ecckernel import (
    CUMULATIVITY_VIOLATION,
    INVALID_CONTEXT,
    NOT_A_FUNCTION,
    NOT_A_PAIR,
    NOT_A_UNIVERSE,
    PROP,
    UNBOUND_VARIABLE,
    Context,
    Pi,
    Type,
    TypeCheckError,
    alpha_eq,
    check_context,
    check_type,
    conv,
    free_vars,
    infer_type,
    parse_context,
    parse_term,
    print_term,
    subtype,
)

from corpus import typed_corpus
from genterms import alpha_rename


def _infer(ctx_text, term_text):
    g = parse_context(ctx_text)
    check_context(g)
    return g, infer_type(g, parse_term(term_text))


def test_universe_rules():
    _, out = _infer("", "Prop")
    assert out.principal == Type(0)
    _, out = _infer("", "Type2")
    assert out.principal == Type(3)


def test_var_rule():
    _, out = _infer("x : Prop", "x")
    assert out.principal == PROP


def test_unbound_variable():
    with pytest.raises(TypeCheckError) as err:
        _infer("", "x")
    assert err.value.kind == UNBOUND_VARIABLE


def test_sigma_formation_level_arithmetic():
    _, out = _infer("", "Sig x : Prop . Type0")
    assert out.principal == Type(1)


def test_sigma_formation_prop_component_absorbed():
    _, out = _infer("p : Prop", "Sig x : Prop . p")
    assert out.principal == Type(0)


def test_pi_formation_predicative():
    _, out = _infer("", "Pi x : Type0 . Prop")
    assert out.principal == Type(1)


def test_pi_formation_impredicative():
    _, out = _infer("p : Prop", "Pi x : Type0 . p")
    assert out.principal == PROP
    _, out = _infer("", "Pi p : Prop . p")
    assert out.principal == PROP


def test_pi_formation_prop_domain():
    _, out = _infer("p : Prop", "Pi x : p . Prop")
    assert out.principal == Type(0)


def test_lambda_rule():
    _, out = _infer("", "fn x : Prop . x")
    assert alpha_eq(out.principal, Pi("x", PROP, PROP))


def test_lambda_annotation_must_be_a_type():
    with pytest.raises(TypeCheckError) as err:
        _infer("", "fn x : (fn y : Prop . y) . x")
    assert err.value.kind == NOT_A_UNIVERSE


def test_application_with_strict_argument():
    _, out = _infer("f : Pi x : Type1 . Prop", "f Prop")
    assert out.principal == PROP


def test_application_domain_violation():
    with pytest.raises(TypeCheckError) as err:
        _infer("f : Pi x : Prop . Prop", "f Type0")
    assert err.value.kind == CUMULATIVITY_VIOLATION


def test_application_of_non_function():
    with pytest.raises(TypeCheckError) as err:
        _infer("", "Prop Prop")
    assert err.value.kind == NOT_A_FUNCTION


def test_projection_of_non_pair():
    with pytest.raises(TypeCheckError) as err:
        _infer("x : Prop", "fst x")
    assert err.value.kind == NOT_A_PAIR


def test_pair_needs_sigma_annotation():
    g = parse_context("s : Sig a : Prop . Prop")
    # annotation is a variable, not a Sigma node
    with pytest.raises(TypeCheckError) as err:
        infer_type(g, parse_term("< Prop , Prop > : s"))
    assert err.value.kind == NOT_A_PAIR


def test_pair_family_must_be_type_sorted():
    # the family lands in Prop, which the pair rule does not admit
    with pytest.raises(TypeCheckError) as err:
        _infer("p : Prop", "< Prop , Prop > : Sig x : Type0 . p")
    assert err.value.kind == NOT_A_UNIVERSE


def test_pair_component_violation():
    # the first component above the domain, or the second above the family at it
    for pair, offender in (("< Type1 , Prop > : Sig x : Type0 . Type1", "Type1"),
                           ("< Prop , Prop > : Sig x : Type0 . Prop", "Prop")):
        with pytest.raises(TypeCheckError) as err:
            _infer("", pair)
        assert (err.value.kind, err.value.offender) == (CUMULATIVITY_VIOLATION, parse_term(offender))


def test_dependent_projection():
    _, out = _infer("u : Sig t : Type1 . Pi v : t . Prop", "snd u")
    assert print_term(out.principal) == "Pi v : fst u . Prop"


def test_binder_shadowing_context_name():
    g, out = _infer("x : Prop", "fn x : Type0 . x")
    pi = out.principal
    assert isinstance(pi, Pi)
    assert pi.var != "x"  # binder renamed away from the context entry
    assert alpha_eq(pi, Pi("y", Type(0), Type(0)))
    # the dependent version: the body is a proof of the bound proposition
    _, out2 = _infer("x : Prop", "fn h : x . h")
    assert alpha_eq(out2.principal, parse_term("Pi h : x . x"))


def test_check_context_examples():
    check_context(Context())
    check_context(parse_context("x : Prop"))
    with pytest.raises(TypeCheckError) as err:
        check_context(parse_context("x : fn y : Prop . y"))
    assert err.value.kind == NOT_A_UNIVERSE


def test_check_context_duplicates():
    with pytest.raises(TypeCheckError) as err:
        check_context(parse_context("x : Prop\nx : Type0"))
    assert err.value.kind == INVALID_CONTEXT


def test_check_context_unbound_reference():
    with pytest.raises(TypeCheckError) as err:
        check_context(parse_context("x : y"))
    assert err.value.kind == UNBOUND_VARIABLE


def test_check_type_cumulativity():
    g = Context()
    assert check_type(g, PROP, Type(5))
    assert check_type(g, PROP, Type(0))
    assert not check_type(g, Type(1), Type(0))


def test_check_type_rejects_non_type_ascription():
    with pytest.raises(TypeCheckError):
        check_type(Context(), PROP, parse_term("fn x : Prop . x"))


def test_corpus_infers_and_subjects_are_closed_in_context():
    for g, m in typed_corpus():
        out = infer_type(g, m)
        assert free_vars(m) <= {name for name, _ in g}
        # the principal type is a type in the same context
        assert check_type(g, m, out.principal)


def test_determinism_across_runs():
    corpus = typed_corpus()
    first = [infer_type(g, m) for g, m in corpus]
    for _ in range(2):
        again = [infer_type(g, m) for g, m in corpus]
        assert again == first


def test_alpha_variants_give_convertible_principals():
    for g, m in typed_corpus():
        renamed = alpha_rename(m, "9")
        assert alpha_eq(m, renamed)
        out1 = infer_type(g, m)
        out2 = infer_type(g, renamed)
        assert conv(out1.principal, out2.principal, 10**4)


def test_principal_below_any_ascription():
    # uniqueness consequence: the inferred type sits below every checked one
    samples = [
        ("", "Prop", "Type3"),
        ("f : Pi x : Type1 . Prop", "f Prop", "Type0"),
        ("", "fn x : Prop . x", "Pi x : Prop . Type1"),
    ]
    for ctx_text, term_text, ascription in samples:
        g = parse_context(ctx_text)
        check_context(g)
        out = infer_type(g, parse_term(term_text))
        assert check_type(g, parse_term(term_text), parse_term(ascription))
        assert subtype(out.principal, parse_term(ascription))
