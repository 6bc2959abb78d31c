"""Property tests of the surface syntax (seeded, so every run checks the same examples)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ecckernel import (
    PROP,
    App,
    Lam,
    Pair,
    ParseError,
    Pi,
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

seeded = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# token characters, keywords, comments and whitespace the scanner rejects or skips
PIECES = list("()<>,:.-xyT09_' \t\r\n") + ["--", "Prop", "Type", "Pi", "Sig", "fn", "fst", "snd"]
PIECES += ["\x0c", "\xa0", "\u2003"]
texts = st.lists(st.sampled_from(PIECES), max_size=40).map("".join)

names = st.sampled_from(["x", "y", "f", "x'", "a_1", "Type0x"])
leaves = st.one_of(st.just(PROP), st.integers(0, 20).map(Type), names.map(Var))
terms = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.builds(Pi, names, sub, sub),
        st.builds(Sigma, names, sub, sub),
        st.builds(Lam, names, sub, sub),
        st.builds(App, sub, sub),
        st.builds(Proj1, sub),
        st.builds(Proj2, sub),
        st.builds(Pair, sub, sub, sub),
    ),
    max_leaves=12,
)


def _position_inside(err: ParseError, text: str) -> bool:
    lines = text.split("\n")
    return 1 <= err.line <= len(lines) and 1 <= err.col <= len(lines[err.line - 1]) + 1


@seeded
@given(texts)
def test_parsers_return_a_value_or_a_located_parse_error(text):
    for parse in (parse_term, parse_context):
        try:
            parse(text)
        except ParseError as err:
            assert _position_inside(err, text), (parse.__name__, err)


@seeded
@given(terms)
def test_printed_terms_parse_back(t):
    printed = print_term(t)
    back = parse_term(printed)
    assert alpha_eq(back, t)
    assert print_term(back) == printed
