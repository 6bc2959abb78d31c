"""Property tests of the surface syntax and of `ecc verify` (seeded, so every
run checks the same examples)."""

import functools
import json
import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from ecckernel import (
    PROP,
    App,
    Context,
    Derivation,
    Judgment,
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
    principal_of,
    print_term,
)
from ecckernel.cli import EXIT_OK, EXIT_REJECTED, derivation_from_dict, run_command
from ecckernel.kernel import KERNEL_RULES
from ecckernel.terms import subterms

from derivation_files import saved, slots
from genterms import expand, normal_type

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


def _generated(seed: int):
    rng = random.Random(seed)
    return expand(rng, normal_type(rng, 4, ("u", "v")))


@seeded
@given(terms | st.integers(0, 2**32).map(_generated))
def test_term_rows_read_back_equal_with_equal_subterms_shared(t):
    # t as the subject and the type of a one-node derivation
    with tempfile.TemporaryDirectory() as tmp:
        table = saved(Derivation("Ax", Judgment(Context(), t, t)), os.path.join(tmp, "d.json"))
    c = derivation_from_dict(table).conclusion
    assert c.subject == t and c.type is c.subject
    assert len(table["terms"]) == len(set(map(json.dumps, table["terms"])))
    first: dict = {}  # each subterm value to the first object found with it
    stack = [c.subject]
    while stack:
        u = stack.pop()
        assert first.setdefault(u, u) is u
        stack.extend(subterms(u))


@functools.cache
def _derivation_files() -> tuple[str, ...]:
    # each derivation as the table `ecc elab` writes
    files = []
    for ctx, subject in [
        ("f : Pi x : Type1 . Prop", "f Prop"),
        ("", "< Prop , Type0 > : Sig x : Type1 . Type1"),
        ("p2 : Sig g : Type0 . (fn Y : Type1 . Pi Z : Y . Prop) Type0", "snd p2 Prop"),
    ]:
        _, d = principal_of(parse_context(ctx), parse_term(subject))
        with tempfile.TemporaryDirectory() as tmp:
            files.append(json.dumps(saved(d, os.path.join(tmp, "d.json"))))
    return tuple(files)


FIELDS = ["rule", "ctx", "term", "type", "side", "premises", "level", "name", "sub", "sup"]
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 60)  # in and out of range as a term, context or node number
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.sampled_from(sorted(KERNEL_RULES) + ["Prop", "Type0", "Type1", "f", "Pi x : Type1 . Prop"])
    # term row tags, and a keyword where a name belongs
    | st.sampled_from(["Var", "Type", "Pi", "Sigma", "Lam", "App", "Pair", "Proj1", "Proj2", "Sig"]),
    lambda sub: st.lists(sub, max_size=6) | st.dictionaries(st.sampled_from(FIELDS), sub),
    max_leaves=8,
)
# replace, drop or empty one list item or dict value anywhere in the file:
# a cell of a term, context or node row, a whole row, a number in a row, a
# side entry, or a whole table; every base file is a table, so no example is
# spent on a file rejected at its first key
edits = st.tuples(st.integers(0, 10**4), st.sampled_from(["set", "drop", "zero"]), json_values)


@seeded
@given(st.integers(0, 2), st.lists(edits, max_size=3), st.none() | st.integers(0, 10**6))
def test_verify_answers_accepted_or_rejected_on_fuzzed_files(base, changes, cut):
    obj = json.loads(_derivation_files()[base])
    for at, how, value in changes:
        places = slots(obj)
        if places:
            container, key = places[at % len(places)]
            if how == "drop":
                del container[key]
            else:  # "zero" gives the value of the same JSON type: 0, "", [], {}
                container[key] = type(container[key])() if how == "zero" else value
    text = json.dumps(obj)
    if cut is not None:
        text = text[: cut % (len(text) + 1)]  # truncated JSON
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        assert run_command(["verify", path]) in (EXIT_OK, EXIT_REJECTED)
