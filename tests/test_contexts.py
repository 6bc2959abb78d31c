"""Contexts as shared snoc-lists: the kernel's context comparison against the
entry-by-entry one it replaced, and contexts too long for any recursion."""

import copy
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from ecckernel import PROP, Context, Type, alpha_eq, parse_term
from ecckernel.kernel import _extends


def reference_extends(a: Context, b: Context, extra: int) -> bool:
    # kernel._extends while a context was a tuple of entries: a is b followed
    # by `extra` more entries, compared up to alpha entry by entry, front to back
    ea, eb = tuple(a), tuple(b)
    if len(ea) != len(eb) + extra:
        return False
    if a is not b:
        for (na, ta), (nb, tb) in zip(ea, eb):
            if na != nb or not alpha_eq(ta, tb):
                return False
    return True


NAMES = ("x", "y", "z")
# entry types as text, each parsed afresh where an entry is rebuilt; the two
# abstractions are alpha-variants of each other
TYPES = ("Prop", "Type0", "fn u : Prop . u", "fn v : Prop . v", "Pi u : Prop . u", "x")
ALPHA = {"fn u : Prop . u": "fn v : Prop . v", "fn v : Prop . v": "fn u : Prop . u"}
# how the second context copies an entry of the first: the same objects, a
# rebuilt type, an alpha-variant type, another name or another type
COPIES = ("same", "rebuilt", "alpha", "renamed", "other")

entries = st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(TYPES)), max_size=3)


def _copied(g: Context, entry: tuple[str, str], built, how: str) -> Context:
    name, text = entry
    if how == "same":
        return g.extend(name, built)
    if how == "renamed":
        return g.extend(NAMES[(NAMES.index(name) + 1) % len(NAMES)], built)
    if how == "other":
        return g.extend(name, parse_term("Type0" if text != "Type0" else "Prop"))
    return g.extend(name, parse_term(ALPHA.get(text, text) if how == "alpha" else text))


@st.composite
def context_pairs(draw) -> tuple[Context, Context]:
    """(a, b): a is b, or b rebuilt, and 0 to 2 more entries.

    Below a shared point both hold one object, or a rebuilds those entries
    apart; above it a copies b's entries one way each from `COPIES`.
    """
    below, above = draw(entries), draw(entries)
    parsed = [(name, parse_term(text)) for name, text in below + above]
    shared = Context.of(*parsed[: len(below)])
    b = shared
    for name, ty in parsed[len(below):]:
        b = b.extend(name, ty)
    if draw(st.booleans()):
        a = b  # b itself is a prefix of a
    else:
        a = shared
        if draw(st.booleans()):  # built apart below the shared point too
            a = Context()
            for entry, (_, ty) in zip(below, parsed):
                a = _copied(a, entry, ty, draw(st.sampled_from(COPIES)))
        for entry, (_, ty) in zip(above, parsed[len(below):]):
            a = _copied(a, entry, ty, draw(st.sampled_from(COPIES)))
    for name, text in draw(st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(TYPES)), max_size=2)):
        a = a.extend(name, parse_term(text))
    return a, b


@settings(max_examples=400, deadline=None)
@given(context_pairs())
def test_extends_agrees_with_the_entry_by_entry_comparison(pair):
    a, b = pair
    for extra in (0, 1):
        assert _extends(a, b, extra) == reference_extends(a, b, extra)
        assert _extends(b, a, extra) == reference_extends(b, a, extra)


def test_long_contexts_compare_hash_iterate_and_measure_without_recursion():
    # 100,000 entries, two lists built apart: nothing here may recurse per entry
    n = 100_000
    items = [(f"x{i}", PROP if i % 2 else Type(i % 3)) for i in range(n)]
    a, b = Context.of(*items), Context.of(*items)
    assert a is not b and a == b and hash(a) == hash(b)
    assert list(a) == items and len(a) == n and a.lookup("x0") == Type(0)
    assert repr(a).startswith("Context.of(('x0', Type(level=0)), ('x1', Prop()), ")
    assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a)
    deep = Context.of(*items[:10], ("x10", Type(5)), *items[11:])
    assert deep != a and a != deep and len(deep) == n


def test_the_empty_context_is_one_object():
    assert Context() is Context.of() is copy.deepcopy(Context()) is pickle.loads(pickle.dumps(Context()))
    assert len(Context()) == 0 and list(Context()) == [] and Context().lookup("x") is None
