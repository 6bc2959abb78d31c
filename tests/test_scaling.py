"""Cost as a counted function of input size.

Deterministic counters, not wall time: `counting` wraps functions in place
for one block and adds up a weight per call, and `slot_reads` counts the
reads of a `Context`'s slots made while given functions run, so a test can
pin how a count grows when its input doubles. A family that is linear gets
an assertion; the one row that stays quadratic has none. Run this file as a
script (`PYTHONPATH=src python tests/test_scaling.py`) to print every row
as the README's "Cost" table does.
"""

import collections
import contextlib
import dataclasses
import functools
import math
import os
import sys
import tempfile

import pytest

from ecckernel import Context, Judgment, Term, alpha_eq, parse_context, parse_term, principal_of, verify
from ecckernel import cli, kernel, terms
from ecckernel.cli import load_derivation, save_derivation

from corpus import context_chain


@contextlib.contextmanager
def counting(**targets):
    """Count calls for the block: each target is (owner, name, weight).

    `weight(*args)` is what one call adds to the target's count. A module
    function that calls itself by its global name is counted at every level.
    """
    calls, saved = collections.Counter(), []
    try:
        for key, (owner, name, weight) in targets.items():
            original = getattr(owner, name)
            saved.append((owner, name, original))

            def counted(*args, key=key, original=original, weight=weight):
                calls[key] += weight(*args)
                return original(*args)

            setattr(owner, name, counted)
        yield calls
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# kernel imports _alpha by name, so its calls go through its own binding
_ALPHA_CALLS = {"alpha": (terms, "_alpha", lambda *args: 1), "kernel_alpha": (kernel, "_alpha", lambda *args: 1)}


@contextlib.contextmanager
def slot_reads(*within):
    """Count reads of `Context`'s slots made while one of `within` runs.

    Each of `within` is (owner, name), a function wrapped in place for the
    block; the reads of the calls it makes count too. A read is what a walk
    over a context pays per entry, so this counts entries visited.
    """
    calls, active = collections.Counter(), [0]
    slots = {name: getattr(Context, name) for name in Context.__slots__}
    saved = [(owner, name, getattr(owner, name)) for owner, name in within]

    def read(slot):
        def get(g):
            if active[0]:
                calls["reads"] += 1
            return slot.__get__(g, Context)

        return property(get)

    def entered(original):
        def wrapped(*args):
            active[0] += 1
            try:
                return original(*args)
            finally:
                active[0] -= 1

        return wrapped

    try:
        for name, slot in slots.items():
            setattr(Context, name, read(slot))
        for owner, name, original in saved:
            setattr(owner, name, entered(original))
        yield calls
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
        for name, slot in slots.items():
            setattr(Context, name, slot)


def nested_pi(n: int):
    """`Pi x0 : Prop . ... Pi x(n-1) : Prop . Prop`."""
    return parse_term("".join(f"Pi x{i} : Prop . " for i in range(n)) + "Prop")


def spine(n: int) -> tuple[Context, Term]:
    """`c : Pi X1 : Type1 . ... Pi Xn : Type1 . Prop`, and `c` applied to n
    arguments, `Prop` and `Type0` in turn, each typed at or below `Type1`."""
    g = parse_context("c : " + "".join(f"Pi X{i} : Type1 . " for i in range(1, n + 1)) + "Prop")
    return g, parse_term(" ".join(["c", *(("Prop", "Type0")[i % 2] for i in range(n))]))


def test_counting_counts_every_level_and_puts_the_functions_back():
    original = terms._alpha
    with counting(**_ALPHA_CALLS) as calls:
        # the two binders, their domains and their bodies
        assert alpha_eq(parse_term("Pi x : Prop . x"), parse_term("Pi y : Prop . y"))
    assert calls == {"alpha": 3}
    assert terms._alpha is original and kernel._alpha is original


def test_verify_compares_a_renamed_binder_through_the_kernels_alpha():
    _, d = principal_of(Context(), parse_term("fn x : Prop . x"))
    c = d.conclusion
    renamed = dataclasses.replace(d, conclusion=Judgment(c.ctx, parse_term("fn z : Prop . z"), c.type))
    with counting(**_ALPHA_CALLS) as calls:
        assert verify(renamed)
    assert calls == {"kernel_alpha": 1}


def test_verify_alpha_calls_grow_linearly_in_pi_depth():
    # each formation node compares its subject with the premises part by
    # part, so a shared part is one `is` test and no part is walked again
    counts, limit = [], sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)  # each counted call is two frames
    try:
        for n in (100, 200):
            _, d = principal_of(Context(), nested_pi(n))
            with counting(**_ALPHA_CALLS) as calls:
                assert verify(d)
            counts.append(sum(calls.values()))
    finally:
        sys.setrecursionlimit(limit)
    small, big = counts
    assert big <= 2.2 * small, counts


@functools.cache
def _chain_counts(k: int) -> dict[str, int]:
    g, m = context_chain(k)
    with slot_reads((Context, "__hash__"), (Context, "__eq__")) as built:
        _, d = principal_of(g, m)
    with slot_reads((kernel, "_extends")) as checked:
        verify(d)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.json")
        with slot_reads((cli, "_table")) as written:
            save_derivation(d, path)
        with slot_reads((cli, "_from_table")) as read:
            load_derivation(path)
    with slot_reads((Context, "lookup"), (kernel, "_check_node")) as looked:
        principal_of(g, m)
        verify(d)
    return {
        "hashed": built["reads"],
        "extends": checked["reads"],
        "table": written["reads"],
        "copied": read["reads"],
        "lookup": looked["reads"],
    }


@functools.cache
def _pi_counts(n: int) -> dict[str, int]:
    _, d = principal_of(Context(), nested_pi(n))
    with slot_reads((kernel, "_extends")) as checked:
        verify(d)
    return {"extends": checked["reads"]}


@functools.cache
def _spine_counts(n: int) -> dict[str, int]:
    _, d = principal_of(*spine(n))
    objects, stack = set(), [d]
    while stack:
        node = stack.pop()
        if id(node) not in objects:
            objects.add(id(node))
            stack += node.premises
    with counting(checked=(kernel, "_check_node", lambda *args: 1)) as calls:
        verify(d)
    return {"objects": len(objects), "checked": calls["checked"], "rows": len(cli._table(d)["nodes"])}


# (what is counted, family, key, sizes); the first five count `Context` slots read
LINEAR_ROWS = [
    ("`principal_of`: `Context` slots read by `Context.__hash__` and `__eq__`", "context_chain(k)", "hashed",
     (32, 64, 128)),
    ("`verify`: `Context` slots read by `_extends`", "context_chain(k)", "extends", (32, 64, 128)),
    ("`cli._table`: `Context` slots read while writing", "context_chain(k)", "table", (32, 64, 128)),
    ("`cli._from_table`: `Context` slots read while reading", "context_chain(k)", "copied", (32, 64, 128)),
    ("`verify`: `Context` slots read by `_extends`", "nested_pi(n)", "extends", (50, 100, 200)),
    ("`principal_of`: node objects built", "spine(n)", "objects", (16, 32, 64, 128)),
    ("`verify`: `_check_node` calls", "spine(n)", "checked", (16, 32, 64, 128)),
    ("`cli._table`: node rows", "spine(n)", "rows", (16, 32, 64, 128)),
]
# still quadratic, with no assertion: `lookup` and the C rule's freshness test
# walk the whole context, and the chain has an entry of each length
QUADRATIC_ROWS = [
    ("`principal_of` and `verify`: `Context` slots read by `lookup` and the kernel's rule checks",
     "context_chain(k)", "lookup", (32, 64, 128)),
]
COST_ROWS = LINEAR_ROWS + QUADRATIC_ROWS


def cost_rows(rows=COST_ROWS) -> list[tuple[str, str, tuple[int, ...], list[int]]]:
    family = {"context_chain(k)": _chain_counts, "nested_pi(n)": _pi_counts, "spine(n)": _spine_counts}
    return [(what, fam, sizes, [family[fam](size)[key] for size in sizes]) for what, fam, key, sizes in rows]


@pytest.mark.parametrize("row", LINEAR_ROWS, ids=[f"{fam}-{key}" for _, fam, key, _ in LINEAR_ROWS])
def test_cost_row_grows_linearly(row):
    # each walk stops at the first object it has already seen: an entry
    # shared with a context met before costs one read, not a walk; a spine
    # argument adds a fixed number of nodes
    what, fam, key, sizes = row
    [(_, _, _, (small, big))] = cost_rows([(what, fam, key, sizes[-2:])])
    assert 0 < big <= 2.2 * small, (small, big)


def test_cost_rows_count_something_at_small_sizes():
    for _, _, _, counts in cost_rows([(what, fam, key, (2, 4)) for what, fam, key, _ in COST_ROWS]):
        assert all(type(count) is int and count > 0 for count in counts)


if __name__ == "__main__":
    sys.setrecursionlimit(10_000)
    print("| counter | input | sizes | counts | exponent per doubling |")
    print("| --- | --- | --- | --- | --- |")
    for what, fam, sizes, counts in cost_rows():
        exponents = " / ".join(f"{math.log2(b / a):.2f}" for a, b in zip(counts, counts[1:]))
        print(f"| {what} | `{fam}` | {' / '.join(map(str, sizes))} | {' / '.join(f'{c:,}' for c in counts)} | {exponents} |")
