"""Cost as a counted function of input size.

Deterministic counters, not wall time: `counting` wraps functions in place
for one block and adds up a weight per call, so a test can pin how a count
grows when its input doubles. A family that is linear gets an assertion.
The rows that are still superlinear have none yet; run this file as a
script (`PYTHONPATH=src python tests/test_scaling.py`) to print them as the
README's "Cost" table does.
"""

import collections
import contextlib
import dataclasses
import math
import os
import sys
import tempfile

from ecckernel import Context, Judgment, alpha_eq, parse_term, principal_of, verify
from ecckernel import kernel, terms
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


def _extends_visits(a: Context, b: Context, extra: int) -> int:
    # the entries kernel._extends compares one by one
    return len(b.entries) if a is not b and len(a.entries) == len(b.entries) + extra else 0


def nested_pi(n: int):
    """`Pi x0 : Prop . ... Pi x(n-1) : Prop . Prop`."""
    return parse_term("".join(f"Pi x{i} : Prop . " for i in range(n)) + "Prop")


def _nodes(d) -> list:
    seen, stack = {}, [d]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.premises)
    return list(seen.values())


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


def _chain_counts(k: int) -> dict[str, int]:
    g, m = context_chain(k)
    with counting(hashed=(Context, "__hash__", lambda ctx: len(ctx.entries))) as built:
        _, d = principal_of(g, m)
    with counting(extends=(kernel, "_extends", _extends_visits)) as checked:
        verify(d)
    # cli._table walks the entries of each distinct context object once
    contexts = {id(node.conclusion.ctx): node.conclusion.ctx for node in _nodes(d)}
    written = sum(len(ctx.entries) for ctx in contexts.values())
    # cli._from_table builds each context row with Context.extend, which copies the parent's entries
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.json")
        save_derivation(d, path)
        with counting(copied=(Context, "extend", lambda ctx, name, ty: len(ctx) + 1)) as read:
            load_derivation(path)
    return {"hashed": built["hashed"], "extends": checked["extends"], "table": written, "copied": read["copied"]}


def _pi_counts(n: int) -> dict[str, int]:
    _, d = principal_of(Context(), nested_pi(n))
    with counting(extends=(kernel, "_extends", _extends_visits)) as checked:
        verify(d)
    return {"extends": checked["extends"]}


# the rows that are still superlinear: (what is counted, family, key, sizes)
COST_ROWS = [
    ("`principal_of`: context entries hashed (`Context.__hash__`)", "context_chain(k)", "hashed", (32, 64, 128)),
    ("`verify`: context entries `_extends` compares", "context_chain(k)", "extends", (32, 64, 128)),
    ("`cli._table`: context entries visited", "context_chain(k)", "table", (32, 64, 128)),
    ("`cli._from_table`: context entries copied", "context_chain(k)", "copied", (32, 64, 128)),
    ("`verify`: context entries `_extends` compares", "nested_pi(n)", "extends", (50, 100, 200)),
]


def cost_rows(rows=COST_ROWS) -> list[tuple[str, str, tuple[int, ...], list[int]]]:
    family = {"context_chain(k)": _chain_counts, "nested_pi(n)": _pi_counts}
    return [(what, fam, sizes, [family[fam](size)[key] for size in sizes]) for what, fam, key, sizes in rows]


def test_cost_rows_count_something_at_small_sizes():
    # no growth assertion: these rows wait for the change that makes them linear
    for _, _, _, counts in cost_rows([(what, fam, key, (2, 4)) for what, fam, key, _ in COST_ROWS]):
        assert all(type(count) is int and count > 0 for count in counts)


if __name__ == "__main__":
    sys.setrecursionlimit(10_000)
    print("| counter | input | sizes | counts | exponent per doubling |")
    print("| --- | --- | --- | --- | --- |")
    for what, fam, sizes, counts in cost_rows():
        exponents = " / ".join(f"{math.log2(b / a):.2f}" for a, b in zip(counts, counts[1:]))
        print(f"| {what} | `{fam}` | {' / '.join(map(str, sizes))} | {' / '.join(f'{c:,}' for c in counts)} | {exponents} |")
