"""Answers and fuel of the four deciders, pinned in `golden_decide.json`.

`subtype`, `strict_subtype`, `min_subtype_level` and `conv` run on fixed
inputs at budgets 1 to 8, 30 and 10,000, each call on a fresh `Fuel`:

- `genterms` pairs from seed 1, a normal type `a` strictly below `b`,
  with `lo` and `hi` their expansions, as (lo, hi), (hi, lo), (lo, a) and
  (a, hi);
- consecutive stages of `descending_chain(16)`, both ways;
- the divergent terms of `test_sharing._loops` against themselves, a
  fresh copy and Prop, and two self-applications that differ only in a
  binder annotation, both ways.

Per decider and budget the file keeps a digest of every call's answer
(or "exhausted") and `Fuel.remaining`, in input order, beside a readable
tally: answers by value, exhaustions and the total fuel left. So the fuel
a decision spends is pinned exactly, not only bounded. The file was
recorded before conversion and the cumulativity preorder were decided by
one walk on an explicit stack. That code raised `RecursionError` on some
calls at budget 10,000; those calls are listed under "left_out" and not
run. Regenerate the file, only when an answer or a fuel count is meant to
change, with

    PYTHONPATH=src python tests/test_golden_decide.py > tests/golden_decide.json
"""

import collections
import hashlib
import json
import pathlib
import random
import sys

from ecckernel import (
    PROP,
    Fuel,
    FuelExhausted,
    conv,
    descending_chain,
    min_subtype_level,
    parse_term,
    strict_subtype,
    subtype,
)

from genterms import expand, normal_type, strict_above
from test_sharing import _loops

GOLDEN = pathlib.Path(__file__).with_name("golden_decide.json")
DECIDERS = {f.__name__: f for f in (subtype, strict_subtype, min_subtype_level, conv)}
BUDGETS = (*range(1, 9), 30, 10_000)
NOTE = (
    "left_out: the calls [decider, budget, input index] on which the code this file was recorded with raised "
    "RecursionError; they are not run. tallies: per decider and budget, a digest of every other call's "
    "[answer or 'exhausted', Fuel.remaining] in input order, and their tally."
)
ANNOTATED = "(fn y : {0} . Sig x : Type0 . y y) (fn y : {0} . Sig x : Type0 . y y)"


def inputs() -> list:
    """The operand pairs, fresh objects per call, in a fixed order."""
    rng = random.Random(1)
    pairs = []
    for depth in range(6):
        for _ in range(10):
            a = normal_type(rng, depth)
            b = strict_above(rng, a)
            if b is not None:
                lo, hi = expand(rng, a), expand(rng, b)
                pairs += [(lo, hi), (hi, lo), (lo, a), (a, hi)]
    chain = descending_chain(16)
    pairs += [pair for i in range(15) for pair in ((chain[i + 1], chain[i]), (chain[i], chain[i + 1]))]
    copies = _loops()
    for name, loop in _loops().items():
        pairs += [(loop, loop), (loop, copies[name]), (loop, PROP), (PROP, loop)]
    low, high = (parse_term(ANNOTATED.format(u)) for u in ("Type0", "Type1"))
    return pairs + [(low, high), (high, low)]


def _call(decide, a, b, budget: int) -> list:
    f = Fuel(budget)
    try:
        answer = decide(a, b, f)
    except FuelExhausted:
        answer = "exhausted"
    return [answer, f.remaining]


def tallies(left_out: set) -> dict:
    """Digest and tally per decider and budget, skipping the (name, budget, index) calls in left_out."""
    pairs = inputs()
    found = {}
    for name, decide in DECIDERS.items():
        for budget in BUDGETS:
            calls = [_call(decide, a, b, budget) for i, (a, b) in enumerate(pairs) if (name, budget, i) not in left_out]
            answers = collections.Counter(json.dumps(answer) for answer, _ in calls if answer != "exhausted")
            found[f"{name} {budget}"] = {
                "digest": hashlib.sha256(json.dumps(calls).encode()).hexdigest()[:16],
                "calls": len(calls),
                "answers": dict(sorted(answers.items())),
                "exhausted": sum(answer == "exhausted" for answer, _ in calls),
                "remaining": sum(remaining for _, remaining in calls),
            }
    return found


def test_decisions_and_fuel_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert tallies({tuple(call) for call in golden["left_out"]}) == golden["tallies"]


def _record() -> dict:
    left_out = []
    for i, (a, b) in enumerate(inputs()):
        for name, decide in DECIDERS.items():
            for budget in BUDGETS:
                try:
                    _call(decide, a, b, budget)
                except RecursionError:
                    left_out.append([name, budget, i])
    return {"left_out": left_out, "tallies": tallies({tuple(call) for call in left_out})}


if __name__ == "__main__":
    record = _record()
    # one tally a line keeps the file small and its diffs readable
    lines = [f"    {json.dumps(key)}: {json.dumps(value)}" for key, value in record["tallies"].items()]
    sys.stdout.write(
        '{\n  "note": ' + json.dumps(NOTE) + ',\n  "left_out": ' + json.dumps(record["left_out"])
        + ',\n  "tallies": {\n' + ",\n".join(lines) + "\n  }\n}\n"
    )
