"""Kernel verdicts on single-node mutants, pinned in `golden_verify.json`.

For each `typed_corpus()` item, every node of its `principal_of`
derivation that is distinct by value is taken at its first path in
pre-order, and each of `test_kernel._mutations`'s mutants of it is put
at that path in a copy that rebuilds only the nodes on the path. The
file holds `verify`'s outcome on each copy: null when it is accepted,
else the failing node's path and the reason. A change to how the kernel
checks a node must leave every outcome as it is. The file was recorded
before `verify`'s per-node checks were rewritten as inline clauses.
Regenerate it, only when a verdict is meant to change, with

    PYTHONPATH=src python tests/test_golden_verify.py > tests/golden_verify.json
"""

import json
import pathlib
import sys

from ecckernel import Derivation, DerivationError, principal_of, print_term, verify

from corpus import typed_corpus
from test_kernel import _mutations

GOLDEN = pathlib.Path(__file__).with_name("golden_verify.json")


def _first_paths(d: Derivation) -> list[tuple[tuple[int, ...], Derivation]]:
    # pre-order, skipping node objects already reached: each object is
    # reached first at its first path, and equal objects keep the first
    seen, found, stack = set(), {}, [((), d)]
    while stack:
        path, node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            found.setdefault(node, path)
            stack.extend((path + (i,), p) for i, p in reversed(list(enumerate(node.premises))))
    return [(path, node) for node, path in found.items()]


def _put(d: Derivation, path: tuple[int, ...], new: Derivation) -> Derivation:
    if not path:
        return new
    i, ps = path[0], d.premises
    changed = ps[:i] + (_put(ps[i], path[1:], new),) + ps[i + 1 :]
    return Derivation(d.rule, d.conclusion, changed, d.level, d.sub, d.sup)


def _outcome(d: Derivation) -> list[str] | None:
    try:
        verify(d)
    except DerivationError as e:
        return [e.path, e.reason]
    return None


def records() -> list[dict]:
    found = []
    for g, m in typed_corpus():
        _, d = principal_of(g, m)
        outcomes = []
        for path, node in _first_paths(d):
            name = ".".join(("root", *map(str, path)))
            outcomes.append([name, [_outcome(_put(d, path, mutant)) for mutant in _mutations(node)]])
        found.append({"subject": print_term(m), "outcomes": outcomes})
    return found


def test_verify_outcomes_match_the_golden_file():
    assert records() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    # one corpus item a line keeps the file small and its diffs readable
    lines = [json.dumps(item, separators=(",", ":")) for item in records()]
    sys.stdout.write("[\n" + ",\n".join(lines) + "\n]\n")
