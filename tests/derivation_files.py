"""Helpers for tests that read and edit derivation files.

`save_derivation` writes the one derivation file format, a table:
`terms` rows, each a constructor over earlier term rows
(`["Pi", "x", 3, 7]`), `contexts` rows `[parent, name, term]` (context
k + 1 for row k, context 0 empty) and `nodes` rows
`[rule, ctx, term, type, premises, side]` in post-order, the root last.
The tree form and tables with surface-text term rows, which earlier
versions wrote, are rejected, as the older nested form is.
"""

import json

from ecckernel.cli import save_derivation

RULE, CTX, TERM, TYPE, PREMISES, SIDE = range(6)


def saved(d, path) -> dict:
    """The table `save_derivation` writes for d, read back as JSON."""
    save_derivation(d, str(path))
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def repeated_references(table: dict) -> int:
    """Premise numbers that name a node row an earlier premise already named."""
    premises = [p for row in table["nodes"] for p in row[PREMISES]]
    return len(premises) - len(set(premises))


def first_paths(table: dict) -> dict[int, str]:
    """Each node row's first path from the root in pre-order, the path `verify` reports."""
    rows, paths = table["nodes"], {}
    stack = [(len(rows) - 1, "root")]
    while stack:
        number, path = stack.pop()
        if number not in paths:
            paths[number] = path
            premises = rows[number][PREMISES]
            stack.extend((p, f"{path}.{i}") for i, p in reversed(list(enumerate(premises))))
    return paths


def slots(obj) -> list[tuple]:
    """Every (container, key) slot below obj, each list item and dict value, in a fixed order."""
    found, stack = [], [obj]
    while stack:
        container = stack.pop()
        keys = container.keys() if isinstance(container, dict) else range(len(container))
        for key in reversed(list(keys)):
            found.append((container, key))
            if isinstance(container[key], (dict, list)):
                stack.append(container[key])
    return found
