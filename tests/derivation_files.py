"""Helpers for tests that read and edit derivation files.

`save_derivation` writes the table form: `terms` rows, each a constructor
over earlier term rows (`["Pi", "x", 3, 7]`), `contexts` rows
`[parent, name, term]` (context k + 1 for row k, context 0 empty) and
`nodes` rows `[rule, ctx, term, type, premises, side]` in post-order,
the root last. `derivation_to_dict` gives the tree form.
"""

import json

from ecckernel import parse_term, print_term
from ecckernel.cli import save_derivation
from ecckernel.terms import BINDERS, SHAPES

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


def term_texts(rows: list) -> list[str]:
    """Each term row printed in surface syntax; a string row is surface text already."""
    constructors = {cls.__name__: cls for cls in SHAPES}
    built = []
    for row in rows:
        if isinstance(row, str):
            built.append(parse_term(row))
            continue
        cls, cells = constructors[row[0]], row[1:]
        if cls in BINDERS:
            built.append(cls(cells[0], built[cells[1]], built[cells[2]]))
        elif SHAPES[cls]:
            built.append(cls(*[built[k] for k in cells]))
        else:  # Var, Prop, Type: the cells are the fields
            built.append(cls(*cells))
    return [print_term(t) for t in built]


def as_text_table(table: dict) -> dict:
    """The same table as older versions wrote it: one surface-text term row
    per term a context or node row names, so no row is left unnamed."""
    texts = term_texts(table["terms"])
    named = sorted({row[2] for row in table["contexts"]} | {
        k for row in table["nodes"]
        for k in (row[TERM], row[TYPE], *(v for key, v in row[SIDE].items() if key != "level"))
    })
    number = {old: new for new, old in enumerate(named)}
    return {
        "terms": [texts[k] for k in named],
        "contexts": [[parent, name, number[k]] for parent, name, k in table["contexts"]],
        "nodes": [
            [rule, ctx, number[subject], number[ty], premises,
             {key: v if key == "level" else number[v] for key, v in side.items()}]
            for rule, ctx, subject, ty, premises, side in table["nodes"]
        ],
    }


def as_tree(table: dict) -> dict:
    """The same derivation in the tree form, each node row written out wherever it is used."""
    terms = term_texts(table["terms"])
    contexts = [[]]
    for parent, name, entry_ty in table["contexts"]:
        contexts.append(contexts[parent] + [{"name": name, "type": terms[entry_ty]}])
    trees = []
    for rule, ctx, subject, ty, premises, side in table["nodes"]:
        trees.append({
            "rule": rule,
            "ctx": contexts[ctx],
            "term": terms[subject],
            "type": terms[ty],
            "side": {k: v if k == "level" else terms[v] for k, v in side.items()},
            "premises": [trees[p] for p in premises],
        })
    return json.loads(json.dumps(trees[-1]))  # no dict shared between two places


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
