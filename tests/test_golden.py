"""CLI outputs on the typed corpus, pinned in `golden_cli.json`.

For each `typed_corpus()` item the file holds the `ecc infer` stdout, the
`ecc nf` stdout, the sha256 of the derivation file `ecc elab` writes
(through `save_derivation`) and the fuel `principal_of` spends. A change
to the term representation or to the builder must leave all four as
they are. The file was recorded from the two-pass elaborator, before
`to_full` expanded inference traces directly. Regenerate it, only when an
output is meant to change, with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_cli.json
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

from ecckernel import DEFAULT_FUEL, Fuel, principal_of, print_term
from ecckernel.cli import EXIT_OK, run_command

from corpus import typed_corpus

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(argv) == EXIT_OK
    return out.getvalue()


def records(workdir: pathlib.Path) -> list[dict]:
    found = []
    for i, (g, m) in enumerate(typed_corpus()):
        ctx, term, out = (workdir / f"item{i}.{ext}" for ext in ("ctx", "ecc", "json"))
        ctx.write_text("".join(f"{name} : {print_term(ty)}\n" for name, ty in g), encoding="utf-8")
        term.write_text(print_term(m), encoding="utf-8")
        _stdout(["elab", "--ctx", str(ctx), str(term), "--out", str(out)])
        fuel = Fuel(DEFAULT_FUEL)
        principal_of(g, m, fuel)
        found.append({
            "subject": print_term(m),
            "infer": _stdout(["infer", "--ctx", str(ctx), str(term)]),
            "nf": _stdout(["nf", str(term)]),
            "elab_sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
            "principal_of_fuel": DEFAULT_FUEL - fuel.remaining,
        })
    return found


def test_cli_outputs_match_the_golden_file(tmp_path):
    assert records(tmp_path) == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        json.dump(records(pathlib.Path(workdir)), sys.stdout, indent=1)
    print()
