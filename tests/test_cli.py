import collections
import copy
import functools
import json
import operator
import os
import pathlib
import subprocess
import sys

import pytest

from ecckernel import (
    PROP,
    App,
    Context,
    Derivation,
    DerivationError,
    FuelExhausted,
    Judgment,
    Pi,
    Proj1,
    Type,
    Var,
    alpha_eq,
    parse_context,
    parse_term,
    principal_of,
    print_term,
    type_typing,
    verify,
)
from ecckernel import cli, kernel
from ecckernel.terms import SHAPES
from ecckernel.cli import (
    EXIT_FALSE,
    EXIT_FUEL,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REJECTED,
    EXIT_TYPE_ERROR,
    TERM_SIZE_LIMIT,
    derivation_from_dict,
    load_derivation,
    run_command,
    save_derivation,
)

from corpus import context_chain, typed_corpus
from derivation_files import (
    CTX, PREMISES, RULE, SIDE, TERM, TYPE, first_paths, repeated_references, saved,
)


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def test_infer_prints_principal_type(write, capsys):
    term = write("t.ecc", "fn x : Prop . x")
    assert run_command(["infer", term]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "Pi x : Prop . Prop"


def test_infer_with_context(write, capsys):
    ctx = write("ctx.ecc", "f : Pi x : Type1 . Prop")
    term = write("t.ecc", "f Prop")
    assert run_command(["infer", "--ctx", ctx, term]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "Prop"


def test_infer_type_error_exit(write, capsys):
    term = write("t.ecc", "Prop Prop")
    assert run_command(["infer", term]) == EXIT_TYPE_ERROR


def test_infer_parse_error_exit(write, capsys):
    term = write("t.ecc", "Pi x Prop")
    assert run_command(["infer", term]) == EXIT_PARSE
    # an error in a context file names its line in that file
    ctx = write("bad.ctx", "A : Type0\nx : (A")
    capsys.readouterr()
    assert run_command(["infer", "--ctx", ctx, write("a.ecc", "A")]) == EXIT_PARSE
    assert "line 2" in capsys.readouterr().err


def test_check_true_false(write, capsys):
    term = write("t.ecc", "Prop")
    good = write("ty.ecc", "Type5")
    bad_term = write("t2.ecc", "Type1")
    low = write("ty2.ecc", "Type0")
    assert run_command(["check", term, good]) == EXIT_OK
    assert run_command(["check", bad_term, low]) == EXIT_FALSE
    out = capsys.readouterr().out.splitlines()
    assert out == ["true", "false"]


def test_nf_and_whnf(write, capsys):
    term = write("t.ecc", "(fn x : Prop . x) Prop")
    assert run_command(["nf", term]) == EXIT_OK
    assert run_command(["whnf", term]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["Prop", "Prop"]


def test_nf_fuel_exhaustion_exit(write):
    loop = "(fn y : Type0 . Sig x : Type0 . y y) (fn y : Type0 . Sig x : Type0 . y y)"
    term = write("loop.ecc", loop)
    assert run_command(["nf", term]) == EXIT_FUEL


def test_sub_and_minlevel_fuel_exhaustion_exit(write, capsys):
    # two loops that differ in a binder annotation: the fuel runs out, not
    # the interpreter stack, so the exit is 3 and not 6
    loop = "(fn y : {0} . Sig x : Type0 . y y) (fn y : {0} . Sig x : Type0 . y y)"
    a, b = write("a.ecc", loop.format("Type0")), write("b.ecc", loop.format("Type1"))
    for args in (["sub", a, b], ["sub", a, b, "--strict"], ["sub", a, b, "--level", "1"], ["minlevel", a, b]):
        assert run_command(args) == EXIT_FUEL, args
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("fuel exhausted:"), (args, out, err)


def test_fuel_flag_and_env(write, monkeypatch):
    term = write("t.ecc", "(fn x : Prop . x) ((fn x : Prop . x) Prop)")
    assert run_command(["nf", term, "--fuel", "1"]) == EXIT_FUEL
    assert run_command(["nf", term, "--fuel", "2"]) == EXIT_OK
    monkeypatch.setenv("ECC_FUEL", "1")
    assert run_command(["nf", term]) == EXIT_FUEL
    # the flag wins over the environment
    assert run_command(["nf", term, "--fuel", "10"]) == EXIT_OK


def test_fuel_exhausted_in_verify_names_the_node_path_and_rule(tmp_path, capsys):
    # a hand-built Cum at root.1 whose target takes two contractions to reach
    # Type1; no other node of the derivation spends fuel
    target = parse_term("(fn a : Type2 . a) ((fn b : Type2 . b) Type1)")
    g = Context.of(("f", Pi("x", target, PROP)))
    lift = Derivation("Cum", Judgment(g, PROP, target),
                      (type_typing(g, PROP), type_typing(g, target)), sub=Type(0), sup=target)
    d = Derivation("App", Judgment(g, App(Var("f"), PROP), PROP), (principal_of(g, Var("f"))[1], lift))
    path = str(tmp_path / "d.json")
    save_derivation(d, path)
    assert run_command(["verify", path, "--fuel", "2"]) == EXIT_OK
    assert run_command(["verify", path, "--fuel", "1"]) == EXIT_FUEL
    err = capsys.readouterr().err
    assert err == "fuel exhausted: reduction step budget exhausted at root.1 (Cum)\n"
    with pytest.raises(FuelExhausted, match=r" at root\.1 \(Cum\)$"):
        verify(d, 1)


def test_sub_relations(write, capsys):
    c = write("c.ecc", "Sig x : (Sig y : Prop . Prop) . Prop")
    a = write("a.ecc", "Sig x : (Sig y : Prop . Type0) . Prop")
    assert run_command(["sub", c, a]) == EXIT_OK
    assert run_command(["sub", c, a, "--level", "1"]) == EXIT_FALSE
    assert run_command(["sub", c, a, "--level", "2"]) == EXIT_OK
    assert run_command(["sub", c, a, "--strict"]) == EXIT_OK
    assert run_command(["sub", a, c]) == EXIT_FALSE
    assert run_command(["sub", c, c, "--strict"]) == EXIT_FALSE
    out = capsys.readouterr().out.splitlines()
    assert out == ["true", "false", "true", "true", "false", "false"]


def test_sub_strict_at_level(write, capsys):
    a = write("a.ecc", "Sig x : (Sig y : Prop . Type0) . Prop")
    b = write("b.ecc", "Sig x : (Sig y : Prop . Type0) . Type0")
    assert run_command(["sub", a, b, "--level", "1", "--strict"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "true"


def test_minlevel(write, capsys):
    c = write("c.ecc", "Sig x : (Sig y : Prop . Prop) . Prop")
    a = write("a.ecc", "Sig x : (Sig y : Prop . Type0) . Prop")
    assert run_command(["minlevel", c, a]) == EXIT_OK
    assert run_command(["minlevel", a, c]) == EXIT_FALSE
    assert capsys.readouterr().out.splitlines() == ["2", "none"]


def test_phi_and_classify(write, capsys):
    prop = write("p.ecc", "Prop")
    c = write("c.ecc", "Sig x : (Sig y : Prop . Prop) . Prop")
    assert run_command(["phi", prop]) == EXIT_OK
    assert run_command(["phi", c]) == EXIT_OK
    assert run_command(["classify", c]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == ["2", "8", "Sigma level=2 measure=8"]


def test_elab_verify_round_trip(write, tmp_path, capsys):
    ctx = write("ctx.ecc", "f : Pi x : Type1 . Prop")
    term = write("t.ecc", "f Prop")
    out_path = str(tmp_path / "derivation.json")
    assert run_command(["elab", "--ctx", ctx, term, "--out", out_path]) == EXIT_OK
    assert run_command(["verify", out_path]) == EXIT_OK
    capsys.readouterr()

    derivation = load_derivation(out_path)
    assert verify(derivation)
    # serialization round-trips exactly
    assert derivation_from_dict(saved(derivation, tmp_path / "again.json")) == derivation


# a bad context file and the exit it gives alone: a repeated name, and an entry
# typed at a redex that takes two contractions, under one unit of fuel
_BAD_CONTEXT_FILES = [
    ("x : Prop\nx : Prop", EXIT_TYPE_ERROR), ("K : (fn Y : Type1 . fn Z : Type1 . Y) Type0 Prop\nk : K", EXIT_FUEL),
]


@pytest.mark.parametrize("ctx_text, ctx_exit", _BAD_CONTEXT_FILES, ids=["repeated-name", "fuel"])
@pytest.mark.parametrize("term_text, term_exit", [("Prop )", EXIT_PARSE), (None, EXIT_INPUT)], ids=["parse", "missing"])
def test_elab_reports_the_term_files_error_before_the_contexts(write, tmp_path, capsys, ctx_text, ctx_exit, term_text, term_exit):
    # elab reads both files before principal_of checks the context; infer and
    # check still check it before they read the term file
    ctx, good = write("ctx.ecc", ctx_text), write("good.ecc", "Prop")
    term = str(tmp_path / "missing.ecc") if term_text is None else write("bad.ecc", term_text)
    out = tmp_path / "d.json"
    fuel = ["--fuel", "1"]
    assert run_command([*fuel, "elab", "--ctx", ctx, good, "--out", str(out)]) == ctx_exit
    assert run_command([*fuel, "elab", term, "--out", str(out)]) == term_exit
    assert run_command([*fuel, "elab", "--ctx", ctx, term, "--out", str(out)]) == term_exit
    assert run_command([*fuel, "infer", "--ctx", ctx, term]) == ctx_exit
    assert run_command([*fuel, "check", "--ctx", ctx, term, good]) == ctx_exit
    assert not out.exists()
    capsys.readouterr()


def test_verify_rejects_tampered_rule(write, tmp_path, capsys):
    term = write("t.ecc", "fn x : Prop . x")
    out_path = str(tmp_path / "d.json")
    assert run_command(["elab", term, "--out", out_path]) == EXIT_OK
    obj = json.loads(pathlib.Path(out_path).read_text())
    obj["nodes"][-1][RULE] = "App"  # the root
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    assert run_command(["verify", str(tmp_path / "bad.json")]) == EXIT_REJECTED


def test_verify_rejects_malformed_json(write, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{\"rule\": \"Ax\"")
    assert run_command(["verify", str(path)]) == EXIT_REJECTED
    path.write_text("{\"rule\": \"Ax\"}")
    assert run_command(["verify", str(path)]) == EXIT_REJECTED


def test_demo_prop2_output(capsys):
    assert run_command(["demo", "prop2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cumLe(C, A) = true" in out
    assert "cumLeAtLevel(A, B, 1) = true (strict: cumLt(A, B) = true)" in out
    assert "cumLeAtLevel(C, A, 1) = false" in out
    assert "minLevel(C, A) = 2" in out


def test_demo_prop3_output(capsys):
    assert run_command(["demo", "prop3", "--steps", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    terms = [line.split(" = ", 1)[1] for line in out.splitlines() if line.startswith("A")]
    assert len(terms) == 4
    first = parse_term(terms[0])
    second = parse_term(terms[1])
    assert alpha_eq(first, parse_term("Sig x : Type0 . (fn y : Type0 . Sig x : Type0 . y y) (fn y : Type0 . Sig x : Type0 . y y)"))
    assert alpha_eq(second, parse_term("Sig x : Prop . (fn y : Type0 . Sig x : Type0 . y y) (fn y : Type0 . Sig x : Type0 . y y)"))
    assert out.count("cumLt(") == 3
    assert "= false" not in out
    assert "fuel exhausted" in out


def _verify_exit(tmp_path, obj) -> int:
    path = tmp_path / "d.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return run_command(["verify", str(path)])


def _validity_chain(g: Context) -> Derivation:
    # Ax/C chain for g: a Prop entry is typed by the chain itself, any
    # other entry at Type 0 by a var node, whether or not it is well formed
    if not g:
        return Derivation("Ax", Judgment(g, PROP, Type(0)))
    front, entry_ty = g.parent, g.type
    if entry_ty == PROP:
        typing = _validity_chain(front)
    else:
        typing = Derivation("var", Judgment(front, entry_ty, Type(0)), (_validity_chain(front),))
    return Derivation("C", Judgment(g, PROP, Type(0)), (typing,))


@pytest.mark.parametrize(
    "ctx, message",
    [
        (Context.of(("x", Var("zz"))), "root.0.0: var not bound in the context"),
        (Context.of(("x", PROP), ("x", PROP)), "root.0: C entry name must be fresh"),
        # the root types x at its last entry, and var reads the first
        (Context.of(("x", PROP), ("x", Type(0))), "root: var type must match its context entry"),
    ],
    ids=["unbound-entry", "duplicate-name", "duplicate-name-other-type"],
)
def test_verify_rejects_ill_formed_contexts(tmp_path, capsys, ctx, message):
    root = Derivation("var", Judgment(ctx, Var(ctx.name), ctx.type), (_validity_chain(ctx),))
    assert _verify_exit(tmp_path, saved(root, tmp_path / "d.json")) == EXIT_REJECTED
    assert capsys.readouterr().err == f"rejected: {message}\n"


DROP = object()


@pytest.mark.parametrize(
    "where, new",
    # the ids name the field of the tree form that each case once edited
    [
        pytest.param(("nodes", -1, SIDE, "level"), True, id='"level": 1-"level": true'),
        pytest.param(("nodes", -1, SIDE, "level"), 1.0, id='"level": 1-"level": 1.0'),
        pytest.param(("nodes", -1, SIDE, "level"), "1", id='"level": 1-"level": "1"'),
        pytest.param(("nodes", -1, RULE), ["T"], id='"rule": "T"-"rule": ["T"]'),
        pytest.param(("terms", 2), 5, id='"term": "Type1"-"term": 5'),
        pytest.param(("nodes", -1, TYPE), [3], id='"type": "Type2"-"type": ["Type2"]'),
        pytest.param(("contexts", 0, 1), 7, id='"name": "A"-"name": 7'),
        pytest.param(("contexts", 0, 2), "Type0", id='"name": "A", "type": "Type0"-"name": "A", "type": 0'),
        pytest.param(("nodes", 0, CTX), "", id='"ctx": []-"ctx": ""'),
        pytest.param(("nodes", 0, PREMISES), "", id='"premises": []-"premises": ""'),
        pytest.param(("nodes", 0, PREMISES), {}, id='"premises": []-"premises": {}'),
        pytest.param(("nodes", 0, SIDE), [], id='"side": {}-"side": []'),
        pytest.param(("nodes", 0, SIDE), {"lvl": 1}, id='"side": {}-"side": {"lvl": 1}'),
        pytest.param(("nodes", -1, TERM), "Type1", id="term-number-as-text"),
        pytest.param(("nodes", -1, TERM), 2.0, id="term-number-as-float"),
        pytest.param(("nodes", -1, SIDE, "sub"), "Type1", id="side-sub-as-text"),
        pytest.param(("terms",), "Prop", id="terms-not-a-list"),
        pytest.param(("contexts",), {}, id="contexts-not-a-list"),
        pytest.param(("contexts", 0), "A", id="context-row-not-a-list"),
        pytest.param(("contexts", 0, 2), DROP, id="context-row-of-two-cells"),
        pytest.param(("nodes", 0), "Ax", id="node-row-not-a-list"),
        pytest.param(("nodes", -1, SIDE), DROP, id="node-row-of-five-cells"),
        pytest.param(("nodes",), [], id="no-node-rows"),
        pytest.param(("nodes",), DROP, id="no-nodes-table"),
    ],
)
def test_verify_rejects_ill_typed_fields(write, tmp_path, capsys, where, new):
    # T over a one-entry context: the root, at level 1, is the last node
    # row; the Ax leaf, with no premises and an empty side, is the first
    ctx = write("ctx.ecc", "A : Type0")
    term = write("t.ecc", "Type1")
    out_path = tmp_path / "t.json"
    assert run_command(["elab", "--ctx", ctx, term, "--out", str(out_path)]) == EXIT_OK
    obj = json.loads(out_path.read_text(encoding="utf-8"))
    assert obj["terms"][2] == ["Type", 1] and obj["contexts"] == [[0, "A", 1]]
    assert obj["nodes"][0] == ["Ax", 0, 0, 1, [], {}] and obj["nodes"][-1][SIDE] == {"level": 1}
    assert _verify_exit(tmp_path, obj) == EXIT_OK
    *path, last = where
    holder = functools.reduce(operator.getitem, path, obj)
    if new is DROP:
        del holder[last]
    else:
        holder[last] = new
    capsys.readouterr()
    assert _verify_exit(tmp_path, obj) == EXIT_REJECTED
    assert capsys.readouterr().err.startswith("rejected: file: malformed derivation file")


@pytest.mark.parametrize(
    "where, new, message",
    [
        pytest.param(("nodes", -1, SIDE, "level"), None, "side level must be an int, got None", id="level-null"),
        pytest.param(("contexts",), None, "contexts must be a list, got None", id="contexts-null"),
    ],
)
def test_verify_names_the_kind_a_field_must_be(write, tmp_path, capsys, where, new, message):
    ctx = write("ctx.ecc", "A : Type0")
    term = write("t.ecc", "Type1")
    out_path = tmp_path / "t.json"
    assert run_command(["elab", "--ctx", ctx, term, "--out", str(out_path)]) == EXIT_OK
    obj = json.loads(out_path.read_text(encoding="utf-8"))
    *path, last = where
    functools.reduce(operator.getitem, path, obj)[last] = new
    capsys.readouterr()
    assert _verify_exit(tmp_path, obj) == EXIT_REJECTED
    assert capsys.readouterr().err == f"rejected: file: malformed derivation file: TypeError({message!r})\n"


def _python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60)


def _python_dash_m(*argv: str) -> subprocess.CompletedProcess:
    return _python("-m", "ecckernel", *argv)


def test_python_dash_m_runs_the_cli(write):
    done = _python_dash_m("infer", write("t.ecc", "fn x : Prop . x"))
    assert done.returncode == EXIT_OK
    assert done.stdout.strip() == "Pi x : Prop . Prop"
    done = _python_dash_m("infer", write("bad.ecc", "Pi x Prop"))
    assert done.returncode == EXIT_PARSE


@pytest.mark.parametrize(
    "command, text",
    [
        ("nf", "(fn y : Type0 . " + "".join(f"fn x{i} : Prop . " for i in range(450)) + "y) Prop"),
        ("infer", "".join(f"Pi x{i} : Prop . " for i in range(325)) + "Prop"),
        ("elab", "".join(f"Pi x{i} : Prop . " for i in range(325)) + "Prop"),
    ],
    ids=["nf-450-binder-redex", "infer-325-binder-pi", "elab-325-binder-pi"],
)
def test_deep_terms_under_the_recursion_limit_answer(write, tmp_path, command, text):
    # in a fresh interpreter, so the runner's own stack does not count;
    # about 500 and 330 binders exit 6, so an operation that takes more
    # interpreter frames per level fails here
    out = ("--out", str(tmp_path / "deep.json")) if command == "elab" else ()
    assert _python_dash_m(command, write("deep.ecc", text), *out).returncode == EXIT_OK


def test_a_demo_that_fails_prints_nothing_to_stdout():
    # the 1,500th stage of the chain is too deep to print under the default
    # recursion limit: the demo exits 6 without the lines it built before
    done = _python_dash_m("demo", "prop3", "--steps", "1500")
    assert done.returncode == EXIT_INPUT
    assert done.stdout == ""
    assert "recursion" in done.stderr


_RECURSION = "input or resource error: maximum recursion depth exceeded"
_UNDECODABLE = "'utf-8' codec can't decode byte 0xff"


@pytest.mark.parametrize(
    "argv, env, expected, message",
    [
        (["--fuel", "0", "verify", "{good}"], {}, EXIT_INPUT, "ecc: error: --fuel: must be at least 1, got 0\n"),
        (["--fuel", "5", "verify", "{good}"], {}, EXIT_OK, ""),
        (["--fuel", "0", "nf", "{term}"], {}, EXIT_INPUT, "ecc: error: --fuel: must be at least 1, got 0\n"),
        (["verify", "{good}"], {"ECC_FUEL": "abc"}, EXIT_INPUT,
         "ecc: error: ECC_FUEL: invalid literal for int() with base 10: 'abc'\n"),
        (["nf", "{missing}"], {}, EXIT_INPUT, "input or resource error: [Errno 2] No such file or directory: "),
        (["sub", "{deep_term}", "{term}"], {}, EXIT_INPUT, _RECURSION),
        (["verify", "{deep_json}"], {}, EXIT_INPUT, _RECURSION),
        (["sub", "{term}"], {}, EXIT_INPUT, "ecc: error: sub takes 2 arguments, got 1\n"),
        (["sub", "{term}", "{term}", "--level", "-1"], {}, EXIT_INPUT, "ecc: error: --level: must be at least 0, got -1\n"),
        (["demo", "prop3", "--steps", "0"], {}, EXIT_INPUT, "ecc: error: --steps: must be at least 1, got 0\n"),
        (["--help"], {}, EXIT_OK, ""),
        (["sub", "{undecodable}", "{term}"], {}, EXIT_INPUT, "input or resource error: " + _UNDECODABLE),
        (["verify", "{undecodable}"], {}, EXIT_REJECTED, "rejected: " + _UNDECODABLE),
        (["sub", "{term}", "{term}", "--strict=1"], {}, EXIT_INPUT, "ecc: error: --strict takes no value\n"),
    ],
    ids=[
        "fuel-0-verify",
        "fuel-5-verify",
        "fuel-0-nf",
        "env-fuel-abc",
        "missing-file",
        "deep-parens",
        "deep-json",
        "missing-argument",
        "negative-level",
        "zero-steps",
        "help",
        "undecodable-sub",
        "undecodable-verify",
        "flag-with-value",
    ],
)
def test_exit_codes_of_input_and_usage_errors(write, tmp_path, monkeypatch, capsys, argv, env, expected, message):
    # stderr starts with the message; an error prints nothing to stdout
    paths = {
        "term": write("t.ecc", "fn x : Prop . x"),
        "deep_term": write("deep.ecc", "(" * 1500 + "Prop" + ")" * 1500),
        "deep_json": write("deep.json", "[" * 3000 + "]" * 3000),
        "missing": str(tmp_path / "missing.ecc"),
        "good": str(tmp_path / "good.json"),
        "undecodable": str(tmp_path / "bin.ecc"),
    }
    (tmp_path / "bin.ecc").write_bytes(b"\xff\xfe\x00")
    assert run_command(["elab", paths["term"], "--out", paths["good"]]) == EXIT_OK
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    capsys.readouterr()
    assert run_command([arg.format(**paths) for arg in argv]) == expected
    out, err = capsys.readouterr()
    assert err.startswith(message)
    if expected != EXIT_OK:
        assert out == ""
    elif "verify" in argv:
        assert out == "accepted\n"


def test_saved_derivations_load_equal_by_value(tmp_path):
    path = tmp_path / "d.json"
    shared = 0
    for g, m in typed_corpus() + [context_chain(k) for k in (4, 8, 16, 32)]:
        _, d = principal_of(g, m)
        table = saved(d, path)
        loaded = load_derivation(str(path))
        assert loaded == d
        text = path.read_text(encoding="utf-8")
        assert text.count("\n") == 1  # compact: one line
        save_derivation(loaded, str(path))
        assert path.read_text(encoding="utf-8") == text  # saved again byte for byte
        # each term row, context row and node row is written once
        for name in ("terms", "contexts", "nodes"):
            rows = [json.dumps(row) for row in table[name]]
            assert len(set(rows)) == len(rows), name
        shared += repeated_references(table)
    assert shared > 0


def _bad_number(bad: str, ref: int, rows: int, own: int | None = None, later: int | None = None):
    # ref is the number written in the file, own the number of the row that holds it
    return {
        "out-of-range": rows,
        "negative": -1,
        "forward": later,
        "self": own,
        "true": True,
        "float": float(ref),
        "string": str(ref),
    }[bad]


# (cell, test id prefix): each bad kind and the message that rejects it. The file is
# `f Prop` in `f : Pi x : Type1 . Prop`, 8 term rows, 2 context rows and 11 node rows.
# A cell that names a row of another table cannot point forward or at its own row.
BAD_REFERENCES = {
    ("premise", ""): {
        "out-of-range": "premise 11 names no earlier row",
        "negative": "premise -1 names no earlier row",
        "forward": "premise 10 names no earlier row",
        "self": "premise 1 names no earlier row",
        "true": "premise True names no earlier row",
        "float": "premise 0.0 names no earlier row",
        "string": "premise '0' names no earlier row",
    },
    ("context parent", "context-parent-"): {
        "out-of-range": "context parent 3 names no earlier row",
        "negative": "context parent -1 names no earlier row",
        "forward": "context parent 2 names no earlier row",
        "self": "context parent 1 names no earlier row",
        "true": "context parent True names no earlier row",
        "float": "context parent 0.0 names no earlier row",
        "string": "context parent '0' names no earlier row",
    },
    ("context entry type", "context-entry-type-"): {
        "out-of-range": "ctx type 8 names no term row",
        "negative": "ctx type -1 names no term row",
        "true": "ctx type True names no term row",
        "float": "ctx type 2.0 names no term row",
        "string": "ctx type '2' names no term row",
    },
    ("node ctx", "node-ctx-"): {
        "out-of-range": "ctx 3 names no earlier row",
        "negative": "ctx -1 names no earlier row",
        "true": "ctx True names no earlier row",
        "float": "ctx 2.0 names no earlier row",
        "string": "ctx '2' names no earlier row",
    },
    ("term", "term-"): {
        "out-of-range": "term 8 names no term row",
        "negative": "term -1 names no term row",
        "true": "term True names no term row",
        "float": "term 7.0 names no term row",
        "string": "term '7' names no term row",
    },
    ("node type", "node-type-"): {
        "out-of-range": "type 8 names no term row",
        "negative": "type -1 names no term row",
        "true": "type True names no term row",
        "float": "type 0.0 names no term row",
        "string": "type '0' names no term row",
    },
    ("side sub", "side-sub-"): {
        "out-of-range": "side sub 8 names no earlier row",
        "negative": "side sub -1 names no earlier row",
        "true": "side sub True names no earlier row",
        "float": "side sub 1.0 names no earlier row",
        "string": "side sub '1' names no earlier row",
    },
    ("side sup", "side-sup-"): {
        "out-of-range": "side sup 8 names no earlier row",
        "negative": "side sup -1 names no earlier row",
        "true": "side sup True names no earlier row",
        "float": "side sup 3.0 names no earlier row",
        "string": "side sup '3' names no earlier row",
    },
    ("term row", "term-row-"): {
        "out-of-range": "term row 5 cell 8 names no earlier term row",
        "negative": "term row 5 cell -1 names no earlier term row",
        "forward": "term row 5 cell 7 names no earlier term row",
        "self": "term row 5 cell 5 names no earlier term row",
        "true": "term row 5 cell True names no earlier term row",
        "float": "term row 5 cell 2.0 names no earlier term row",
        "string": "term row 5 cell '2' names no earlier term row",
    },
}


@pytest.mark.parametrize(
    "where, bad, message",
    [
        pytest.param(where, bad, message, id=prefix + bad)
        for (where, prefix), messages in BAD_REFERENCES.items()
        for bad, message in messages.items()
    ],
)
def test_verify_rejects_bad_back_references(write, tmp_path, capsys, where, bad, message):
    ctx = write("ctx.ecc", "f : Pi x : Type1 . Prop")
    term = write("t.ecc", "f Prop")
    out_path = tmp_path / "elab.json"
    assert run_command(["elab", "--ctx", ctx, term, "--out", str(out_path)]) == EXIT_OK
    obj = json.loads(out_path.read_text(encoding="utf-8"))
    terms, contexts, nodes = obj["terms"], obj["contexts"], obj["nodes"]
    root = nodes[-1]
    if where == "premise":
        # the first row with a premise is not the root, so the root is a forward reference
        number = next(k for k, row in enumerate(nodes) if row[PREMISES])
        assert number < len(nodes) - 1
        premises = nodes[number][PREMISES]
        premises[0] = _bad_number(bad, premises[0], len(nodes), number, len(nodes) - 1)
    elif where == "context parent":
        # row 0 is context 1; context 2 comes later
        assert len(contexts) >= 2 and contexts[0][0] == 0
        contexts[0][0] = _bad_number(bad, 0, len(contexts) + 1, 1, 2)
    elif where == "context entry type":
        contexts[0][2] = _bad_number(bad, contexts[0][2], len(terms))
    elif where == "node ctx":
        root[CTX] = _bad_number(bad, root[CTX], len(contexts) + 1)
    elif where == "term":
        root[TERM] = _bad_number(bad, root[TERM], len(terms))
    elif where == "node type":
        root[TYPE] = _bad_number(bad, root[TYPE], len(terms))
    elif where in ("side sub", "side sup"):
        key = where.split()[1]
        side = next(row[SIDE] for row in nodes if key in row[SIDE])  # the first Cum row
        side[key] = _bad_number(bad, side[key], len(terms))
    else:
        # the Pi row's domain; the Var and App rows come after it
        number = next(k for k, row in enumerate(terms) if row[0] == "Pi")
        assert number < len(terms) - 1
        terms[number][2] = _bad_number(bad, terms[number][2], len(terms), number, len(terms) - 1)
    capsys.readouterr()
    assert _verify_exit(tmp_path, obj) == EXIT_REJECTED
    assert capsys.readouterr().err == f"rejected: file: malformed derivation file: TypeError({message!r})\n"


@pytest.mark.parametrize(
    "where, new",
    [
        pytest.param(("terms", 7, 0), "Apply", id="unknown-tag"),
        pytest.param(("terms", 7, 0), "Sig", id="surface-keyword-as-tag"),
        pytest.param(("terms", 7, 0), ["App"], id="tag-not-a-string"),
        pytest.param(("terms", 7), [], id="empty-row"),
        pytest.param(("terms", 7), ["App", 6], id="App-of-two-cells"),
        pytest.param(("terms", 7), ["App", 6, 0, 0], id="App-of-four-cells"),
        pytest.param(("terms", 0), ["Prop", 0], id="Prop-of-two-cells"),
        pytest.param(("terms", 6), ["Var"], id="Var-of-one-cell"),
        pytest.param(("terms", 5), ["Pi", 2, 0], id="Pi-without-a-name"),
        pytest.param(("terms", 2, 1), True, id="level-true"),
        pytest.param(("terms", 2, 1), 1.0, id="level-float"),
        pytest.param(("terms", 2, 1), -1, id="level-negative"),
        pytest.param(("terms", 2, 1), "1", id="level-string"),
        pytest.param(("terms", 6, 1), "fn", id="Var-name-keyword"),
        pytest.param(("terms", 6, 1), "Prop", id="Var-name-Prop"),
        pytest.param(("terms", 6, 1), "Type0", id="Var-name-universe"),
        pytest.param(("terms", 6, 1), "f g", id="Var-name-two-words"),
        pytest.param(("terms", 6, 1), "1f", id="Var-name-digit-first"),
        pytest.param(("terms", 6, 1), "", id="Var-name-empty"),
        pytest.param(("terms", 6, 1), 6, id="Var-name-number"),
        pytest.param(("terms", 5, 1), "Pi", id="binder-name-keyword"),
        pytest.param(("terms", 5, 1), "x--", id="binder-name-comment"),
        pytest.param(("contexts", 1, 1), "snd", id="context-name-keyword"),
        pytest.param(("contexts", 1, 1), "f.", id="context-name-not-an-identifier"),
    ],
)
def test_verify_rejects_malformed_term_rows(write, tmp_path, capsys, where, new):
    ctx = write("ctx.ecc", "f : Pi x : Type1 . Prop")
    term = write("t.ecc", "f Prop")
    out_path = tmp_path / "elab.json"
    assert run_command(["elab", "--ctx", ctx, term, "--out", str(out_path)]) == EXIT_OK
    obj = json.loads(out_path.read_text(encoding="utf-8"))
    assert obj["terms"] == [
        ["Prop"], ["Type", 0], ["Type", 1], ["Type", 2], ["Type", 3], ["Pi", "x", 2, 0], ["Var", "f"], ["App", 6, 0],
    ]
    assert obj["contexts"] == [[0, "x", 2], [0, "f", 5]]
    *path, last = where
    functools.reduce(operator.getitem, path, obj)[last] = new
    capsys.readouterr()
    assert _verify_exit(tmp_path, obj) == EXIT_REJECTED
    assert capsys.readouterr().err.startswith("rejected: file: malformed derivation file")


@pytest.mark.parametrize(
    "table, index, row",
    [
        pytest.param("nodes", -1, ["Bogus", 0, 0, 0, [], {}], id="node-row-before-the-root"),
        pytest.param("terms", 8, ["Var", "g"], id="term-row"),
        pytest.param("contexts", 2, [2, "g", 0], id="context-row"),
    ],
)
def test_verify_rejects_rows_no_path_from_the_root_uses(write, tmp_path, capsys, table, index, row):
    # every number names an earlier row, so a row that no later row names is
    # one the root cannot reach, and the kernel would never check it
    ctx = write("ctx.ecc", "f : Pi x : Type1 . Prop")
    term = write("t.ecc", "f Prop")
    out_path = tmp_path / "elab.json"
    assert run_command(["elab", "--ctx", ctx, term, "--out", str(out_path)]) == EXIT_OK
    obj = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(obj["terms"]) == 8 and len(obj["contexts"]) == 2
    obj[table].insert(index, row)
    capsys.readouterr()
    assert _verify_exit(tmp_path, obj) == EXIT_REJECTED
    assert capsys.readouterr().err.startswith("rejected: file: malformed derivation file")


@pytest.mark.parametrize(
    "obj",
    [
        {"rule": "Ax", "ctx": [], "term": "Prop", "type": "Type0", "side": {}, "premises": []},
        {"terms": ["Prop", "Type0"], "contexts": [], "nodes": [["Ax", 0, 0, 1, [], {}]]},
        {"terms": [["Prop"], ["Type", 0]], "contexts": [], "nodes": [["Ax", 0, 0, 1, [], {}]], "extra": 1},
        {"terms": [["Prop"], ["Type", 0]], "contexts": [], "nodes": [["Ax", 0, 0, 1, [], {}]], "rule": "Ax"},
    ],
    ids=["tree-form", "text-term-rows", "extra-key", "tree-form-key"],
)
def test_only_the_table_with_constructor_term_rows_loads(tmp_path, capsys, obj):
    # the tree form and surface-text term rows, which earlier versions wrote,
    # are rejected like the nested form before them, and so is a table with
    # a key besides its three; as a table of constructor rows alone the same
    # Ax leaf is accepted
    capsys.readouterr()
    assert _verify_exit(tmp_path, obj) == EXIT_REJECTED
    assert capsys.readouterr().err.startswith("rejected: file: malformed derivation file")
    leaf = {"terms": [["Prop"], ["Type", 0]], "contexts": [], "nodes": [["Ax", 0, 0, 1, [], {}]]}
    assert _verify_exit(tmp_path, leaf) == EXIT_OK


@pytest.mark.parametrize("obj", [[], [1], "terms", 3, None], ids=["empty-list", "list", "string", "number", "null"])
def test_a_top_level_that_is_not_an_object_says_so(tmp_path, capsys, obj):
    capsys.readouterr()
    assert _verify_exit(tmp_path, obj) == EXIT_REJECTED
    assert "malformed derivation file: TypeError('the top level must be an object" in capsys.readouterr().err


def test_a_shared_node_is_rejected_at_its_first_path_in_pre_order(tmp_path):
    g = parse_context("f : Pi x : Type1 . Prop")
    _, d = principal_of(g, parse_term("f Prop"))
    table = saved(d, tmp_path / "d.json")
    uses = collections.Counter(p for row in table["nodes"] for p in row[PREMISES])
    shared = sorted(number for number, count in uses.items() if count > 1)
    assert shared
    paths = first_paths(table)
    for number in shared:
        mutant = copy.deepcopy(table)
        row = mutant["nodes"][number]
        row[RULE] = "App" if row[RULE] == "Pair" else "Pair"  # wrong arity
        with pytest.raises(DerivationError) as err:
            verify(derivation_from_dict(mutant))
        assert err.value.path == paths[number]


def test_a_tree_of_2_to_the_64_nodes_verifies_once_per_object(tmp_path, monkeypatch):
    # V_k, validity of x1 : Prop, ..., xk : Prop, is a C node over a Cum that
    # lifts Prop from Type0 to Type1; both of the Cum's premises rest on V_(k-1)
    v = Derivation("Ax", Judgment(Context(), PROP, Type(0)))
    g = Context()
    for k in range(1, 65):
        lift = Derivation("T", Judgment(g, Type(1), Type(2)), (v,), level=1)
        cum = Derivation("Cum", Judgment(g, PROP, Type(1)), (v, lift), sub=Type(0), sup=Type(1))
        g = g.extend(f"x{k}", PROP)
        v = Derivation("C", Judgment(g, PROP, Type(0)), (cum,))
    path = tmp_path / "chain.json"
    table = saved(v, path)
    assert repeated_references(table) == 64

    checked = []
    check_node = kernel._check_node

    def counted(node, f, at):
        checked.append(at)
        check_node(node, f, at)

    monkeypatch.setattr(kernel, "_check_node", counted)
    assert verify(load_derivation(str(path)))
    assert len(checked) == len(table["nodes"]) == 3 * 64 + 1

    # the Ax leaf ends every path; with a side index it fails at the first
    assert table["nodes"][0][RULE] == "Ax"
    table["nodes"][0][SIDE] = {"level": 3}
    with pytest.raises(DerivationError) as err:
        verify(derivation_from_dict(table))
    assert err.value.path == "root" + ".0" * 128
    assert "universe index" in err.value.reason


@pytest.mark.parametrize("k", [4, 8, 16, 32])
def test_context_chain_files_grow_linearly(tmp_path, k):
    # A0 : Type0, h_i : Pi x : A0 . A0 for i < k: each node used to print
    # its whole context, so the file grew with nodes times context length
    _, d = principal_of(*context_chain(k))
    path = tmp_path / "chain.json"
    table = saved(d, path)
    assert [len(table[name]) for name in ("terms", "contexts", "nodes")] == [6, 2 * k + 1, 5 * k + 4]
    assert path.stat().st_size <= 150 * k + 200  # 4,913 bytes at k = 32
    assert verify(load_derivation(str(path)))


@pytest.mark.parametrize("k", [150, 1000])
def test_elab_and_verify_a_long_context_chain_in_process(write, capsys, k):
    # the validity chain is built front to back, so no interpreter frame is
    # spent per context entry
    g, m = context_chain(k)
    ctx = write("chain.ctx", "\n".join(f"{name} : {print_term(ty)}" for name, ty in g))
    term, out = write("chain.ecc", print_term(m)), write("chain.json", "")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert run_command(["elab", "--ctx", ctx, term, "--out", out]) == EXIT_OK
        assert run_command(["verify", out]) == EXIT_OK
    finally:
        sys.setrecursionlimit(limit)
    assert capsys.readouterr().out.split() == ["wrote", out, "accepted"]
    table = json.loads(pathlib.Path(out).read_text(encoding="utf-8"))
    assert [len(table[name]) for name in ("terms", "contexts", "nodes")] == [6, 2 * k + 1, 5 * k + 4]


def test_nested_binder_files_grow_linearly(tmp_path):
    # Pi x_i : Prop nested d deep: each binder adds one term row, where the
    # printed terms of each row once repeated every binder inside it in full
    rows, sizes = {}, {}
    for d in (50, 100, 200, 300):
        term = tmp_path / f"pis{d}.ecc"
        term.write_text("".join(f"Pi x{i} : Prop . " for i in range(d)) + "Prop", encoding="utf-8")
        out_path = tmp_path / f"pis{d}.json"
        # in a fresh interpreter: inference recurses about 3 frames per binder
        assert _python_dash_m("elab", str(term), "--out", str(out_path)).returncode == EXIT_OK
        rows[d] = len(json.loads(out_path.read_text(encoding="utf-8"))["terms"])
        sizes[d] = out_path.stat().st_size
    assert all(rows[d] == rows[50] + (d - 50) for d in rows)
    assert all(sizes[d] <= 100 * d for d in sizes)  # 28,492 bytes at d = 300


_SAVE_NESTED_PI = """
import sys
sys.setrecursionlimit(10_000)  # inference recurses about 3 frames per binder
from ecckernel import Context, parse_term, principal_of
from ecckernel.cli import save_derivation
depth, path = int(sys.argv[1]), sys.argv[2]
pis = parse_term("".join(f"Pi x{i} : Prop . " for i in range(depth)) + "Prop")
save_derivation(principal_of(Context(), pis)[1], path)
"""


def test_verify_accepts_a_1000_deep_binder_file_under_the_default_limit(tmp_path):
    # the kernel compares each binder with its premise part by part, and a
    # part shared with the premise is one `is` test, so checking spends no
    # interpreter frame per binder; `ecc elab` stops near 330 binders
    path = tmp_path / "pis1000.json"
    built = _python("-c", _SAVE_NESTED_PI, "1000", str(path))
    assert built.returncode == 0, built.stderr
    done = _python_dash_m("verify", str(path))
    assert (done.returncode, done.stdout.strip()) == (EXIT_OK, "accepted")


def test_rows_nested_past_the_recursion_limit_are_an_input_error(tmp_path):
    # rows name a term nested deeper than any recursion limit: a var node
    # whose type and context entry are two 5,000-deep Proj1 chains, written
    # as separate rows, so alpha_eq must recurse into both
    terms = [["Prop"], ["Type", 0]]
    chains = []
    for _ in range(2):
        terms.append(["Proj1", 0])
        terms.extend(["Proj1", len(terms) - 1] for _ in range(4999))
        chains.append(len(terms) - 1)
    terms.append(["Var", "x"])
    table = {
        "terms": terms,
        "contexts": [[0, "x", chains[0]]],
        "nodes": [["Ax", 1, 0, 1, [], {}], ["var", 1, len(terms) - 1, chains[1], [0], {}]],
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    done = _python_dash_m("verify", str(path))
    assert done.returncode == EXIT_INPUT
    assert done.stderr.startswith("input or resource error")


def test_rows_that_double_a_term_past_its_limit_are_rejected(tmp_path):
    # the same var node layout, but each chain is 60 rows ["App", k, k] that
    # name the row before twice: about 2^60 nodes as a tree in a 2 KB file,
    # which alpha_eq would never finish comparing
    terms = [["Prop"], ["Type", 0]]
    chains = []
    for _ in range(2):
        terms.append(["Var", "y"])
        for _ in range(60):
            terms.append(["App", len(terms) - 1, len(terms) - 1])
        chains.append(len(terms) - 1)
    terms.append(["Var", "x"])
    table = {
        "terms": terms,
        "contexts": [[0, "x", chains[0]]],
        "nodes": [["Ax", 1, 0, 1, [], {}], ["var", 1, len(terms) - 1, chains[1], [0], {}]],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(table, separators=(",", ":")), encoding="utf-8")
    assert path.stat().st_size < 2048
    done = _python_dash_m("verify", str(path))
    assert done.returncode == EXIT_REJECTED
    assert "malformed derivation file" in done.stderr and "over the limit" in done.stderr


def test_the_term_size_limit_sits_far_above_the_corpus():
    largest = 0
    for g, m in typed_corpus() + [context_chain(k) for k in (4, 8, 16, 32)]:
        _, d = principal_of(g, m)
        largest = max(largest, max(map(_term_nodes, _terms_of(d))))
    assert largest == 10 and 1000 * largest < TERM_SIZE_LIMIT


def _terms_of(d) -> list:
    found, seen, stack = [], set(), [d]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            c = node.conclusion
            found += [c.subject, c.type, *(t for _, t in c.ctx), *(t for t in (node.sub, node.sup) if t is not None)]
            stack.extend(node.premises)
    return found


def _term_nodes(t) -> int:
    return 1 + sum(_term_nodes(getattr(t, field)) for field in SHAPES[type(t)])


def test_a_failed_save_leaves_the_file_as_it_was(tmp_path):
    # a subject that is no term: the save fails before the file is opened
    d = Derivation("Ax", Judgment(Context(), App(PROP, None), Type(0)))
    path = tmp_path / "d.json"
    path.write_bytes(b"earlier output\n")
    with pytest.raises(TypeError, match="not a term: None"):
        save_derivation(d, str(path))
    assert path.read_bytes() == b"earlier output\n"


def test_a_failed_save_leaves_a_longer_file_as_it_was(tmp_path):
    # a 300-binder Pi, which once failed to encode, now writes 28,492 bytes:
    # a subject that is no term fails the encode instead
    d = Derivation("Ax", Judgment(Context(), App(PROP, None), Type(0)))
    path = tmp_path / "d.json"
    earlier = bytes(range(256)) * 20  # 5,120 bytes, longer than a table of one node
    path.write_bytes(earlier)
    with pytest.raises(TypeError, match="not a term: None"):
        save_derivation(d, str(path))
    assert path.read_bytes() == earlier


@pytest.mark.parametrize("earlier", [b"x" * 5_000, b"x"], ids=["longer", "shorter"])
def test_elab_over_an_existing_file_writes_the_bytes_of_a_fresh_one(write, tmp_path, capsys, earlier):
    ctx = write("ctx.ecc", "f : Pi x : Type1 . Prop")
    term = write("t.ecc", "f Prop")
    fresh, out = tmp_path / "fresh.json", tmp_path / "out.json"
    assert run_command(["elab", "--ctx", ctx, term, "--out", str(fresh)]) == EXIT_OK
    assert 1 < fresh.stat().st_size < 5_000
    out.write_bytes(earlier)
    out.chmod(0o640)
    before = out.stat()
    assert run_command(["elab", "--ctx", ctx, term, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == fresh.read_bytes()
    after = out.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert run_command(["verify", str(out)]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("earlier", [None, b"earlier output\n"], ids=["absent", "present"])
def test_elab_rejects_a_derivation_it_built_wrong_and_writes_nothing(write, tmp_path, monkeypatch, capsys, earlier):
    # elab verifies what the builder hands it before it opens --out
    bad = Derivation("Ax", Judgment(Context(), PROP, Type(1)))
    monkeypatch.setattr(cli, "principal_of", lambda g, t, fuel: (Type(1), bad))
    out = tmp_path / "d.json"
    if earlier is not None:
        out.write_bytes(earlier)
    assert run_command(["elab", write("t.ecc", "Prop"), "--out", str(out)]) == EXIT_REJECTED
    assert capsys.readouterr() == ("", "derivation rejected: root: Ax types Prop at Type 0\n")
    assert (out.read_bytes() if out.exists() else None) == earlier


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_elab_writes_to_dev_null(write, capsys):
    assert run_command(["elab", write("t.ecc", "fn x : Prop . x"), "--out", "/dev/null"]) == EXIT_OK
    assert capsys.readouterr().out == "wrote /dev/null\n"


# 128 entries of 1 to 12 binders: its derivation file is about 93 KB, more
# than a pipe's 64 KiB buffer holds
_WIDE_CONTEXT = "\n".join(
    ["A0 : Type0"] + [f"h{i} : " + "Pi x : A0 . " * (i % 12 + 1) + "A0" for i in range(128)]
)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_elab_writes_to_a_pipe(write, tmp_path):
    cases = [("", "fn x : Prop . x", range(1, 1_000)), (_WIDE_CONTEXT, "h127", range(65_537, 1_000_000))]
    for ctx_text, subject, size in cases:
        ctx, term = write("ctx.ecc", ctx_text), write("t.ecc", subject)
        fresh = tmp_path / "fresh.json"
        assert run_command(["elab", "--ctx", ctx, term, "--out", str(fresh)]) == EXIT_OK
        assert fresh.stat().st_size in size
        # the child's standard output is a pipe, which has no length to cut
        done = _python_dash_m("elab", "--ctx", ctx, term, "--out", "/dev/stdout")
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout == fresh.read_text(encoding="utf-8") + "wrote /dev/stdout\n"


_TABLE_WITH_CRLF = b'{"terms":[["Prop"],["Type",0]],\r\n"contexts":[],\r\n"nodes":[["Ax",0,0,1,[],{}]]}\r\n'


@pytest.mark.parametrize(
    "files, argv, code, out, err",
    [
        (
            {"d.json": b'{"terms":\r\n[["Prop"]],\r\n"contexts":[],\r"nodes":[x]}'}, ["verify", "d.json"],
            EXIT_REJECTED, "", "rejected: Expecting value: line 4 column 10 (char 46)\n",
        ),
        ({"d.json": _TABLE_WITH_CRLF}, ["verify", "d.json"], EXIT_OK, "accepted\n", ""),
        (
            {"d.json": b'{"terms":\xff}'}, ["verify", "d.json"],
            EXIT_REJECTED, "", "rejected: 'utf-8' codec can't decode byte 0xff in position 9: invalid start byte\n",
        ),
        (
            {"t.ecc": b"\xef\xbb\xbfProp"}, ["infer", "t.ecc"],
            EXIT_PARSE, "", "parse error: unexpected character '\\ufeff' (line 1, column 1)\n",
        ),
        (
            {"t.ecc": b"Pr\xffop"}, ["infer", "t.ecc"],
            EXIT_INPUT, "", "input or resource error: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte\n",
        ),
        # a lone \r ends a context entry in a file, though parse_context reads it as whitespace
        ({"ctx.ecc": b"A : Type0\rB : A\r", "t.ecc": b"B"}, ["infer", "--ctx", "ctx.ecc", "t.ecc"], EXIT_OK, "A\n", ""),
        (
            {"t.ecc": b"Pi x : Prop .\r x\r\r)"}, ["infer", "t.ecc"],
            EXIT_PARSE, "", "parse error: trailing input ')' (line 4, column 1)\n",
        ),
    ],
    ids=["json-error-position", "crlf-table", "json-not-utf-8", "bom", "term-not-utf-8", "lone-cr-context", "cr-lines"],
)
def test_files_are_read_as_utf_8_with_universal_newlines(tmp_path, capsys, files, argv, code, out, err):
    # "\r\n" and a lone "\r" read as "\n", so error lines and columns count them as line breaks
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert run_command([str(tmp_path / word) if word in files else word for word in argv]) == code
    assert capsys.readouterr() == (out, err)
