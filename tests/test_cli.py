import copy
import json
import os
import pathlib
import subprocess
import sys

import pytest

from ecckernel import (
    PROP,
    Context,
    Derivation,
    DerivationError,
    Judgment,
    Type,
    Var,
    alpha_eq,
    parse_context,
    parse_term,
    principal_of,
    verify,
)
from ecckernel import kernel
from ecckernel.cli import (
    EXIT_FALSE,
    EXIT_FUEL,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REJECTED,
    EXIT_TYPE_ERROR,
    derivation_from_dict,
    derivation_to_dict,
    load_derivation,
    run_command,
    save_derivation,
)

from corpus import typed_corpus


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


def test_fuel_flag_and_env(write, monkeypatch):
    term = write("t.ecc", "(fn x : Prop . x) ((fn x : Prop . x) Prop)")
    assert run_command(["nf", term, "--fuel", "1"]) == EXIT_FUEL
    assert run_command(["nf", term, "--fuel", "2"]) == EXIT_OK
    monkeypatch.setenv("ECC_FUEL", "1")
    assert run_command(["nf", term]) == EXIT_FUEL
    # the flag wins over the environment
    assert run_command(["nf", term, "--fuel", "10"]) == EXIT_OK


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
    assert derivation_from_dict(derivation_to_dict(derivation)) == derivation


def test_verify_rejects_tampered_rule(write, tmp_path, capsys):
    term = write("t.ecc", "fn x : Prop . x")
    out_path = str(tmp_path / "d.json")
    assert run_command(["elab", term, "--out", out_path]) == EXIT_OK
    obj = json.loads(open(out_path).read())
    obj["rule"] = "App"
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
    front, _, entry_ty = g.pop()
    if entry_ty == PROP:
        typing = _validity_chain(front)
    else:
        typing = Derivation("var", Judgment(front, entry_ty, Type(0)), (_validity_chain(front),))
    return Derivation("C", Judgment(g, PROP, Type(0)), (typing,))


@pytest.mark.parametrize(
    "ctx",
    [
        Context.of(("x", Var("zz"))),
        Context.of(("x", PROP), ("x", PROP)),
    ],
    ids=["unbound-entry", "duplicate-name"],
)
def test_verify_rejects_ill_formed_contexts(tmp_path, capsys, ctx):
    name, entry_ty = ctx.entries[-1]
    root = Derivation("var", Judgment(ctx, Var(name), entry_ty), (_validity_chain(ctx),))
    assert _verify_exit(tmp_path, derivation_to_dict(root)) == EXIT_REJECTED


@pytest.mark.parametrize(
    "old, new",
    [
        ('"level": 1', '"level": true'),
        ('"level": 1', '"level": 1.0'),
        ('"level": 1', '"level": "1"'),
        ('"rule": "T"', '"rule": ["T"]'),
        ('"term": "Type1"', '"term": 5'),
        ('"type": "Type2"', '"type": ["Type2"]'),
        ('"name": "A"', '"name": 7'),
        ('"name": "A", "type": "Type0"', '"name": "A", "type": 0'),
        ('"ctx": []', '"ctx": ""'),
        ('"premises": []', '"premises": ""'),
        ('"premises": []', '"premises": {}'),
        ('"side": {}', '"side": []'),
        ('"side": {}', '"side": {"lvl": 1}'),
    ],
)
def test_verify_rejects_ill_typed_fields(write, tmp_path, capsys, old, new):
    # T over a one-entry context: a root level of 1, empty-context nodes
    # below the C node, and an Ax leaf without premises
    ctx = write("ctx.ecc", "A : Type0")
    term = write("t.ecc", "Type1")
    out_path = tmp_path / "t.json"
    assert run_command(["elab", "--ctx", ctx, term, "--out", str(out_path)]) == EXIT_OK
    text = json.dumps(json.loads(out_path.read_text(encoding="utf-8")))
    assert old in text
    assert _verify_exit(tmp_path, json.loads(text)) == EXIT_OK
    assert _verify_exit(tmp_path, json.loads(text.replace(old, new))) == EXIT_REJECTED


def _python_dash_m(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ecckernel", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


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
    ],
    ids=["nf-450-binder-redex", "infer-325-binder-pi"],
)
def test_deep_terms_under_the_recursion_limit_answer(write, command, text):
    # in a fresh interpreter, so the runner's own stack does not count;
    # about 500 and 330 binders exit 6, so an operation that takes more
    # interpreter frames per level fails here
    assert _python_dash_m(command, write("deep.ecc", text)).returncode == EXIT_OK


@pytest.mark.parametrize(
    "argv, env, expected",
    [
        (["--fuel", "0", "verify", "{good}"], {}, EXIT_INPUT),
        (["--fuel", "5", "verify", "{good}"], {}, EXIT_OK),
        (["--fuel", "0", "nf", "{term}"], {}, EXIT_INPUT),
        (["verify", "{good}"], {"ECC_FUEL": "abc"}, EXIT_INPUT),
        (["nf", "{missing}"], {}, EXIT_INPUT),
        (["sub", "{deep_term}", "{term}"], {}, EXIT_INPUT),
        (["verify", "{deep_json}"], {}, EXIT_INPUT),
        (["sub", "{term}"], {}, EXIT_INPUT),
        (["sub", "{term}", "{term}", "--level", "-1"], {}, EXIT_INPUT),
        (["demo", "prop3", "--steps", "0"], {}, EXIT_INPUT),
        (["--help"], {}, EXIT_OK),
        (["sub", "{undecodable}", "{term}"], {}, EXIT_INPUT),
        (["verify", "{undecodable}"], {}, EXIT_REJECTED),
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
    ],
)
def test_exit_codes_of_input_and_usage_errors(write, tmp_path, monkeypatch, capsys, argv, env, expected):
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
    if "verify" in argv and expected == EXIT_OK:
        assert capsys.readouterr().out == "accepted\n"


def _post_order(obj: dict) -> list[dict]:
    # the nodes written out in a derivation file, in the order back-references number them
    nodes = []

    def walk(node):
        for p in node["premises"]:
            if isinstance(p, dict):
                walk(p)
        nodes.append(node)

    walk(obj)
    return nodes


def _back_references(obj: dict) -> int:
    return sum(isinstance(p, int) for node in _post_order(obj) for p in node["premises"])


def _expanded(obj: dict) -> dict:
    # the same derivation as a tree: each back-reference replaced by a copy of its node
    nodes = _post_order(obj)

    def copy_of(node):
        return {**node, "premises": [copy_of(nodes[p] if isinstance(p, int) else p) for p in node["premises"]]}

    return copy_of(obj)


def _json_path(obj: dict, target: dict, path: str = "root") -> str | None:
    if obj is target:
        return path
    for i, p in enumerate(obj["premises"]):
        found = isinstance(p, dict) and _json_path(p, target, f"{path}.{i}")
        if found:
            return found
    return None


def test_saved_derivations_load_equal_by_value(tmp_path):
    path = str(tmp_path / "d.json")
    references = 0
    for g, m in typed_corpus():
        _, d = principal_of(g, m)
        save_derivation(d, path)
        assert load_derivation(path) == d
        text = pathlib.Path(path).read_text(encoding="utf-8")
        assert text.count("\n") == 1  # compact: one line
        references += _back_references(json.loads(text))
    assert references > 0


@pytest.mark.parametrize("bad", ["out-of-range", "negative", "forward", "self", "true", "float", "string"])
def test_verify_rejects_bad_back_references(write, tmp_path, capsys, bad):
    ctx = write("ctx.ecc", "f : Pi x : Type1 . Prop")
    term = write("t.ecc", "f Prop")
    out_path = tmp_path / "elab.json"
    assert run_command(["elab", "--ctx", ctx, term, "--out", str(out_path)]) == EXIT_OK
    obj = json.loads(out_path.read_text(encoding="utf-8"))
    nodes = _post_order(obj)
    number, holder = next(
        (k, n) for k, n in enumerate(nodes) if any(isinstance(p, int) for p in n["premises"])
    )
    i, ref = next((i, p) for i, p in enumerate(holder["premises"]) if isinstance(p, int))
    assert holder is not obj
    holder["premises"][i] = {
        "out-of-range": len(nodes),
        "negative": -1,
        "forward": len(nodes) - 1,  # the root, written last
        "self": number,
        "true": True,
        "float": float(ref),
        "string": str(ref),
    }[bad]
    capsys.readouterr()
    assert _verify_exit(tmp_path, obj) == EXIT_REJECTED
    assert capsys.readouterr().err.startswith("rejected: file: malformed derivation node")


def test_a_shared_node_is_rejected_at_its_first_path_in_pre_order(tmp_path):
    g = parse_context("f : Pi x : Type1 . Prop")
    _, d = principal_of(g, parse_term("f Prop"))
    path = tmp_path / "d.json"
    save_derivation(d, str(path))
    obj = json.loads(path.read_text(encoding="utf-8"))
    referenced = sorted({p for n in _post_order(obj) for p in n["premises"] if isinstance(p, int)})
    assert referenced
    for number in referenced:
        mutant = copy.deepcopy(obj)
        node = _post_order(mutant)[number]
        node["rule"] = "App" if node["rule"] == "Pair" else "Pair"  # wrong arity
        # a node is written out where it first occurs in pre-order; later occurrences refer to it
        expected = _json_path(mutant, node)
        with pytest.raises(DerivationError) as shared:
            verify(derivation_from_dict(mutant))
        with pytest.raises(DerivationError) as tree:
            verify(derivation_from_dict(_expanded(mutant)))
        assert shared.value.path == tree.value.path == expected


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
    save_derivation(v, str(path))
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert _back_references(obj) == 64

    checked = []
    check_node = kernel._check_node

    def counted(node, f, at):
        checked.append(at)
        check_node(node, f, at)

    monkeypatch.setattr(kernel, "_check_node", counted)
    assert verify(load_derivation(str(path)))
    assert len(checked) == len(_post_order(obj)) == 3 * 64 + 1

    # the Ax leaf ends every path; with a side index it fails at the first
    _post_order(obj)[0]["side"] = {"level": 3}
    with pytest.raises(DerivationError) as err:
        verify(derivation_from_dict(obj))
    assert err.value.path == "root" + ".0" * 128
    assert "universe index" in err.value.reason


def test_a_failed_save_leaves_the_file_as_it_was(tmp_path):
    d = Derivation("Ax", Judgment(Context(), PROP, Type(0)))
    for i in range(5000):
        d = Derivation("T", Judgment(Context(), Type(i), Type(i + 1)), (d,), level=i)
    path = tmp_path / "d.json"
    path.write_bytes(b"earlier output\n")
    with pytest.raises(RecursionError):
        save_derivation(d, str(path))
    assert path.read_bytes() == b"earlier output\n"
