"""`ecc`'s command table against the argparse parser it replaced
(`cli_oracle`): the same fields wherever argparse parsed, a usage error
(exit 6, nothing on stdout) wherever argparse refused."""

import contextlib
import io
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecckernel import cli
from ecckernel.cli import EXIT_INPUT, EXIT_OK, run_command

import cli_oracle

seeded = settings(derandomize=True, database=None, deadline=None, max_examples=2000)

# each command's positional count and value options, from the README's table
COMMANDS = {
    "infer": (1, ["--ctx"]), "check": (2, ["--ctx"]), "nf": (1, []), "whnf": (1, []),
    "sub": (2, ["--level", "--strict"]), "minlevel": (2, []), "phi": (1, []), "classify": (1, []),
    "elab": (1, ["--ctx", "--out"]), "verify": (1, []), "demo": (1, ["--steps"]),
}
OPTIONS = ["--fuel", "--ctx", "--out", "--level", "--steps", "--strict"]
# an option's values: mostly valid ones, and the least invalid one; then the
# words and values of a command line that may not parse. None is a help
# token, an abbreviation of an option, or an unknown `--name=value` with a
# space in it, all of which argparse reads differently
NUMBERS = {"--fuel": ["1", "+2", " 4 ", "0"], "--steps": ["1", "3", "0"], "--level": ["0", "+2", "-1"]}
PATHS = ["x", "", "-", "-1", "f.ecc", "prop2"]
WORDS = PATHS + ["prop3", "prop4", "7", "-x", "verify"]
VALUES = PATHS + ["0", "1", "3", "-1", "+2", "abc", "-x"]


def _option(rng: random.Random, name: str, values: list[str]) -> list[str]:
    # `--name value` or `--name=value`; a flag alone
    if name == "--strict":
        return [name]
    value = rng.choice(values)
    return rng.choice([[name, value], [name, value], [f"{name}={value}"]])


def _junk(rng: random.Random) -> list[str]:
    return rng.choice([[rng.choice(WORDS)], [rng.choice(OPTIONS)], _option(rng, rng.choice(OPTIONS), VALUES)])


def _argv(seed: int) -> list[str]:
    rng = random.Random(seed)
    cmd = rng.choice(sorted(COMMANDS))
    count, own = COMMANDS[cmd]
    # a command line that parses, or but for an option's value: its
    # arguments, --out where it is required, and each other option or not,
    # in any order ...
    pieces = [[rng.choice(["prop2", "prop3"] if cmd == "demo" else PATHS)] for _ in range(count)]
    pieces += [
        _option(rng, name, NUMBERS.get(name, PATHS))
        for name in own + ["--fuel"] if name == "--out" or rng.random() < 1 / 2
    ]
    rng.shuffle(pieces)
    before = [_option(rng, "--fuel", NUMBERS["--fuel"]) for _ in range(rng.randint(0, 1))]
    # ... then up to two edits, each of which may leave one that does not
    for _ in range(rng.choice([0, 1, 1, 2])):
        edit = rng.randrange(4) if pieces else 0
        i = rng.randrange(len(pieces) + (edit == 0))
        if edit == 0:
            pieces.insert(i, _junk(rng))
        elif edit == 1:
            pieces[i] = _junk(rng)
        elif edit == 2:
            del pieces[i]
        else:  # a new value for an option, or a new word
            name = pieces[i][0].partition("=")[0]
            pieces[i] = _option(rng, name, VALUES) if name in OPTIONS else [rng.choice(WORDS)]
    first = rng.choice([[cmd]] * 14 + [[], [rng.choice(WORDS)]])
    argv = [arg for piece in before + [first] + pieces for arg in piece]
    # `--` comes after a command and before a last word: argparse refuses a
    # `--` before the command, or one that no positional takes up
    k = len(sum(before, [])) + 1
    if first == [cmd] and len(argv) > k and rng.random() < 1 / 4:
        argv.insert(rng.randint(k, len(argv) - 1), "--")
    return argv


@seeded
@given(st.integers(0, 2**32).map(_argv), st.sampled_from([None, "7", "abc"]))
def test_the_command_table_parses_as_argparse_did(argv, env_fuel):
    with mock.patch.dict(os.environ):
        os.environ.pop("ECC_FUEL", None)
        if env_fuel is not None:
            os.environ["ECC_FUEL"] = env_fuel
        expected = cli_oracle.parse_args(argv, env_fuel)
        if expected != 2:
            assert vars(cli._parse(argv)) == vars(expected)
            return
        with pytest.raises(cli._UsageError):
            cli._parse(argv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert run_command(argv) == EXIT_INPUT
    assert out.getvalue() == ""
    assert err.getvalue().startswith("ecc: error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["-h", "verify"],
        ["verify", "f", "-h"],
        ["--fuel", "5", "elab", "--help"],
        ["sub", "-x", "--level", "-1", "-h"],
        ["-h", "--", "x"],
    ],
)
def test_help_anywhere_before_the_end_of_options_goes_to_stdout(capsys, argv):
    # help wins over any usage error: a command line that asks for it is
    # not checked any further
    assert run_command(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.startswith("usage: ecc [--fuel N] COMMAND") and err == ""
    assert "  elab [--ctx CTX] --out OUT TERMFILE " in out and "  demo [--steps STEPS] prop2|prop3 " in out
    assert all(f"\n  {cmd} " in out for cmd in COMMANDS)


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["--", "verify", "f"], {"cmd": "verify", "file": "f"}),
        (["--fuel", "5", "--", "verify", "-h"], {"cmd": "verify", "file": "-h", "fuel": 5}),
        (["elab", "t", "--out", "o", "--"], {"cmd": "elab", "termfile": "t", "out": "o", "ctx": None}),
        (["sub", "--", "-1", "--strict"], {"cmd": "sub", "left": "-1", "right": "--strict", "strict": False}),
        (["sub", "a", "--", "--", "--level=1"], None),
        (["verify", "--", "--"], {"cmd": "verify", "file": "--"}),
    ],
)
def test_the_first_double_dash_ends_the_options_wherever_it_is(monkeypatch, argv, fields):
    # argparse refused a `--` before the command, and one that no positional
    # took up; here every word after the first `--` is an argument
    monkeypatch.delenv("ECC_FUEL", raising=False)
    if fields is None:
        with pytest.raises(cli._UsageError):
            cli._parse(argv)
        return
    assert vars(cli._parse(argv)).items() >= {"fuel": 10_000, **fields}.items()


@pytest.mark.parametrize(
    "argv",
    [["verify", "f", "--fu", "5"], ["--fu=5", "verify", "f"], ["elab", "t", "--ou", "o"], ["sub", "a", "b", "--str"]],
)
def test_abbreviated_options_are_usage_errors(capsys, argv):
    # argparse took an unambiguous prefix of an option for the option
    assert cli_oracle.parse_args(argv, None) != 2
    assert run_command(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("ecc: error: ")


def test_importing_the_cli_does_not_import_argparse():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, ecckernel.cli; print(sorted({'argparse', 'ecckernel.cli'} & sys.modules.keys()))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.stdout.strip() == "['ecckernel.cli']", done.stderr
