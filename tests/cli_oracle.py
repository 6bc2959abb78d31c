"""The argparse command line `ecc` was parsed with before `cli._COMMANDS`,
kept unchanged as the reference the command table is tested against."""

from __future__ import annotations

import argparse
import contextlib
import functools
import io

def _at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    fuel_parent = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subcommand-less occurrence from being overwritten
    fuel_parent.add_argument(
        "--fuel", type=_at_least(1), default=argparse.SUPPRESS, help="reduction step budget"
    )

    parser = argparse.ArgumentParser(prog="ecc", description="kernel and type inference driver")
    parser.add_argument("--fuel", type=_at_least(1), help="reduction step budget")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("infer", parents=[fuel_parent], help="print the principal type")
    p.add_argument("--ctx", default=None)
    p.add_argument("termfile")

    p = sub.add_parser("check", parents=[fuel_parent], help="check a term against an ascription")
    p.add_argument("--ctx", default=None)
    p.add_argument("termfile")
    p.add_argument("typefile")

    p = sub.add_parser("nf", parents=[fuel_parent], help="print the normal form")
    p.add_argument("termfile")

    p = sub.add_parser("whnf", parents=[fuel_parent], help="print the weak-head normal form")
    p.add_argument("termfile")

    p = sub.add_parser("sub", parents=[fuel_parent], help="decide the cumulativity relation")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--level", type=_at_least(0), default=None)
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("minlevel", parents=[fuel_parent], help="least level relating two terms")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("phi", parents=[fuel_parent], help="well-foundedness measure")
    p.add_argument("termfile")

    p = sub.add_parser("classify", parents=[fuel_parent], help="stratification class")
    p.add_argument("termfile")

    p = sub.add_parser("elab", parents=[fuel_parent], help="write a verified kernel derivation")
    p.add_argument("--ctx", default=None)
    p.add_argument("termfile")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", parents=[fuel_parent], help="re-check a derivation file")
    p.add_argument("file")

    p = sub.add_parser("demo", parents=[fuel_parent], help="built-in demonstrations")
    p.add_argument("which", choices=["prop2", "prop3"])
    p.add_argument("--steps", type=_at_least(1), default=4)

    return parser


def parse_args(argv: list[str], env_fuel: str | None) -> argparse.Namespace | int:
    """What the argparse `run_command` did before it dispatched: the
    namespace, or the exit code argparse asked for (0 after help, 2 on a
    usage error)."""
    parser = _build_parser()
    parser.set_defaults(fuel=10_000 if env_fuel is None else env_fuel)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return parser.parse_args(argv)
    except SystemExit as e:
        return e.code
