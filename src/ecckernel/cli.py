"""Command-line driver and the derivation interchange format.

Exit codes: 0 success or relation true, 1 relation false, 2 type error,
3 fuel exhausted, 4 parse error, 5 derivation rejected, 6 input or
resource error (usage error, unreadable file, input that is not UTF-8,
input nested too deeply). `verify` answers 5 for any file that is not a
derivation, undecodable ones included.

One table, `_COMMANDS`, gives each command's help line, positionals and
options with their converters (a flag has none); it drives the parse,
the help text and every usage error. The parse reads argv once, left to
right. The global `--fuel N` (default 10000, or ECC_FUEL when no flag is
given) may come before or after the command, the last value given wins,
`--opt=value` is `--opt value`, the first `--` ends the options, and an
option is spelled out in full. Fuel and `--steps` must be positive
integers and `--level` non-negative. `-h` or `--help` anywhere before
`--` prints help on stdout and exits 0; a usage error prints
`ecc: error: ...` on stderr, nothing on stdout, and exits 6.

A file is read in one pass as UTF-8, a byte-order mark kept, and its
"\r\n" and lone "\r" become "\n", as in text mode; error positions count
on that text. So a lone "\r" ends a context entry in a file, while
`parse_context` on a string splits at "\n" only ("\r" is whitespace).

`elab` builds derivations with `elaborate`; `verify` checks them with
`kernel` alone, which imports nothing from inference or elaboration.
`elab` encodes the whole file before it opens `--out`, then writes the
bytes over the old ones in one buffered binary write and cuts a longer
file at the encoded length, since on ext4 cutting a non-empty file to
zero makes close() start writeback. It is not atomic.

Derivation files are JSON tables that a verifier reads and re-checks
from scratch. `save_derivation` writes one compact object
`{"terms": [...], "contexts": [...], "nodes": [...]}`. Term row k is
term number k, one constructor over earlier term numbers:

    ["Prop"]  ["Type", level]  ["Var", name]  ["App", fn, arg]
    ["Pi", name, domain, codomain]  (also "Sigma" and "Lam")
    ["Pair", first, second, annotation]  ["Proj1", pair]  ["Proj2", pair]

The tag is the class name and the term numbers follow `terms.SHAPES`.
Equal terms are one row, and each row is built once, so equal subterms
of a loaded derivation are one object. Context row k, a list
`[parent, name, term]`, is context number k + 1, the context `parent`
extended by one entry, where context 0 is the empty one; node row k is
`[rule, ctx, term, type, premises, side]`, with `side` holding `level`
or the Cum pair `sub`/`sup` as term numbers. Every number names a term,
an earlier context or an earlier node; the root is the last node row.
This table is the only file format: a file of any other shape (the tree
form earlier versions wrote, a table whose term rows are surface text,
or a top level that is not an object with exactly the keys `terms`,
`contexts` and `nodes`) is malformed. So is a field of the wrong JSON
type (a `true` or `1.0` level or number, a string where a list or
number belongs), a row with an unknown tag or the wrong number of
cells, a negative level in a term row, a name that is not an identifier
or is a keyword, a `side` key other than `level`, `sub` and `sup`, or a
number that names no earlier row: each rejects the file rather than
being coerced or ignored. So does
a term row of more than TERM_SIZE_LIMIT nodes as a tree: rows that name
one earlier row twice double a term's size per row. So does a row that
no path from the root uses, which the kernel would never check: counting
term rows first, then context rows, then node rows, every number names
an earlier row, so every row is reachable from the root exactly when
each row but the root is named by a later one. One function, `_earlier`,
checks every cell that names a row and flags the row it names.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .counterexamples import descending_chain, level_transfer_triple, self_application
from .cumulativity import min_subtype_level, strict_subtype, subtype, subtype_at_level
from .elaborate import principal_of
from .inference import TypeCheckError, check_context, check_type, infer_type
from .kernel import Derivation, DerivationError, verify
from .reduction import DEFAULT_FUEL, FuelExhausted, conv, normalize, whnf
from .stratify import classify, measure
from .surface import ParseError, is_name, parse_context, parse_term, print_term
from .terms import BINDERS, SHAPES, Context, Judgment, Term, Type, Var

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_TYPE_ERROR = 2
EXIT_FUEL = 3
EXIT_PARSE = 4
EXIT_REJECTED = 5
EXIT_INPUT = 6


# rows can name a term exponentially larger than the file, which the kernel,
# walking terms as trees, would never finish checking: a term row over this
# many nodes as a tree is refused
TERM_SIZE_LIMIT = 100_000
_DONE = object()  # on _table's stacks: the object last put in `waiting` has its parts numbered


def _table(d: Derivation) -> dict:
    # each table maps a row to its number, so equal rows get one number; one id map
    # numbers term, context and node objects, so an object met again, an interned
    # atom above all, costs one lookup; an object is numbered once its parts are
    terms: dict[tuple, int] = {}
    contexts: dict[tuple, int] = {}  # (parent, name, term); context 0 is the empty one
    nodes, number = {}, {id(Context()): 0}  # node rows, and object ids, to numbers
    node_rows: list[list] = []  # each distinct node's row, as it is written

    def term(t: Term) -> int:
        stack, waiting = [t], []
        while stack:
            u = stack.pop()
            if u is _DONE:
                u, parts = waiting.pop()
            elif id(u) in number:
                continue
            elif type(u) is Var or type(u) is Type:  # an atom, met once
                row = ("Var", u.name) if type(u) is Var else ("Type", u.level)
                number[id(u)] = terms.setdefault(row, len(terms))
                continue
            else:
                fields = SHAPES.get(type(u))
                if fields is None:
                    raise TypeError(f"not a term: {u!r}")
                parts = [getattr(u, field) for field in fields]
                todo = [p for p in parts if id(p) not in number]
                if todo:
                    waiting.append((u, parts))
                    stack += (_DONE, *reversed(todo))
                    continue
            cls, cells = type(u), [number[id(p)] for p in parts]
            row = (cls.__name__, u.var, *cells) if cls in BINDERS else (cls.__name__, *cells)
            number[id(u)] = terms.setdefault(row, len(terms))
        return number[id(t)]

    stack, waiting = [d], []
    while stack:
        node = stack.pop()
        if node is _DONE:
            node = waiting.pop()
        elif id(node) in number:
            continue
        elif todo := [p for p in node.premises if id(p) not in number]:
            waiting.append(node)
            stack += (_DONE, *reversed(todo))
            continue
        c = node.conclusion
        ctx = number.get(id(c.ctx))
        if ctx is None:
            # a context is its parent's row plus one entry: walk up to the first
            # numbered one, then number the rest front to back
            longer, g = [], c.ctx
            while (ctx := number.get(id(g))) is None:
                longer.append(g)
                g = g.parent
            for g in reversed(longer):
                ctx = number[id(g)] = contexts.setdefault((ctx, g.name, term(g.type)), len(contexts) + 1)
        subject, ty = number.get(id(c.subject)), number.get(id(c.type))
        if subject is None:
            subject = term(c.subject)
        if ty is None:
            ty = term(c.type)
        sub = None if node.sub is None else term(node.sub)
        sup = None if node.sup is None else term(node.sup)
        premises = [number[id(p)] for p in node.premises]
        k = number[id(node)] = nodes.setdefault((node.rule, ctx, subject, ty, node.level, sub, sup, *premises), len(node_rows))
        if k == len(node_rows):
            side = {} if node.level is None else {"level": node.level}
            if sub is not None:
                side["sub"] = sub
            if sup is not None:
                side["sup"] = sup
            node_rows.append([node.rule, ctx, subject, ty, premises, side])
    # the encoder writes a tuple as a JSON array, so term and context rows go as they are
    return {"terms": list(terms), "contexts": list(contexts), "nodes": node_rows}


def _field(value, kind: type, what: str):
    # bool is an int subclass; a JSON `true` is never a universe level or a number
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{what} must be {'an' if kind is int else 'a'} {kind.__name__}, got {value!r}")
    return value


def _earlier(number, bound: int, used: bytearray, what: str, row: int | None = None) -> int:
    # a cell naming one of the first `bound` rows of a table: flags that row as
    # named and returns the number; the message `what` is formatted with the
    # cell and the number of the `row` holding it only when the check fails
    if type(number) is not int or not 0 <= number < bound:
        raise TypeError(what.format(number, row))
    used[number] = 1
    return number


def _row_shape(cls: type) -> tuple:
    # (constructor, cells, name cells): a Var's or a binder's name, or a
    # Type's level, comes before the term numbers
    named = cls in BINDERS or cls is Var
    return cls, 1 + (named or cls is Type) + len(SHAPES[cls]), int(named)


_ROWS = {cls.__name__: _row_shape(cls) for cls in SHAPES}  # a term row's tag is its constructor's name
_SIDE_KEYS = frozenset({"level", "sub", "sup"})
_TABLE_KEYS = frozenset({"terms", "contexts", "nodes"})
_ENCODER = json.JSONEncoder(separators=(",", ":"))  # json.dumps would build one per call


def _read_terms(rows) -> tuple[list[Term], bytearray]:
    # the terms, and a flag per row, set where a later row names it
    terms: list[Term] = []
    sizes: list[int] = []  # each row's node count as a tree, or a bound on it
    used = bytearray(len(_field(rows, list, "terms")))
    for row in rows:
        n = len(terms)  # the row's own number; its cells name rows before it
        shape = _ROWS.get(row[0]) if type(row) is list and row and type(row[0]) is str else None
        if shape is None:
            raise TypeError(f"term row {n} must be a list with a known tag, got {row!r}")
        cls, width, names = shape
        if len(row) != width:
            raise TypeError(f"term row {n} must have {width} cells, got {row!r}")
        if names and not is_name(row[1]):
            raise TypeError(f"term row {n} name {row[1]!r} is not an identifier")
        if cls is Var:
            terms.append(Var(row[1]))
            sizes.append(1)
        elif cls is Type:
            # a TypeError here, before Type() raises a ValueError of its own
            if type(row[1]) is not int or row[1] < 0:
                raise TypeError(f"term row {n} level must be a non-negative int, got {row[1]!r}")
            terms.append(Type(row[1]))
            sizes.append(1)
        else:
            parts = row[1 + names:]
            size = 1
            for k in parts:
                size += sizes[_earlier(k, n, used, "term row {1} cell {0!r} names no earlier term row", n)]
            if size > TERM_SIZE_LIMIT:
                raise TypeError(f"term row {n} has {size} nodes as a tree, over the limit of {TERM_SIZE_LIMIT}")
            terms.append(cls(*row[1:1 + names], *map(terms.__getitem__, parts)))
            sizes.append(size)
    return terms, used


def _from_table(obj: dict) -> Derivation:
    if type(obj) is not dict:
        raise TypeError(f"the top level must be an object, got {type(obj).__name__}")
    if obj.keys() != _TABLE_KEYS:
        raise TypeError(f"the top level must have exactly the keys {sorted(_TABLE_KEYS)}, got {sorted(obj)}")
    # a flag per row, set where a later row names it: a row no later row names
    # is one the root cannot reach (see the module docstring)
    terms, term_used = _read_terms(obj["terms"])
    count = len(terms)
    contexts = [Context()]
    context_rows = _field(obj["contexts"], list, "contexts")
    context_used = bytearray(len(context_rows) + 1)  # by context number: row k is context k + 1
    for row in context_rows:
        if type(row) is not list or len(row) != 3:
            raise TypeError(f"context row must be a list of 3 cells, got {row!r}")
        parent, name, entry_ty = row
        parent = contexts[_earlier(parent, len(contexts), context_used, "context parent {!r} names no earlier row")]
        if not is_name(name):
            raise TypeError(f"ctx name {name!r} is not an identifier")
        contexts.append(parent.extend(name, terms[_earlier(entry_ty, count, term_used, "ctx type {!r} names no term row")]))
    nodes: list[Derivation] = []
    node_rows = _field(obj["nodes"], list, "nodes")
    node_used = bytearray(len(node_rows))
    for row in node_rows:
        if type(row) is not list or len(row) != 6:
            raise TypeError(f"node row must be a list of 6 cells, got {row!r}")
        rule, ctx, subject, ty, premises, side = row
        if type(rule) is not str:
            raise TypeError(f"rule must be a str, got {rule!r}")
        judgment = Judgment(
            contexts[_earlier(ctx, len(contexts), context_used, "ctx {!r} names no earlier row")],
            terms[_earlier(subject, count, term_used, "term {!r} names no term row")],
            terms[_earlier(ty, count, term_used, "type {!r} names no term row")],
        )
        if type(premises) is not list:
            raise TypeError(f"premises must be a list, got {premises!r}")
        premises = tuple([nodes[_earlier(p, len(nodes), node_used, "premise {!r} names no earlier row")] for p in premises])
        if type(side) is not dict:
            raise TypeError(f"side must be a dict, got {side!r}")
        level = sub = sup = None
        if side:
            if not side.keys() <= _SIDE_KEYS:
                raise TypeError(f"unknown side keys {sorted(side.keys() - _SIDE_KEYS)}")
            if "level" in side:
                level = _field(side["level"], int, "side level")
            if "sub" in side:
                sub = terms[_earlier(side["sub"], count, term_used, "side sub {!r} names no earlier row")]
            if "sup" in side:
                sup = terms[_earlier(side["sup"], count, term_used, "side sup {!r} names no earlier row")]
        nodes.append(Derivation(rule, judgment, premises, level, sub, sup))
    if not nodes:
        raise TypeError("no nodes")
    node_used[-1] = 1  # the root
    for what, used in (("term", term_used), ("context", context_used[1:]), ("node", node_used)):
        if 0 in used:
            raise TypeError(f"{what} row {used.index(0)} is named by no later row")
    return nodes[-1]


def derivation_from_dict(obj) -> Derivation:
    """Read the table `save_derivation` writes."""
    try:
        return _from_table(obj)
    except TypeError as e:
        raise DerivationError("file", f"malformed derivation file: {e!r}") from e


def save_derivation(d: Derivation, path: str) -> None:
    # encode before opening: a failed encode leaves a file at path as it was
    data = (_ENCODER.encode(_table(d)) + "\n").encode()
    # no O_TRUNC (see the module docstring); a buffered handle retries a partial write
    with open(path, "wb", opener=lambda p, fl: os.open(p, fl & ~os.O_TRUNC, 0o666)) as handle:
        old_size = os.fstat(handle.fileno()).st_size  # 0 for /dev/null and pipes, which cannot be cut
        handle.write(data)
        if old_size > len(data):
            handle.truncate(len(data))


def load_derivation(path: str) -> Derivation:
    return derivation_from_dict(json.loads(_read(path)))


def _read(path: str) -> str:
    # one read to EOF, with newlines as text mode reads them (see the module docstring)
    with open(path, "rb", buffering=0) as handle:
        return handle.read().decode().replace("\r\n", "\n").replace("\r", "\n")


def _read_term(path: str):
    return parse_term(_read(path))


def _read_ctx(path: str | None, fuel: int) -> Context:
    ctx = Context() if path is None else parse_context(_read(path))
    check_context(ctx, fuel)
    return ctx


def _bool_line(value: bool) -> str:
    return "true" if value else "false"


class _UsageError(Exception):
    """A command line that `_COMMANDS` does not describe."""


def _at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value

    return integer


_FUEL = _at_least(1)
_REQUIRED = object()  # the default of an option that must be given

# each command's help line, positionals and options: a positional maps to
# the words it may be (None for any), an option to its converter (None for
# a flag) and default; every command also takes --fuel, before or after it
_COMMANDS = {
    "infer": ("print the principal type", {"termfile": None}, {"--ctx": (str, None)}),
    "check": ("check a term against an ascription", {"termfile": None, "typefile": None}, {"--ctx": (str, None)}),
    "nf": ("print the normal form", {"termfile": None}, {}),
    "whnf": ("print the weak-head normal form", {"termfile": None}, {}),
    "sub": ("decide the cumulativity relation", {"left": None, "right": None},
            {"--level": (_at_least(0), None), "--strict": (None, False)}),
    "minlevel": ("least level relating two terms", {"left": None, "right": None}, {}),
    "phi": ("well-foundedness measure", {"termfile": None}, {}),
    "classify": ("stratification class", {"termfile": None}, {}),
    "elab": ("write a verified kernel derivation", {"termfile": None},
             {"--ctx": (str, None), "--out": (str, _REQUIRED)}),
    "verify": ("re-check a derivation file", {"file": None}, {}),
    "demo": ("built-in demonstrations", {"which": ("prop2", "prop3")}, {"--steps": (_at_least(1), 4)}),
}

_HELP = """usage: ecc [--fuel N] COMMAND [ARGUMENTS]

{}

--fuel N, the reduction step budget (default {}, or ECC_FUEL), may come before or
after the command, and the last one wins. --opt=value is --opt value, -- ends the
options, and -h or --help prints this help."""


def _usage(cmd: str) -> str:
    _, positionals, options = _COMMANDS[cmd]
    words = [cmd]
    for name, (convert, default) in options.items():
        word = name if convert is None else f"{name} {name[2:].upper()}"
        words.append(word if default is _REQUIRED else f"[{word}]")
    words += ["|".join(choices) if choices else name.upper() for name, choices in positionals.items()]
    return " ".join(words)


def _is_option(arg: str) -> bool:
    # `-` alone and a word that starts `-` and a digit, a negative number, are words
    return arg[:1] == "-" and arg != "-" and not arg[1].isdecimal()


def _convert(name: str, convert, text: str):
    try:
        return convert(text)
    except ValueError as e:
        raise _UsageError(f"{name}: {e}") from None


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """Read argv once, left to right, against `_COMMANDS`. Returns None
    when it asks for help, which is printed."""
    if {"-h", "--help"} & set(argv[:argv.index("--") if "--" in argv else len(argv)]):
        print(_HELP.format("\n".join(f"  {_usage(c):42s} {_COMMANDS[c][0]}" for c in _COMMANDS), DEFAULT_FUEL))
        return None
    words, given, ended = [], {}, False  # the command and its arguments; the options' fields
    rest = iter(argv)
    for arg in rest:
        if ended or not _is_option(arg):
            if not words and arg not in _COMMANDS:
                raise _UsageError(f"unknown command {arg!r}; the commands are {', '.join(_COMMANDS)}")
            words.append(arg)
            continue
        if arg == "--":
            ended = True
            continue
        name, eq, value = arg.partition("=")
        options = _COMMANDS[words[0]][2] if words else {}
        if name not in options and name != "--fuel":
            raise _UsageError(f"unknown option {name}" if words else f"{name} before the command")
        convert = options[name][0] if name in options else _FUEL
        if convert is None and eq:
            raise _UsageError(f"{name} takes no value")
        if convert is not None and not eq:
            value = next(rest, None)
            if value is None or _is_option(value):
                raise _UsageError(f"{name} expects a value")
        given[name[2:]] = True if convert is None else _convert(name, convert, value)
    if not words:
        raise _UsageError("no command given")
    cmd, *words = words
    _, positionals, options = _COMMANDS[cmd]
    if len(words) != len(positionals):
        raise _UsageError(f"{cmd} takes {len(positionals)} arguments, got {len(words)}")
    fields = {name[2:]: default for name, (_, default) in options.items()} | given | dict(zip(positionals, words))
    for name, choices in positionals.items():
        if choices and fields[name] not in choices:
            raise _UsageError(f"{name.upper()} must be one of {', '.join(choices)}, got {fields[name]!r}")
    missing = [name for name in options if fields[name[2:]] is _REQUIRED]
    if missing:
        raise _UsageError(f"{cmd} requires {', '.join(missing)}")
    if "fuel" not in fields:
        env = os.environ.get("ECC_FUEL")
        fields["fuel"] = DEFAULT_FUEL if env is None else _convert("ECC_FUEL", _FUEL, env)
    return SimpleNamespace(cmd=cmd, **fields)


def run_command(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as e:
        print(f"ecc: error: {e}", file=sys.stderr)
        return EXIT_INPUT
    if args is None:  # the help text was asked for and printed
        return EXIT_OK

    try:
        return _dispatch(args, args.fuel)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except FuelExhausted as e:
        print(f"fuel exhausted: {e}", file=sys.stderr)
        return EXIT_FUEL
    except TypeCheckError as e:
        print(f"type error: {e} at {print_term(e.offender)}", file=sys.stderr)
        return EXIT_TYPE_ERROR
    except DerivationError as e:
        print(f"derivation rejected: {e}", file=sys.stderr)
        return EXIT_REJECTED
    except (OSError, RecursionError, UnicodeDecodeError) as e:
        print(f"input or resource error: {e}", file=sys.stderr)
        return EXIT_INPUT


def _dispatch(args: SimpleNamespace, fuel: int) -> int:
    match args.cmd:
        case "infer":
            outcome = infer_type(_read_ctx(args.ctx, fuel), _read_term(args.termfile), fuel)
            print(print_term(outcome.principal))
            return EXIT_OK

        case "check":
            ctx = _read_ctx(args.ctx, fuel)
            ok = check_type(ctx, _read_term(args.termfile), _read_term(args.typefile), fuel)
            print(_bool_line(ok))
            return EXIT_OK if ok else EXIT_FALSE

        case "nf":
            print(print_term(normalize(_read_term(args.termfile), fuel)))
            return EXIT_OK

        case "whnf":
            print(print_term(whnf(_read_term(args.termfile), fuel)))
            return EXIT_OK

        case "sub":
            left, right = _read_term(args.left), _read_term(args.right)
            if args.level is not None:
                holds = subtype_at_level(left, right, args.level, fuel)
                if args.strict:
                    holds = holds and not conv(left, right, fuel)
            elif args.strict:
                holds = strict_subtype(left, right, fuel)
            else:
                holds = subtype(left, right, fuel)
            print(_bool_line(holds))
            return EXIT_OK if holds else EXIT_FALSE

        case "minlevel":
            lvl = min_subtype_level(_read_term(args.left), _read_term(args.right), fuel)
            if lvl is None:
                print("none")
                return EXIT_FALSE
            print(lvl)
            return EXIT_OK

        case "phi":
            print(measure(_read_term(args.termfile), fuel))
            return EXIT_OK

        case "classify":
            cls = classify(_read_term(args.termfile), fuel)
            print(f"{cls.kind.value} level={cls.level} measure={cls.measure}")
            return EXIT_OK

        case "elab":
            _, derivation = principal_of(_read_ctx(args.ctx, fuel), _read_term(args.termfile), fuel)
            verify(derivation, fuel)
            save_derivation(derivation, args.out)
            print(f"wrote {args.out}")
            return EXIT_OK

        case "verify":
            try:
                derivation = load_derivation(args.file)
                verify(derivation, fuel)
            except (DerivationError, ValueError) as e:  # a JSON or UTF-8 decode error is a ValueError
                print(f"rejected: {e}", file=sys.stderr)
                return EXIT_REJECTED
            print("accepted")
            return EXIT_OK

        case "demo":
            if args.which == "prop2":
                return _demo_prop2(fuel)
            return _demo_prop3(args.steps, fuel)

    raise AssertionError(f"unhandled command {args.cmd!r}")


def _demo_prop2(fuel: int) -> int:
    c, a, b = level_transfer_triple()
    print(f"C = {print_term(c)}")
    print(f"A = {print_term(a)}")
    print(f"B = {print_term(b)}")
    print(f"cumLe(C, A) = {_bool_line(subtype(c, a, fuel))}")
    strict_ab = strict_subtype(a, b, fuel)
    print(
        f"cumLeAtLevel(A, B, 1) = {_bool_line(subtype_at_level(a, b, 1, fuel))}"
        f" (strict: cumLt(A, B) = {_bool_line(strict_ab)})"
    )
    print(f"cumLeAtLevel(C, A, 1) = {_bool_line(subtype_at_level(c, a, 1, fuel))}")
    print(f"minLevel(C, A) = {min_subtype_level(c, a, fuel)}")
    print(f"minLevel(A, B) = {min_subtype_level(a, b, fuel)}")
    return EXIT_OK


def _demo_prop3(steps: int, fuel: int) -> int:
    # every line is built before any is printed, so a failure prints none
    loop = self_application()
    lines = [f"start = {print_term(loop)}"]
    lines.append(f"whnf(start) = {print_term(whnf(loop, fuel))}")
    chain = descending_chain(steps)
    for i, t in enumerate(chain, start=1):
        lines.append(f"A{i} = {print_term(t)}")
    for i in range(len(chain) - 1):
        holds = strict_subtype(chain[i + 1], chain[i], fuel)
        lines.append(f"cumLt(A{i + 2}, A{i + 1}) = {_bool_line(holds)}")
    try:
        normalize(loop, fuel)
        lines.append("normalize(start) reached a normal form")
    except FuelExhausted:
        lines.append(f"normalize(start): fuel exhausted after {fuel} steps (no normal form)")
    print("\n".join(lines))
    return EXIT_OK


def main() -> None:
    sys.exit(run_command())
