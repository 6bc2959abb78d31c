"""Surface syntax: parser and printer.

Grammar (whitespace insignificant, line comments start with --):

    term    := binder | app
    binder  := ("Pi" | "Sig" | "fn") IDENT ":" term "." term
    app     := atom+                       -- left-associative
    atom    := "Prop" | "Type" NAT | "fst" atom | "snd" atom
             | "<" term "," term ">" ":" annot | IDENT | "(" term ")"
    annot   := binder | atom
    IDENT   := [a-zA-Z][a-zA-Z0-9_']*      -- keywords reserved
    NAT     := [0-9]+                      -- "Type0" and "Type 0" both lex

Binder bodies extend to the right. Context files are entries of the form
`IDENT : term` separated by "\n" only. A `ParseError` gives a 1-based line
and column in the whole input, context files included.

Printing is deterministic and re-parses to an alpha-equal term. Binder
and pair atoms are parenthesized where the grammar demands an atom, and
binder-shaped domains are parenthesized for readability.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .terms import (
    PROP,
    App,
    Context,
    Lam,
    Pair,
    Pi,
    Proj1,
    Proj2,
    Prop,
    Sigma,
    Term,
    Type,
    Var,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


def _error(message: str, text: str, pos: int) -> ParseError:
    # 1-based line and column of offset pos in the whole input
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


class _Tok(NamedTuple):
    kind: str
    value: object
    pos: int

    def shown(self) -> str:
        return "end of input" if self.kind == "eof" else repr(self.value)


# whitespace and comments match as no named group and are skipped
_TOKEN = re.compile(
    r"[ \t\r\n]+|--[^\n]*"
    r"|Type(?P<type>[0-9]+)(?![a-zA-Z0-9_'])"
    r"|(?P<word>[a-zA-Z][a-zA-Z0-9_']*)"
    r"|(?P<nat>[0-9]+)"
    r"|(?P<sym>[()<>,:.])"
)
_BLANKS = " \t\r"  # the lexer's whitespace within a line
_SYMBOLS = {"(": "lparen", ")": "rparen", "<": "langle", ">": "rangle", ",": "comma", ":": "colon", ".": "dot"}
_KEYWORDS = {"Prop": "prop", "Type": "typekw", "Pi": "pi", "Sig": "sig", "fn": "fn", "fst": "fst", "snd": "snd"}


def is_name(text) -> bool:
    """Whether text lexes as one identifier that is no keyword, so it prints and parses back as itself."""
    m = _TOKEN.fullmatch(text) if type(text) is str else None
    return m is not None and m.lastgroup == "word" and text not in _KEYWORDS


def _scan(text: str, pos: int, end: int) -> list[_Tok]:
    toks: list[_Tok] = []
    while pos < end:
        m = _TOKEN.match(text, pos, end)
        if m is None:
            raise _error(f"unexpected character {text[pos]!r}", text, pos)
        kind = m.lastgroup
        if kind == "word":
            toks.append(_Tok(_KEYWORDS.get(m.group(), "ident"), m.group(), pos))
        elif kind == "sym":
            toks.append(_Tok(_SYMBOLS[m.group()], m.group(), pos))
        elif kind is not None:
            toks.append(_Tok(kind, int(m.group(kind)), pos))
        pos = m.end()
    toks.append(_Tok("eof", None, end))
    return toks


_ATOM_START = {"prop", "type", "typekw", "fst", "snd", "langle", "ident", "lparen"}
_BINDERS = {"pi": Pi, "sig": Sigma, "fn": Lam}


class _Parser:
    def __init__(self, text: str, pos: int, end: int):
        self.text = text
        self.toks = _scan(text, pos, end)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def advance(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Tok:
        tok = self.advance()
        if tok.kind != kind:
            raise _error(f"expected {what}, found {tok.shown()}", self.text, tok.pos)
        return tok

    def end(self, where: str) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise _error(f"trailing input {tok.shown()}{where}", self.text, tok.pos)

    def term(self) -> Term:
        if self.peek().kind in _BINDERS:
            return self.binder()
        return self.app()

    def binder(self) -> Term:
        kw = self.advance()
        name = self.expect("ident", "a binder name")
        self.expect("colon", "':'")
        left = self.term()
        self.expect("dot", "'.'")
        return _BINDERS[kw.kind](name.value, left, self.term())

    def app(self) -> Term:
        t = self.atom()
        while self.peek().kind in _ATOM_START:
            t = App(t, self.atom())
        return t

    def atom(self) -> Term:
        tok = self.advance()
        match tok.kind:
            case "prop":
                return PROP
            case "type":
                return Type(tok.value)
            case "typekw":
                return Type(self.expect("nat", "a universe level").value)
            case "fst":
                return Proj1(self.atom())
            case "snd":
                return Proj2(self.atom())
            case "ident":
                return Var(tok.value)
            case "lparen":
                t = self.term()
                self.expect("rparen", "')'")
                return t
            case "langle":
                first = self.term()
                self.expect("comma", "','")
                second = self.term()
                self.expect("rangle", "'>'")
                self.expect("colon", "':'")
                return Pair(first, second, self.binder() if self.peek().kind in _BINDERS else self.atom())
        raise _error(f"expected a term, found {tok.shown()}", self.text, tok.pos)


def parse_term(text: str) -> Term:
    parser = _Parser(text, 0, len(text))
    t = parser.term()
    parser.end("")
    return t


def parse_context(text: str) -> Context:
    entries: list[tuple[str, Term]] = []
    line_start = 0
    # only "\n" ends an entry, as only it ends a line for _error
    for line in text.split("\n"):
        # the entry is the part of the line before any comment, trimmed
        entry = line.partition("--")[0]
        pos = line_start + len(entry) - len(entry.lstrip(_BLANKS))
        end = line_start + len(entry.rstrip(_BLANKS))
        line_start += len(line) + 1
        if pos < end:
            parser = _Parser(text, pos, end)
            name = parser.expect("ident", "an entry name")
            parser.expect("colon", "':'")
            ty = parser.term()
            parser.end(" in context entry")
            entries.append((name.value, ty))
    return Context(tuple(entries))


def print_term(t: Term) -> str:
    """Deterministic text form; parse_term(print_term(t)) is alpha-equal to t."""
    return _p_term(t)


def _p_term(t: Term) -> str:
    match t:
        case Pi(x, a, b):
            return f"Pi {x} : {_p_domain(a)} . {_p_term(b)}"
        case Sigma(x, a, b):
            return f"Sig {x} : {_p_domain(a)} . {_p_term(b)}"
        case Lam(x, a, b):
            return f"fn {x} : {_p_domain(a)} . {_p_term(b)}"
        case Pair(m, n, ann):
            return f"< {_p_term(m)} , {_p_term(n)} > : {_p_annot(ann)}"
        case _:
            return _p_app(t)


def _p_domain(t: Term) -> str:
    if isinstance(t, (Pi, Sigma, Lam, Pair)):
        return f"({_p_term(t)})"
    return _p_app(t)


def _p_annot(t: Term) -> str:
    if isinstance(t, (Pi, Sigma, Lam)):
        return _p_term(t)
    return _p_element(t)


def _p_app(t: Term) -> str:
    if isinstance(t, App):
        head = _p_app(t.fn) if isinstance(t.fn, App) else _p_element(t.fn)
        return f"{head} {_p_element(t.arg)}"
    return _p_element(t)


def _p_element(t: Term) -> str:
    match t:
        case Var(x):
            return x
        case Prop():
            return "Prop"
        case Type(j):
            return f"Type{j}"
        case Proj1(m):
            return f"fst {_p_element(m)}"
        case Proj2(m):
            return f"snd {_p_element(m)}"
        case Pair(m, n, ann):
            # a binder-shaped annotation is parenthesized, so the pair stays one atom
            return f"< {_p_term(m)} , {_p_term(n)} > : {_p_element(ann)}"
        case Pi() | Sigma() | Lam() | App():
            return f"({_p_term(t)})"
    raise TypeError(f"not a term: {t!r}")
