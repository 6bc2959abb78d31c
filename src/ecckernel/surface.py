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
_NEW = tuple.__new__  # a _Tok without the keyword handling of its generated __new__


def is_name(text) -> bool:
    """Whether text lexes as one identifier that is no keyword, so it prints and parses back as itself."""
    m = _TOKEN.fullmatch(text) if type(text) is str else None
    return m is not None and m.lastgroup == "word" and text not in _KEYWORDS


def _scan(text: str, pos: int, end: int) -> list[_Tok]:
    # one pass over the matches; the first gap between two is an unexpected character
    toks: list[_Tok] = []
    for m in _TOKEN.finditer(text, pos, end):
        start, stop = m.span()
        if start != pos:
            break
        pos, kind = stop, m.lastgroup
        if kind == "word" or kind == "sym":
            value = m.group()
            kind = _SYMBOLS[value] if kind == "sym" else _KEYWORDS.get(value, "ident")
        elif kind is None:
            continue
        else:
            value = int(m.group(kind))
        toks.append(_NEW(_Tok, (kind, value, start)))
    if pos < end:
        raise _error(f"unexpected character {text[pos]!r}", text, pos)
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
    g, line_start = Context(), 0
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
            g = g.extend(name.value, ty)
    return g


def print_term(t: Term) -> str:
    """Deterministic text form; parse_term(print_term(t)) is alpha-equal to t."""
    return _p(t, _TERM)


# the positions a term is printed in: a whole term, a binder's domain, a
# pair's annotation, an application's function, and an atom
_TERM, _DOMAIN, _ANNOT, _FN, _ATOM = range(5)
_WORDS = {Pi: "Pi", Sigma: "Sig", Lam: "fn", Proj1: "fst", Proj2: "snd"}


def _p(t: Term, at: int) -> str:
    match t:
        case Var(x):
            return x
        case Prop():
            return "Prop"
        case Type(j):
            return f"Type{j}"
        case Proj1(m) | Proj2(m):
            return f"{_WORDS[type(t)]} {_p(m, _ATOM)}"
        case App(fn, arg):
            text = f"{_p(fn, _FN)} {_p(arg, _ATOM)}"
            return f"({text})" if at is _ANNOT or at is _ATOM else text
        case Pi(x, a, b) | Sigma(x, a, b) | Lam(x, a, b):
            text = f"{_WORDS[type(t)]} {x} : {_p(a, _DOMAIN)} . {_p(b, _TERM)}"
            return text if at is _TERM or at is _ANNOT else f"({text})"
        case Pair(m, n, ann):
            # in a domain the pair is parenthesized for readability; outside a whole
            # term or a domain its annotation prints as an atom, so the pair stays one
            whole = at is _TERM or at is _DOMAIN
            text = f"< {_p(m, _TERM)} , {_p(n, _TERM)} > : {_p(ann, _ANNOT if whole else _ATOM)}"
            return f"({text})" if at is _DOMAIN else text
    raise TypeError(f"not a term: {t!r}")
