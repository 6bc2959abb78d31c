"""Abstract syntax: terms, contexts, judgments.

Terms are immutable values. Binding is by name, with capture-avoiding
substitution; bound names are freshened deterministically (numeric
suffixes) so printing is reproducible.

Each constructor's subterm fields sit in one table, `SHAPES`.
`free_vars`, `subst` and alpha-equivalence switch on `type(t)`: variables
and binders have their own case, every other constructor one case that
reads the table, and each recurses directly, one interpreter frame per
level. A non-term has no entry: `free_vars` and `subst` reject it with
TypeError wherever it sits, and `subst` a replacement with a non-term
anywhere in it when the variable is free.

The atoms are interned for the life of the process: `Var`, `Type` and
`Prop` return one object per `str` name, per level and `PROP`, so the
tables grow with the distinct names and levels seen, and equal atoms
compare by identity. Copies and pickles call the constructor.

Operations keep what they do not change. `free_vars` is computed once
per term object and kept on it, outside the dataclass fields, so
equality, hashing and printing never see it. `subst` returns a subterm
in which the variable is not free as that same object: it tests the
variable and checks the replacement once, at the top, and its inner
`_subst` then reads each part's cached free variables and steps only
into the parts that hold the variable. Alpha-equivalence binds each
binder's variable in its two environments in place and puts back what
it shadowed on every exit, an early False included.

A context is a persistent snoc-list, built one entry at a time as the
derivation file's context rows and the kernel's premise contexts are:
each `Context` holds its `parent`, that entry's `name` and `type`, and its
`length`. `extend` costs O(1) and shares its parent, so every prefix of a
context is one object, and `Context()` is the one empty context. `==` is
by value, but it walks the two lists back only until they reach one object
(`matches`, which the kernel calls up to alpha), and the hash reads only
the length and the last entry: neither recurses, and a shared prefix costs
one `is` test. `lookup` gives the type of the first entry with a name.
Contexts are frozen; copies and pickles rebuild them with `Context.of`.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from operator import eq


class Term:
    """Base class for all term constructors."""

    # free_vars' per-object cache; an unannotated class attribute, so no
    # dataclass field
    _free_vars = None

    def __reduce__(self):
        # copy, deepcopy and pickle call the constructor: an atom comes back
        # interned, and no cache is copied or written
        return type(self), tuple(map(self.__getattribute__, self.__match_args__))


def _atom(cls: type, field: str, value, table: dict | None = None) -> Term:
    # a new atom, kept in table as the one for its value
    atom = object.__new__(cls)
    object.__setattr__(atom, field, value)
    return atom if table is None else table.setdefault(value, atom)


@dataclass(frozen=True, init=False)
class Var(Term):
    name: str

    def __new__(cls, name: str) -> "Var":
        if type(name) is not str:  # not interned: 1 and True would be one key, and a list none
            return _atom(cls, "name", name)
        return _VARS.get(name) or _atom(cls, "name", name, _VARS)


@dataclass(frozen=True, init=False)
class Prop(Term):
    """The impredicative universe of propositions."""

    def __new__(cls) -> "Prop":
        return PROP


@dataclass(frozen=True, init=False)
class Type(Term):
    """Predicative universe at a non-negative level."""

    level: int

    def __new__(cls, level: int) -> "Type":
        if type(level) is not int:
            raise TypeError(f"universe level must be an int, got {level!r}")
        if level < 0:
            raise ValueError("universe levels are non-negative")
        return _TYPES.get(level) or _atom(cls, "level", level, _TYPES)


_VARS: dict[str, Var] = {}
_TYPES: dict[int, Type] = {}
PROP = object.__new__(Prop)


@dataclass(frozen=True)
class Pi(Term):
    var: str
    domain: Term
    codomain: Term


@dataclass(frozen=True)
class Sigma(Term):
    var: str
    first: Term
    second: Term


@dataclass(frozen=True)
class Lam(Term):
    var: str
    annotation: Term
    body: Term


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Pair(Term):
    # annotation carries the full Sigma type so pair rules can read its
    # components syntactically
    first: Term
    second: Term
    annotation: Term


@dataclass(frozen=True)
class Proj1(Term):
    pair: Term


@dataclass(frozen=True)
class Proj2(Term):
    pair: Term


# Each constructor's immediate subterms, in field order. The binders Pi,
# Sigma and Lam also carry their `var`, bound in the second of their two
# parts; every other field is a subterm.
SHAPES: dict[type, tuple[str, ...]] = {
    Var: (), Prop: (), Type: (),
    Pi: ("domain", "codomain"), Sigma: ("first", "second"), Lam: ("annotation", "body"),
    App: ("fn", "arg"), Pair: ("first", "second", "annotation"), Proj1: ("pair",), Proj2: ("pair",),
}
BINDERS = frozenset((Pi, Sigma, Lam))
_NO_VARS: frozenset[str] = frozenset()  # shared by the closed terms with no part to share


def subterms(t: Term) -> tuple[Term, ...]:
    """The immediate subterms of t, in field order; TypeError for a non-term."""
    fields = SHAPES.get(type(t))
    if fields is None:
        raise TypeError(f"not a term: {t!r}")
    return tuple([getattr(t, field) for field in fields])


class Context:
    """Ordered assumptions; earlier entries are in scope for later ones.

    A non-empty context is `parent`, the context before its last entry,
    extended by that entry's `name` and `type`; `length` counts the entries.
    Iterating gives the (name, type) entries front to back.
    """

    __slots__ = ("parent", "name", "type", "length")

    def __new__(cls) -> "Context":
        return _EMPTY

    @classmethod
    def of(cls, *entries: tuple[str, Term]) -> "Context":
        g = _EMPTY
        for name, ty in entries:
            g = g.extend(name, ty)
        return g

    def extend(self, name: str, ty: Term) -> "Context":
        g = object.__new__(Context)
        _PARENT(g, self), _NAME(g, name), _TYPE(g, ty), _LENGTH(g, self.length + 1)
        return g

    def lookup(self, name: str, default=None) -> Term | None:
        """The type of the first entry with this name, or `default`."""
        found, g = default, self
        while g.length:
            if g.name == name:
                found = g.type
            g = g.parent
        return found

    def __iter__(self):
        entries, g = [], self
        while g.length:
            entries.append((g.name, g.type))
            g = g.parent
        return reversed(entries)

    def __len__(self) -> int:
        return self.length

    def matches(self, other: "Context", same) -> bool:
        """Whether the two have one length, and entries of equal names whose
        types `same` relates, walked from the last entry back until the two
        lists reach one object."""
        while self is not other:
            if self.length != other.length or self.name != other.name or not same(self.type, other.type):
                return False
            self, other = self.parent, other.parent
        return True

    def __eq__(self, other) -> bool:
        return self.matches(other, eq) if type(other) is Context else NotImplemented

    def __hash__(self) -> int:
        return hash((self.length, self.name, self.type))

    def __repr__(self) -> str:
        return f"Context.of{tuple(self)!r}"

    def __reduce__(self):
        # copies and pickles rebuild the list front to back, in no interpreter frame per entry
        return Context.of, tuple(self)

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__  # called without a value


# the slots' own setters, which the frozen __setattr__ leaves to the constructors
_PARENT, _NAME, _TYPE, _LENGTH = (getattr(Context, slot).__set__ for slot in Context.__slots__)
_EMPTY = object.__new__(Context)
_PARENT(_EMPTY, None), _NAME(_EMPTY, None), _TYPE(_EMPTY, None), _LENGTH(_EMPTY, 0)


@dataclass(frozen=True)
class Judgment:
    """A typing claim: ctx entails subject having the given type."""

    ctx: Context
    subject: Term
    type: Term


def free_vars(t: Term) -> frozenset[str]:
    fv = getattr(t, "_free_vars", None)
    if fv is not None:
        return fv
    cls = type(t)
    if cls is Var:
        fv = frozenset((t.name,))
    elif cls in BINDERS:
        p, q = SHAPES[cls]
        fv = free_vars(getattr(t, p)) | (free_vars(getattr(t, q)) - {t.var})
    else:
        fv = _NO_VARS
        for part in subterms(t):
            part_fv = free_vars(part)
            fv = fv | part_fv if fv else part_fv
    object.__setattr__(t, "_free_vars", fv)
    return fv


def fresh_name(stem: str, avoid: frozenset[str] | set[str]) -> str:
    """Deterministic fresh name: the stem with the least unused numeric suffix."""
    base = stem.rstrip("0123456789") or stem
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def subst(t: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution of replacement for the free variable.

    Returns t itself when the variable is not free in it.
    """
    if name not in free_vars(t):  # which also rejects a non-term
        return t
    # which rejects a non-term anywhere in the replacement, and leaves the
    # cache filled on every subterm of t for _subst to read
    return _subst(t, name, replacement, free_vars(replacement))


def _subst(t: Term, name: str, replacement: Term, avoid: frozenset[str]) -> Term:
    # name is free in t, and avoid is the replacement's free variables
    cls = type(t)
    if cls is Var:
        return replacement
    fields = SHAPES[cls]
    if cls in BINDERS:
        p, q = fields
        x, a, b = t.var, getattr(t, p), getattr(t, q)
        if name in a._free_vars:
            a = _subst(a, name, replacement, avoid)
        if x == name or name not in b._free_vars:
            # the binder shadows the substituted variable, or the body lacks it
            return cls(x, a, b)
        if x in avoid:
            renamed = fresh_name(x, b._free_vars | avoid | {name, x})
            b, x = subst(b, x, Var(renamed)), renamed
            free_vars(b)  # a new term: fill its cache too
        return cls(x, a, _subst(b, name, replacement, avoid))
    parts = []
    for field in fields:
        part = getattr(t, field)
        if name in part._free_vars:
            part = _subst(part, name, replacement, avoid)
        parts.append(part)
    return cls(*parts)


def alpha_eq(a: Term, b: Term) -> bool:
    """Equality up to renaming of bound variables."""
    # only at the top: inside _alpha the two environments may differ
    return a is b or _alpha(a, b, {}, {}, 0)


def _alpha(a: Term, b: Term, env_a: dict, env_b: dict, depth: int) -> bool:
    # bound variables are compared by binder depth, free ones by name; a
    # name mapped to None is free, so a binder restores what it shadowed
    cls = type(a)
    if cls is not type(b):
        return False
    if cls is Var:
        da, db = env_a.get(a.name), env_b.get(b.name)
        if da is None and db is None:
            return a.name == b.name
        return da == db
    fields = SHAPES.get(cls)
    if fields is None:  # not a term
        return False
    if cls in BINDERS:
        p, q = fields
        if not _alpha(getattr(a, p), getattr(b, p), env_a, env_b, depth):
            return False
        x, y = a.var, b.var
        shadowed = env_a.get(x), env_b.get(y)
        env_a[x] = env_b[y] = depth
        try:
            return _alpha(getattr(a, q), getattr(b, q), env_a, env_b, depth + 1)
        finally:
            env_a[x], env_b[y] = shadowed
    if not fields:  # a universe, one object per level
        return a is b
    for field in fields:
        if not _alpha(getattr(a, field), getattr(b, field), env_a, env_b, depth):
            return False
    return True
