"""Abstract syntax: terms, contexts, judgments.

Terms are immutable values. Binding is by name, with capture-avoiding
substitution; bound names are freshened deterministically (numeric
suffixes) so printing is reproducible.

Operations keep what they do not change. `free_vars` is computed once
per term object and kept on it, outside the dataclass fields, so
equality, hashing and printing never see it. `subst` returns a subterm
in which the variable is not free as that same object.
"""

from __future__ import annotations

from dataclasses import dataclass


class Term:
    """Base class for all term constructors."""

    # free_vars' per-object cache; an unannotated class attribute, so no
    # dataclass field
    _free_vars = None


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Prop(Term):
    """The impredicative universe of propositions."""


@dataclass(frozen=True)
class Type(Term):
    """Predicative universe at a non-negative level."""

    level: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("universe levels are non-negative")


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


PROP = Prop()


@dataclass(frozen=True)
class Context:
    """Ordered assumptions; earlier entries are in scope for later ones."""

    entries: tuple[tuple[str, Term], ...] = ()

    @classmethod
    def of(cls, *entries: tuple[str, Term]) -> "Context":
        return cls(tuple(entries))

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def lookup(self, name: str) -> Term | None:
        for entry_name, entry_type in self.entries:
            if entry_name == name:
                return entry_type
        return None

    def extend(self, name: str, ty: Term) -> "Context":
        return Context(self.entries + ((name, ty),))

    def pop(self) -> tuple["Context", str, Term]:
        """Split off the last entry; context must be non-empty."""
        name, ty = self.entries[-1]
        return Context(self.entries[:-1]), name, ty

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __bool__(self):
        return bool(self.entries)


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
    match t:
        case Var(x):
            fv = frozenset((x,))
        case Prop() | Type():
            fv = frozenset()
        case Pi(x, a, b) | Sigma(x, a, b) | Lam(x, a, b):
            fv = free_vars(a) | (free_vars(b) - {x})
        case App(f, a):
            fv = free_vars(f) | free_vars(a)
        case Pair(m, n, ann):
            fv = free_vars(m) | free_vars(n) | free_vars(ann)
        case Proj1(m) | Proj2(m):
            fv = free_vars(m)
        case _:
            raise TypeError(f"not a term: {t!r}")
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
    if name not in free_vars(t):
        return t
    match t:
        case Var(_):
            return replacement
        case App(f, a):
            return App(subst(f, name, replacement), subst(a, name, replacement))
        case Pair(m, n, ann):
            return Pair(
                subst(m, name, replacement),
                subst(n, name, replacement),
                subst(ann, name, replacement),
            )
        case Proj1(m):
            return Proj1(subst(m, name, replacement))
        case Proj2(m):
            return Proj2(subst(m, name, replacement))
        case Pi(x, a, b) | Sigma(x, a, b) | Lam(x, a, b):
            a2 = subst(a, name, replacement)
            if x == name:
                # the binder shadows the substituted variable
                return type(t)(x, a2, b)
            if x in free_vars(replacement) and name in free_vars(b):
                renamed = fresh_name(x, free_vars(b) | free_vars(replacement) | {name, x})
                b, x = subst(b, x, Var(renamed)), renamed
            return type(t)(x, a2, subst(b, name, replacement))
    raise TypeError(f"not a term: {t!r}")


def alpha_eq(a: Term, b: Term) -> bool:
    """Equality up to renaming of bound variables."""
    # only at the top: inside _alpha the two environments may differ
    return a is b or _alpha(a, b, {}, {}, 0)


def _alpha(a: Term, b: Term, env_a: dict, env_b: dict, depth: int) -> bool:
    # bound variables are compared by binder depth, free ones by name
    match a, b:
        case (Var(x), Var(y)):
            da, db = env_a.get(x), env_b.get(y)
            if da is None and db is None:
                return x == y
            return da == db
        case (Prop(), Prop()):
            return True
        case (Type(j), Type(k)):
            return j == k
        case (
            (Pi(x, a1, b1), Pi(y, a2, b2))
            | (Sigma(x, a1, b1), Sigma(y, a2, b2))
            | (Lam(x, a1, b1), Lam(y, a2, b2))
        ):
            if not _alpha(a1, a2, env_a, env_b, depth):
                return False
            env_a = dict(env_a)
            env_a[x] = depth
            env_b = dict(env_b)
            env_b[y] = depth
            return _alpha(b1, b2, env_a, env_b, depth + 1)
        case (App(f1, x1), App(f2, x2)):
            return _alpha(f1, f2, env_a, env_b, depth) and _alpha(x1, x2, env_a, env_b, depth)
        case (Pair(m1, n1, t1), Pair(m2, n2, t2)):
            return (
                _alpha(m1, m2, env_a, env_b, depth)
                and _alpha(n1, n2, env_a, env_b, depth)
                and _alpha(t1, t2, env_a, env_b, depth)
            )
        case (Proj1(m1), Proj1(m2)) | (Proj2(m1), Proj2(m2)):
            return _alpha(m1, m2, env_a, env_b, depth)
    return False
