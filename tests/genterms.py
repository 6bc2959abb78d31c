"""Seeded random term generators shared by the test modules.

Everything is built from a `random.Random` passed in by the caller, so
test runs are reproducible. Generated pairs come with their relation
guaranteed by construction (bumps only touch covariant positions,
expansions only insert redexes that contract away), independently of the
decision procedures under test.

`at_level` is the oracle for `subtype_at_level`: the literal
level-indexed unfolding, recursing on the level, that the structural
walk's least level answers to. It converts, reduces and renames with the
oracles below, never with the code under test.

`oracle_free_vars`, `oracle_subst`, `oracle_whnf` and `oracle_normalize`
are the term operations as they were before they learned to keep
unchanged subterms: every call walks and rebuilds the whole term, and
`free_vars` is computed afresh each time. The sharing versions must give
equal results and spend the same fuel. `oracle_alpha_eq` compares
de Bruijn forms, with no environment to keep, and `oracle_conv` is
conversion spelled out from those oracles: both normal forms compared.
`oracle_lazy_conv` is conversion head first, from `oracle_whnf` and de
Bruijn forms; it answers wherever `oracle_conv` does, the same, and on
some pairs whose normal forms do not exist. `oracle_relate` is the
cumulativity walk as it was before it bound names in place: every level
runs a whole-term alpha test and renames both bound bodies apart, and it
reduces with `oracle_whnf`; its conversions are the program's `conv`.
The walk under test must answer as it does, on no more fuel. The
oracles spell out each constructor's parts with their own `match`
(`oracle_parts`, `oracle_rebuild`), so the shape table in `terms` is
checked against a separate implementation.
"""

from __future__ import annotations

import random

from ecckernel import (
    PROP,
    App,
    Fuel,
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
    conv,
    fresh_name,
    universe_level,
)
from ecckernel.reduction import DEFAULT_FUEL


def rand_universe(rng: random.Random, max_level: int = 3) -> Term:
    if rng.random() < 0.4:
        return PROP
    return Type(rng.randrange(max_level + 1))


def normal_type(rng: random.Random, depth: int = 3, var_pool: tuple[str, ...] = ()) -> Term:
    """Random normal type built from universes, Pi, Sigma, and free vars."""
    if depth == 0 or rng.random() < 0.3:
        if var_pool and rng.random() < 0.3:
            return Var(rng.choice(var_pool))
        return rand_universe(rng)
    binder = rng.choice(("a", "b", "c"))
    left = normal_type(rng, depth - 1, var_pool)
    right = normal_type(rng, depth - 1, var_pool)
    if rng.random() < 0.5:
        return Pi(binder, left, right)
    return Sigma(binder, left, right)


def bump(rng: random.Random, t: Term) -> tuple[Term, bool]:
    """Raise universes at covariant positions; returns (raised, any strict).

    Pi domains are left untouched (they must stay convertible), so the
    result is above the input in the cumulativity preorder by
    construction.
    """
    match t:
        case Prop():
            if rng.random() < 0.5:
                return Type(rng.randrange(3)), True
            return t, False
        case Type(j):
            if rng.random() < 0.5:
                return Type(j + 1 + rng.randrange(2)), True
            return t, False
        case Pi(x, a, b):
            b2, strict = bump(rng, b)
            return Pi(x, a, b2), strict
        case Sigma(x, a, b):
            a2, s1 = bump(rng, a)
            b2, s2 = bump(rng, b)
            return Sigma(x, a2, b2), s1 or s2
        case _:
            return t, False


def strict_above(rng: random.Random, t: Term, tries: int = 50) -> Term | None:
    """A term strictly above t, or None when t has no raisable position."""
    for _ in range(tries):
        raised, strict = bump(rng, t)
        if strict:
            return raised
    return None


def expand(rng: random.Random, t: Term, prob: float = 0.25) -> Term:
    """Insert conversion-preserving redexes; the result normalizes to t.

    Every inserted binder is used exactly once, so expansions of a
    normalizing term stay normalizing.
    """

    def wrap(u: Term) -> Term:
        if rng.random() < 0.5:
            v = f"w{rng.randrange(100)}"
            return App(Lam(v, rand_universe(rng), Var(v)), u)
        ann = Sigma("z", rand_universe(rng), rand_universe(rng))
        if rng.random() < 0.5:
            return Proj1(Pair(u, rand_universe(rng), ann))
        return Proj2(Pair(rand_universe(rng), u, ann))

    def go(u: Term) -> Term:
        match u:
            case Pi(x, a, b):
                u = Pi(x, go(a), go(b))
            case Sigma(x, a, b):
                u = Sigma(x, go(a), go(b))
            case Lam(x, a, b):
                u = Lam(x, go(a), go(b))
            case App(f, a):
                u = App(go(f), go(a))
            case Pair(m, n, ann):
                u = Pair(go(m), go(n), go(ann))
            case Proj1(m):
                u = Proj1(go(m))
            case Proj2(m):
                u = Proj2(go(m))
        return wrap(u) if rng.random() < prob else u

    return go(t)


def descend_moves(t: Term):
    """Structural strict-descent successors of a normal type."""
    match t:
        case Type(0):
            yield PROP
        case Type(j):
            yield Type(j - 1)
        case Pi(x, a, b):
            for b2 in descend_moves(b):
                yield Pi(x, a, b2)
        case Sigma(x, a, b):
            for a2 in descend_moves(a):
                yield Sigma(x, a2, b)
            for b2 in descend_moves(b):
                yield Sigma(x, a, b2)


def alpha_rename(t: Term, suffix: str) -> Term:
    """Systematically rename every binder; alpha-equal to the input."""
    match t:
        case Pi(x, a, b):
            fresh = x + suffix
            return Pi(fresh, alpha_rename(a, suffix), alpha_rename(_rename_free(b, x, fresh), suffix))
        case Sigma(x, a, b):
            fresh = x + suffix
            return Sigma(fresh, alpha_rename(a, suffix), alpha_rename(_rename_free(b, x, fresh), suffix))
        case Lam(x, a, b):
            fresh = x + suffix
            return Lam(fresh, alpha_rename(a, suffix), alpha_rename(_rename_free(b, x, fresh), suffix))
        case App(f, a):
            return App(alpha_rename(f, suffix), alpha_rename(a, suffix))
        case Pair(m, n, ann):
            return Pair(alpha_rename(m, suffix), alpha_rename(n, suffix), alpha_rename(ann, suffix))
        case Proj1(m):
            return Proj1(alpha_rename(m, suffix))
        case Proj2(m):
            return Proj2(alpha_rename(m, suffix))
        case _:
            return t


def _rename_free(t: Term, old: str, new: str) -> Term:
    from ecckernel import subst

    return subst(t, old, Var(new))


def _head_depth(t: Term) -> int:
    match t:
        case Pi(_, a, b) | Sigma(_, a, b):
            return 1 + max(_head_depth(a), _head_depth(b))
        case _:
            return 0


def at_level(a: Term, b: Term, i: int, fuel: int) -> bool:
    """Oracle: the literal level-indexed unfolding of the preorder, level i."""
    return _at_level(a, b, i, Fuel(fuel))


def _at_level(a: Term, b: Term, i: int, f: Fuel) -> bool:
    if oracle_conv(a, b, f):
        return True
    ha, hb = oracle_whnf(a, f), oracle_whnf(b, f)
    la, lb = universe_level(ha), universe_level(hb)
    if la is not None and lb is not None and la <= lb:
        return True
    if i == 0:
        return False
    match ha, hb:
        case (Pi(x, a1, b1), Pi(y, a2, b2)):
            if not oracle_conv(a1, a2, f):
                return False
            c1, c2 = _oracle_opened(x, b1, y, b2)
            return _at_level(c1, c2, i - 1, f)
        case (Sigma(x, a1, b1), Sigma(y, a2, b2)):
            if not _at_level(a1, a2, i - 1, f):
                return False
            c1, c2 = _oracle_opened(x, b1, y, b2)
            return _at_level(c1, c2, i - 1, f)
    return False


def _oracle_opened(x: str, b1: Term, y: str, b2: Term) -> tuple[Term, Term]:
    # two bound bodies renamed apart to one common fresh variable
    if x == y:
        return b1, b2
    z = fresh_name(x, oracle_free_vars(b1) | oracle_free_vars(b2))
    return oracle_subst(b1, x, Var(z)), oracle_subst(b2, y, Var(z))


def oracle_relate(a: Term, b: Term, f: Fuel, strict_only: bool = False) -> tuple[int, bool] | None:
    """Oracle: None when unrelated, else (least level, strict), by renaming."""
    if oracle_alpha_eq(a, b):
        return 0, False
    ha, hb = _oracle_whnf(a, f), _oracle_whnf(b, f)
    la, lb = universe_level(ha), universe_level(hb)
    if la is not None or lb is not None:
        if la is None or lb is None or la > lb:
            return None
        return 0, la < lb
    cls = type(ha)
    if cls is not type(hb):
        return None
    if cls is Pi:
        if not conv(ha.domain, hb.domain, f):
            return None
        codomain = oracle_relate(*_oracle_opened(ha.var, ha.codomain, hb.var, hb.codomain), f, strict_only)
        if codomain is None or not codomain[1]:
            return codomain
        return 1 + codomain[0], True
    if cls is Sigma:
        first = oracle_relate(ha.first, hb.first, f)
        second = None if first is None else oracle_relate(*_oracle_opened(ha.var, ha.second, hb.var, hb.second), f)
        if second is None or not (first[1] or second[1]):
            return second
        return 1 + max(first[0], second[0]), True
    if not strict_only and conv(ha, hb, f):
        return 0, False
    return None


def oracle_free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(x):
            return frozenset((x,))
        case Prop() | Type():
            return frozenset()
        case Pi(x, a, b) | Sigma(x, a, b) | Lam(x, a, b):
            return oracle_free_vars(a) | (oracle_free_vars(b) - {x})
        case App(f, a):
            return oracle_free_vars(f) | oracle_free_vars(a)
        case Pair(m, n, ann):
            return oracle_free_vars(m) | oracle_free_vars(n) | oracle_free_vars(ann)
        case Proj1(m) | Proj2(m):
            return oracle_free_vars(m)
    raise TypeError(f"not a term: {t!r}")


def oracle_subst(t: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution of replacement for the free variable."""
    match t:
        case Var(x):
            return replacement if x == name else t
        case Prop() | Type():
            return t
        case App(f, a):
            return App(oracle_subst(f, name, replacement), oracle_subst(a, name, replacement))
        case Pair(m, n, ann):
            return Pair(
                oracle_subst(m, name, replacement),
                oracle_subst(n, name, replacement),
                oracle_subst(ann, name, replacement),
            )
        case Proj1(m):
            return Proj1(oracle_subst(m, name, replacement))
        case Proj2(m):
            return Proj2(oracle_subst(m, name, replacement))
        case Pi(x, a, b):
            x2, b2 = _oracle_subst_under(x, b, name, replacement)
            return Pi(x2, oracle_subst(a, name, replacement), b2)
        case Sigma(x, a, b):
            x2, b2 = _oracle_subst_under(x, b, name, replacement)
            return Sigma(x2, oracle_subst(a, name, replacement), b2)
        case Lam(x, a, b):
            x2, b2 = _oracle_subst_under(x, b, name, replacement)
            return Lam(x2, oracle_subst(a, name, replacement), b2)
    raise TypeError(f"not a term: {t!r}")


def _oracle_subst_under(binder: str, body: Term, name: str, replacement: Term):
    if binder == name:
        # the binder shadows the substituted variable
        return binder, body
    if binder in oracle_free_vars(replacement) and name in oracle_free_vars(body):
        avoid = oracle_free_vars(body) | oracle_free_vars(replacement) | {name, binder}
        renamed = fresh_name(binder, avoid)
        body = oracle_subst(body, binder, Var(renamed))
        binder = renamed
    return binder, oracle_subst(body, name, replacement)


def oracle_whnf(t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> Term:
    """Reduce head redexes until the head constructor is stable."""
    return _oracle_whnf(t, Fuel.coerce(fuel))


def _oracle_whnf(t: Term, f: Fuel) -> Term:
    spine: list[Term] = []  # enclosing eliminations, innermost last
    while True:
        match t:
            case App(fn, _):
                spine.append(t)
                t = fn
            case Proj1(m) | Proj2(m):
                spine.append(t)
                t = m
            case Lam(x, _, body) if spine and isinstance(spine[-1], App):
                f.spend()
                t = oracle_subst(body, x, spine.pop().arg)
            case Pair(first, _, _) if spine and isinstance(spine[-1], Proj1):
                f.spend()
                spine.pop()
                t = first
            case Pair(_, second, _) if spine and isinstance(spine[-1], Proj2):
                f.spend()
                spine.pop()
                t = second
            case _:
                break
    for frame in reversed(spine):
        t = App(t, frame.arg) if isinstance(frame, App) else type(frame)(t)
    return t


def oracle_parts(t: Term) -> tuple[Term, ...]:
    """The immediate subterms of t, in field order."""
    match t:
        case Var(_) | Prop() | Type():
            return ()
        case Pi(_, a, b) | Sigma(_, a, b) | Lam(_, a, b) | App(a, b):
            return (a, b)
        case Pair(m, n, ann):
            return (m, n, ann)
        case Proj1(m) | Proj2(m):
            return (m,)
    raise TypeError(f"not a term: {t!r}")


def oracle_rebuild(t: Term, parts: tuple[Term, ...]) -> Term:
    """t with its immediate subterms replaced by parts."""
    match t:
        case Pi(x, _, _):
            return Pi(x, *parts)
        case Sigma(x, _, _):
            return Sigma(x, *parts)
        case Lam(x, _, _):
            return Lam(x, *parts)
        case App(_, _):
            return App(*parts)
        case Pair(_, _, _):
            return Pair(*parts)
        case Proj1(_):
            return Proj1(*parts)
        case Proj2(_):
            return Proj2(*parts)
    raise TypeError(f"no parts to replace: {t!r}")


def oracle_normalize(t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> Term:
    """Full normal form under leftmost-outermost reduction."""
    f = Fuel.coerce(fuel)
    done: list[Term] = []
    todo: list[tuple[bool, Term]] = [(False, t)]
    while todo:
        built, u = todo.pop()
        if not built:
            u = _oracle_whnf(u, f)
            todo.append((True, u))
            for part in reversed(oracle_parts(u)):
                todo.append((False, part))
        else:
            parts = oracle_parts(u)
            if parts:
                vals = tuple(done[len(done) - len(parts) :])
                del done[len(done) - len(parts) :]
                done.append(oracle_rebuild(u, vals))
            else:
                done.append(u)
    return done[0]


def de_bruijn(t: Term, bound: tuple[str, ...] = ()) -> tuple:
    """t as nested tuples: binder names dropped, each bound variable its de
    Bruijn index (0 for the innermost binder), each free one its name."""
    match t:
        case Var(x):
            return ("bound", bound.index(x)) if x in bound else ("free", x)
        case Prop():
            return ("Prop",)
        case Type(j):
            return ("Type", j)
        case Pi(x, a, b) | Sigma(x, a, b) | Lam(x, a, b):
            return (type(t).__name__, de_bruijn(a, bound), de_bruijn(b, (x, *bound)))
        case App() | Pair() | Proj1() | Proj2():
            return (type(t).__name__, *(de_bruijn(part, bound) for part in oracle_parts(t)))
    raise TypeError(f"not a term: {t!r}")


def oracle_alpha_eq(a: Term, b: Term) -> bool:
    """Equality up to renaming of bound variables."""
    return de_bruijn(a) == de_bruijn(b)


def oracle_conv(a: Term, b: Term, fuel: int | Fuel = DEFAULT_FUEL) -> bool:
    """The alpha shortcut, then both normal forms on one budget."""
    if oracle_alpha_eq(a, b):
        return True
    f = Fuel.coerce(fuel)
    return oracle_alpha_eq(oracle_normalize(a, f), oracle_normalize(b, f))


def oracle_lazy_conv(a: Term, b: Term, fuel: int | Fuel = DEFAULT_FUEL) -> bool:
    """Conversion head first: at every level the alpha shortcut, then both
    weak-head normal forms, unlike heads False, and the parts in field order."""
    return _oracle_lazy(a, b, (), (), Fuel.coerce(fuel))


def _oracle_lazy(a: Term, b: Term, bound_a: tuple[str, ...], bound_b: tuple[str, ...], f: Fuel) -> bool:
    # bound_a and bound_b name the binders entered on each side, innermost first
    if de_bruijn(a, bound_a) == de_bruijn(b, bound_b):
        return True
    a, b = _oracle_whnf(a, f), _oracle_whnf(b, f)
    if type(a) is not type(b):
        return False
    match a, b:
        case (Pi(x, a1, a2), Pi(y, b1, b2)) | (Sigma(x, a1, a2), Sigma(y, b1, b2)) | (Lam(x, a1, a2), Lam(y, b1, b2)):
            inside = (x, *bound_a), (y, *bound_b)
            return _oracle_lazy(a1, b1, bound_a, bound_b, f) and _oracle_lazy(a2, b2, *inside, f)
    parts = oracle_parts(a)
    # a variable or a universe is unchanged by whnf, so the shortcut decided it
    return bool(parts) and all(_oracle_lazy(p, q, bound_a, bound_b, f) for p, q in zip(parts, oracle_parts(b)))
