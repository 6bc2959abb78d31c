"""Reduction, conversion and the cumulativity preorder: one-step,
weak-head and full normalization, and the one comparison walk.

The only contractions are beta and pair projection. Everything is
fuel-bounded: raw terms of this calculus can diverge (see
counterexamples.self_application), so exhaustion is reported, never a
silent loop. One fuel unit is spent per contracted redex. `whnf` and
`normalize` skip only contractions they prove must use up the fuel, and
spend that fuel at once, so the accounting is unchanged: `whnf` when a
beta reduct is its own redex again, `normalize` as its docstring says.

`whnf` and `normalize` return their input when no redex fires, and
otherwise keep every part that no contraction touched as the same object.
Both are loops that switch on `type(t)`, so a contraction costs a few
dictionary reads and one `subst` on top of its one fuel unit. `whnf`
walks down the spine of eliminations and notes whether a contraction
fired; `_whnf` is the same loop on a `Fuel` the caller already holds.
`normalize` runs one explicit stack of terms, takes a node apart and
rebuilds it through the shape table in `terms`, so it rejects a non-term
anywhere in its input; `whnf` rejects one where it reads: the head it
stops at.

`conv` and the decisions of the cumulativity preorder (`subtype`, its
strict part `strict_subtype`, and `min_subtype_level`) are one walk,
`_compare`, in three modes: conversion, the preorder, and the preorder
read only for its strict bit. It walks both sides head first, the
conversion check of Coquand ("An algorithm for testing conversion in
type theory", 1991): each pair of parts is brought to weak-head normal
form, unlike heads are unrelated, and the parts are compared in field
order, with the two variables of a binder bound at one depth in place,
so no level renames or copies a term. Every pair goes through one settle
step, and the modes differ in three places only: the shortcut (one
object on both sides, and in the preorder alpha-equivalence), the
universe rule (Prop or a lower Type below a higher Type, outside
conversion), and the preorder's heads (a Pi's domains convert, a Sigma's
parts and a Pi's codomains stay in the preorder, other heads convert).
It runs on one explicit work stack, so the fuel, not the interpreter
stack, bounds it. It rejects a non-term where it reads: through `_whnf`,
or through `free_vars` of one object on both sides under renamed
binders, in every mode alike.

The preorder's answer is a least level: a strict Pi sits one level above
its codomain, a strict Sigma one level above the higher of its
components, and `subtype_at_level` compares that level, an int, with its
index.
"""

from __future__ import annotations

from .terms import BINDERS, SHAPES, App, Lam, Pair, Pi, Proj1, Proj2, Prop, Sigma, Term, Type, Var
from .terms import _alpha, free_vars, subst, subterms

DEFAULT_FUEL = 10000


class FuelExhausted(Exception):
    """A reduction exceeded its step budget."""


class Fuel:
    """Mutable budget of permitted contractions.

    Public operations accept either an int (a fresh budget for that call)
    or a Fuel instance (shared across calls by the caller).
    """

    __slots__ = ("remaining",)

    def __init__(self, budget: int = DEFAULT_FUEL):
        if type(budget) is not int or budget < 1:
            raise ValueError("fuel budget must be a positive integer")
        self.remaining = budget

    @classmethod
    def coerce(cls, fuel: "int | Fuel") -> "Fuel":
        return fuel if isinstance(fuel, Fuel) else cls(fuel)

    def spend(self) -> None:
        if self.remaining == 0:
            raise FuelExhausted("reduction step budget exhausted")
        self.remaining -= 1


def _rebuild(t: Term, parts: tuple[Term, ...]) -> Term:
    # a binder keeps its variable; every other field is a part, in field order
    cls = type(t)
    return cls(t.var, *parts) if cls in BINDERS else cls(*parts)


def step(t: Term) -> Term | None:
    """Contract the leftmost-outermost redex; None when t is normal."""
    cls = type(t)
    if cls is App and type(t.fn) is Lam:
        return subst(t.fn.body, t.fn.var, t.arg)
    if (cls is Proj1 or cls is Proj2) and type(t.pair) is Pair:
        return t.pair.first if cls is Proj1 else t.pair.second
    parts = subterms(t)
    for i, part in enumerate(parts):
        reduced = step(part)
        if reduced is not None:
            return _rebuild(t, parts[:i] + (reduced,) + parts[i + 1 :])
    return None


def whnf(t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> Term:
    """Reduce head redexes until the head constructor is stable."""
    return _whnf(t, Fuel.coerce(fuel))


def _whnf(t: Term, f: Fuel) -> Term:
    start, fired = t, False
    spine: list[Term] = []  # enclosing eliminations, innermost last
    while True:
        cls = type(t)
        if cls is App:
            spine.append(t)
            t = t.fn
        elif cls is Proj1 or cls is Proj2:
            spine.append(t)
            t = t.pair
        elif cls is Lam and spine and type(spine[-1]) is App:
            f.spend()
            fired = True
            lam, arg = t, spine.pop().arg
            t = subst(lam.body, lam.var, arg)
            if type(t) is App and t.fn is lam and t.arg is arg:  # the redex again: a loop
                f.remaining = 0
                f.spend()
        elif cls is Pair and spine and type(spine[-1]) is not App:
            f.spend()
            fired = True
            t = t.first if type(spine.pop()) is Proj1 else t.second
        elif cls in SHAPES:
            break
        else:
            raise TypeError(f"not a term: {t!r}")
    if not fired:
        return start
    for frame in reversed(spine):
        t = App(t, frame.arg) if type(frame) is App else type(frame)(t)
    return t


class _Marker:  # an instruction on normalize's work stack: one type test tells it from a term
    __slots__ = ()


_BUILD = _Marker()  # rebuild the node below from its parts' results
_STABLE = _Marker()  # the term below is whnf-stable
_CLOSE = _Marker()  # the key below: its redex's reduct is now normal


def normalize(t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> Term:
    """Full normal form under leftmost-outermost reduction.

    Implemented as one explicit stack of terms: divergent inputs build
    reducts nested far beyond the interpreter recursion limit before the
    fuel runs out. Once a head is whnf-stable, reducing inside the parts
    cannot create a new head redex, so the contraction order still matches
    iterating `step`. A stable node with parts goes back on the stack under
    the private marker `_BUILD` and its parts, so when the marker comes up
    again the parts' normal forms are the last results. A stable
    elimination's spine part (`fn` or `pair`) has the same head and
    innermost elimination, so it is stable too: the marker `_STABLE` above
    it skips its `_whnf`, and a neutral spine is walked once, not once per
    elimination.

    An application whose `_whnf` fires into a term with parts stays open,
    keyed by the ids of its two parts, until `_CLOSE` says its reduct is
    normal. `subst` puts one replacement object at every occurrence, so
    self-application meets its open key again: that normal form needs
    itself first and every round contracts the redex, so the rest of the
    fuel is spent at once. A projection's key could never come back: its
    contraction takes its pair apart.
    """
    f = Fuel.coerce(fuel)
    done: list[Term] = []
    todo: list = [t]
    open_redexes: dict[tuple, Term] = {}  # the stored redex keeps its key's ids valid
    while todo:
        u = todo.pop()
        cls = type(u)
        if cls is _Marker:
            if u is _BUILD:
                u = todo.pop()
                fields = SHAPES[type(u)]
                vals = done[-len(fields) :]
                del done[-len(fields) :]
                for field, val in zip(fields, vals):
                    if getattr(u, field) is not val:
                        # a node whose parts all came back unchanged is kept as it is
                        u = _rebuild(u, vals)
                        break
                done.append(u)
                continue
            if u is _CLOSE:
                del open_redexes[todo.pop()]
                continue
            u = todo.pop()  # under _STABLE
            cls = type(u)
        elif cls is App or cls is Proj1 or cls is Proj2:  # the only possible head redexes
            v = _whnf(u, f)
            if cls is App and v is not u and SHAPES[type(v)]:  # an atomic reduct is normal at once
                key = (id(u.fn), id(u.arg))
                if key in open_redexes:  # raise as the endless rounds would
                    f.remaining = 0
                    f.spend()
                open_redexes[key] = u
                todo += (key, _CLOSE)
            u, cls = v, type(v)
        fields = SHAPES.get(cls)
        if fields is None:
            raise TypeError(f"not a term: {u!r}")
        if not fields:
            done.append(u)
            continue
        todo += (u, _BUILD)
        for field in reversed(fields):
            todo.append(getattr(u, field))
        if cls is App or cls is Proj1 or cls is Proj2:
            todo.append(_STABLE)
    return done[0]


def conv(a: Term, b: Term, fuel: int | Fuel = DEFAULT_FUEL) -> bool:
    """Decide convertibility, head first (see the module docstring).

    Alpha-equal terms short-circuit without any reduction (this keeps the
    relation decidable on self-comparisons of non-normalizing terms). The
    walk contracts only redexes that `normalize` on one side contracts too,
    so where both normal forms are reached within the fuel it answers as
    comparing them would, on no more fuel. It also answers on some pairs
    with no normal form: `f loop` against `g loop` is False.
    """
    return _compare(a, b, _CONV, Fuel.coerce(fuel)) is not None


def universe_level(t: Term) -> int | None:
    """Level of a universe term, with Prop below Type 0; None otherwise."""
    cls = type(t)
    if cls is Prop:
        return -1
    return t.level if cls is Type else None


def subtype(a: Term, b: Term, fuel: int | Fuel = DEFAULT_FUEL) -> bool:
    """Decide the cumulativity preorder."""
    return _compare(a, b, _CUMUL, Fuel.coerce(fuel)) is not None


def strict_subtype(a: Term, b: Term, fuel: int | Fuel = DEFAULT_FUEL) -> bool:
    """Decide the strict part: subtype but not convertible."""
    related = _compare(a, b, _STRICT, Fuel.coerce(fuel))
    return related is not None and related[1]


def min_subtype_level(a: Term, b: Term, fuel: int | Fuel = DEFAULT_FUEL) -> int | None:
    """Least level at which a is below b; None when unrelated."""
    related = _compare(a, b, _CUMUL, Fuel.coerce(fuel))
    return None if related is None else related[0]


def subtype_at_level(a: Term, b: Term, level: int, fuel: int | Fuel = DEFAULT_FUEL) -> bool:
    """Decide the level-indexed approximation of the preorder.

    Level 0 is conversion plus universe inclusion; each further level
    additionally unfolds one shared Pi head (convertible domains,
    codomains compared one level down) or one shared Sigma head (both
    components compared one level down). So a is below b at level i
    exactly when the least level relating them is at most i.
    """
    if type(level) is not int:
        raise TypeError(f"level must be an int, got {level!r}")
    if level < 0:
        raise ValueError("level must be non-negative")
    least = min_subtype_level(a, b, fuel)
    return least is not None and least <= level


_ELIMINATIONS = frozenset((App, Proj1, Proj2))  # the only constructors a head redex can hide under
_WHNF_HEADS = frozenset(SHAPES) - _ELIMINATIONS  # no head redex can hide under these
_CONV, _CUMUL, _STRICT = 0, 1, 2  # _compare's modes: conversion, the preorder, its strict bit alone
_SAME = (0, False)  # (least level, strict) of a convertible pair


def _compare(a: Term, b: Term, mode: int, f: Fuel) -> tuple[int, bool] | None:
    # None when unrelated, else (least level, strict); _STRICT answers None
    # at heads related by conversion alone, so it runs no conversion that
    # may diverge. `depth` binders are open, `same` holds while each bound
    # one name on both sides, and `stable` marks spine parts out of `_whnf`.
    # Work items: a pair (a, b, mode, x, y), whose x and y, for a binder
    # pair's second parts, are bound when it comes up; and a binder's frame,
    # six long, which restores what they shadowed and combines both answers.
    # `res` is the answer of the last pair settled.
    env_a, env_b = {}, {}  # binder depths by name, on each side; None marks a free name again
    if mode is _CONV and (a is b or _alpha(a, b, env_a, env_b, 0)):
        return _SAME
    todo: list[tuple] = []
    depth, same, stable, res = 0, True, False, _SAME
    while True:
        while True:  # settle the pair (a, b), descending into first parts in place
            if (a is b and (same or all(env_a.get(v) == env_b.get(v) for v in free_vars(a)))) or (
                mode is not _CONV and type(a) is not Pi and type(a) is not Sigma and _alpha(a, b, env_a, env_b, depth)
            ):  # the shortcut: the preorder also tests alpha first, but at a Pi or Sigma it descends
                res = _SAME
                break
            ha = a if stable or type(a) in _WHNF_HEADS else _whnf(a, f)
            hb = b if stable or type(b) in _WHNF_HEADS else _whnf(b, f)
            cls = type(ha)
            if cls is Prop or cls is Type:  # outside conversion, Prop below every Type level
                if type(hb) is cls and (cls is Prop or ha.level == hb.level):
                    res = _SAME
                elif mode is not _CONV and type(hb) is Type and (cls is Prop or ha.level < hb.level):
                    res = 0, True
                else:
                    return None
                break
            if cls is not type(hb):
                return None
            if mode is not _CONV and cls is not Pi:
                if cls is Sigma:  # a strict Sigma may have one component related by conversion alone
                    mode = _CUMUL
                elif mode is _STRICT:  # other heads are related by conversion alone, never strictly
                    return None
                elif (ha is not a or hb is not b) and ((same and ha is hb) or _alpha(ha, hb, env_a, env_b, depth)):
                    res = _SAME  # a side reduced, and the reducts pass the alpha test
                    break
                else:  # convert the two heads; alpha failed above if neither side reduced
                    a, b, mode, stable = ha, hb, _CONV, True
                    continue
            fields = SHAPES[cls]
            if cls in BINDERS:  # second parts later, in the mode, under their variables
                p, q = fields
                todo.append((getattr(ha, q), getattr(hb, q), mode, ha.var, hb.var))
                a, b, stable = getattr(ha, p), getattr(hb, p), False
                if mode is not _CONV and cls is Pi:  # domains convertible, tested for alpha first
                    mode = _CONV
                    if (same and a is b) or _alpha(a, b, env_a, env_b, depth):
                        res = _SAME
                        break
                continue
            if fields:  # first parts in place, the rest later; an elimination's spine part keeps its head
                todo += [(getattr(ha, k), getattr(hb, k), _CONV, None, None) for k in reversed(fields[1:])]
                a, b, stable = getattr(ha, fields[0]), getattr(hb, fields[0]), cls is not Pair
                continue
            da, db = env_a.get(ha.name), env_b.get(hb.name)  # a variable, the one head left
            if da != db or (da is None and ha.name != hb.name):  # unlike binders, or free names
                return None
            res = _SAME
            break
        while todo:
            item = todo.pop()
            if len(item) == 6:  # a binder's frame: put back what it shadowed, then combine
                x, y, shadowed_a, shadowed_b, same, first = item
                env_a[x], env_b[y] = shadowed_a, shadowed_b
                depth -= 1
                if first[1] or res[1]:
                    res = 1 + max(first[0], res[0]), True
                continue
            a, b, mode, x, y = item
            if x is not None:  # a binder pair's second parts: bind its variables at one depth
                todo.append((x, y, env_a.get(x), env_b.get(y), same, res))
                env_a[x] = env_b[y] = depth
                depth += 1
                same = same and x == y
            stable = False
            break
        else:
            return res
