"""Decision procedures for the cumulativity preorder.

One structural walk on weak-head normal forms decides the preorder, its
strict part and the least level relating two terms: conversion, universe
inclusion (Prop below every Type level), codomain covariance for Pi
(domains invariant under conversion), and covariance in both Sigma
components. A strict Pi sits one level above its codomain, a strict
Sigma one level above the higher of its components. The walk never
normalizes a whole term, so the strict part of the descending-chain demo
is decided on raw non-normalizing terms. Nor does the conversion it
falls back on at Pi domains and other heads: `reduction.conv` walks both
sides head first too. `subtype_at_level`, the level-indexed unfolding of
the relation, compares the least level with its index.
"""

from __future__ import annotations

from .reduction import DEFAULT_FUEL, Fuel, _whnf, conv
from .terms import Pi, Prop, Sigma, Term, Type, Var, alpha_eq, free_vars, fresh_name, subst


def universe_level(t: Term) -> int | None:
    """Level of a universe term, with Prop below Type 0; None otherwise."""
    cls = type(t)
    if cls is Prop:
        return -1
    return t.level if cls is Type else None


def _opened(x: str, b1: Term, y: str, b2: Term) -> tuple[Term, Term]:
    # rename two bound bodies apart to a common fresh variable
    if x == y:
        return b1, b2
    z = fresh_name(x, free_vars(b1) | free_vars(b2))
    return subst(b1, x, Var(z)), subst(b2, y, Var(z))


def subtype(a: Term, b: Term, fuel: int | Fuel = DEFAULT_FUEL) -> bool:
    """Decide the cumulativity preorder."""
    return _relate(a, b, Fuel.coerce(fuel)) is not None


def strict_subtype(a: Term, b: Term, fuel: int | Fuel = DEFAULT_FUEL) -> bool:
    """Decide the strict part: subtype but not convertible."""
    related = _relate(a, b, Fuel.coerce(fuel), strict_only=True)
    return related is not None and related[1]


def min_subtype_level(a: Term, b: Term, fuel: int | Fuel = DEFAULT_FUEL) -> int | None:
    """Least level at which a is below b; None when unrelated."""
    related = _relate(a, b, Fuel.coerce(fuel))
    return None if related is None else related[0]


def _relate(a: Term, b: Term, f: Fuel, strict_only: bool = False) -> tuple[int, bool] | None:
    # None when unrelated, else (least level, strict). A related pair is
    # strict exactly when it is not convertible, and convertible pairs sit
    # at level 0. With strict_only the caller reads only the strict bit, so
    # a pair related by conversion alone may come back None: neutral heads
    # then skip a conv that may diverge.
    if alpha_eq(a, b):
        return 0, False
    # f is already a Fuel: the public whnf would re-run Fuel.coerce at every
    # level of the recursion, a measurable share of a subtype call
    ha, hb = _whnf(a, f), _whnf(b, f)
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
        codomain = _relate(*_opened(ha.var, ha.codomain, hb.var, hb.codomain), f, strict_only)
        if codomain is None or not codomain[1]:
            return codomain
        return 1 + codomain[0], True
    if cls is Sigma:
        first = _relate(ha.first, hb.first, f)
        second = None if first is None else _relate(*_opened(ha.var, ha.second, hb.var, hb.second), f)
        if second is None or not (first[1] or second[1]):
            return second
        return 1 + max(first[0], second[0]), True
    if not strict_only and conv(ha, hb, f):
        return 0, False
    return None


def subtype_at_level(a: Term, b: Term, level: int, fuel: int | Fuel = DEFAULT_FUEL) -> bool:
    """Decide the level-indexed approximation of the preorder.

    Level 0 is conversion plus universe inclusion; each further level
    additionally unfolds one shared Pi head (convertible domains,
    codomains compared one level down) or one shared Sigma head (both
    components compared one level down). So a is below b at level i
    exactly when the least level relating them is at most i.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    least = min_subtype_level(a, b, fuel)
    return least is not None and least <= level
