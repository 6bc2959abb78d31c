"""Decision procedures for the cumulativity preorder.

One structural walk on weak-head normal forms decides the preorder, its
strict part and the least level relating two terms: conversion, universe
inclusion (Prop below every Type level), codomain covariance for Pi
(domains invariant under conversion), and covariance in both Sigma
components. A strict Pi sits one level above its codomain, a strict
Sigma one level above the higher of its components. Like `reduction.conv`,
which it hands off to at Pi domains and other heads, the walk normalizes
no whole term and binds the two variables of a binder pair at one depth
in place. It weak-head-reduces only a side whose head is an elimination
(an application or a projection), the only place a head redex can hide,
or a non-term, which `_whnf` rejects with TypeError. Alpha-equivalence,
which contracts nothing, is tested wherever a contraction or a hand-off
could follow: at every level but a pair of Pi or Sigma heads, and before
a hand-off where a head was reduced. `subtype_at_level` compares the
least level, an int, with its index.
"""

from __future__ import annotations

from .reduction import _ELIMINATIONS, DEFAULT_FUEL, Fuel, _conv, _convertible, _whnf
from .terms import SHAPES, Pi, Prop, Sigma, Term, Type, _alpha

_WHNF_HEADS = frozenset(SHAPES) - _ELIMINATIONS  # no head redex can hide under these


def universe_level(t: Term) -> int | None:
    """Level of a universe term, with Prop below Type 0; None otherwise."""
    cls = type(t)
    if cls is Prop:
        return -1
    return t.level if cls is Type else None


def subtype(a: Term, b: Term, fuel: int | Fuel = DEFAULT_FUEL) -> bool:
    """Decide the cumulativity preorder."""
    return _relate(a, b, {}, {}, 0, True, Fuel.coerce(fuel)) is not None


def strict_subtype(a: Term, b: Term, fuel: int | Fuel = DEFAULT_FUEL) -> bool:
    """Decide the strict part: subtype but not convertible."""
    related = _relate(a, b, {}, {}, 0, True, Fuel.coerce(fuel), True)
    return related is not None and related[1]


def min_subtype_level(a: Term, b: Term, fuel: int | Fuel = DEFAULT_FUEL) -> int | None:
    """Least level at which a is below b; None when unrelated."""
    related = _relate(a, b, {}, {}, 0, True, Fuel.coerce(fuel))
    return None if related is None else related[0]


def _relate(
    a: Term, b: Term, env_a: dict, env_b: dict, depth: int, same: bool, f: Fuel, strict_only: bool = False
) -> tuple[int, bool] | None:
    # None when unrelated, else (least level, strict). A related pair is
    # strict exactly when it is not convertible, and convertible pairs sit
    # at level 0. With strict_only the caller reads only the strict bit, so
    # a pair related by conversion alone may come back None: neutral heads
    # then skip a conv that may diverge. The other arguments are _conv's.
    if (same and a is b) or (type(a) not in (Pi, Sigma) and _alpha(a, b, env_a, env_b, depth)):
        return 0, False
    # f is a Fuel already: whnf would coerce it at every level
    ha = a if type(a) in _WHNF_HEADS else _whnf(a, f)
    hb = b if type(b) in _WHNF_HEADS else _whnf(b, f)
    la, lb = universe_level(ha), universe_level(hb)
    if la is not None and lb is not None:
        return (0, la < lb) if la <= lb else None
    cls = type(ha)
    if cls is not type(hb):  # a universe against any other head included
        return None
    if cls is Pi:
        first = (0, False) if _convertible(ha.domain, hb.domain, env_a, env_b, depth, same, f) else None
    elif cls is Sigma:
        first = _relate(ha.first, hb.first, env_a, env_b, depth, same, f)
        strict_only = False  # a strict Sigma may have one component related by conversion alone
    else:  # other heads are related by conversion alone; alpha failed above on an unreduced pair
        convertible = _conv if ha is a and hb is b else _convertible
        return (0, False) if not strict_only and convertible(ha, hb, env_a, env_b, depth, same, f, True) else None
    if first is None:
        return None
    q = SHAPES[cls][1]
    x, y = ha.var, hb.var
    shadowed = env_a.get(x), env_b.get(y)
    env_a[x] = env_b[y] = depth
    try:
        second = _relate(getattr(ha, q), getattr(hb, q), env_a, env_b, depth + 1, same and x == y, f, strict_only)
    finally:
        env_a[x], env_b[y] = shadowed
    if second is None or not (first[1] or second[1]):
        return second
    return 1 + max(first[0], second[0]), True


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
