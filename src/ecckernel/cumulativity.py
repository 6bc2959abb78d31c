"""Decision procedures for the cumulativity preorder.

The preorder, its strict part and the least level relating two terms are
the comparison walk of `reduction`, which decides conversion too, in its
cumulative modes: universe inclusion (Prop below every Type level),
codomain covariance for Pi (domains convertible), covariance in both
Sigma components, and conversion at every other pair of heads. A strict
Pi sits one level above its codomain, a strict Sigma one level above the
higher of its components. The walk weak-head-reduces only a side headed
by an elimination, where a head redex can hide, or by a non-term, which
`_whnf` rejects with TypeError, and it tests alpha-equivalence wherever a
contraction or a conversion could follow. `subtype_at_level` compares
the least level, an int, with its index.
"""

from __future__ import annotations

from .reduction import _CUMUL, _STRICT, DEFAULT_FUEL, Fuel, _compare
from .terms import Prop, Term, Type


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
