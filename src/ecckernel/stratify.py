"""Stratification of normalizable terms and the well-foundedness measure.

A normalizable term is classified by the head of its normal form: Pi- or
Sigma-headed terms carry a nesting level (one more than the sum of the
component levels), everything else sits at the base level 0. The measure
is multiplicative: Prop maps to 2, Type j to 3 + j, binder-headed normal
forms to the product of their component measures, all other normal forms
to 1. One walk over the normal form, switching on `type(t)` and reading
Pi and Sigma parts through `terms.SHAPES`, gives the level and the
measure together; it computes the same values as the conversion-closed
layered definition since convertible terms share a normal form. The
measure is strictly monotone along the strict cumulativity order and
makes every strictly descending chain of normalizable terms finite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .reduction import DEFAULT_FUEL, Fuel, normalize
from .terms import SHAPES, Pi, Prop, Sigma, Term, Type


class StratKind(enum.Enum):
    BASE = "Base"
    PI = "Pi"
    SIGMA = "Sigma"


@dataclass(frozen=True)
class StratClass:
    kind: StratKind
    level: int  # 0 exactly for BASE, >= 1 otherwise
    measure: int  # always >= 1


_KINDS = {Pi: StratKind.PI, Sigma: StratKind.SIGMA}


def _strata(nf: Term) -> tuple[int, int]:
    # (level, measure) of a normal form
    cls = type(nf)
    if cls is Pi or cls is Sigma:
        p, q = SHAPES[cls]
        la, ma = _strata(getattr(nf, p))
        lb, mb = _strata(getattr(nf, q))
        return la + lb + 1, ma * mb
    if cls is Prop:
        return 0, 2
    return 0, (3 + nf.level if cls is Type else 1)


def classify(t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> StratClass:
    """Stratification class of a term that normalizes within fuel."""
    nf = normalize(t, fuel)
    return StratClass(_KINDS.get(type(nf), StratKind.BASE), *_strata(nf))


def measure(t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> int:
    """Well-foundedness measure of a term that normalizes within fuel."""
    return _strata(normalize(t, fuel))[1]
