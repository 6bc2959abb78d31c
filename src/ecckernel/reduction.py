"""Reduction and conversion: one-step, weak-head, and full normalization.

The only contractions are beta and pair projection. Everything is
fuel-bounded: raw terms of this calculus can diverge (see
counterexamples.self_application), so exhaustion is reported, never a
silent loop. One fuel unit is spent per contracted redex.

`whnf` and `normalize` return their input when no redex fires, and
otherwise keep every part that no contraction touched as the same object.
"""

from __future__ import annotations

import operator

from .terms import (
    App,
    Lam,
    Pair,
    Pi,
    Proj1,
    Proj2,
    Sigma,
    Term,
    alpha_eq,
    subst,
)

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
        if budget < 1:
            raise ValueError("fuel budget must be a positive integer")
        self.remaining = budget

    @classmethod
    def coerce(cls, fuel: "int | Fuel") -> "Fuel":
        return fuel if isinstance(fuel, Fuel) else cls(fuel)

    def spend(self) -> None:
        if self.remaining == 0:
            raise FuelExhausted("reduction step budget exhausted")
        self.remaining -= 1


def _parts(t: Term) -> tuple[Term, ...]:
    match t:
        case Pi(_, a, b) | Sigma(_, a, b) | Lam(_, a, b):
            return (a, b)
        case App(f, a):
            return (f, a)
        case Pair(m, n, ann):
            return (m, n, ann)
        case Proj1(m) | Proj2(m):
            return (m,)
        case _:
            return ()


def _rebuild(t: Term, parts: tuple[Term, ...]) -> Term:
    # a binder keeps its variable; every other field is a part, in field order
    if isinstance(t, (Pi, Sigma, Lam)):
        return type(t)(t.var, *parts)
    return type(t)(*parts)


def step(t: Term) -> Term | None:
    """Contract the leftmost-outermost redex; None when t is normal."""
    match t:
        case App(Lam(x, _, body), arg):
            return subst(body, x, arg)
        case Proj1(Pair(first, _, _)):
            return first
        case Proj2(Pair(_, second, _)):
            return second
    parts = _parts(t)
    for i, part in enumerate(parts):
        reduced = step(part)
        if reduced is not None:
            return _rebuild(t, parts[:i] + (reduced,) + parts[i + 1 :])
    return None


def whnf(t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> Term:
    """Reduce head redexes until the head constructor is stable."""
    if not isinstance(t, Term):
        raise TypeError(f"not a term: {t!r}")
    return _whnf(t, Fuel.coerce(fuel))


def _whnf(t: Term, f: Fuel) -> Term:
    start, budget = t, f.remaining
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
                t = subst(body, x, spine.pop().arg)
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
    if f.remaining == budget:  # no contraction fired: each spends one unit
        return start
    for frame in reversed(spine):
        t = App(t, frame.arg) if isinstance(frame, App) else type(frame)(t)
    return t


def normalize(t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> Term:
    """Full normal form under leftmost-outermost reduction.

    Implemented as an explicit work stack: divergent inputs build reducts
    nested far beyond the interpreter recursion limit before the fuel runs
    out. Once a head is whnf-stable, reducing inside the parts cannot
    create a new head redex, so the contraction order still matches
    iterating `step`.
    """
    if not isinstance(t, Term):
        raise TypeError(f"not a term: {t!r}")
    f = Fuel.coerce(fuel)
    done: list[Term] = []
    todo: list[tuple[Term, tuple[Term, ...] | None]] = [(t, None)]  # parts once whnf-stable
    while todo:
        u, parts = todo.pop()
        if parts is None:
            if isinstance(u, (App, Proj1, Proj2)):  # the only possible head redexes
                u = _whnf(u, f)
            parts = _parts(u)
            if not parts:
                done.append(u)
                continue
            todo.append((u, parts))
            for part in reversed(parts):
                todo.append((part, None))
        else:
            vals = tuple(done[-len(parts) :])
            del done[-len(parts) :]
            # a node whose parts all came back unchanged is kept as it is
            done.append(u if all(map(operator.is_, vals, parts)) else _rebuild(u, vals))
    return done[0]


def conv(a: Term, b: Term, fuel: int | Fuel = DEFAULT_FUEL) -> bool:
    """Decide convertibility.

    Alpha-equal terms short-circuit without any reduction (this keeps the
    relation decidable on self-comparisons of non-normalizing terms);
    otherwise normal forms are compared up to alpha.
    """
    if alpha_eq(a, b):
        return True
    f = Fuel.coerce(fuel)
    return alpha_eq(normalize(a, f), normalize(b, f))
