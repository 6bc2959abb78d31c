"""Explicit kernel derivation trees and an independent verifier.

`Derivation` is the declarative kernel system: thirteen rules including
explicit subsumption (Cum). `verify` re-checks every node against its
rule schema from scratch: premise conclusions must instantiate the
schema (compared up to alpha), substitutions are recomputed, and
universe arithmetic and recorded cumulativity side conditions are
re-decided semantically. Contexts need no separate check: every rule
other than Ax and C has a premise whose context is the node's own or
extends it, so every non-empty context is a prefix of one that some C
node concludes; a C node checks that its last entry is typed and fresh,
and its premise sits in the context before that entry.

The verifier never looks at how a tree was produced: this module
depends only on `terms`, `reduction` and `cumulativity`, never on
inference or on the derivation builder in `elaborate`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cumulativity import subtype
from .reduction import DEFAULT_FUEL, Fuel
from .terms import (
    App,
    Context,
    Judgment,
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
    alpha_eq,
    subst,
)

KERNEL_RULES = frozenset(
    {"Ax", "C", "T", "var", "Pi1", "Pi2", "Sigma", "Lam", "App", "Pair", "Proj1", "Proj2", "Cum"}
)


@dataclass(frozen=True)
class Derivation:
    """Kernel derivation node; side data: universe index, Cum pair."""

    rule: str
    conclusion: Judgment
    premises: tuple["Derivation", ...] = ()
    level: int | None = None
    sub: Term | None = None
    sup: Term | None = None


class DerivationError(Exception):
    """First failing node (pre-order) and the reason it fails."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


def _is_universe(t: Term) -> bool:
    return isinstance(t, (Prop, Type))


def _contexts_eq(a: Context, b: Context) -> bool:
    if len(a) != len(b):
        return False
    return all(
        na == nb and alpha_eq(ta, tb) for (na, ta), (nb, tb) in zip(a.entries, b.entries)
    )


def verify(d: Derivation, fuel: int | Fuel = DEFAULT_FUEL) -> bool:
    """Accept iff every node is a correct instance of its rule schema."""
    f = Fuel.coerce(fuel)
    _verify(d, f, "root")
    return True


def _verify(d: Derivation, f: Fuel, path: str) -> None:
    _check_node(d, f, path)
    for i, p in enumerate(d.premises):
        _verify(p, f, f"{path}.{i}")


def _need(cond: bool, path: str, reason: str) -> None:
    if not cond:
        raise DerivationError(path, reason)


_LEVEL_RULES = frozenset({"T", "Pi2", "Sigma", "Pair"})


def _check_node(d: Derivation, f: Fuel, path: str) -> None:
    c = d.conclusion
    ps = tuple(p.conclusion for p in d.premises)
    _need(d.rule in KERNEL_RULES, path, f"unknown rule {d.rule!r}")
    if d.rule not in _LEVEL_RULES:
        _need(d.level is None, path, f"rule {d.rule} carries no universe index")
    if d.rule != "Cum":
        _need(d.sub is None and d.sup is None, path, f"rule {d.rule} carries no side pair")

    def arity(n: int) -> None:
        _need(len(ps) == n, path, f"rule {d.rule} expects {n} premises, got {len(ps)}")

    match d.rule:
        case "Ax":
            arity(0)
            _need(not c.ctx, path, "Ax requires the empty context")
            _need(isinstance(c.subject, Prop), path, "Ax concludes Prop")
            _need(c.type == Type(0), path, "Ax types Prop at Type 0")

        case "C":
            arity(1)
            _need(bool(c.ctx), path, "C extends a context")
            front, name, entry_ty = c.ctx.pop()
            _need(_contexts_eq(ps[0].ctx, front), path, "C premise context mismatch")
            _need(alpha_eq(ps[0].subject, entry_ty), path, "C premise must type the new entry")
            _need(_is_universe(ps[0].type), path, "C entry type must live in a universe")
            _need(name not in front.names(), path, "C entry name must be fresh")
            _need(isinstance(c.subject, Prop), path, "C concludes Prop")
            _need(c.type == Type(0), path, "C types Prop at Type 0")

        case "T":
            arity(1)
            _need(_contexts_eq(ps[0].ctx, c.ctx), path, "T premise context mismatch")
            _need(
                isinstance(ps[0].subject, Prop) and ps[0].type == Type(0),
                path,
                "T premise must be the context validity judgment",
            )
            _need(isinstance(c.subject, Type), path, "T concludes a Type universe")
            _need(d.level == c.subject.level, path, "T side index mismatch")
            _need(
                c.type == Type(c.subject.level + 1),
                path,
                "T must type Type j at Type j+1",
            )

        case "var":
            arity(1)
            _need(_contexts_eq(ps[0].ctx, c.ctx), path, "var premise context mismatch")
            _need(
                isinstance(ps[0].subject, Prop) and ps[0].type == Type(0),
                path,
                "var premise must be the context validity judgment",
            )
            _need(isinstance(c.subject, Var), path, "var concludes a variable")
            entry = c.ctx.lookup(c.subject.name)
            _need(entry is not None, path, "var not bound in the context")
            _need(alpha_eq(c.type, entry), path, "var type must match its context entry")

        case "Pi1":
            arity(2)
            self_ty = c.subject
            _need(isinstance(self_ty, Pi), path, "Pi1 concludes a Pi type")
            _need(isinstance(c.type, Prop), path, "Pi1 lands in Prop")
            _check_formation(d, f, path, Pi, expect_prop=True)

        case "Pi2":
            arity(2)
            _need(isinstance(c.subject, Pi), path, "Pi2 concludes a Pi type")
            _check_formation(d, f, path, Pi, expect_prop=False)

        case "Sigma":
            arity(2)
            _need(isinstance(c.subject, Sigma), path, "Sigma concludes a Sigma type")
            _check_formation(d, f, path, Sigma, expect_prop=False)

        case "Lam":
            arity(1)
            ext = _extension_of(ps[0].ctx, c.ctx)
            _need(ext is not None, path, "Lam premise must extend the context by the binder")
            y, dom = ext
            _need(isinstance(c.subject, Lam), path, "Lam concludes an abstraction")
            _need(
                alpha_eq(c.subject, Lam(y, dom, ps[0].subject)),
                path,
                "Lam subject must bind the premise subject",
            )
            _need(
                alpha_eq(c.type, Pi(y, dom, ps[0].type)),
                path,
                "Lam type must be the Pi over the premise type",
            )

        case "App":
            arity(2)
            _need(_contexts_eq(ps[0].ctx, c.ctx), path, "App premise context mismatch")
            _need(_contexts_eq(ps[1].ctx, c.ctx), path, "App premise context mismatch")
            fn_ty = ps[0].type
            _need(isinstance(fn_ty, Pi), path, "App function premise must have a Pi type")
            _need(
                alpha_eq(ps[1].type, fn_ty.domain),
                path,
                "App argument must be typed exactly at the domain",
            )
            _need(isinstance(c.subject, App), path, "App concludes an application")
            _need(
                alpha_eq(c.subject, App(ps[0].subject, ps[1].subject)),
                path,
                "App subject must apply the premise subjects",
            )
            _need(
                alpha_eq(c.type, subst(fn_ty.codomain, fn_ty.var, ps[1].subject)),
                path,
                "App type must be the instantiated codomain",
            )

        case "Pair":
            arity(3)
            _need(isinstance(c.subject, Pair), path, "Pair concludes a pair")
            ann = c.subject.annotation
            _need(isinstance(ann, Sigma), path, "Pair annotation must be a Sigma type")
            _need(alpha_eq(c.type, ann), path, "Pair type must be its annotation")
            _need(_contexts_eq(ps[0].ctx, c.ctx), path, "Pair premise context mismatch")
            _need(_contexts_eq(ps[1].ctx, c.ctx), path, "Pair premise context mismatch")
            _need(alpha_eq(ps[0].subject, c.subject.first), path, "Pair first premise mismatch")
            _need(alpha_eq(ps[1].subject, c.subject.second), path, "Pair second premise mismatch")
            _need(
                alpha_eq(ps[0].type, ann.first),
                path,
                "Pair first component must be typed at the annotation domain",
            )
            _need(
                alpha_eq(ps[1].type, subst(ann.second, ann.var, ps[0].subject)),
                path,
                "Pair second component must be typed at the instantiated family",
            )
            ext = _extension_of(ps[2].ctx, c.ctx)
            _need(ext is not None, path, "Pair family premise must extend the context")
            y, dom = ext
            _need(
                alpha_eq(Sigma(y, dom, ps[2].subject), ann),
                path,
                "Pair family premise must type the annotation family",
            )
            _need(
                isinstance(ps[2].type, Type) and ps[2].type.level >= 0,
                path,
                "Pair family must land in a Type universe",
            )
            _need(d.level == ps[2].type.level, path, "Pair side index mismatch")

        case "Proj1":
            arity(1)
            _need(_contexts_eq(ps[0].ctx, c.ctx), path, "Proj1 premise context mismatch")
            sig = ps[0].type
            _need(isinstance(sig, Sigma), path, "Proj1 premise must have a Sigma type")
            _need(isinstance(c.subject, Proj1), path, "Proj1 concludes a first projection")
            _need(alpha_eq(c.subject.pair, ps[0].subject), path, "Proj1 subject mismatch")
            _need(alpha_eq(c.type, sig.first), path, "Proj1 type must be the first component")

        case "Proj2":
            arity(1)
            _need(_contexts_eq(ps[0].ctx, c.ctx), path, "Proj2 premise context mismatch")
            sig = ps[0].type
            _need(isinstance(sig, Sigma), path, "Proj2 premise must have a Sigma type")
            _need(isinstance(c.subject, Proj2), path, "Proj2 concludes a second projection")
            _need(alpha_eq(c.subject.pair, ps[0].subject), path, "Proj2 subject mismatch")
            _need(
                alpha_eq(c.type, subst(sig.second, sig.var, Proj1(ps[0].subject))),
                path,
                "Proj2 type must be the family at the first projection",
            )

        case "Cum":
            arity(2)
            _need(_contexts_eq(ps[0].ctx, c.ctx), path, "Cum premise context mismatch")
            _need(_contexts_eq(ps[1].ctx, c.ctx), path, "Cum premise context mismatch")
            _need(
                isinstance(ps[1].type, Type) and ps[1].type.level >= 0,
                path,
                "Cum target must be typed at a Type universe",
            )
            _need(alpha_eq(c.subject, ps[0].subject), path, "Cum subject mismatch")
            _need(alpha_eq(c.type, ps[1].subject), path, "Cum must conclude at the target type")
            _need(d.sub is not None and d.sup is not None, path, "Cum side pair missing")
            _need(alpha_eq(d.sub, ps[0].type), path, "Cum recorded subtype mismatch")
            _need(alpha_eq(d.sup, ps[1].subject), path, "Cum recorded supertype mismatch")
            _need(
                subtype(ps[0].type, ps[1].subject, f),
                path,
                "Cum side condition fails: not below the target",
            )


def _check_formation(d: Derivation, f: Fuel, path: str, cons, expect_prop: bool) -> None:
    # shared schema for Pi1 / Pi2 / Sigma formation nodes
    c = d.conclusion
    ps = tuple(p.conclusion for p in d.premises)
    _need(_contexts_eq(ps[0].ctx, c.ctx), path, "formation domain premise context mismatch")
    ext = _extension_of(ps[1].ctx, c.ctx)
    _need(ext is not None, path, "formation body premise must extend the context")
    y, dom = ext
    _need(
        alpha_eq(dom, ps[0].subject),
        path,
        "formation body premise must extend by the domain",
    )
    _need(
        alpha_eq(c.subject, cons(y, dom, ps[1].subject)),
        path,
        "formation subject must bind the body premise subject",
    )
    if expect_prop:
        _need(_is_universe(ps[0].type), path, "formation domain must live in a universe")
        _need(isinstance(ps[1].type, Prop), path, "Pi1 body premise must land in Prop")
    else:
        lvl = d.level
        _need(
            isinstance(lvl, int) and lvl >= 0,
            path,
            "formation side index missing",
        )
        _need(ps[0].type == Type(lvl), path, "formation domain premise must land at the index")
        _need(ps[1].type == Type(lvl), path, "formation body premise must land at the index")
        _need(c.type == Type(lvl), path, "formation conclusion must land at the index")


def _extension_of(extended: Context, base: Context) -> tuple[str, Term] | None:
    if len(extended) != len(base) + 1:
        return None
    if not _contexts_eq(Context(extended.entries[:-1]), base):
        return None
    return extended.entries[-1]
