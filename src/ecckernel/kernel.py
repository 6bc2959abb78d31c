"""Explicit derivation trees, an independent verifier, and the expansion
of syntax-directed derivations into full kernel derivations.

Two dialects share the judgment shape. `Derivation` is the declarative
kernel system: thirteen rules including explicit subsumption (Cum).
`AlgDerivation` is the syntax-directed restriction produced from
inference traces; its formation and elimination rules carry cumulativity
side conditions instead of subsumption nodes, and each conversion node
embeds a kernel derivation rho typing the conversion target.

`verify` re-checks every kernel node against its rule schema from
scratch: premise conclusions must instantiate the schema (compared up to
alpha), substitutions are recomputed, and universe arithmetic and recorded
cumulativity side conditions are re-decided semantically. Contexts need
no separate check: every rule other than Ax and C has a premise whose
context is the node's own or extends it, so every non-empty context is a
prefix of one that some C node concludes; a C node checks that its last
entry is typed and fresh, and its premise sits in the context before
that entry. It never looks at how a tree was produced, and it calls
nothing from inference.

`to_full` performs the rule-by-rule expansion: binder formation rules
lift both premises to the target universe, application and pairing lift
the argument sides to the expected types, and each conversion node
becomes a subsumption node reusing its embedded rho. The conclusion
judgment of every node is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cumulativity import subtype
from .inference import InferOutcome, Trace, infer_type, infer_universe
from .reduction import DEFAULT_FUEL, Fuel
from .terms import (
    PROP,
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


@dataclass(frozen=True)
class AlgDerivation:
    """Syntax-directed derivation node; Conv nodes always carry rho."""

    rule: str
    conclusion: Judgment
    premises: tuple["AlgDerivation", ...] = ()
    level: int | None = None
    rho: Derivation | None = None


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


# --- building kernel derivations -------------------------------------------


def universe_derivation(g: Context, u: Term, fuel: int | Fuel = DEFAULT_FUEL) -> Derivation:
    """Kernel derivation typing a universe in a valid context.

    Prop is typed at Type 0 by the context-formation chain itself; Type j
    sits at Type j+1 on top of it.
    """
    f = Fuel.coerce(fuel)
    match u:
        case Prop():
            return _validity(g, f)
        case Type(j):
            return Derivation("T", Judgment(g, u, Type(j + 1)), (_validity(g, f),), level=j)
    raise ValueError(f"not a universe: {u!r}")


def _validity(g: Context, f: Fuel) -> Derivation:
    # the judgment `g types Prop at Type 0` encodes validity of g
    if not g:
        return Derivation("Ax", Judgment(g, PROP, Type(0)))
    front, _, entry_ty = g.pop()
    return Derivation("C", Judgment(g, PROP, Type(0)), (_universe_typing(front, entry_ty, f),))


def _universe_typing(g: Context, t: Term, f: Fuel) -> Derivation:
    # kernel derivation of g typing t at the exact universe its principal
    # type converts to (Prop allowed)
    tr, _ = infer_universe(g, t, f)
    return to_full(_materialize(tr, f), f)


def type_typing(g: Context, t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> Derivation:
    """Kernel derivation of g typing t at some Type universe (level >= 0).

    A Prop-level principal type is lifted one cumulativity step.
    """
    f = Fuel.coerce(fuel)
    d = _universe_typing(g, t, f)
    if isinstance(d.conclusion.type, Type):
        return d
    lift = universe_derivation(g, Type(0), f)
    return Derivation(
        "Cum", Judgment(g, t, Type(0)), (d, lift), sub=PROP, sup=Type(0)
    )


def trace_to_derivation(outcome: InferOutcome | Trace, fuel: int | Fuel = DEFAULT_FUEL) -> AlgDerivation:
    """Materialize an inference trace into a syntax-directed derivation.

    Context-validity premises are synthesized for the leaf rules, and
    each conversion node gets its rho: a kernel derivation typing the
    conversion target.
    """
    tr = outcome.trace if isinstance(outcome, InferOutcome) else outcome
    return _materialize(tr, Fuel.coerce(fuel))


def _materialize(tr: Trace, f: Fuel) -> AlgDerivation:
    g = tr.judgment.ctx
    match tr.rule:
        case "Ax":
            return AlgDerivation("Ax", tr.judgment)
        case "C" | "T" | "var":
            if tr.rule == "C":
                return _alg_validity(g, f)
            return AlgDerivation(tr.rule, tr.judgment, (_alg_validity(g, f),), level=tr.level)
        case "Conv":
            target = tr.judgment.type
            if _is_universe(target):
                rho = universe_derivation(g, target, f)
            else:
                rho = type_typing(g, target, f)
            prems = tuple(_materialize(p, f) for p in tr.premises)
            return AlgDerivation("Conv", tr.judgment, prems, rho=rho)
        case _:
            prems = tuple(_materialize(p, f) for p in tr.premises)
            return AlgDerivation(tr.rule, tr.judgment, prems, level=tr.level)


def _alg_validity(g: Context, f: Fuel) -> AlgDerivation:
    if not g:
        return AlgDerivation("Ax", Judgment(g, PROP, Type(0)))
    front, _, entry_ty = g.pop()
    entry_tr, _ = infer_universe(front, entry_ty, f)
    return AlgDerivation("C", Judgment(g, PROP, Type(0)), (_materialize(entry_tr, f),))


def to_full(d: AlgDerivation, fuel: int | Fuel = DEFAULT_FUEL) -> Derivation:
    """Expand a syntax-directed derivation into a kernel derivation.

    The conclusion judgment of every node is preserved.
    """
    return _full(d, Fuel.coerce(fuel))


def _full(d: AlgDerivation, f: Fuel) -> Derivation:
    c = d.conclusion
    g = c.ctx
    match d.rule:
        case "Ax" | "C" | "T" | "var" | "Pi1" | "Lam" | "Proj1" | "Proj2":
            prems = tuple(_full(p, f) for p in d.premises)
            return Derivation(d.rule, c, prems, level=d.level)

        case "Pi2'" | "Sigma'":
            lvl = d.level
            target = Type(lvl)
            dom = _lift_to(_full(d.premises[0], f), target, f)
            body = _lift_to(_full(d.premises[1], f), target, f)
            rule = "Pi2" if d.rule == "Pi2'" else "Sigma"
            return Derivation(rule, c, (dom, body), level=lvl)

        case "App'":
            fn = _full(d.premises[0], f)
            arg = _full(d.premises[1], f)
            pi_ty = fn.conclusion.type
            dom_typing = _domain_typing(g, pi_ty, f)
            lifted_arg = Derivation(
                "Cum",
                Judgment(g, arg.conclusion.subject, pi_ty.domain),
                (arg, dom_typing),
                sub=arg.conclusion.type,
                sup=pi_ty.domain,
            )
            return Derivation("App", c, (fn, lifted_arg))

        case "Pair'":
            first = _full(d.premises[0], f)
            second = _full(d.premises[1], f)
            family = _full(d.premises[2], f)
            ann = c.type
            dom_typing = type_typing(g, ann.first, f)
            lifted_first = Derivation(
                "Cum",
                Judgment(g, first.conclusion.subject, ann.first),
                (first, dom_typing),
                sub=first.conclusion.type,
                sup=ann.first,
            )
            family_at_first = subst(ann.second, ann.var, first.conclusion.subject)
            fam_typing = type_typing(g, family_at_first, f)
            lifted_second = Derivation(
                "Cum",
                Judgment(g, second.conclusion.subject, family_at_first),
                (second, fam_typing),
                sub=second.conclusion.type,
                sup=family_at_first,
            )
            return Derivation("Pair", c, (lifted_first, lifted_second, family), level=d.level)

        case "Conv":
            inner = _full(d.premises[0], f)
            return Derivation(
                "Cum", c, (inner, d.rho), sub=inner.conclusion.type, sup=c.type
            )

    raise ValueError(f"unknown syntax-directed rule: {d.rule!r}")


def _lift_to(dp: Derivation, target: Type, f: Fuel) -> Derivation:
    g = dp.conclusion.ctx
    lift = universe_derivation(g, target, f)
    return Derivation(
        "Cum",
        Judgment(g, dp.conclusion.subject, target),
        (dp, lift),
        sub=dp.conclusion.type,
        sup=target,
    )


def _domain_typing(g: Context, pi_ty: Pi, f: Fuel) -> Derivation:
    # formation derivation of the Pi type; its first premise types the domain
    _, formation = principal_of(g, pi_ty, f)
    dom = formation.premises[0]
    if isinstance(dom.conclusion.type, Type):
        return dom
    lift = universe_derivation(g, Type(0), f)
    return Derivation(
        "Cum",
        Judgment(g, dom.conclusion.subject, Type(0)),
        (dom, lift),
        sub=dom.conclusion.type,
        sup=Type(0),
    )


def principal_of(g: Context, t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> tuple[Term, Derivation]:
    """Principal type together with a kernel derivation concluding it."""
    f = Fuel.coerce(fuel)
    outcome = infer_type(g, t, f)
    return outcome.principal, _full(_materialize(outcome.trace, f), f)
