"""Elaboration: from inference traces to full kernel derivations.

`AlgDerivation` is the syntax-directed restriction of the kernel system
produced from inference traces; its formation and elimination rules
carry cumulativity side conditions instead of subsumption nodes, and
each conversion node embeds a kernel derivation rho typing the
conversion target.

`to_full` performs the rule-by-rule expansion: binder formation rules
lift both premises to the target universe, application and pairing lift
the argument sides to the expected types, and each conversion node
becomes a subsumption node reusing its embedded rho. The conclusion
judgment of every node is preserved. Nothing here is trusted:
`kernel.verify` re-checks what it builds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .inference import InferOutcome, Trace, infer_type, infer_universe
from .kernel import Derivation
from .reduction import DEFAULT_FUEL, Fuel
from .terms import PROP, Context, Judgment, Pi, Prop, Term, Type, subst


@dataclass(frozen=True)
class AlgDerivation:
    """Syntax-directed derivation node; Conv nodes always carry rho."""

    rule: str
    conclusion: Judgment
    premises: tuple["AlgDerivation", ...] = ()
    level: int | None = None
    rho: Derivation | None = None


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
    return _full(_alg_validity(g, f), f)


def _typing(g: Context, t: Term, f: Fuel) -> Derivation:
    # g types t at the exact universe its principal type converts to (Prop allowed)
    tr, _ = infer_universe(g, t, f)
    return _full(_materialize(tr, f), f)


def type_typing(g: Context, t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> Derivation:
    """Kernel derivation of g typing t at some Type universe (level >= 0).

    A Prop-level principal type is lifted one cumulativity step.
    """
    f = Fuel.coerce(fuel)
    return _at_type(_typing(g, t, f), f)


def _at_type(d: Derivation, f: Fuel) -> Derivation:
    # lift a typing at Prop to Type 0; one at a Type universe stays
    if isinstance(d.conclusion.type, Type):
        return d
    return _cum(d, universe_derivation(d.conclusion.ctx, Type(0), f))


def _cum(d: Derivation, target_typing: Derivation) -> Derivation:
    # subsumption of d's type below the subject of target_typing
    c = d.conclusion
    target = target_typing.conclusion.subject
    return Derivation(
        "Cum", Judgment(c.ctx, c.subject, target), (d, target_typing), sub=c.type, sup=target
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
        case "Ax" | "C":
            return _alg_validity(g, f)
        case "T" | "var":
            return AlgDerivation(tr.rule, tr.judgment, (_alg_validity(g, f),), level=tr.level)
        case "Conv":
            rho = type_typing(g, tr.judgment.type, f)
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
            dom, body = (_lift_to(_full(p, f), d.level, f) for p in d.premises)
            rule = "Pi2" if d.rule == "Pi2'" else "Sigma"
            return Derivation(rule, c, (dom, body), level=d.level)

        case "App'":
            fn = _full(d.premises[0], f)
            arg = _full(d.premises[1], f)
            return Derivation("App", c, (fn, _cum(arg, _domain_typing(g, fn.conclusion.type, f))))

        case "Pair'":
            first = _full(d.premises[0], f)
            second = _full(d.premises[1], f)
            family = _full(d.premises[2], f)
            ann = c.type
            family_at_first = subst(ann.second, ann.var, first.conclusion.subject)
            lifted_first = _cum(first, type_typing(g, ann.first, f))
            lifted_second = _cum(second, type_typing(g, family_at_first, f))
            return Derivation("Pair", c, (lifted_first, lifted_second, family), level=d.level)

        case "Conv":
            return _cum(_full(d.premises[0], f), d.rho)

    raise ValueError(f"unknown syntax-directed rule: {d.rule!r}")


def _lift_to(d: Derivation, level: int, f: Fuel) -> Derivation:
    # the body premise sits in the extended context, so lift each premise in its own
    return _cum(d, universe_derivation(d.conclusion.ctx, Type(level), f))


def _domain_typing(g: Context, pi_ty: Pi, f: Fuel) -> Derivation:
    # the domain premise of the Pi's formation, as `_full` would expand it,
    # at a Type universe; the codomain premise is never expanded
    formation = infer_type(g, pi_ty, f).trace
    dom = _full(_materialize(formation.premises[0], f), f)
    if formation.rule == "Pi2'":
        dom = _lift_to(dom, formation.level, f)
    return _at_type(dom, f)


def principal_of(g: Context, t: Term, fuel: int | Fuel = DEFAULT_FUEL) -> tuple[Term, Derivation]:
    """Principal type together with a kernel derivation concluding it."""
    f = Fuel.coerce(fuel)
    outcome = infer_type(g, t, f)
    return outcome.principal, _full(_materialize(outcome.trace, f), f)
